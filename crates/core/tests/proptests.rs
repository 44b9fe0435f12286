//! Property-based tests for the HARS core algorithms.

use heartbeats::PerfTarget;
use proptest::prelude::*;

use hars_core::assign::{assign_threads_n, ClusterCapacity};
use hars_core::power_est::LinearCoeff;
use hars_core::search::{
    ExhaustiveSweep, SearchConstraints, SearchContext, SearchParams, SearchStrategy,
};
use hars_core::{PerfEstimator, PowerEstimator, StateSpace, SystemState, ThreadAssignment};
use hmp_sim::{BoardSpec, ClusterId, FreqKhz, FreqLadder};

const B: ClusterId = ClusterId::BIG;
const L: ClusterId = ClusterId::LITTLE;

/// Table 3.1 on `cb` big and `cl` little cores at ratio `r = S_B/S_L`.
fn assign(threads: usize, cb: usize, cl: usize, r: f64) -> ThreadAssignment {
    let cluster = |cores, speed| ClusterCapacity { cores, speed };
    assign_threads_n(threads, &[cluster(cl, 1.0), cluster(cb, r)])
}

/// The two-cluster state `(C_B, C_L, f_B, f_L)`.
fn st(cb: usize, cl: usize, fb: FreqKhz, fl: FreqKhz) -> SystemState {
    SystemState::new(&[(cl, fl), (cb, fb)])
}

fn test_power() -> PowerEstimator {
    let little_ladder = FreqLadder::from_mhz_range(800, 1_300, 100);
    let big_ladder = FreqLadder::from_mhz_range(800, 1_600, 100);
    let little = (0..little_ladder.len())
        .map(|i| LinearCoeff {
            alpha: 0.10 + 0.015 * i as f64,
            beta: 0.10,
        })
        .collect();
    let big = (0..big_ladder.len())
        .map(|i| LinearCoeff {
            alpha: 0.45 + 0.11 * i as f64,
            beta: 0.55,
        })
        .collect();
    PowerEstimator::from_clusters(vec![(little_ladder, little), (big_ladder, big)])
}

/// Brute-force reference: the best `t_f` over all `(T_B, T_L)` splits.
fn brute_force_tf(threads: usize, cb: usize, cl: usize, r: f64) -> f64 {
    let mut best = f64::INFINITY;
    for tb in 0..=threads {
        let tl = threads - tb;
        if (tb > 0 && cb == 0) || (tl > 0 && cl == 0) {
            continue;
        }
        let t_big = if tb == 0 {
            0.0
        } else {
            let used = tb.min(cb);
            tb as f64 / (threads as f64 * used as f64 * r)
        };
        let t_little = if tl == 0 {
            0.0
        } else {
            let used = tl.min(cl);
            tl as f64 / (threads as f64 * used as f64)
        };
        best = best.min(t_big.max(t_little));
    }
    best
}

/// `t_f` of a concrete assignment in the same units.
fn tf_of(a: &ThreadAssignment, threads: usize, r: f64) -> f64 {
    let t_big = if a.threads(B) == 0 {
        0.0
    } else {
        a.threads(B) as f64 / (threads as f64 * a.used(B) as f64 * r)
    };
    let t_little = if a.threads(L) == 0 {
        0.0
    } else {
        a.threads(L) as f64 / (threads as f64 * a.used(L) as f64)
    };
    t_big.max(t_little)
}

proptest! {
    /// Table 3.1 invariants: conservation, bounds, non-empty usage.
    #[test]
    fn assignment_invariants(
        threads in 1usize..64,
        cb in 0usize..=4,
        cl in 0usize..=4,
        r in 0.3f64..4.0,
    ) {
        prop_assume!(cb + cl > 0);
        let a = assign(threads, cb, cl, r);
        prop_assert_eq!(a.total_threads(), threads);
        prop_assert!(a.used(B) <= cb);
        prop_assert!(a.used(L) <= cl);
        prop_assert!(a.used(B) <= a.threads(B));
        prop_assert!(a.used(L) <= a.threads(L));
        prop_assert_eq!(a.used(B) == 0, a.threads(B) == 0);
        prop_assert_eq!(a.used(L) == 0, a.threads(L) == 0);
    }

    /// Table 3.1 near-optimality. The paper's closed form rounds the
    /// saturated-regime split with a ceiling (`T_B = ⌈r·C_B/(r·C_B+C_L)
    /// ·T⌉`), which costs up to one thread's worth of big-cluster time
    /// against the true optimum — a relative penalty bounded by ~1/T_B
    /// ≤ (r·C_B+C_L)/(r·C_B) / T. We assert the implementation stays
    /// inside that analytic envelope (and therefore converges to the
    /// optimum as T grows).
    #[test]
    fn assignment_near_optimal(
        threads in 1usize..128,
        cb in 1usize..=4,
        cl in 1usize..=4,
        r in 1.0f64..3.0,
    ) {
        let a = assign(threads, cb, cl, r);
        let got = tf_of(&a, threads, r);
        let best = brute_force_tf(threads, cb, cl, r);
        let rounding_margin = 1.0
            + (r * cb as f64 + cl as f64) / (r * cb as f64) / threads as f64;
        prop_assert!(
            got <= best * rounding_margin + 1e-12,
            "assignment t_f {} vs brute force {} (margin {}) for T={} C=({},{}) r={}",
            got, best, rounding_margin, threads, cb, cl, r
        );
    }

    /// The search result is always valid, within the distance cap, and
    /// never worse than the current state under its own objective.
    #[test]
    fn search_respects_bounds(
        cb in 0usize..=4,
        cl in 0usize..=4,
        kb in 0usize..9,
        kl in 0usize..6,
        rate in 1.0f64..50.0,
        target_center in 1.0f64..40.0,
        m in 0i64..5,
        n in 0i64..5,
        d in 1i64..10,
    ) {
        prop_assume!(cb + cl > 0);
        let board = BoardSpec::odroid_xu3();
        let space = StateSpace::from_board(&board);
        let cur = st(
            cb,
            cl,
            board.ladder(ClusterId::BIG).level(kb).unwrap(),
            board.ladder(ClusterId::LITTLE).level(kl).unwrap(),
        );
        let target = PerfTarget::from_center(target_center, 0.1).unwrap();
        let perf = PerfEstimator::paper_default(FreqKhz::from_mhz(1_000));
        let ctx = SearchContext {
            space: &space,
            current: &cur,
            observed_rate: rate,
            threads: 8,
            target: &target,
            constraints: &SearchConstraints::unrestricted(&space),
            perf: &perf,
            power: &test_power(),
            tabu: &[],
            eval_limit: None,
        };
        let out = ExhaustiveSweep::new(SearchParams::new(m, n, d)).next_state(&ctx);
        prop_assert!(space.contains(&out.state));
        let dist = space
            .index_of(&out.state)
            .unwrap()
            .manhattan(&space.index_of(&cur).unwrap());
        prop_assert!(dist <= d, "distance {} > cap {}", dist, d);
        prop_assert!(out.stats.explored >= 1);
    }

    /// Estimated rates are monotone in capacity: adding big cores at
    /// fixed frequency never lowers the estimate.
    #[test]
    fn estimate_monotone_in_big_cores(
        rate in 1.0f64..100.0,
        kb in 0usize..9,
        kl in 0usize..6,
        threads in 1usize..32,
    ) {
        let board = BoardSpec::odroid_xu3();
        let perf = PerfEstimator::paper_default(board.base_freq);
        let fb = board.ladder(ClusterId::BIG).level(kb).unwrap();
        let fl = board.ladder(ClusterId::LITTLE).level(kl).unwrap();
        let cur = st(1, 1, fb, fl);
        let mut prev = 0.0;
        for cb in 1..=4usize {
            let cand = st(cb, 1, fb, fl);
            let est = perf.estimate_rate(rate, threads, &cur, &cand);
            prop_assert!(est >= prev - 1e-9, "rate dropped at cb={}", cb);
            prev = est;
        }
    }

    /// Power estimates are non-negative and monotone in utilization.
    #[test]
    fn power_monotone_in_utilization(
        cb in 0usize..=4,
        cl in 0usize..=4,
        kb in 0usize..9,
        kl in 0usize..6,
        u1 in 0.0f64..1.0,
        u2 in 0.0f64..1.0,
    ) {
        prop_assume!(cb + cl > 0);
        let board = BoardSpec::odroid_xu3();
        let power = test_power();
        let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
        let fb = board.ladder(ClusterId::BIG).level(kb).unwrap();
        let fl = board.ladder(ClusterId::LITTLE).level(kl).unwrap();
        let p = |u: f64| {
            power.cluster_watts(ClusterId::BIG, fb, cb, u)
                + power.cluster_watts(ClusterId::LITTLE, fl, cl, u)
        };
        prop_assert!(p(lo) >= 0.0);
        prop_assert!(p(hi) >= p(lo) - 1e-12);
    }

    /// Normalized performance is in [0, 1] and capped at the target.
    #[test]
    fn normalized_perf_bounds(center in 0.1f64..1000.0, rate in 0.0f64..10_000.0) {
        let t = PerfTarget::from_center(center, 0.1).unwrap();
        let np = hars_core::metrics::normalized_performance(&t, rate);
        prop_assert!((0.0..=1.0).contains(&np));
        if rate >= center {
            prop_assert!((np - 1.0).abs() < 1e-12);
        }
    }

    /// Least-squares recovery: fitting noiseless samples of any line
    /// recovers its coefficients.
    #[test]
    fn linreg_recovers_lines(
        slope in -100.0f64..100.0,
        intercept in -100.0f64..100.0,
        n in 3usize..50,
    ) {
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let x = i as f64 * 0.5;
                (x, slope * x + intercept)
            })
            .collect();
        let (a, b) = hars_core::linreg::fit_line(&pts).unwrap();
        prop_assert!((a - slope).abs() < 1e-6 * (1.0 + slope.abs()));
        prop_assert!((b - intercept).abs() < 1e-6 * (1.0 + intercept.abs()));
    }
}
