//! Property tests for the N-cluster generalization.
//!
//! Two families:
//!
//! 1. **bound safety** — on randomized 1–4-cluster boards the search
//!    never returns (or even constructs) a state outside the per-cluster
//!    core and ladder bounds;
//! 2. **two-cluster equivalence** — on the ODROID-XU3 the generalized
//!    implementation is *bit-identical* to a line-for-line port of the
//!    pre-refactor 2-cluster code (Table 3.1's `assign_fast_first`, the
//!    4-nested-loop Algorithm 2 sweep, big-then-little power summation):
//!    same chosen state, same float evaluations, same explored count.

use heartbeats::PerfTarget;
use proptest::prelude::*;

use hars_core::assign::{assign_threads_n, ClusterCapacity};
use hars_core::power_est::{LinearCoeff, PowerEstimator};
use hars_core::search::{
    CandidateEval, ExhaustiveSweep, SearchConstraints, SearchContext, SearchParams, SearchStrategy,
};
use hars_core::{PerfEstimator, StateSpace, SystemState};
use hmp_sim::{BoardSpec, ClusterId, ClusterPowerModel, ClusterSpec, FreqKhz, FreqLadder};

// ---------------------------------------------------------------------
// Randomized board construction
// ---------------------------------------------------------------------

fn power_model() -> ClusterPowerModel {
    ClusterPowerModel {
        kappa: 0.2,
        sigma: 0.05,
        upsilon: 0.02,
        chi: 0.02,
        volt_lo: 0.9,
        volt_hi: 1.1,
    }
}

/// Builds a board from per-cluster `(cores 1..=4, ladder levels 2..=6,
/// step 100..=400 MHz, ratio tenths)` tuples. The base frequency is the
/// first cluster's lowest level so every ratio is well defined.
fn board_from(shape: &[(usize, usize, u32, u32)]) -> BoardSpec {
    let clusters: Vec<ClusterSpec> = shape
        .iter()
        .enumerate()
        .map(|(i, &(cores, levels, step_mhz, ratio_tenths))| {
            let lo = 400 + 100 * i as u32;
            let hi = lo + (levels as u32 - 1) * step_mhz;
            ClusterSpec::new(
                format!("c{i}"),
                cores,
                FreqLadder::from_mhz_range(lo, hi, step_mhz),
                power_model(),
                1.0 + ratio_tenths as f64 / 10.0,
            )
        })
        .collect();
    BoardSpec {
        name: "random".to_string(),
        base_freq: FreqKhz::from_mhz(400),
        units_per_sec: 1_000.0,
        sensor_period_ns: 100_000_000,
        clusters,
    }
}

fn flat_power(board: &BoardSpec) -> PowerEstimator {
    PowerEstimator::from_clusters(
        board
            .cluster_ids()
            .map(|c| {
                let ladder = board.ladder(c).clone();
                let table: Vec<LinearCoeff> = (0..ladder.len())
                    .map(|i| LinearCoeff {
                        alpha: 0.1 * (c.index() + 1) as f64 + 0.03 * i as f64,
                        beta: 0.1 + 0.05 * c.index() as f64,
                    })
                    .collect();
                (ladder, table)
            })
            .collect(),
    )
}

proptest! {
    /// Search candidates never exceed per-cluster core or ladder bounds
    /// on randomized 1–4-cluster boards, and the chosen state respects
    /// the Manhattan cap.
    #[test]
    fn search_bounded_on_random_boards(
        shape in proptest::collection::vec((1usize..=4, 2usize..=6, 1u32..=4, 0u32..=12), 1..5),
        seed_cores in proptest::collection::vec(0usize..=4, 4..5),
        seed_levels in proptest::collection::vec(0usize..6, 4..5),
        rate in 1.0f64..60.0,
        center in 1.0f64..40.0,
        m in 0i64..5,
        n in 0i64..5,
        d in 1i64..9,
        threads in 1usize..12,
    ) {
        let shape: Vec<(usize, usize, u32, u32)> = shape
            .into_iter()
            .map(|(c, l, s, r)| (c, l, s * 100, r))
            .collect();
        let board = board_from(&shape);
        let space = StateSpace::from_board(&board);
        // A valid current state: clamp the seeds per cluster, force at
        // least one core somewhere.
        let mut per: Vec<(usize, FreqKhz)> = board
            .cluster_ids()
            .map(|c| {
                let cores = seed_cores[c.index()].min(board.cluster_size(c));
                let ladder = board.ladder(c);
                let level = seed_levels[c.index()].min(ladder.len() - 1);
                (cores, ladder.level(level).unwrap())
            })
            .collect();
        if per.iter().map(|(c, _)| c).sum::<usize>() == 0 {
            per[0].0 = 1;
        }
        let cur = SystemState::new(&per);
        prop_assert!(space.contains(&cur));
        let perf = PerfEstimator::from_board(&board);
        let power = flat_power(&board);
        let target = PerfTarget::from_center(center, 0.1).unwrap();
        let ctx = SearchContext {
            space: &space,
            current: &cur,
            observed_rate: rate,
            threads,
            target: &target,
            constraints: &SearchConstraints::unrestricted(&space),
            perf: &perf,
            power: &power,
            tabu: &[],
            eval_limit: None,
        };
        let out = ExhaustiveSweep::new(SearchParams::new(m, n, d)).next_state(&ctx);
        // Bound safety, per cluster.
        prop_assert!(space.contains(&out.state));
        for c in board.cluster_ids() {
            prop_assert!(
                out.state.cores(c) <= board.cluster_size(c),
                "cluster {c} cores {} > {}",
                out.state.cores(c),
                board.cluster_size(c)
            );
            prop_assert!(board.ladder(c).contains(out.state.freq(c)));
        }
        let dist = space
            .index_of(&out.state)
            .unwrap()
            .manhattan(&space.index_of(&cur).unwrap());
        prop_assert!(dist <= d);
        prop_assert!(out.state.total_cores() >= 1);
    }

    /// Free-core constraints hold per cluster on random boards: capping
    /// a cluster's max cores at the current allocation blocks growth.
    #[test]
    fn constraints_cap_growth_per_cluster(
        shape in proptest::collection::vec((1usize..=4, 2usize..=5, 1u32..=3, 0u32..=10), 2..5),
        capped in 0usize..4,
    ) {
        let shape: Vec<(usize, usize, u32, u32)> = shape
            .into_iter()
            .map(|(c, l, s, r)| (c, l, s * 100, r))
            .collect();
        let board = board_from(&shape);
        let capped = ClusterId(capped.min(board.n_clusters() - 1));
        let space = StateSpace::from_board(&board);
        let perf = PerfEstimator::from_board(&board);
        let power = flat_power(&board);
        // Start from one core on the capped cluster (or elsewhere if it
        // must stay empty) and forbid growth there.
        let per: Vec<(usize, FreqKhz)> = board
            .cluster_ids()
            .map(|c| {
                let cores = usize::from(c == capped || c.index() == 0);
                (cores, board.ladder(c).min())
            })
            .collect();
        let cur = SystemState::new(&per);
        let mut constraints = SearchConstraints::unrestricted(&space);
        constraints.set_max_cores(capped, cur.cores(capped));
        let target = PerfTarget::new(500.0, 600.0).unwrap(); // unreachable: wants growth
        let ctx = SearchContext {
            space: &space,
            current: &cur,
            observed_rate: 1.0,
            threads: 8,
            target: &target,
            constraints: &constraints,
            perf: &perf,
            power: &power,
            tabu: &[],
            eval_limit: None,
        };
        let out = ExhaustiveSweep::new(SearchParams::exhaustive()).next_state(&ctx);
        prop_assert!(
            out.state.cores(capped) <= cur.cores(capped),
            "grew the capped cluster: {} -> {}",
            cur.cores(capped),
            out.state.cores(capped)
        );
    }
}

// ---------------------------------------------------------------------
// Line-for-line port of the pre-refactor 2-cluster implementation
// ---------------------------------------------------------------------

mod legacy {
    use super::*;

    pub struct Assignment {
        pub big_threads: usize,
        pub little_threads: usize,
        pub used_big: usize,
        pub used_little: usize,
    }

    pub fn assign_threads(threads: usize, big: usize, little: usize, r: f64) -> Assignment {
        if big == 0 {
            return Assignment {
                big_threads: 0,
                little_threads: threads,
                used_big: 0,
                used_little: little.min(threads),
            };
        }
        if little == 0 {
            return Assignment {
                big_threads: threads,
                little_threads: 0,
                used_big: big.min(threads),
                used_little: 0,
            };
        }
        if r >= 1.0 {
            let (f, s, uf, us) = assign_fast_first(threads, big, little, r);
            Assignment {
                big_threads: f,
                little_threads: s,
                used_big: uf,
                used_little: us,
            }
        } else {
            let (f, s, uf, us) = assign_fast_first(threads, little, big, 1.0 / r);
            Assignment {
                big_threads: s,
                little_threads: f,
                used_big: us,
                used_little: uf,
            }
        }
    }

    fn assign_fast_first(
        threads: usize,
        fast_cores: usize,
        slow_cores: usize,
        r: f64,
    ) -> (usize, usize, usize, usize) {
        let t = threads as f64;
        let cap_fast = r * fast_cores as f64;
        if threads <= fast_cores {
            (threads, 0, threads, 0)
        } else if t <= cap_fast {
            (threads, 0, fast_cores, 0)
        } else if t <= cap_fast + slow_cores as f64 {
            let mut t_fast = (cap_fast.floor() as usize).min(threads);
            let mut t_slow = threads - t_fast;
            if t_slow > slow_cores {
                t_slow = slow_cores;
                t_fast = threads - t_slow;
            }
            (t_fast, t_slow, fast_cores, t_slow)
        } else {
            let t_fast = ((cap_fast / (cap_fast + slow_cores as f64)) * t).ceil() as usize;
            let t_fast = t_fast.min(threads);
            (t_fast, threads - t_fast, fast_cores, slow_cores)
        }
    }

    /// `(cb, cl, fb, fl)` view of a two-cluster [`SystemState`].
    fn parts(s: &SystemState) -> (usize, usize, FreqKhz, FreqKhz) {
        let (big, little) = (ClusterId::BIG, ClusterId::LITTLE);
        (s.cores(big), s.cores(little), s.freq(big), s.freq(little))
    }

    fn cluster_time(ct: usize, used: usize, total: f64, speed: f64) -> f64 {
        if ct == 0 || used == 0 {
            return 0.0;
        }
        let per = 1.0 / total;
        if ct <= used {
            per / speed
        } else {
            ct as f64 * per / (used as f64 * speed)
        }
    }

    struct Times {
        t_big: f64,
        t_little: f64,
        t_finish: f64,
    }

    fn unit_times(r0: f64, base: FreqKhz, threads: usize, s: &SystemState) -> (Assignment, Times) {
        let (cb, cl, fb, fl) = parts(s);
        let s_big = r0 * fb.ratio_to(base);
        let s_little = fl.ratio_to(base);
        let a = assign_threads(threads, cb, cl, s_big / s_little);
        let t = threads as f64;
        let t_big = cluster_time(a.big_threads, a.used_big, t, s_big);
        let t_little = cluster_time(a.little_threads, a.used_little, t, s_little);
        let times = Times {
            t_big,
            t_little,
            t_finish: t_big.max(t_little),
        };
        (a, times)
    }

    fn estimate_rate(
        r0: f64,
        base: FreqKhz,
        rate: f64,
        threads: usize,
        cur: &SystemState,
        cand: &SystemState,
    ) -> f64 {
        if cand.total_cores() == 0 {
            return 0.0;
        }
        let tf_cur = unit_times(r0, base, threads, cur).1.t_finish;
        let tf_cand = unit_times(r0, base, threads, cand).1.t_finish;
        if tf_cand <= 0.0 {
            return 0.0;
        }
        rate * tf_cur / tf_cand
    }

    #[allow(clippy::too_many_arguments)]
    pub fn evaluate(
        r0: f64,
        base: FreqKhz,
        power: &PowerEstimator,
        state: &SystemState,
        rate: f64,
        threads: usize,
        cur: &SystemState,
        target: &PerfTarget,
    ) -> CandidateEval {
        let est_rate = estimate_rate(r0, base, rate, threads, cur, state);
        let (a, times) = unit_times(r0, base, threads, state);
        let util = |t: f64| {
            if times.t_finish > 0.0 {
                t / times.t_finish
            } else {
                0.0
            }
        };
        let (_, _, fb, fl) = parts(state);
        // Legacy order: big watts + little watts.
        let est_watts = power
            .coeff(ClusterId::BIG, fb)
            .watts(a.used_big as f64 * util(times.t_big))
            + power
                .coeff(ClusterId::LITTLE, fl)
                .watts(a.used_little as f64 * util(times.t_little));
        let pp = if est_watts > 0.0 {
            target.normalized_performance(est_rate) / est_watts
        } else {
            0.0
        };
        CandidateEval {
            est_rate,
            est_watts,
            perf_per_watt: pp,
            satisfies: est_rate >= target.min(),
        }
    }

    fn better(a: &CandidateEval, b: &CandidateEval) -> bool {
        match (a.satisfies, b.satisfies) {
            (true, false) => true,
            (false, true) => false,
            (true, true) => a.perf_per_watt > b.perf_per_watt,
            (false, false) => a.est_rate > b.est_rate,
        }
    }

    /// The original 4-nested-loop Algorithm 2 on the ODROID-XU3.
    #[allow(clippy::too_many_arguments)]
    pub fn next_sys_state(
        board: &BoardSpec,
        r0: f64,
        power: &PowerEstimator,
        cur: &SystemState,
        rate: f64,
        threads: usize,
        target: &PerfTarget,
        params: SearchParams,
    ) -> (SystemState, CandidateEval, usize) {
        let base = board.base_freq;
        let big_ladder = board.ladder(ClusterId::BIG);
        let little_ladder = board.ladder(ClusterId::LITTLE);
        let (cb, cl, fb, fl) = parts(cur);
        let (ccb, ccl, cfb, cfl) = (
            cb as i64,
            cl as i64,
            big_ladder.index_of(fb).unwrap() as i64,
            little_ladder.index_of(fl).unwrap() as i64,
        );
        let mut best_state = *cur;
        let mut best_eval = evaluate(r0, base, power, cur, rate, threads, cur, target);
        let mut explored = 1usize;
        for i in (ccb - params.m)..=(ccb + params.n) {
            for j in (ccl - params.m)..=(ccl + params.n) {
                for k in (cfb - params.m)..=(cfb + params.n) {
                    for l in (cfl - params.m)..=(cfl + params.n) {
                        if (i, j, k, l) == (ccb, ccl, cfb, cfl) {
                            continue;
                        }
                        let dist =
                            (i - ccb).abs() + (j - ccl).abs() + (k - cfb).abs() + (l - cfl).abs();
                        if dist > params.d {
                            continue;
                        }
                        if i < 0
                            || j < 0
                            || k < 0
                            || l < 0
                            || i > 4
                            || j > 4
                            || i + j == 0
                            || k as usize >= big_ladder.len()
                            || l as usize >= little_ladder.len()
                        {
                            continue;
                        }
                        let cand = st(
                            i as usize,
                            j as usize,
                            big_ladder.level(k as usize).unwrap(),
                            little_ladder.level(l as usize).unwrap(),
                        );
                        let eval = evaluate(r0, base, power, &cand, rate, threads, cur, target);
                        explored += 1;
                        if better(&eval, &best_eval) {
                            best_state = cand;
                            best_eval = eval;
                        }
                    }
                }
            }
        }
        (best_state, best_eval, explored)
    }
}

/// The two-cluster state `(C_B, C_L, f_B, f_L)`.
fn st(cb: usize, cl: usize, fb: FreqKhz, fl: FreqKhz) -> SystemState {
    SystemState::new(&[(cl, fl), (cb, fb)])
}

fn xu3_power() -> PowerEstimator {
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

proptest! {
    /// The generalized search is bit-identical to the pre-refactor
    /// 2-cluster implementation on the ODROID-XU3: same state, same
    /// float evaluations, same explored count.
    #[test]
    fn two_cluster_search_is_bit_identical_to_legacy(
        cb in 0usize..=4,
        cl in 0usize..=4,
        kb in 0usize..9,
        kl in 0usize..6,
        rate in 0.5f64..60.0,
        center in 1.0f64..45.0,
        m in 0i64..5,
        n in 0i64..5,
        d in 1i64..10,
        threads in 1usize..16,
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
        let target = PerfTarget::from_center(center, 0.1).unwrap();
        let power = xu3_power();
        let perf = PerfEstimator::paper_default(board.base_freq);
        let params = SearchParams::new(m, n, d);
        let ctx = SearchContext {
            space: &space,
            current: &cur,
            observed_rate: rate,
            threads,
            target: &target,
            constraints: &SearchConstraints::unrestricted(&space),
            perf: &perf,
            power: &power,
            tabu: &[],
            eval_limit: None,
        };
        let new = ExhaustiveSweep::new(params).next_state(&ctx);
        let (legacy_state, legacy_eval, legacy_explored) = legacy::next_sys_state(
            &board, 1.5, &power, &cur, rate, threads, &target, params,
        );
        prop_assert_eq!(new.state, legacy_state, "state diverged");
        prop_assert_eq!(new.stats.explored, legacy_explored, "explored diverged");
        prop_assert_eq!(
            new.stats.evaluated,
            legacy_explored,
            "the sweep must evaluate each explored state exactly once"
        );
        // Bit-exact float agreement, not approximate.
        prop_assert_eq!(new.eval.est_rate.to_bits(), legacy_eval.est_rate.to_bits());
        prop_assert_eq!(new.eval.est_watts.to_bits(), legacy_eval.est_watts.to_bits());
        prop_assert_eq!(
            new.eval.perf_per_watt.to_bits(),
            legacy_eval.perf_per_watt.to_bits()
        );
        prop_assert_eq!(new.eval.satisfies, legacy_eval.satisfies);
    }

    /// The generalized Table 3.1 is bit-identical to the legacy
    /// two-cluster closed form across the whole regime space.
    #[test]
    fn two_cluster_assignment_matches_legacy(
        threads in 1usize..64,
        cb in 0usize..=4,
        cl in 0usize..=4,
        r_millis in 300u32..4_000,
    ) {
        prop_assume!(cb + cl > 0);
        let r = r_millis as f64 / 1_000.0;
        let little = ClusterCapacity { cores: cl, speed: 1.0 };
        let big = ClusterCapacity { cores: cb, speed: r };
        let new = assign_threads_n(threads, &[little, big]);
        let old = legacy::assign_threads(threads, cb, cl, r);
        let (b, l) = (ClusterId::BIG, ClusterId::LITTLE);
        prop_assert_eq!(new.threads(b), old.big_threads);
        prop_assert_eq!(new.threads(l), old.little_threads);
        prop_assert_eq!(new.used(b), old.used_big);
        prop_assert_eq!(new.used(l), old.used_little);
    }
}
