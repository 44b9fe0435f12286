//! Equivalence tests for the decision-loop performance overhaul.
//!
//! Three contracts:
//!
//! 1. **ball == legacy odometer** — the distance-ball enumeration
//!    behind [`ExhaustiveSweep`] visits exactly the candidate sequence
//!    (same states, same order) the pre-overhaul box odometer visited,
//!    on randomized boards up to 5 clusters, under random bounds and
//!    constraints — so decisions, stats and ranking tie-breaks are
//!    bit-identical while the work drops to the candidate count;
//! 2. **budgeted(∞) == inner** — wrapping any strategy in
//!    [`SearchPolicy::Budgeted`] with an effectively infinite budget
//!    changes nothing: state, eval and stats are equal;
//! 3. **budget overrun ≤ 1** — a finite budget is never exceeded by
//!    more than the mandatory current-state evaluation, and a binding
//!    budget reports `truncated`.

use heartbeats::PerfTarget;
use proptest::prelude::*;

use hars_core::policy::SearchPolicy;
use hars_core::power_est::{LinearCoeff, PowerEstimator};
use hars_core::search::{
    ExhaustiveSweep, FreqChange, SearchConstraints, SearchContext, SearchParams, SearchStrategy,
};
use hars_core::{PerfEstimator, StateSpace, SystemState};
use hmp_sim::{BoardSpec, ClusterId, ClusterPowerModel, ClusterSpec, FreqKhz, FreqLadder};

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

fn seed_state(board: &BoardSpec, seed_cores: &[usize], seed_levels: &[usize]) -> SystemState {
    let mut per: Vec<(usize, FreqKhz)> = board
        .cluster_ids()
        .map(|c| {
            let cores = seed_cores[c.index() % seed_cores.len()].min(board.cluster_size(c));
            let ladder = board.ladder(c);
            let level = seed_levels[c.index() % seed_levels.len()].min(ladder.len() - 1);
            (cores, ladder.level(level).unwrap())
        })
        .collect();
    if per.iter().map(|(c, _)| c).sum::<usize>() == 0 {
        per[0].0 = 1;
    }
    SystemState::new(&per)
}

/// The pre-overhaul reference: the `(m+n+1)^(2N)` box odometer with
/// the distance cap, `state_at` validation and constraint checks
/// applied at the innermost level — a direct port of the legacy
/// `ExhaustiveSweep` loop, emitting the candidate sequence.
fn legacy_odometer_candidates(
    space: &StateSpace,
    current: &SystemState,
    params: SearchParams,
    constraints: &SearchConstraints,
) -> Vec<SystemState> {
    let n = space.n_clusters();
    let cur_idx = space.index_of(current).unwrap();
    let dims = 2 * n;
    let mut center = vec![0i64; dims];
    for (pos, i) in (0..n).rev().enumerate() {
        center[pos] = cur_idx.cores(ClusterId(i));
        center[n + pos] = cur_idx.level(ClusterId(i));
    }
    let mut offset = vec![-params.m; dims];
    let mut cand_idx = cur_idx;
    let mut out = Vec::new();
    'sweep: loop {
        let manhattan: i64 = offset.iter().map(|o| o.abs()).sum();
        if manhattan != 0 && manhattan <= params.d {
            for (pos, i) in (0..n).rev().enumerate() {
                cand_idx.set_cores(ClusterId(i), center[pos] + offset[pos]);
                cand_idx.set_level(ClusterId(i), center[n + pos] + offset[n + pos]);
            }
            if let Some(cand) = space.state_at(&cand_idx) {
                let allowed = space.cluster_ids().all(|c| {
                    cand.cores(c) <= constraints.max_cores(c)
                        && constraints
                            .freq_change(c)
                            .allows(cur_idx.level(c), cand_idx.level(c))
                });
                if allowed {
                    out.push(cand);
                }
            }
        }
        for pos in (0..dims).rev() {
            if offset[pos] < params.n {
                offset[pos] += 1;
                continue 'sweep;
            }
            offset[pos] = -params.m;
        }
        break;
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn check_ball_matches_legacy(
    board: &BoardSpec,
    cur: &SystemState,
    params: SearchParams,
    constraints_variant: usize,
    rate: f64,
    center: f64,
    threads: usize,
) {
    let space = StateSpace::from_board(board);
    let perf = PerfEstimator::from_board(board);
    let power = flat_power(board);
    let target = PerfTarget::from_center(center, 0.1).unwrap();
    let mut constraints = SearchConstraints::unrestricted(&space);
    if constraints_variant == 1 {
        constraints.set_max_cores(ClusterId(0), cur.cores(ClusterId(0)));
    } else if constraints_variant == 2 {
        constraints.set_freq_change(ClusterId(0), FreqChange::IncreaseOnly);
        let last = ClusterId(board.n_clusters() - 1);
        constraints.set_freq_change(last, FreqChange::Fixed);
    }
    let ctx = SearchContext {
        space: &space,
        current: cur,
        observed_rate: rate,
        threads,
        target: &target,
        constraints: &constraints,
        perf: &perf,
        power: &power,
        tabu: &[],
        eval_limit: None,
    };
    let mut visited = Vec::new();
    let out = ExhaustiveSweep::new(params).next_state_observed(&ctx, &mut |s| visited.push(s));
    let legacy = legacy_odometer_candidates(&space, cur, params, &constraints);
    assert_eq!(
        visited, legacy,
        "candidate sequence diverged from the legacy odometer"
    );
    assert_eq!(out.stats.explored, legacy.len() + 1);
    assert_eq!(out.stats.evaluated, out.stats.explored);
    assert!(!out.stats.truncated);
}

proptest! {
    /// Random 1–4-cluster boards, bounds and constraint variants: the
    /// ball enumeration emits the legacy odometer's candidate sequence
    /// (same states, same order).
    #[test]
    fn ball_enumerator_matches_legacy_odometer(
        shape in proptest::collection::vec((1usize..=4, 2usize..=5, 1u32..=3, 0u32..=12), 1..5),
        seed_cores in proptest::collection::vec(0usize..=4, 4..5),
        seed_levels in proptest::collection::vec(0usize..5, 4..5),
        rate in 1.0f64..60.0,
        center in 1.0f64..40.0,
        m in 0i64..4,
        n in 0i64..4,
        d in 1i64..7,
        threads in 1usize..10,
        constraints_variant in 0usize..3,
    ) {
        let shape: Vec<(usize, usize, u32, u32)> = shape
            .into_iter()
            .map(|(c, l, s, r)| (c, l, s * 100, r))
            .collect();
        let board = board_from(&shape);
        let cur = seed_state(&board, &seed_cores, &seed_levels);
        check_ball_matches_legacy(
            &board, &cur, SearchParams::new(m, n, d), constraints_variant, rate, center, threads,
        );
    }

    /// Wrapping any policy in an effectively infinite budget is the
    /// identity: state, eval and stats all match the inner policy's.
    #[test]
    fn infinite_budget_matches_inner_strategy(
        shape in proptest::collection::vec((1usize..=4, 2usize..=5, 1u32..=3, 0u32..=12), 1..4),
        seed_cores in proptest::collection::vec(0usize..=4, 4..5),
        seed_levels in proptest::collection::vec(0usize..5, 4..5),
        rate in 1.0f64..60.0,
        center in 1.0f64..40.0,
        threads in 1usize..10,
        which in 0usize..4,
    ) {
        let shape: Vec<(usize, usize, u32, u32)> = shape
            .into_iter()
            .map(|(c, l, s, r)| (c, l, s * 100, r))
            .collect();
        let board = board_from(&shape);
        let space = StateSpace::from_board(&board);
        let cur = seed_state(&board, &seed_cores, &seed_levels);
        let perf = PerfEstimator::from_board(&board);
        let power = flat_power(&board);
        let target = PerfTarget::from_center(center, 0.1).unwrap();
        let constraints = SearchConstraints::unrestricted(&space);
        let ctx = SearchContext {
            space: &space,
            current: &cur,
            observed_rate: rate,
            threads,
            target: &target,
            constraints: &constraints,
            perf: &perf,
            power: &power,
            tabu: &[],
            eval_limit: None,
        };
        let inner = match which {
            0 => SearchPolicy::exhaustive_default(),
            1 => SearchPolicy::beam_default(),
            2 => SearchPolicy::adaptive_beam_default(),
            _ => SearchPolicy::Frontier,
        };
        let plain = inner.strategy_for(rate > center, 3_000).next_state(&ctx);
        let budgeted = SearchPolicy::budgeted(inner, u64::MAX)
            .strategy_for(rate > center, 3_000)
            .next_state(&ctx);
        prop_assert_eq!(plain.state, budgeted.state);
        prop_assert_eq!(plain.eval, budgeted.eval);
        prop_assert_eq!(plain.stats, budgeted.stats);
    }

    /// A finite budget is never exceeded by more than one evaluation,
    /// and a binding budget reports truncation.
    #[test]
    fn budget_overrun_is_at_most_one_evaluation(
        shape in proptest::collection::vec((1usize..=4, 2usize..=5, 1u32..=3, 0u32..=12), 1..4),
        seed_cores in proptest::collection::vec(0usize..=4, 4..5),
        seed_levels in proptest::collection::vec(0usize..5, 4..5),
        rate in 1.0f64..60.0,
        center in 1.0f64..40.0,
        threads in 1usize..10,
        which in 0usize..4,
        budget_evals in 0u64..50,
    ) {
        let shape: Vec<(usize, usize, u32, u32)> = shape
            .into_iter()
            .map(|(c, l, s, r)| (c, l, s * 100, r))
            .collect();
        let board = board_from(&shape);
        let space = StateSpace::from_board(&board);
        let cur = seed_state(&board, &seed_cores, &seed_levels);
        let perf = PerfEstimator::from_board(&board);
        let power = flat_power(&board);
        let target = PerfTarget::from_center(center, 0.1).unwrap();
        let constraints = SearchConstraints::unrestricted(&space);
        let ctx = SearchContext {
            space: &space,
            current: &cur,
            observed_rate: rate,
            threads,
            target: &target,
            constraints: &constraints,
            perf: &perf,
            power: &power,
            tabu: &[],
            eval_limit: None,
        };
        let inner = match which {
            0 => SearchPolicy::exhaustive_default(),
            1 => SearchPolicy::beam_default(),
            2 => SearchPolicy::adaptive_beam_default(),
            _ => SearchPolicy::Frontier,
        };
        let cost = 3_000u64;
        let free = inner.strategy_for(rate > center, cost).next_state(&ctx);
        let out = SearchPolicy::budgeted(inner, budget_evals * cost)
            .strategy_for(rate > center, cost)
            .next_state(&ctx);
        prop_assert!(
            out.stats.evaluated as u64 <= budget_evals + 1,
            "evaluated {} exceeds budget {} + 1",
            out.stats.evaluated,
            budget_evals
        );
        if (out.stats.evaluated as u64) < free.stats.evaluated as u64 {
            prop_assert!(out.stats.truncated, "a binding budget must report truncation");
        }
        // Anytime result stays valid and on the board.
        prop_assert!(space.contains(&out.state));
    }
}

/// "Up to 5 clusters": the randomized shapes above stop at 4 (the
/// reference odometer's box is `(m+n+1)^(2N)` — prohibitive at 10
/// dimensions with full bounds), so the 5-cluster case runs
/// deterministically on the server preset with tight bounds, where the
/// box (3^10 ≈ 59k steps) is still checkable.
#[test]
fn ball_matches_legacy_odometer_on_the_5_cluster_server() {
    let board = BoardSpec::server_5c_48core();
    let space = StateSpace::from_board(&board);
    let cur = space.max_state();
    for (variant, params) in [
        (0, SearchParams::new(1, 1, 2)),
        (2, SearchParams::new(1, 1, 3)),
    ] {
        check_ball_matches_legacy(&board, &cur, params, variant, 30.0, 10.0, 16);
    }
}
