//! Tests for the pluggable search subsystem.
//!
//! Three families:
//!
//! 1. **beam/exhaustive equivalence** — with unbounded width,
//!    [`BeamSearch`] visits exactly the exhaustive sweep's candidate
//!    set (candidate for candidate) on randomized 1–3-cluster boards,
//!    and its chosen state is rank-equivalent;
//! 2. **constraint safety** — every strategy respects
//!    [`SearchConstraints`] (free-core caps, [`FreqChange`] gating) for
//!    every candidate it evaluates, not just the final state;
//! 3. **tabu** — every strategy avoids tabu states (the shared
//!    aspiration rule is unit-tested in the strategy module).

use std::collections::HashSet;

use heartbeats::PerfTarget;
use proptest::prelude::*;

use hars_core::power_est::{LinearCoeff, PowerEstimator};
use hars_core::search::{
    BeamSearch, ExhaustiveSweep, FreqChange, GreedyFrontier, SearchConstraints, SearchContext,
    SearchParams, SearchStrategy,
};
use hars_core::{PerfEstimator, StateSpace, SystemState};
use hmp_sim::{BoardSpec, ClusterId, ClusterPowerModel, ClusterSpec, FreqKhz, FreqLadder};

// ---------------------------------------------------------------------
// Randomized board construction (same generator family as the
// n_cluster proptests)
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

/// Builds a valid current state from per-cluster seeds.
fn seed_state(board: &BoardSpec, seed_cores: &[usize], seed_levels: &[usize]) -> SystemState {
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
    SystemState::new(&per)
}

/// Runs `strategy` and returns `(outcome state, candidate set)`.
fn observed_candidates(
    strategy: &dyn SearchStrategy,
    ctx: &SearchContext<'_>,
) -> (SystemState, HashSet<SystemState>) {
    let mut seen = HashSet::new();
    let out = strategy.next_state_observed(ctx, &mut |s| {
        seen.insert(s);
    });
    (out.state, seen)
}

proptest! {
    /// With unbounded width and the same `(m, n, d)` bounds, beam
    /// search explores exactly the exhaustive sweep's candidate set on
    /// 1–3-cluster boards, and its chosen state ties or equals the
    /// sweep's under Algorithm 2's ordering.
    #[test]
    fn unbounded_beam_matches_exhaustive_candidate_for_candidate(
        shape in proptest::collection::vec((1usize..=4, 2usize..=5, 1u32..=3, 0u32..=12), 1..4),
        seed_cores in proptest::collection::vec(0usize..=4, 3..4),
        seed_levels in proptest::collection::vec(0usize..5, 3..4),
        rate in 1.0f64..60.0,
        center in 1.0f64..40.0,
        m in 0i64..5,
        n in 0i64..5,
        d in 1i64..8,
        threads in 1usize..10,
    ) {
        let shape: Vec<(usize, usize, u32, u32)> = shape
            .into_iter()
            .map(|(c, l, s, r)| (c, l, s * 100, r))
            .collect();
        let board = board_from(&shape);
        let space = StateSpace::from_board(&board);
        let cur = seed_state(&board, &seed_cores, &seed_levels);
        prop_assert!(space.contains(&cur));
        let perf = PerfEstimator::from_board(&board);
        let power = flat_power(&board);
        let target = PerfTarget::from_center(center, 0.1).unwrap();
        let constraints = SearchConstraints::unrestricted(&space);
        let params = SearchParams::new(m, n, d);
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
        let (ex_state, ex_set) = observed_candidates(&ExhaustiveSweep::new(params), &ctx);
        let beam = BeamSearch::with_params(1_000_000, params);
        let (beam_state, beam_set) = observed_candidates(&beam, &ctx);
        prop_assert_eq!(
            &beam_set,
            &ex_set,
            "candidate sets diverged (beam {} vs sweep {})",
            beam_set.len(),
            ex_set.len()
        );
        // The chosen states are rank-equivalent (ties may resolve to a
        // different member because the visit order differs).
        let eval = |s: &SystemState| {
            hars_core::search::evaluate_state(s, rate, threads, &cur, &target, &perf, &power)
        };
        let (be, ee) = (eval(&beam_state), eval(&ex_state));
        prop_assert_eq!(be.satisfies, ee.satisfies, "{} vs {}", beam_state, ex_state);
        if be.satisfies {
            prop_assert_eq!(be.perf_per_watt.to_bits(), ee.perf_per_watt.to_bits());
        } else {
            prop_assert_eq!(be.est_rate.to_bits(), ee.est_rate.to_bits());
        }
    }

    /// Every strategy honors the constraints for every candidate it
    /// evaluates: core counts within the per-cluster caps, frequency
    /// moves within the FreqChange gates (anchored at the search
    /// start), and at least one core overall.
    #[test]
    fn all_strategies_respect_constraints(
        shape in proptest::collection::vec((1usize..=4, 2usize..=5, 1u32..=3, 0u32..=10), 2..4),
        seed_cores in proptest::collection::vec(1usize..=4, 3..4),
        seed_levels in proptest::collection::vec(0usize..5, 3..4),
        rate in 1.0f64..50.0,
        center in 1.0f64..40.0,
        capped in 0usize..4,
        gated in 0usize..4,
        gate_kind in 0u8..2,
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
        let capped = ClusterId(capped.min(board.n_clusters() - 1));
        let gated = ClusterId(gated.min(board.n_clusters() - 1));
        let gate = if gate_kind == 0 {
            FreqChange::IncreaseOnly
        } else {
            FreqChange::Fixed
        };
        let mut constraints = SearchConstraints::unrestricted(&space);
        constraints.set_max_cores(capped, cur.cores(capped));
        constraints.set_freq_change(gated, gate);
        let ctx = SearchContext {
            space: &space,
            current: &cur,
            observed_rate: rate,
            threads: 8,
            target: &target,
            constraints: &constraints,
            perf: &perf,
            power: &power,
            tabu: &[],
            eval_limit: None,
        };
        let cur_idx = space.index_of(&cur).unwrap();
        let strategies: Vec<Box<dyn SearchStrategy>> = vec![
            Box::new(ExhaustiveSweep::new(SearchParams::exhaustive())),
            Box::new(BeamSearch::new(4, 5)),
            Box::new(GreedyFrontier::default()),
        ];
        for strategy in &strategies {
            let (state, set) = observed_candidates(strategy.as_ref(), &ctx);
            for cand in set.iter().chain(std::iter::once(&state)) {
                prop_assert!(space.contains(cand), "{}: invalid {}", strategy.name(), cand);
                let idx = space.index_of(cand).unwrap();
                for c in board.cluster_ids() {
                    prop_assert!(
                        cand.cores(c) <= constraints.max_cores(c),
                        "{}: {} exceeds the core cap on {}",
                        strategy.name(),
                        cand,
                        c
                    );
                    prop_assert!(
                        constraints.freq_change(c).allows(cur_idx.level(c), idx.level(c)),
                        "{}: {} violates {:?} on {}",
                        strategy.name(),
                        cand,
                        constraints.freq_change(c),
                        c
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Tabu and cache behavior (deterministic)
// ---------------------------------------------------------------------

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
    PowerEstimator::new(little_ladder, big_ladder, little, big)
}

#[test]
fn every_strategy_avoids_tabu_states() {
    // An under-performing app against an unreachable target: no
    // candidate satisfies, so the aspiration escape (which requires a
    // satisfying state) can never override the tabu list and each
    // strategy must route around its favourite.
    let board = BoardSpec::odroid_xu3();
    let space = StateSpace::from_board(&board);
    let perf = PerfEstimator::paper_default(board.base_freq);
    let power = xu3_power();
    let cur = SystemState::big_little(1, 1, FreqKhz::from_mhz(1_000), FreqKhz::from_mhz(1_000));
    let target = PerfTarget::new(900.0, 1_100.0).unwrap(); // unreachable
    let constraints = SearchConstraints::unrestricted(&space);
    let strategies: Vec<Box<dyn SearchStrategy>> = vec![
        Box::new(ExhaustiveSweep::new(SearchParams::exhaustive())),
        Box::new(BeamSearch::new(8, 7)),
        Box::new(GreedyFrontier::default()),
    ];
    for strategy in &strategies {
        let mut ctx = SearchContext {
            space: &space,
            current: &cur,
            observed_rate: 2.0,
            threads: 8,
            target: &target,
            constraints: &constraints,
            perf: &perf,
            power: &power,
            tabu: &[],
            eval_limit: None,
        };
        let free = strategy.next_state(&ctx);
        assert_ne!(
            free.state,
            cur,
            "{}: under-performance must grow",
            strategy.name()
        );
        assert!(!free.eval.satisfies, "target must stay unreachable");
        let tabu = [free.state];
        ctx.tabu = &tabu;
        let redirected = strategy.next_state(&ctx);
        assert_ne!(
            redirected.state,
            free.state,
            "{}: tabu state must be avoided",
            strategy.name()
        );
    }
}

#[test]
fn frontier_cache_avoids_re_evaluating_revisited_neighbors() {
    // A long descent from the max state revisits coordinate lines every
    // round: the per-period cache must absorb the repeats.
    let board = BoardSpec::odroid_xu3();
    let space = StateSpace::from_board(&board);
    let perf = PerfEstimator::paper_default(board.base_freq);
    let power = xu3_power();
    let cur = space.max_state();
    let target = PerfTarget::new(9.0, 11.0).unwrap();
    let constraints = SearchConstraints::unrestricted(&space);
    let ctx = SearchContext {
        space: &space,
        current: &cur,
        observed_rate: 40.0,
        threads: 8,
        target: &target,
        constraints: &constraints,
        perf: &perf,
        power: &power,
        tabu: &[],
        eval_limit: None,
    };
    let out = GreedyFrontier::default().next_state(&ctx);
    assert!(out.stats.best_rank_changes >= 1, "must walk at least once");
    assert!(
        out.stats.evaluated < out.stats.explored,
        "revisits must hit the cache: evaluated {} vs explored {}",
        out.stats.evaluated,
        out.stats.explored
    );
}

#[test]
fn beam_width_bounds_exploration() {
    let board = BoardSpec::server_5c_48core();
    let space = StateSpace::from_board(&board);
    let perf = PerfEstimator::from_board(&board);
    let power = flat_power(&board);
    let cur = space.max_state();
    let target = PerfTarget::new(9.0, 11.0).unwrap();
    let constraints = SearchConstraints::unrestricted(&space);
    let ctx = SearchContext {
        space: &space,
        current: &cur,
        observed_rate: 30.0,
        threads: 16,
        target: &target,
        constraints: &constraints,
        perf: &perf,
        power: &power,
        tabu: &[],
        eval_limit: None,
    };
    let narrow = BeamSearch::new(2, 7).next_state(&ctx);
    let wide = BeamSearch::new(8, 7).next_state(&ctx);
    assert!(narrow.stats.explored <= wide.stats.explored);
    // O(k·d·N): each ring adds at most width·4N candidates.
    let bound = |k: usize| 1 + k * 7 * 4 * board.n_clusters() + 4 * board.n_clusters();
    assert!(
        narrow.stats.explored <= bound(2),
        "narrow beam explored {} > bound {}",
        narrow.stats.explored,
        bound(2)
    );
    assert!(wide.stats.explored <= bound(8));
    assert!(space.contains(&narrow.state));
    assert!(space.contains(&wide.state));
}

#[test]
fn adaptive_beam_matches_plain_beam_when_the_incumbent_is_stable() {
    // A state already sitting exactly on its band with every neighbor
    // ranked worse: the incumbent never changes, so the adaptive beam
    // halves its width ring after ring. The result must be identical to
    // the plain beam's (the incumbent IS the result) at a fraction of
    // the evaluations.
    let board = BoardSpec::odroid_xu3();
    let space = StateSpace::from_board(&board);
    let perf = PerfEstimator::paper_default(board.base_freq);
    let power = xu3_power();
    let cur = SystemState::big_little(0, 1, FreqKhz::from_mhz(800), FreqKhz::from_mhz(800));
    let target = PerfTarget::new(9.9, 10.1).unwrap();
    let constraints = SearchConstraints::unrestricted(&space);
    let ctx = SearchContext {
        space: &space,
        current: &cur,
        observed_rate: 10.0,
        threads: 8,
        target: &target,
        constraints: &constraints,
        perf: &perf,
        power: &power,
        tabu: &[],
        eval_limit: None,
    };
    let plain = BeamSearch::new(8, 7).next_state(&ctx);
    let adaptive = BeamSearch::adaptive(8, 7).next_state(&ctx);
    assert_eq!(plain.state, cur, "precondition: the incumbent is stable");
    assert_eq!(plain.stats.best_rank_changes, 0);
    assert_eq!(adaptive.state, plain.state);
    assert_eq!(adaptive.eval, plain.eval);
    assert_eq!(adaptive.stats.best_rank_changes, 0);
    assert!(
        adaptive.stats.evaluated < plain.stats.evaluated,
        "stalled rings must shrink the frontier: adaptive {} vs plain {}",
        adaptive.stats.evaluated,
        plain.stats.evaluated
    );
}

#[test]
fn adaptive_beam_still_finds_a_satisfying_state_under_churn_of_rings() {
    // From the max state with an over-performing rate the early rings
    // keep improving the incumbent, so adaptation must not fire before
    // the walk has found a satisfying shrink.
    let board = BoardSpec::dynamiq_1p_3m_4l();
    let space = StateSpace::from_board(&board);
    let perf = PerfEstimator::from_board(&board);
    let power = flat_power(&board);
    let cur = space.max_state();
    let target = PerfTarget::new(9.0, 11.0).unwrap();
    let constraints = SearchConstraints::unrestricted(&space);
    let ctx = SearchContext {
        space: &space,
        current: &cur,
        observed_rate: 30.0,
        threads: 8,
        target: &target,
        constraints: &constraints,
        perf: &perf,
        power: &power,
        tabu: &[],
        eval_limit: None,
    };
    let plain = BeamSearch::new(8, 7).next_state(&ctx);
    let adaptive = BeamSearch::adaptive(8, 7).next_state(&ctx);
    assert!(plain.eval.satisfies && adaptive.eval.satisfies);
    assert_ne!(adaptive.state, cur, "over-performance must shrink");
    assert!(adaptive.stats.evaluated <= plain.stats.evaluated);
    // Improving rings walk identically, so quality cannot collapse: the
    // adaptive pick stays within 10% of the plain beam's perf/watt.
    assert!(
        adaptive.eval.perf_per_watt >= 0.9 * plain.eval.perf_per_watt,
        "adaptive {} vs plain {}",
        adaptive.eval.perf_per_watt,
        plain.eval.perf_per_watt
    );
}
