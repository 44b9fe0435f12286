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
//! 2. **limit(∞) == unlimited** — running any policy's strategy under
//!    an effectively infinite evaluation limit
//!    ([`SearchContext::eval_limit`], what a decision budget sets)
//!    changes nothing: state, eval and stats are equal;
//! 3. **budget overrun ≤ 1** — a finite evaluation limit is never
//!    exceeded by more than the mandatory current-state evaluation,
//!    and a binding limit reports `truncated`;
//! 4. **sweep == per-candidate reference** — under tabu lists drawn
//!    from the ball and any eval limit, the sweep's outcome, stats and
//!    observed sequence equal those of a plain loop that evaluates
//!    every legacy-odometer candidate with [`evaluate_state`] and
//!    offers each one to a [`BestTracker`].

use heartbeats::PerfTarget;
use proptest::prelude::*;

use hars_core::policy::SearchPolicy;
use hars_core::power_est::{LinearCoeff, PowerEstimator};
use hars_core::search::{
    evaluate_state, BestTracker, ExhaustiveSweep, FreqChange, SearchConstraints, SearchContext,
    SearchOutcome, SearchParams, SearchStrategy, SearchStrategyFactory,
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

/// One board's search inputs: the state space, both estimators, a
/// target band and one of three constraint variants (unrestricted;
/// cluster 0 capped at the centre's cores; cluster 0 increase-only
/// with the last cluster's frequency fixed).
struct Fixture {
    space: StateSpace,
    perf: PerfEstimator,
    power: PowerEstimator,
    target: PerfTarget,
    constraints: SearchConstraints,
}

impl Fixture {
    fn new(board: &BoardSpec, cur: &SystemState, constraints_variant: usize, center: f64) -> Self {
        let space = StateSpace::from_board(board);
        let mut constraints = SearchConstraints::unrestricted(&space);
        if constraints_variant == 1 {
            constraints.set_max_cores(ClusterId(0), cur.cores(ClusterId(0)));
        } else if constraints_variant == 2 {
            constraints.set_freq_change(ClusterId(0), FreqChange::IncreaseOnly);
            let last = ClusterId(board.n_clusters() - 1);
            constraints.set_freq_change(last, FreqChange::Fixed);
        }
        Self {
            space,
            perf: PerfEstimator::from_board(board),
            power: flat_power(board),
            target: PerfTarget::from_center(center, 0.1).unwrap(),
            constraints,
        }
    }

    fn ctx<'a>(
        &'a self,
        cur: &'a SystemState,
        rate: f64,
        threads: usize,
        tabu: &'a [SystemState],
        eval_limit: Option<usize>,
    ) -> SearchContext<'a> {
        SearchContext {
            space: &self.space,
            current: cur,
            observed_rate: rate,
            threads,
            target: &self.target,
            constraints: &self.constraints,
            perf: &self.perf,
            power: &self.power,
            tabu,
            eval_limit,
        }
    }
}

fn check_ball_matches_legacy(
    board: &BoardSpec,
    cur: &SystemState,
    params: SearchParams,
    constraints_variant: usize,
    rate: f64,
    center: f64,
    threads: usize,
) {
    let fx = Fixture::new(board, cur, constraints_variant, center);
    let ctx = fx.ctx(cur, rate, threads, &[], None);
    let mut visited = Vec::new();
    let out = ExhaustiveSweep::new(params).next_state_observed(&ctx, &mut |s| visited.push(s));
    let legacy = legacy_odometer_candidates(&fx.space, cur, params, &fx.constraints);
    assert_eq!(
        visited, legacy,
        "candidate sequence diverged from the legacy odometer"
    );
    assert_eq!(out.stats.explored, legacy.len() + 1);
    assert_eq!(out.stats.evaluated, out.stats.explored);
    assert!(!out.stats.truncated);
}

/// What the per-candidate reference sweep produced.
struct Reference {
    out: SearchOutcome,
    /// The candidates evaluated, in order.
    observed: Vec<SystemState>,
    /// The successive incumbents (each state that became the best).
    incumbents: Vec<SystemState>,
    /// Candidates better than the incumbent that the tabu list turned
    /// away.
    tabu_rejections: usize,
    /// Tabu candidates that became the incumbent by aspiration.
    aspirations: usize,
}

/// The exhaustive sweep written as a plain loop: every candidate of the
/// legacy odometer, in its order, evaluated with the full
/// [`evaluate_state`] and offered to a [`BestTracker`]. The eval limit
/// is checked before each evaluation, as the strategies check it.
fn reference_sweep(ctx: &SearchContext<'_>, params: SearchParams) -> Reference {
    let eval = |s: &SystemState| {
        evaluate_state(
            s,
            ctx.observed_rate,
            ctx.threads,
            ctx.current,
            ctx.target,
            ctx.perf,
            ctx.power,
        )
    };
    let mut best = eval(ctx.current);
    let mut tracker = BestTracker::new(*ctx.current, best, ctx.tabu);
    let mut evaluated = 1usize;
    let mut truncated = false;
    let mut observed = Vec::new();
    let mut incumbents = Vec::new();
    let (mut tabu_rejections, mut aspirations) = (0, 0);
    for cand in legacy_odometer_candidates(ctx.space, ctx.current, params, ctx.constraints) {
        if ctx.eval_limit.is_some_and(|limit| evaluated >= limit) {
            truncated = true;
            break;
        }
        let e = eval(&cand);
        evaluated += 1;
        observed.push(cand);
        let tabu = ctx.tabu.contains(&cand);
        if tracker.offer(cand, e) {
            best = e;
            incumbents.push(cand);
            aspirations += usize::from(tabu);
        } else if tabu && e.better_than(&best) {
            tabu_rejections += 1;
        }
    }
    // Every explored state (the centre included) is evaluated once.
    let mut out = tracker.finish(evaluated, evaluated);
    out.stats.truncated = truncated;
    Reference {
        out,
        observed,
        incumbents,
        tabu_rejections,
        aspirations,
    }
}

/// Runs [`ExhaustiveSweep`] and [`reference_sweep`] on one context and
/// checks they agree on the chosen state, the eval bits, every count,
/// the truncation flag and the observed sequence. Returns the
/// reference so callers can see which tabu paths fired.
fn check_sweep_matches_reference(ctx: &SearchContext<'_>, params: SearchParams) -> Reference {
    let mut observed = Vec::new();
    let out = ExhaustiveSweep::new(params).next_state_observed(ctx, &mut |s| observed.push(s));
    let reference = reference_sweep(ctx, params);
    let want = &reference.out;
    assert_eq!(out.state, want.state);
    assert_eq!(out.eval.est_rate.to_bits(), want.eval.est_rate.to_bits());
    assert_eq!(out.eval.est_watts.to_bits(), want.eval.est_watts.to_bits());
    assert_eq!(
        out.eval.perf_per_watt.to_bits(),
        want.eval.perf_per_watt.to_bits()
    );
    assert_eq!(out.eval.satisfies, want.eval.satisfies);
    assert_eq!(out.stats.explored, want.stats.explored);
    assert_eq!(out.stats.evaluated, want.stats.evaluated);
    assert_eq!(out.stats.best_rank_changes, want.stats.best_rank_changes);
    assert_eq!(out.stats.truncated, want.stats.truncated);
    assert_eq!(observed, reference.observed);
    reference
}

/// A tabu list drawn from the ball: each pick takes either one of the
/// no-tabu run's incumbents (so tabu turns better states away, or lets
/// them aspire) or any candidate it evaluated.
fn draw_tabu(free: &Reference, picks: &[usize]) -> Vec<SystemState> {
    picks
        .iter()
        .filter_map(|&p| {
            let pool = if p % 2 == 0 && !free.incumbents.is_empty() {
                &free.incumbents
            } else {
                &free.observed
            };
            (!pool.is_empty()).then(|| pool[p / 2 % pool.len()])
        })
        .collect()
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

    /// Random 1–4-cluster boards, bounds and constraint variants, with
    /// tabu lists drawn from the ball and eval limits from 0 to past
    /// the ball size: the sweep agrees with the per-candidate reference
    /// on the outcome, the stats and the observed sequence.
    #[test]
    fn sweep_matches_per_candidate_reference(
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
        tabu_picks in proptest::collection::vec(0usize..1 << 20, 0..6),
        limited in proptest::bool::ANY,
        limit_pick in 0usize..1 << 20,
    ) {
        let shape: Vec<(usize, usize, u32, u32)> = shape
            .into_iter()
            .map(|(c, l, s, r)| (c, l, s * 100, r))
            .collect();
        let board = board_from(&shape);
        let cur = seed_state(&board, &seed_cores, &seed_levels);
        let fx = Fixture::new(&board, &cur, constraints_variant, center);
        let params = SearchParams::new(m, n, d);
        let free = reference_sweep(&fx.ctx(&cur, rate, threads, &[], None), params);
        let tabu = draw_tabu(&free, &tabu_picks);
        let ball = free.observed.len() + 1;
        let eval_limit = limited.then(|| limit_pick % (ball + 3));
        check_sweep_matches_reference(&fx.ctx(&cur, rate, threads, &tabu, eval_limit), params);
    }

    /// An effectively infinite evaluation limit is the identity:
    /// state, eval and stats all match the unlimited search's.
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
        let strategy = inner.strategy_for(rate > center, 3_000);
        let plain = strategy.next_state(&ctx);
        let limited = strategy.next_state(&SearchContext {
            eval_limit: Some(usize::MAX),
            ..ctx
        });
        prop_assert_eq!(plain.state, limited.state);
        prop_assert_eq!(plain.eval, limited.eval);
        prop_assert_eq!(plain.stats, limited.stats);
    }

    /// A finite evaluation limit is never exceeded by more than one
    /// evaluation, and a binding limit reports truncation.
    #[test]
    fn budget_overrun_is_at_most_one_evaluation(
        shape in proptest::collection::vec((1usize..=4, 2usize..=5, 1u32..=3, 0u32..=12), 1..4),
        seed_cores in proptest::collection::vec(0usize..=4, 4..5),
        seed_levels in proptest::collection::vec(0usize..5, 4..5),
        rate in 1.0f64..60.0,
        center in 1.0f64..40.0,
        threads in 1usize..10,
        which in 0usize..4,
        budget_evals in 0usize..50,
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
        let strategy = inner.strategy_for(rate > center, 3_000);
        let free = strategy.next_state(&ctx);
        let out = strategy.next_state(&SearchContext {
            eval_limit: Some(budget_evals),
            ..ctx
        });
        prop_assert!(
            out.stats.evaluated <= budget_evals + 1,
            "evaluated {} exceeds budget {} + 1",
            out.stats.evaluated,
            budget_evals
        );
        if out.stats.evaluated < free.stats.evaluated {
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

/// The tabu draw makes both tabu paths fire: with the no-tabu run's
/// incumbents as the tabu list, some better candidates are turned away
/// and some aspire, and the sweep still matches the reference.
#[test]
fn tabu_rejection_and_aspiration_both_fire_against_the_reference() {
    let board = BoardSpec::odroid_xu3();
    let space = StateSpace::from_board(&board);
    let params = SearchParams::exhaustive();
    let (mut rejections, mut aspirations) = (0, 0);
    for cur in space.iter_all().step_by(11) {
        let fx = Fixture::new(&board, &cur, 0, 10.0);
        let free = reference_sweep(&fx.ctx(&cur, 12.0, 6, &[], None), params);
        let tabu = free.incumbents;
        let checked = check_sweep_matches_reference(&fx.ctx(&cur, 12.0, 6, &tabu, None), params);
        rejections += checked.tabu_rejections;
        aspirations += checked.aspirations;
    }
    assert!(rejections > 0, "no tabu rejection fired");
    assert!(aspirations > 0, "no aspiration fired");
}
