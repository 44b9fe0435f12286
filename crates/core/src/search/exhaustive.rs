//! [`ExhaustiveSweep`] — Algorithm 2's `(m, n, d)`-bounded search over
//! all `2N` index dimensions, enumerated directly as a Manhattan
//! distance ball ([`super::ball`]) instead of the legacy
//! `(m+n+1)^(2N)` box odometer. The candidate set, visit order and
//! therefore every decision are bit-identical to the pre-refactor
//! sweep (and, through it, to the original 2-cluster code) — pinned by
//! the legacy-odometer proptest in `tests/search_ball.rs` — but the
//! per-decision work is proportional to the in-cap candidate count:
//! on a 4-cluster board with the paper's `(4, 4, 7)` bounds, ~68k
//! enumeration steps for ~94k candidates instead of ~43M odometer
//! iterations — 633× fewer (see [`count_enumeration_nodes`]; the
//! `decision_perf` bench asserts ≥ 50×).
//!
//! Also home of [`count_sweep_candidates`], the closed-form count of
//! the states the sweep would explore — the yardstick the
//! `search_scaling` bench compares the bounded strategies against.

use hmp_sim::ClusterId;

use crate::state::StateIndex;

use super::ball::BallDims;
use super::strategy::{BestTracker, EvalCache, SearchContext, SearchStrategy};
use super::{FreqChange, SearchOutcome, SearchParams};

/// The exhaustive strategy: sweep every state within per-dimension
/// offsets `[-m, +n]` and Manhattan distance `d` of the current state,
/// in the paper's dimension order (cores of cluster `N-1..0`, then
/// ladder levels of cluster `N-1..0`, last dimension fastest).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExhaustiveSweep {
    /// The `(m, n, d)` exploration bounds.
    pub params: SearchParams,
}

impl ExhaustiveSweep {
    /// A sweep with the given bounds.
    pub fn new(params: SearchParams) -> Self {
        Self { params }
    }
}

/// Builds the per-dimension offset bounds of the sweep's distance
/// ball: each dimension's `[-m, +n]` window intersected with the
/// board's valid coordinate interval, the free-core caps and the
/// [`FreqChange`] gates — so the enumeration generates only offset
/// vectors whose per-dimension coordinates are individually legal
/// (the one remaining cross-dimension check is the all-clusters-
/// zero-cores exclusion).
fn sweep_ball_dims(
    ctx: &SearchContext<'_>,
    params: SearchParams,
    cur_idx: &StateIndex,
) -> BallDims {
    let space = ctx.space;
    let n = space.n_clusters();
    let mut dims = BallDims::new(2 * n);
    for (pos, i) in (0..n).rev().enumerate() {
        let c = ClusterId(i);
        let max_cores = space.max_cores(c).min(ctx.constraints.max_cores(c)) as i64;
        let center = cur_idx.cores(c);
        dims.set(
            pos,
            (-params.m).max(-center),
            params.n.min(max_cores - center),
        );
        let level = cur_idx.level(c);
        let top = space.ladder(c).len() as i64 - 1;
        let (lo, hi) = match ctx.constraints.freq_change(c) {
            FreqChange::Any => (0, top),
            FreqChange::IncreaseOnly => (level, top),
            FreqChange::Fixed => (level, level),
        };
        dims.set(
            n + pos,
            (-params.m).max(lo - level),
            params.n.min(hi - level),
        );
    }
    dims
}

/// The number of enumeration steps (walk nodes) the distance-ball
/// sweep takes from `ctx.current` — the "iterations" the legacy box
/// odometer spent `(m+n+1)^(2N)` on. Proportional to the candidate
/// count (every node extends to at least one in-cap vector); the
/// `decision_perf` bench reports the ratio against the box volume.
pub fn count_enumeration_nodes(ctx: &SearchContext<'_>, params: SearchParams) -> u64 {
    let cur_idx = ctx
        .space
        .index_of(ctx.current)
        .expect("current state must be on the board's ladders");
    let dims = sweep_ball_dims(ctx, params, &cur_idx);
    let (nodes, _) = dims.enumerate(params.d, &mut |_| true);
    nodes
}

impl SearchStrategy for ExhaustiveSweep {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn next_state_observed(
        &self,
        ctx: &SearchContext<'_>,
        observer: &mut dyn FnMut(crate::state::SystemState),
    ) -> SearchOutcome {
        let params = self.params;
        let space = ctx.space;
        let n = space.n_clusters();
        debug_assert_eq!(ctx.constraints.n_clusters(), n);
        let cur_idx = space
            .index_of(ctx.current)
            .expect("current state must be on the board's ladders");
        let mut cache = EvalCache::new();
        let current_eval = ctx.evaluate(&cur_idx, &mut cache);
        let mut tracker = BestTracker::new(*ctx.current, current_eval, ctx.tabu);
        let mut explored = 1usize; // the current state itself

        // Distance-ball enumeration over the 2N dimensions in the
        // paper's nesting order (cores of cluster N-1..0, then levels
        // of N-1..0, last dimension fastest): only in-cap, in-bounds
        // offset vectors are generated, in the legacy odometer's exact
        // order.
        let dims = sweep_ball_dims(ctx, params, &cur_idx);
        let mut cand_idx = cur_idx;
        let mut truncated = false;
        let (nodes, _) = dims.enumerate(params.d, &mut |offset| {
            if offset.iter().all(|&o| o == 0) {
                return true; // the center: already the incumbent
            }
            let mut total_cores = 0i64;
            for (pos, i) in (0..n).rev().enumerate() {
                let c = ClusterId(i);
                let cores = cur_idx.cores(c) + offset[pos];
                cand_idx.set_cores(c, cores);
                cand_idx.set_level(c, cur_idx.level(c) + offset[n + pos]);
                total_cores += cores;
            }
            if total_cores == 0 {
                return true; // no cores anywhere: not a valid state
            }
            let cand = space
                .state_at(&cand_idx)
                .expect("ball dimensions are clamped to the valid intervals");
            if ctx.out_of_budget(&cache) {
                truncated = true;
                return false;
            }
            // The ball visits each index exactly once: skip the
            // memoization map (see `evaluate_uncached`).
            let eval = ctx.evaluate_uncached(&cand_idx, &mut cache);
            explored += 1;
            observer(cand);
            tracker.offer(cand, eval);
            true
        });
        let mut out = tracker.finish(explored, cache.evaluated());
        out.stats.truncated = truncated;
        out.stats.nodes = nodes;
        out
    }
}

/// The number of states [`ExhaustiveSweep`] would explore from
/// `ctx.current` — including the current state itself — computed in
/// closed form (a small distance-budget convolution over the `2N`
/// dimensions) instead of by running the `(m+n+1)^(2N)` sweep.
///
/// Exact: per-dimension board bounds, the constraint caps
/// (`max_cores`, [`FreqChange`]) and the all-clusters-zero-cores
/// exclusion are all accounted for. This is the denominator of the
/// `search_scaling` bench's "% of exhaustive" column on boards where
/// the sweep itself is intractable.
///
/// # Panics
///
/// Panics if the current state is not on the board's ladders.
pub fn count_sweep_candidates(ctx: &SearchContext<'_>, params: SearchParams) -> u128 {
    let space = ctx.space;
    let n = space.n_clusters();
    let cur_idx = space
        .index_of(ctx.current)
        .expect("current state must be on the board's ladders");
    let d = params.d as usize;

    // Per dimension: how many allowed offsets exist at each |offset|.
    // An offset is allowed when it lies in [-m, n] and the resulting
    // coordinate lies in the dimension's valid interval.
    let dist_counts = |center: i64, lo: i64, hi: i64| -> Vec<u128> {
        let mut counts = vec![0u128; d + 1];
        for o in -params.m..=params.n {
            let coord = center + o;
            let dist = o.unsigned_abs() as usize;
            if coord >= lo && coord <= hi && dist <= d {
                counts[dist] += 1;
            }
        }
        counts
    };

    let mut core_dims: Vec<Vec<u128>> = Vec::with_capacity(n);
    let mut level_dims: Vec<Vec<u128>> = Vec::with_capacity(n);
    for c in space.cluster_ids() {
        let max_cores = space.max_cores(c).min(ctx.constraints.max_cores(c)) as i64;
        core_dims.push(dist_counts(cur_idx.cores(c), 0, max_cores));
        let len = space.ladder(c).len() as i64;
        let (lo, hi) = match ctx.constraints.freq_change(c) {
            FreqChange::Any => (0, len - 1),
            FreqChange::IncreaseOnly => (cur_idx.level(c), len - 1),
            FreqChange::Fixed => (cur_idx.level(c), cur_idx.level(c)),
        };
        level_dims.push(dist_counts(cur_idx.level(c), lo, hi));
    }

    // Distance-budget convolution: f[t] = #offset vectors at distance t.
    let convolve = |dims: &[Vec<u128>], budget: usize| -> Vec<u128> {
        let mut f = vec![0u128; budget + 1];
        f[0] = 1;
        for counts in dims {
            let mut g = vec![0u128; budget + 1];
            for (t, &ways) in f.iter().enumerate() {
                if ways == 0 {
                    continue;
                }
                for (dt, &c) in counts.iter().enumerate() {
                    if c > 0 && t + dt <= budget {
                        g[t + dt] += ways * c;
                    }
                }
            }
            f = g;
        }
        f
    };

    let mut all_dims = core_dims.clone();
    all_dims.extend(level_dims.iter().cloned());
    let total: u128 = convolve(&all_dims, d).iter().sum();

    // Subtract the zero-core combinations (state_at rejects them): every
    // cluster's core coordinate at 0, which costs exactly the current
    // core counts in distance and requires each count to be within m.
    let zero_dist: i64 = space.cluster_ids().map(|c| cur_idx.cores(c)).sum();
    let reachable = space.cluster_ids().all(|c| cur_idx.cores(c) <= params.m);
    let zero_core = if reachable && zero_dist <= params.d {
        let budget = (params.d - zero_dist) as usize;
        convolve(&level_dims, budget).iter().sum()
    } else {
        0u128
    };

    // `total` counts the all-zero-offset vector once; the sweep skips it
    // as a candidate but evaluates the current state, so the counts
    // cancel and no ±1 correction is needed.
    total - zero_core
}

#[cfg(test)]
mod tests {
    use super::super::SearchConstraints;
    use super::*;
    use crate::perf_est::PerfEstimator;
    use crate::power_est::{LinearCoeff, PowerEstimator};
    use crate::state::{StateSpace, SystemState};
    use heartbeats::PerfTarget;
    use hmp_sim::BoardSpec;

    fn power_for(board: &BoardSpec) -> PowerEstimator {
        PowerEstimator::from_clusters(
            board
                .cluster_ids()
                .map(|c| {
                    let ladder = board.ladder(c).clone();
                    let table: Vec<LinearCoeff> = (0..ladder.len())
                        .map(|i| LinearCoeff {
                            alpha: 0.1 * (c.index() + 1) as f64 + 0.02 * i as f64,
                            beta: 0.1,
                        })
                        .collect();
                    (ladder, table)
                })
                .collect(),
        )
    }

    /// The closed-form count matches the actually-run sweep, across
    /// boards, centers, bounds and constraints.
    #[test]
    fn closed_form_count_matches_the_sweep() {
        for board in [BoardSpec::odroid_xu3(), BoardSpec::dynamiq_1p_3m_4l()] {
            let space = StateSpace::from_board(&board);
            let perf = PerfEstimator::from_board(&board);
            let power = power_for(&board);
            let target = PerfTarget::new(9.0, 11.0).unwrap();
            let centers = [space.max_state(), {
                let per: Vec<(usize, hmp_sim::FreqKhz)> = board
                    .cluster_ids()
                    .map(|c| (usize::from(c.index() == 0), board.ladder(c).min()))
                    .collect();
                SystemState::new(&per)
            }];
            for cur in centers {
                for (m, n, d) in [(4, 4, 7), (1, 2, 3), (0, 1, 1), (4, 4, 20)] {
                    let params = SearchParams::new(m, n, d);
                    let mut constraints = SearchConstraints::unrestricted(&space);
                    for variant in 0..3 {
                        if variant == 1 {
                            constraints.set_max_cores(ClusterId(0), cur.cores(ClusterId(0)));
                        }
                        if variant == 2 {
                            constraints.set_freq_change(ClusterId(0), FreqChange::IncreaseOnly);
                            let last = ClusterId(board.n_clusters() - 1);
                            constraints.set_freq_change(last, FreqChange::Fixed);
                        }
                        let ctx = SearchContext {
                            space: &space,
                            current: &cur,
                            observed_rate: 12.0,
                            threads: 6,
                            target: &target,
                            constraints: &constraints,
                            perf: &perf,
                            power: &power,
                            tabu: &[],
                            eval_limit: None,
                        };
                        let out = ExhaustiveSweep::new(params).next_state(&ctx);
                        let counted = count_sweep_candidates(&ctx, params);
                        assert_eq!(
                            counted, out.stats.explored as u128,
                            "{} m={m} n={n} d={d} variant={variant} cur={cur}",
                            board.name
                        );
                        // The walk-node count stamped on the stats must
                        // agree with the standalone counter.
                        assert_eq!(
                            out.stats.nodes,
                            count_enumeration_nodes(&ctx, params),
                            "{} m={m} n={n} d={d} variant={variant} cur={cur}",
                            board.name
                        );
                    }
                }
            }
        }
    }
}
