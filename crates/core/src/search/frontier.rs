//! [`GreedyFrontier`] — coordinate-descent search.
//!
//! The large-N generalization of HARS-I: instead of sweeping a
//! neighborhood, repeatedly make the best *single-dimension* move (a
//! core-count or ladder-level change on one cluster) that strictly
//! improves on the position under Algorithm 2's ordering, and stop
//! when no dimension offers an improvement. Each round line-searches
//! every coordinate — all valid values of each of the `2N` dimensions,
//! not just ±1 — which is what lets the walk cross the one-step
//! valleys the greedy Table 3.1 assignment's ceil-rounding carves into
//! the estimator surface (a +1 frequency step can re-attract threads
//! and look worse while +3 is strictly better; classic Gauss–Seidel
//! coordinate minimization handles both).
//!
//! A round costs `O(Σ_c (cores_c + levels_c))` evaluations and every
//! move strictly improves a well-founded key, so the walk terminates —
//! `O(rounds · N · span)` total, independent of the `(m+n+1)^(2N)`
//! sweep blowup, and with no distance cap (unlike HARS-I it can cross
//! the whole space in one adaptation period, one dimension at a time).
//!
//! Because successive rounds revisit each other's coordinate lines,
//! the per-period [`EvalCache`](super::EvalCache) does real work here:
//! on longer walks a large share of considered candidates are cache
//! hits.

use hmp_sim::ClusterId;

use crate::state::{StateIndex, SystemState};

use super::strategy::{BestTracker, EvalCache, SearchContext, SearchStrategy};
use super::{CandidateEval, FreqChange, SearchOutcome};

/// The coordinate-descent strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreedyFrontier {
    /// Safety cap on descent rounds (each round moves one dimension).
    /// Strict improvement already guarantees termination; the cap
    /// bounds the worst case on adversarial estimator surfaces.
    pub max_steps: usize,
}

impl Default for GreedyFrontier {
    fn default() -> Self {
        Self { max_steps: 4096 }
    }
}

impl SearchStrategy for GreedyFrontier {
    fn name(&self) -> &'static str {
        "frontier"
    }

    fn next_state_observed(
        &self,
        ctx: &SearchContext<'_>,
        observer: &mut dyn FnMut(SystemState),
    ) -> SearchOutcome {
        let space = ctx.space;
        let n = space.n_clusters();
        debug_assert_eq!(ctx.constraints.n_clusters(), n);
        let cur_idx = space
            .index_of(ctx.current)
            .expect("current state must be on the board's ladders");
        let mut cache = EvalCache::new();
        let current_eval = ctx.evaluate(&cur_idx, &mut cache);
        let mut tracker = BestTracker::new(*ctx.current, current_eval, ctx.tabu);
        let mut explored = 1usize;

        let mut pos_idx = cur_idx;
        let mut pos_eval = current_eval;
        let mut truncated = false;
        'descent: for _ in 0..self.max_steps {
            let mut best_move: Option<(StateIndex, SystemState, CandidateEval)> = None;
            for i in (0..n).rev() {
                let c = ClusterId(i);
                // The two coordinate lines of this cluster: core counts
                // within the free-core cap, ladder levels within the
                // FreqChange interval (anchored at the *search start*,
                // like every other strategy).
                let core_hi = space.max_cores(c).min(ctx.constraints.max_cores(c)) as i64;
                let level_max = space.ladder(c).len() as i64 - 1;
                let (level_lo, level_hi) = match ctx.constraints.freq_change(c) {
                    FreqChange::Any => (0, level_max),
                    FreqChange::IncreaseOnly => (cur_idx.level(c), level_max),
                    FreqChange::Fixed => (cur_idx.level(c), cur_idx.level(c)),
                };
                for (is_level, lo, hi) in [(false, 0, core_hi), (true, level_lo, level_hi)] {
                    let here = if is_level {
                        pos_idx.level(c)
                    } else {
                        pos_idx.cores(c)
                    };
                    for v in lo..=hi {
                        if v == here {
                            continue;
                        }
                        let mut nidx = pos_idx;
                        if is_level {
                            nidx.set_level(c, v);
                        } else {
                            nidx.set_cores(c, v);
                        }
                        let Some(cand) = space.state_at(&nidx) else {
                            continue; // the all-zero-cores point
                        };
                        // Revisited neighbors are free cache hits: an
                        // exhausted budget only ends the descent when
                        // the candidate would actually be evaluated.
                        if ctx.out_of_budget_for(&nidx, &cache) {
                            truncated = true;
                            break 'descent;
                        }
                        let first_visit = cache.evaluated();
                        let eval = ctx.evaluate(&nidx, &mut cache);
                        explored += 1;
                        if cache.evaluated() > first_visit {
                            observer(cand);
                        }
                        // A tabu state may not be moved to (unless it
                        // aspires past the incumbent best).
                        if !tracker.admits(&cand, &eval) {
                            continue;
                        }
                        if eval.better_than(&pos_eval)
                            && best_move
                                .as_ref()
                                .is_none_or(|(_, _, b)| eval.better_than(b))
                        {
                            best_move = Some((nidx, cand, eval));
                        }
                    }
                }
            }
            let Some((nidx, cand, eval)) = best_move else {
                break; // coordinate-wise optimum: no dimension improves
            };
            tracker.offer(cand, eval);
            pos_idx = nidx;
            pos_eval = eval;
        }
        let mut out = tracker.finish(explored, cache.evaluated());
        out.stats.truncated = truncated;
        out
    }
}
