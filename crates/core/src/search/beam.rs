//! [`BeamSearch`] — bounded-width Manhattan-ring expansion.
//!
//! The exhaustive sweep's candidate count is `O((m+n+1)^(2N))`; on a
//! 5-cluster server part that is billions of states per adaptation
//! period. Beam search explores the same neighborhood *structurally*:
//! starting from the current state it expands ring by ring (states at
//! Manhattan distance `1, 2, …, d`), but only the best `k` states of
//! each ring seed the next ring's expansion. Every ring candidate is a
//! single index step from a kept frontier state, so the work is bounded
//! by `O(k · d · N)` evaluations regardless of cluster count — the
//! quality-bounded pruning idea of Khasanov & Castrillon's runtime
//! mapping, applied to HARS's index space.
//!
//! With unbounded width the expansion reaches every state the
//! exhaustive sweep explores (each in-bounds state admits a monotone
//! valid path from the center — grow cores first, then shrink/retune),
//! which the candidate-for-candidate equivalence proptests pin down.

use std::collections::HashSet;

use crate::state::{StateIndex, SystemState};

use super::ball::for_each_unit_step;
use super::strategy::{BestTracker, EvalCache, FnvBuild, SearchContext, SearchStrategy};
use super::{CandidateEval, SearchOutcome, SearchParams};

/// The beam strategy: expand the best `width` frontier states per
/// Manhattan-distance ring, up to distance `params.d`, with per-dim
/// offsets bounded by `[-params.m, +params.n]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeamSearch {
    /// Frontier states kept per ring (`k`).
    pub width: usize,
    /// The `(m, n, d)` bounds; [`BeamSearch::new`] sets `m = n = d` so
    /// the distance cap alone shapes the neighborhood.
    pub params: SearchParams,
    /// Adaptive width: after each ring that leaves the incumbent best
    /// unchanged (`SearchStats::best_rank_changes` stalls), the frontier
    /// width for the following rings is halved (floor 1) — the stalled
    /// incumbent is evidence the neighborhood's gradient has been
    /// found, so the remaining rings only need a probe, not a sweep.
    /// Off by default; a stalled search with adaptation on explores a
    /// subset of the rings' candidates but can only keep or improve the
    /// incumbent it already has.
    pub adaptive: bool,
}

impl BeamSearch {
    /// A beam of `width` over rings up to distance `d`.
    ///
    /// # Panics
    ///
    /// Panics when `width == 0` or `d <= 0`.
    pub fn new(width: usize, d: i64) -> Self {
        assert!(width > 0, "beam width must be positive");
        Self {
            width,
            params: SearchParams::new(d, d, d),
            adaptive: false,
        }
    }

    /// [`BeamSearch::new`] with adaptive width-shrinking enabled.
    ///
    /// # Panics
    ///
    /// Panics when `width == 0` or `d <= 0`.
    pub fn adaptive(width: usize, d: i64) -> Self {
        Self {
            adaptive: true,
            ..Self::new(width, d)
        }
    }

    /// A beam with explicit `(m, n, d)` bounds (the equivalence tests
    /// run this against [`super::ExhaustiveSweep`] with the same
    /// bounds).
    ///
    /// # Panics
    ///
    /// Panics when `width == 0`.
    pub fn with_params(width: usize, params: SearchParams) -> Self {
        assert!(width > 0, "beam width must be positive");
        Self {
            width,
            params,
            adaptive: false,
        }
    }
}

impl SearchStrategy for BeamSearch {
    fn name(&self) -> &'static str {
        if self.adaptive {
            "adaptive-beam"
        } else {
            "beam"
        }
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

        let mut visited: HashSet<StateIndex, FnvBuild> = HashSet::default();
        visited.insert(cur_idx);
        let mut frontier: Vec<StateIndex> = vec![cur_idx];
        let mut cur_width = self.width;
        let mut truncated = false;
        'rings: for ring in 1..=self.params.d {
            let mut ring_improved = false;
            let mut next: Vec<(StateIndex, CandidateEval)> = Vec::new();
            for &idx in &frontier {
                // Single index steps through the shared walk
                // ([`for_each_unit_step`]): dimensions in the sweep's
                // order (cores of cluster N-1..0, then levels of
                // N-1..0) for deterministic tie handling. Once the
                // budget trips, the remaining (≤ 4N) visits fall
                // through without work.
                for_each_unit_step(n, &idx, &mut |c, is_level, nidx| {
                    if truncated {
                        return;
                    }
                    // Outward only: the neighbor must sit exactly on
                    // this ring, within the per-dimension bounds.
                    if nidx.manhattan(&cur_idx) != ring {
                        return;
                    }
                    let offset = if is_level {
                        nidx.level(c) - cur_idx.level(c)
                    } else {
                        nidx.cores(c) - cur_idx.cores(c)
                    };
                    if offset < -self.params.m || offset > self.params.n {
                        return;
                    }
                    if !visited.insert(nidx) {
                        return;
                    }
                    let Some(cand) = space.state_at(&nidx) else {
                        return;
                    };
                    let allowed = space.cluster_ids().all(|cc| {
                        cand.cores(cc) <= ctx.constraints.max_cores(cc)
                            && ctx
                                .constraints
                                .freq_change(cc)
                                .allows(cur_idx.level(cc), nidx.level(cc))
                    });
                    if !allowed {
                        return;
                    }
                    if ctx.out_of_budget(&cache) {
                        truncated = true;
                        return;
                    }
                    let eval = ctx.evaluate(&nidx, &mut cache);
                    explored += 1;
                    observer(cand);
                    ring_improved |= tracker.offer(cand, eval);
                    next.push((nidx, eval));
                });
                if truncated {
                    break 'rings;
                }
            }
            if next.is_empty() {
                break;
            }
            if self.adaptive && !ring_improved {
                cur_width = (cur_width / 2).max(1);
            }
            // Keep the best `cur_width` ring states as the next frontier
            // (stable: ties stay in visit order).
            next.sort_by(|a, b| a.1.cmp_better_first(&b.1));
            next.truncate(cur_width);
            frontier = next.into_iter().map(|(idx, _)| idx).collect();
        }
        let mut out = tracker.finish(explored, cache.evaluated());
        out.stats.truncated = truncated;
        out
    }
}
