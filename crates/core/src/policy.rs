//! Search-policy presets: HARS-I, HARS-E and HARS-EI as evaluated in the
//! paper, the scalable beam/frontier policies for many-cluster boards,
//! and the knobs the sensitivity study sweeps.

use serde::{Deserialize, Serialize};

use crate::sched::SchedulerKind;
use crate::search::{
    AnyStrategy, BeamSearch, BudgetedSearch, ExhaustiveSweep, GreedyFrontier, SearchParams,
};

/// How the runtime manager searches for the next state each adaptation
/// period. The policy is resolved per adaptation into a
/// [`crate::search::SearchStrategy`] via [`SearchPolicy::strategy_for`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchPolicy {
    /// HARS-I: one incremental step, direction chosen by whether the app
    /// over- or under-performs (`m=1,n=0,d=1` / `m=0,n=1,d=1`).
    Incremental,
    /// HARS-E style: the full sweep with fixed symmetric bounds
    /// regardless of direction.
    Exhaustive(SearchParams),
    /// Beam search: expand the best `width` frontier states per
    /// Manhattan-distance ring, up to distance `d` — `O(width·d·N)`
    /// evaluations instead of the sweep's `O((m+n+1)^(2N))`, the
    /// policy of choice on 4+-cluster server boards.
    Beam {
        /// Frontier states kept per ring.
        width: usize,
        /// Manhattan-distance cap.
        d: i64,
    },
    /// [`SearchPolicy::Beam`] with adaptive width-shrinking: each ring
    /// that fails to improve the incumbent halves the frontier width
    /// (floor 1) for the remaining rings, cutting evaluations on boards
    /// where the best state stabilizes early. When every ring improves
    /// the incumbent the walk is identical to the plain beam's.
    AdaptiveBeam {
        /// Initial frontier width.
        width: usize,
        /// Manhattan-distance cap.
        d: i64,
    },
    /// Greedy frontier: single-dimension coordinate descent until no
    /// neighbor improves — HARS-I generalized to arbitrary walk length
    /// and cluster counts.
    Frontier,
    /// Anytime wrapper: run `inner` until the modeled decision budget
    /// `budget_ns` is exhausted (charged at the manager's
    /// `cost_per_state_ns` per estimator evaluation), then yield the
    /// best-so-far incumbent with
    /// [`SearchStats::truncated`](crate::search::SearchStats) set. A
    /// budgeted search never exceeds its allowance by more than the
    /// mandatory current-state evaluation, so a manager can bound its
    /// per-period overhead regardless of board size or inner policy.
    Budgeted {
        /// The wrapped policy (any non-budgeted variant).
        inner: Box<SearchPolicy>,
        /// Modeled decision-time allowance per adaptation (ns).
        budget_ns: u64,
    },
}

impl SearchPolicy {
    /// The paper's exhaustive setting (`m=4, n=4, d=7`).
    pub fn exhaustive_default() -> Self {
        SearchPolicy::Exhaustive(SearchParams::exhaustive())
    }

    /// A beam matching the exhaustive default's distance cap with a
    /// width that keeps 4+-cluster decisions in the hundreds of
    /// evaluations (`width=8, d=7`).
    pub fn beam_default() -> Self {
        SearchPolicy::Beam { width: 8, d: 7 }
    }

    /// [`SearchPolicy::beam_default`] with adaptive width-shrinking.
    pub fn adaptive_beam_default() -> Self {
        SearchPolicy::AdaptiveBeam { width: 8, d: 7 }
    }

    /// Wraps `inner` in an anytime decision budget of `budget_ns`
    /// modeled nanoseconds per adaptation.
    pub fn budgeted(inner: SearchPolicy, budget_ns: u64) -> Self {
        SearchPolicy::Budgeted {
            inner: Box::new(inner),
            budget_ns,
        }
    }

    /// The sweep-equivalent `(m, n, d)` bounds of this policy for the
    /// given violation direction — what the pre-trait managers passed
    /// to the search function. [`SearchPolicy::Frontier`] reports its
    /// single-step building block; [`SearchPolicy::Budgeted`] its
    /// inner policy's bounds (the budget shrinks work, not reach).
    pub fn params_for(&self, overperforming: bool) -> SearchParams {
        match self {
            SearchPolicy::Incremental => {
                if overperforming {
                    SearchParams::incremental_shrink()
                } else {
                    SearchParams::incremental_grow()
                }
            }
            SearchPolicy::Exhaustive(p) => *p,
            SearchPolicy::Beam { d, .. } | SearchPolicy::AdaptiveBeam { d, .. } => {
                SearchParams::new(*d, *d, *d)
            }
            SearchPolicy::Frontier => SearchParams::new(1, 1, 1),
            SearchPolicy::Budgeted { inner, .. } => inner.params_for(overperforming),
        }
    }

    /// Resolves the policy into the concrete strategy for one
    /// adaptation, given the direction of the target violation and the
    /// manager's modeled per-evaluation cost (`cost_per_state_ns`,
    /// which [`SearchPolicy::Budgeted`] converts into its evaluation
    /// allowance; the other policies ignore it).
    pub fn strategy_for(&self, overperforming: bool, cost_per_state_ns: u64) -> AnyStrategy {
        match self {
            SearchPolicy::Incremental | SearchPolicy::Exhaustive(_) => {
                AnyStrategy::Exhaustive(ExhaustiveSweep::new(self.params_for(overperforming)))
            }
            SearchPolicy::Beam { width, d } => AnyStrategy::Beam(BeamSearch::new(*width, *d)),
            SearchPolicy::AdaptiveBeam { width, d } => {
                AnyStrategy::Beam(BeamSearch::adaptive(*width, *d))
            }
            SearchPolicy::Frontier => AnyStrategy::Frontier(GreedyFrontier::default()),
            SearchPolicy::Budgeted { inner, budget_ns } => {
                AnyStrategy::Budgeted(BudgetedSearch::new(
                    inner.strategy_for(overperforming, cost_per_state_ns),
                    *budget_ns,
                    cost_per_state_ns,
                ))
            }
        }
    }
}

/// A named HARS variant: policy + scheduler, as compared in Figures
/// 5.1/5.2.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HarsVariant {
    /// Display name ("HARS-I", "HARS-E", "HARS-EI").
    pub name: &'static str,
    /// Search policy.
    pub policy: SearchPolicy,
    /// Thread scheduler.
    pub scheduler: SchedulerKind,
}

/// HARS-I: incremental search, chunk-based scheduler.
pub fn hars_i() -> HarsVariant {
    HarsVariant {
        name: "HARS-I",
        policy: SearchPolicy::Incremental,
        scheduler: SchedulerKind::Chunk,
    }
}

/// HARS-E: exhaustive search (`m=4,n=4,d=7`), chunk-based scheduler.
pub fn hars_e() -> HarsVariant {
    HarsVariant {
        name: "HARS-E",
        policy: SearchPolicy::exhaustive_default(),
        scheduler: SchedulerKind::Chunk,
    }
}

/// HARS-EI: exhaustive search with the interleaving scheduler.
pub fn hars_ei() -> HarsVariant {
    HarsVariant {
        name: "HARS-EI",
        policy: SearchPolicy::exhaustive_default(),
        scheduler: SchedulerKind::Interleaved,
    }
}

/// HARS-EI with an explicit distance bound — the Figure 5.3 sweep.
pub fn hars_ei_with_distance(d: i64) -> HarsVariant {
    HarsVariant {
        name: "HARS-EI",
        policy: SearchPolicy::Exhaustive(SearchParams::new(4, 4, d)),
        scheduler: SchedulerKind::Interleaved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::SearchStrategy;

    #[test]
    fn incremental_direction_switch() {
        let p = SearchPolicy::Incremental;
        let shrink = p.params_for(true);
        assert_eq!((shrink.m, shrink.n, shrink.d), (1, 0, 1));
        let grow = p.params_for(false);
        assert_eq!((grow.m, grow.n, grow.d), (0, 1, 1));
    }

    #[test]
    fn exhaustive_ignores_direction() {
        let p = SearchPolicy::exhaustive_default();
        assert_eq!(p.params_for(true), p.params_for(false));
        let params = p.params_for(true);
        assert_eq!((params.m, params.n, params.d), (4, 4, 7));
    }

    #[test]
    fn variants_match_paper() {
        assert_eq!(hars_i().scheduler, SchedulerKind::Chunk);
        assert_eq!(hars_e().scheduler, SchedulerKind::Chunk);
        assert_eq!(hars_ei().scheduler, SchedulerKind::Interleaved);
        assert_eq!(hars_i().policy, SearchPolicy::Incremental);
        assert_eq!(hars_e().policy, hars_ei().policy);
    }

    #[test]
    fn distance_sweep_variant() {
        let v = hars_ei_with_distance(5);
        match v.policy {
            SearchPolicy::Exhaustive(p) => assert_eq!(p.d, 5),
            _ => panic!("expected exhaustive"),
        }
    }

    #[test]
    fn policies_resolve_to_their_strategies() {
        assert_eq!(
            SearchPolicy::exhaustive_default()
                .strategy_for(true, 3_000)
                .name(),
            "exhaustive"
        );
        assert_eq!(
            SearchPolicy::Incremental.strategy_for(false, 3_000).name(),
            "exhaustive"
        );
        match SearchPolicy::beam_default().strategy_for(true, 3_000) {
            AnyStrategy::Beam(b) => {
                assert_eq!(b.width, 8);
                assert_eq!(b.params.d, 7);
            }
            other => panic!("expected beam, got {other:?}"),
        }
        assert_eq!(
            SearchPolicy::Frontier.strategy_for(true, 3_000).name(),
            "frontier"
        );
    }

    #[test]
    fn adaptive_beam_resolves_to_adaptive_strategy() {
        match SearchPolicy::adaptive_beam_default().strategy_for(true, 3_000) {
            AnyStrategy::Beam(b) => {
                assert!(b.adaptive);
                assert_eq!((b.width, b.params.d), (8, 7));
            }
            other => panic!("expected adaptive beam, got {other:?}"),
        }
        assert_eq!(
            SearchPolicy::adaptive_beam_default()
                .strategy_for(true, 3_000)
                .name(),
            "adaptive-beam"
        );
        // Same sweep-equivalent bounds as the plain beam.
        assert_eq!(
            SearchPolicy::adaptive_beam_default().params_for(false),
            SearchPolicy::beam_default().params_for(false)
        );
    }

    #[test]
    fn budgeted_resolves_to_wrapped_strategy() {
        let p = SearchPolicy::budgeted(SearchPolicy::exhaustive_default(), 300_000);
        // Bounds delegate to the inner policy.
        assert_eq!(
            p.params_for(true),
            SearchPolicy::exhaustive_default().params_for(true)
        );
        match p.strategy_for(true, 3_000) {
            AnyStrategy::Budgeted(b) => {
                assert_eq!(b.budget_ns, 300_000);
                assert_eq!(b.cost_per_state_ns, 3_000);
                assert_eq!(b.max_evaluations(), 100);
                match *b.inner {
                    AnyStrategy::Exhaustive(_) => {}
                    ref other => panic!("expected exhaustive inner, got {other:?}"),
                }
            }
            other => panic!("expected budgeted, got {other:?}"),
        }
        assert_eq!(p.strategy_for(true, 3_000).name(), "budgeted");
    }
}
