//! Search-policy presets: HARS-I, HARS-E and HARS-EI as evaluated in the
//! paper, the scalable beam/frontier policies for many-cluster boards,
//! and the knobs the sensitivity study sweeps. A policy is the managers'
//! default [`SearchStrategyFactory`]; the anytime decision budget is not
//! a policy but [`RuntimeConfig::budget_ns`](crate::config::RuntimeConfig),
//! which bounds whichever strategy a decision runs.

use serde::{Deserialize, Serialize};

use crate::sched::SchedulerKind;
use crate::search::{
    BeamSearch, ExhaustiveSweep, GreedyFrontier, SearchParams, SearchStrategy,
    SearchStrategyFactory,
};

/// How the runtime manager searches for the next state each adaptation
/// period. The policy is resolved per adaptation into a
/// [`SearchStrategy`] through its [`SearchStrategyFactory`] impl.
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

    /// The sweep-equivalent `(m, n, d)` bounds of this policy for the
    /// given violation direction — what the pre-trait managers passed
    /// to the search function. [`SearchPolicy::Frontier`] reports its
    /// single-step building block.
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
        }
    }
}

impl SearchStrategyFactory for SearchPolicy {
    /// Resolves the policy into the concrete strategy for one
    /// adaptation, given the direction of the target violation. The
    /// per-evaluation cost is not read: a decision budget reaches every
    /// strategy as its context's evaluation limit.
    fn strategy_for(
        &self,
        overperforming: bool,
        _cost_per_state_ns: u64,
    ) -> Box<dyn SearchStrategy> {
        match self {
            SearchPolicy::Incremental | SearchPolicy::Exhaustive(_) => {
                Box::new(ExhaustiveSweep::new(self.params_for(overperforming)))
            }
            SearchPolicy::Beam { width, d } => Box::new(BeamSearch::new(*width, *d)),
            SearchPolicy::AdaptiveBeam { width, d } => Box::new(BeamSearch::adaptive(*width, *d)),
            SearchPolicy::Frontier => Box::new(GreedyFrontier::default()),
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
    use crate::perf_est::PerfEstimator;
    use crate::power_est::PowerEstimator;
    use crate::search::{SearchConstraints, SearchContext};
    use crate::state::StateSpace;
    use heartbeats::PerfTarget;
    use hmp_sim::BoardSpec;

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

    /// Runs `f` on one over-performing decision context on the DynamIQ
    /// board, where the policies' strategies all reach different outcomes.
    fn with_context<R>(f: impl FnOnce(&SearchContext) -> R) -> R {
        let board = BoardSpec::dynamiq_1p_3m_4l();
        let space = StateSpace::from_board(&board);
        let perf = PerfEstimator::from_board(&board);
        let power = PowerEstimator::synthetic_for_board(&board);
        let target = PerfTarget::new(9.0, 11.0).unwrap();
        let constraints = SearchConstraints::unrestricted(&space);
        let current = space.max_state();
        f(&SearchContext {
            space: &space,
            current: &current,
            observed_rate: 30.0,
            threads: 8,
            target: &target,
            constraints: &constraints,
            perf: &perf,
            power: &power,
            tabu: &[],
            eval_limit: None,
        })
    }

    #[test]
    fn adaptive_beam_resolves_to_adaptive_strategy() {
        let resolved = SearchPolicy::adaptive_beam_default().strategy_for(true, 3_000);
        assert_eq!(resolved.name(), "adaptive-beam");
        with_context(|ctx| {
            let out = resolved.next_state(ctx);
            assert_eq!(out, BeamSearch::adaptive(8, 7).next_state(ctx));
            assert_ne!(out.stats, BeamSearch::new(8, 7).next_state(ctx).stats);
        });
        // Same sweep-equivalent bounds as the plain beam.
        assert_eq!(
            SearchPolicy::adaptive_beam_default().params_for(false),
            SearchPolicy::beam_default().params_for(false)
        );
    }

    #[test]
    fn policies_resolve_to_their_strategies() {
        let cases: [(SearchPolicy, Box<dyn SearchStrategy>); 5] = [
            (
                SearchPolicy::exhaustive_default(),
                Box::new(ExhaustiveSweep::new(SearchParams::exhaustive())),
            ),
            (
                SearchPolicy::Incremental,
                Box::new(ExhaustiveSweep::new(SearchParams::incremental_shrink())),
            ),
            (
                SearchPolicy::beam_default(),
                Box::new(BeamSearch::new(8, 7)),
            ),
            (
                SearchPolicy::adaptive_beam_default(),
                Box::new(BeamSearch::adaptive(8, 7)),
            ),
            (SearchPolicy::Frontier, Box::new(GreedyFrontier::default())),
        ];
        let mut outcomes = Vec::new();
        with_context(|ctx| {
            for (policy, direct) in &cases {
                let resolved = policy.strategy_for(true, 3_000);
                assert_eq!(resolved.name(), direct.name(), "{policy:?}");
                let out = resolved.next_state(ctx);
                assert_eq!(out, direct.next_state(ctx), "{policy:?}");
                outcomes.push(out);
            }
        });
        // The outcomes tell the strategies apart, so a policy resolving
        // to the wrong width, distance or beam flavour would fail.
        for (i, a) in outcomes.iter().enumerate() {
            for b in &outcomes[i + 1..] {
                assert_ne!(a.stats, b.stats);
            }
        }
    }
}
