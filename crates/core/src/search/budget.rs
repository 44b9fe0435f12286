//! [`BudgetedSearch`] — the anytime wrapper that bounds any inner
//! strategy's decision cost by a modeled time budget.
//!
//! The runtime-overhead model charges `cost_per_state_ns` per distinct
//! estimator evaluation (cache hits are free). The wrapper converts a
//! `budget_ns` allowance into an evaluation limit, hands it to the
//! inner strategy through [`SearchContext::eval_limit`], and the
//! strategies check the limit *before* each evaluation: when it is
//! reached they stop enumerating and return the best-so-far incumbent
//! with [`SearchStats::truncated`](super::SearchStats) set. Because
//! the current state is always evaluated first (the incumbent the
//! search may never do worse than), a search can exceed its budget by
//! at most that one evaluation — the anytime contract the
//! `budgeted_never_exceeds_budget` tests pin down.
//!
//! With an effectively infinite budget the wrapper is the identity:
//! the inner strategy runs to completion and the outcome (state, eval,
//! stats) is equal, which the `infinite_budget_matches_inner` proptest
//! asserts.

use super::strategy::{AnyStrategy, SearchContext, SearchStrategy};
use super::SearchOutcome;
use crate::state::SystemState;

/// An anytime decision budget around any shipped strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetedSearch {
    /// The wrapped strategy.
    pub inner: Box<AnyStrategy>,
    /// Modeled decision-time allowance (ns).
    pub budget_ns: u64,
    /// Modeled cost per estimator evaluation (ns) — the managers'
    /// `cost_per_state_ns`.
    pub cost_per_state_ns: u64,
}

impl BudgetedSearch {
    /// Wraps `inner` with a `budget_ns` allowance charged at
    /// `cost_per_state_ns` per evaluation.
    pub fn new(inner: AnyStrategy, budget_ns: u64, cost_per_state_ns: u64) -> Self {
        Self {
            inner: Box::new(inner),
            budget_ns,
            cost_per_state_ns,
        }
    }

    /// The evaluation limit the budget buys. A zero per-state cost
    /// models free evaluations: no limit.
    pub fn max_evaluations(&self) -> usize {
        self.budget_ns
            .checked_div(self.cost_per_state_ns)
            .map_or(usize::MAX, |evals| {
                usize::try_from(evals).unwrap_or(usize::MAX)
            })
    }
}

impl SearchStrategy for BudgetedSearch {
    fn name(&self) -> &'static str {
        "budgeted"
    }

    fn next_state_observed(
        &self,
        ctx: &SearchContext<'_>,
        observer: &mut dyn FnMut(SystemState),
    ) -> SearchOutcome {
        let mut inner_ctx = *ctx;
        // Nested budgets compose: the tighter limit wins.
        let limit = self
            .max_evaluations()
            .min(ctx.eval_limit.unwrap_or(usize::MAX));
        inner_ctx.eval_limit = Some(limit);
        self.inner.next_state_observed(&inner_ctx, observer)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{BeamSearch, ExhaustiveSweep, SearchConstraints, SearchParams};
    use super::*;
    use crate::perf_est::PerfEstimator;
    use crate::power_est::PowerEstimator;
    use crate::state::StateSpace;
    use heartbeats::PerfTarget;
    use hmp_sim::BoardSpec;

    fn fixture() -> (StateSpace, PerfEstimator, PowerEstimator, PerfTarget) {
        let board = BoardSpec::dynamiq_1p_3m_4l();
        let space = StateSpace::from_board(&board);
        let perf = PerfEstimator::from_board(&board);
        let power = PowerEstimator::synthetic_for_board(&board);
        let target = PerfTarget::new(9.0, 11.0).unwrap();
        (space, perf, power, target)
    }

    #[test]
    fn budget_truncates_and_never_overruns() {
        let (space, perf, power, target) = fixture();
        let constraints = SearchConstraints::unrestricted(&space);
        let current = space.max_state();
        let ctx = SearchContext {
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
        };
        let inner = AnyStrategy::Exhaustive(ExhaustiveSweep::new(SearchParams::exhaustive()));
        let free = inner.next_state(&ctx);
        assert!(!free.stats.truncated);
        let cost = 3_000u64;
        for budget_evals in [0usize, 1, 7, 100] {
            let b = BudgetedSearch::new(inner.clone(), budget_evals as u64 * cost, cost);
            assert_eq!(b.max_evaluations(), budget_evals);
            let out = b.next_state(&ctx);
            assert!(
                out.stats.evaluated <= budget_evals + 1,
                "budget {budget_evals}: evaluated {} (> budget + 1)",
                out.stats.evaluated
            );
            if budget_evals < free.stats.evaluated {
                assert!(out.stats.truncated, "budget {budget_evals} must truncate");
            }
            // Anytime: the incumbent is never worse than the current
            // state under Algorithm 2's ordering (both evaluated here).
            assert!(space.contains(&out.state));
        }
    }

    #[test]
    fn infinite_budget_is_the_identity() {
        let (space, perf, power, target) = fixture();
        let constraints = SearchConstraints::unrestricted(&space);
        let current = space.max_state();
        let ctx = SearchContext {
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
        };
        for inner in [
            AnyStrategy::Exhaustive(ExhaustiveSweep::new(SearchParams::exhaustive())),
            AnyStrategy::Beam(BeamSearch::new(8, 7)),
            AnyStrategy::Frontier(crate::search::GreedyFrontier::default()),
        ] {
            let plain = inner.next_state(&ctx);
            let wrapped = BudgetedSearch::new(inner, u64::MAX, 3_000).next_state(&ctx);
            assert_eq!(plain.state, wrapped.state);
            assert_eq!(plain.eval, wrapped.eval);
            assert_eq!(plain.stats, wrapped.stats);
        }
    }

    #[test]
    fn zero_cost_means_no_limit() {
        let b = BudgetedSearch::new(
            AnyStrategy::Frontier(crate::search::GreedyFrontier::default()),
            1,
            0,
        );
        assert_eq!(b.max_evaluations(), usize::MAX);
    }
}
