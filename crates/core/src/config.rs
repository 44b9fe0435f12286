//! The runtime control plane: versioned hot-reloadable configuration
//! snapshots and the validated delta path that retunes a *running*
//! manager without restart.
//!
//! Construction-time knobs (scheduler, adaptation period, initial
//! state, predictor, tabu length, freeze count) are the manager's
//! *identity* — changing them means a different experiment, so they
//! stay fixed in [`HarsConfig`](crate::manager::HarsConfig) /
//! `MpHarsConfig`. Everything an operator may retune mid-run lives in
//! the [`RuntimeConfig`] snapshot both managers share: the search
//! policy, the anytime decision budget, the modeled per-evaluation
//! search cost and ratio learning. The budget is a field of its own,
//! independent of the policy: each decision turns it into the
//! evaluation limit ([`RuntimeConfig::eval_limit`]) every strategy
//! checks. The snapshot and its version live in
//! [`DecisionCore`](crate::manager::DecisionCore), and change only
//! through [`DecisionCore::apply`](crate::manager::DecisionCore::apply),
//! which each manager's `apply_config(&ConfigDelta) ->
//! Result<ConfigVersion, RejectReason>` calls. The delta is validated
//! *in full* against the current snapshot before anything mutates, so a
//! rejected delta leaves the manager bit-identical — the contract the
//! reconfigure-determinism proptests pin down. Every accepted delta
//! bumps the [`ConfigVersion`], which telemetry stamps on each decision
//! so a replayed stream attributes every decision to the config that
//! made it.

use serde::{Deserialize, Serialize};

use crate::policy::SearchPolicy;
use crate::ratio_learn::RatioLearning;

/// Calibrated per-evaluation search cost (ns), from the
/// `decision_perf` bench's overhead-model fit: a non-negative least
/// squares of `wall_ns ≈ evaluated·c_state + nodes·c_node` over every
/// measured `(policy, center, board)` decision (84 points across the
/// 2/3/4/5-cluster boards, release build, best-of-9 timings; the fit
/// landed at ≈ 49 ns/evaluation, rounded here). The managers charge
/// evaluations only, so the fit's per-node coefficient is reported by
/// the bench but not charged. The config *default* stays at the
/// paper's modeled `3_000 ns` — the bit-identity goldens pin the
/// historical overhead model — so the calibrated cost is opt-in,
/// through a [`ConfigDelta`] that sets it.
/// That fit is kept, since `ops_surface`'s fingerprint and committed
/// telemetry depend on it; `BENCH_search.json` has the current cost.
pub const CALIBRATED_COST_PER_STATE_NS: u64 = 50;

/// A monotonically increasing configuration version. Version 0 is the
/// construction-time snapshot; every accepted [`ConfigDelta`] bumps it
/// by one. Telemetry stamps the version on each decision.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ConfigVersion(pub u64);

impl ConfigVersion {
    /// The next version (an accepted delta).
    #[must_use]
    pub fn next(self) -> Self {
        ConfigVersion(self.0 + 1)
    }
}

impl std::fmt::Display for ConfigVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The hot-reloadable half of a manager's configuration: one immutable
/// snapshot per [`ConfigVersion`]. Managers read every hot knob through
/// their current snapshot, and [`RuntimeConfig::apply`] produces the
/// next snapshot from a validated [`ConfigDelta`] without touching the
/// old one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Search policy.
    pub policy: SearchPolicy,
    /// Anytime decision budget: modeled nanoseconds per decision,
    /// charged at `cost_per_state_ns` per estimator evaluation (`None`
    /// = unbudgeted). Set and cleared through [`ConfigDelta::budget`].
    pub budget_ns: Option<u64>,
    /// Modeled CPU cost per candidate state evaluated (ns).
    pub cost_per_state_ns: u64,
    /// Online refinement of the assumed per-cluster ratios. Changing
    /// the mode mid-run rebuilds the learner from the estimator's
    /// *current* (possibly already-refined) ratios and drops pending
    /// predictions — they were armed under the old learning regime.
    pub ratio_learning: RatioLearning,
}

impl RuntimeConfig {
    /// The evaluation limit the budget buys, which each decision sets
    /// as [`SearchContext::eval_limit`](crate::search::SearchContext):
    /// `budget_ns / cost_per_state_ns` evaluations. `None` without a
    /// budget, and with a zero per-state cost, which models free
    /// evaluations.
    pub fn eval_limit(&self) -> Option<usize> {
        self.budget_ns
            .and_then(|budget| budget.checked_div(self.cost_per_state_ns))
            .map(|evals| usize::try_from(evals).unwrap_or(usize::MAX))
    }

    /// Validates `delta` against this snapshot and returns the updated
    /// snapshot. Pure: `self` is never mutated, and an `Err` means no
    /// observable change anywhere — the all-or-nothing contract
    /// `apply_config` relies on.
    ///
    /// # Errors
    ///
    /// Every rejection is reason-coded — see [`RejectReason`].
    pub fn apply(&self, delta: &ConfigDelta) -> Result<RuntimeConfig, RejectReason> {
        if delta.is_empty() {
            return Err(RejectReason::EmptyDelta);
        }
        let budget_ns = match delta.budget {
            Some(BudgetChange::Set(0)) => return Err(RejectReason::ZeroBudget),
            Some(BudgetChange::Set(b)) => Some(b),
            Some(BudgetChange::Remove) if self.budget_ns.is_none() => {
                return Err(RejectReason::NoBudgetToRemove)
            }
            Some(BudgetChange::Remove) => None,
            None => self.budget_ns,
        };
        Ok(RuntimeConfig {
            policy: delta.policy.clone().unwrap_or_else(|| self.policy.clone()),
            budget_ns,
            cost_per_state_ns: delta.cost_per_state_ns.unwrap_or(self.cost_per_state_ns),
            ratio_learning: delta.ratio_learning.unwrap_or(self.ratio_learning),
        })
    }
}

/// How a [`ConfigDelta`] changes the anytime decision budget
/// ([`RuntimeConfig::budget_ns`]). A policy change leaves it alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BudgetChange {
    /// Set the budget to `ns` modeled nanoseconds per decision. Zero
    /// is rejected ([`RejectReason::ZeroBudget`]) — use
    /// [`BudgetChange::Remove`] to run unbudgeted.
    Set(u64),
    /// Clear the budget, so searches run to completion. Rejected
    /// ([`RejectReason::NoBudgetToRemove`]) when no budget is set.
    Remove,
}

/// A sparse, validated change request against a manager's
/// [`RuntimeConfig`]: `None` fields keep their current value. Built
/// with the `with_*` combinators; applied via the managers'
/// `apply_config`, or carried as a timestamped
/// `ScenarioEvent::Reconfigure` in the scenario layer.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConfigDelta {
    /// Replace the search policy.
    pub policy: Option<SearchPolicy>,
    /// Set or clear the anytime decision budget, whatever the policy.
    pub budget: Option<BudgetChange>,
    /// Replace the modeled per-evaluation cost (ns).
    pub cost_per_state_ns: Option<u64>,
    /// Switch the ratio-learning mode (rebuilds the learner, drops
    /// pending predictions).
    pub ratio_learning: Option<RatioLearning>,
}

impl ConfigDelta {
    /// The empty delta (always rejected as [`RejectReason::EmptyDelta`];
    /// start here and add changes with the `with_*` combinators).
    pub fn none() -> Self {
        Self::default()
    }

    /// `true` when no field is set.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// Sets the search policy.
    #[must_use]
    pub fn with_policy(mut self, policy: SearchPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Sets the anytime decision budget to `budget_ns`.
    #[must_use]
    pub fn with_budget_ns(mut self, budget_ns: u64) -> Self {
        self.budget = Some(BudgetChange::Set(budget_ns));
        self
    }

    /// Removes the anytime decision budget.
    #[must_use]
    pub fn without_budget(mut self) -> Self {
        self.budget = Some(BudgetChange::Remove);
        self
    }

    /// Sets the modeled per-evaluation cost.
    #[must_use]
    pub fn with_cost_per_state_ns(mut self, ns: u64) -> Self {
        self.cost_per_state_ns = Some(ns);
        self
    }

    /// Sets the ratio-learning mode.
    #[must_use]
    pub fn with_ratio_learning(mut self, mode: RatioLearning) -> Self {
        self.ratio_learning = Some(mode);
        self
    }
}

/// Why a [`ConfigDelta`] was rejected. Every variant carries a stable
/// machine-readable [`RejectReason::code`] for telemetry; a rejected
/// delta changes nothing (validation is all-or-nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The delta sets no field at all.
    EmptyDelta,
    /// A zero decision budget (every search would be truncated to the
    /// mandatory current-state evaluation; remove the budget instead).
    ZeroBudget,
    /// [`BudgetChange::Remove`] when no budget is set.
    NoBudgetToRemove,
    /// No manager to reconfigure (a GTS baseline scenario).
    NoManager,
}

impl RejectReason {
    /// The stable machine-readable reason code telemetry streams.
    pub fn code(&self) -> &'static str {
        match self {
            RejectReason::EmptyDelta => "empty-delta",
            RejectReason::ZeroBudget => "zero-budget",
            RejectReason::NoBudgetToRemove => "no-budget-to-remove",
            RejectReason::NoManager => "no-manager",
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> RuntimeConfig {
        RuntimeConfig {
            policy: SearchPolicy::exhaustive_default(),
            budget_ns: None,
            cost_per_state_ns: 3_000,
            ratio_learning: RatioLearning::Off,
        }
    }

    #[test]
    fn empty_delta_is_rejected() {
        assert!(ConfigDelta::none().is_empty());
        assert_eq!(
            snapshot().apply(&ConfigDelta::none()),
            Err(RejectReason::EmptyDelta)
        );
    }

    #[test]
    fn budget_set_wraps_then_retunes_in_place() {
        let cfg = snapshot();
        let budgeted = cfg
            .apply(&ConfigDelta::none().with_budget_ns(300_000))
            .unwrap();
        assert_eq!(budgeted.budget_ns, Some(300_000));
        assert_eq!(budgeted.eval_limit(), Some(100));
        assert_eq!(budgeted.policy, cfg.policy);
        // A second Set replaces the budget; there is nothing to nest.
        let retuned = budgeted
            .apply(&ConfigDelta::none().with_budget_ns(50_000))
            .unwrap();
        assert_eq!(retuned.budget_ns, Some(50_000));
        assert_eq!(retuned.eval_limit(), Some(16));
        assert_eq!(retuned.policy, cfg.policy);
    }

    #[test]
    fn budget_remove_unwraps_or_rejects() {
        let cfg = snapshot();
        assert_eq!(
            cfg.apply(&ConfigDelta::none().without_budget()),
            Err(RejectReason::NoBudgetToRemove)
        );
        let budgeted = cfg
            .apply(&ConfigDelta::none().with_budget_ns(300_000))
            .unwrap();
        let back = budgeted
            .apply(&ConfigDelta::none().without_budget())
            .unwrap();
        assert_eq!(back, cfg);
        assert_eq!(back.eval_limit(), None);
    }

    #[test]
    fn zero_budgets_are_rejected_and_free_evaluations_are_unlimited() {
        let cfg = snapshot();
        assert_eq!(
            cfg.apply(&ConfigDelta::none().with_budget_ns(0)),
            Err(RejectReason::ZeroBudget)
        );
        let free = cfg
            .apply(
                &ConfigDelta::none()
                    .with_budget_ns(1)
                    .with_cost_per_state_ns(0),
            )
            .unwrap();
        assert_eq!(free.budget_ns, Some(1));
        assert_eq!(free.eval_limit(), None);
    }

    #[test]
    fn policy_and_budget_change_independently() {
        let cfg = snapshot();
        let both = cfg
            .apply(
                &ConfigDelta::none()
                    .with_policy(SearchPolicy::beam_default())
                    .with_budget_ns(120_000),
            )
            .unwrap();
        assert_eq!(both.policy, SearchPolicy::beam_default());
        assert_eq!(both.budget_ns, Some(120_000));
        // A policy change keeps the active budget.
        let frontier = both
            .apply(&ConfigDelta::none().with_policy(SearchPolicy::Frontier))
            .unwrap();
        assert_eq!(frontier.policy, SearchPolicy::Frontier);
        assert_eq!(frontier.budget_ns, Some(120_000));
        // Removing the budget keeps the policy.
        let unbudgeted = frontier
            .apply(&ConfigDelta::none().without_budget())
            .unwrap();
        assert_eq!(unbudgeted.policy, SearchPolicy::Frontier);
        assert_eq!(unbudgeted.budget_ns, None);
    }

    #[test]
    fn unset_fields_keep_their_values() {
        let cfg = snapshot();
        let next = cfg
            .apply(&ConfigDelta::none().with_cost_per_state_ns(25))
            .unwrap();
        assert_eq!(next.cost_per_state_ns, 25);
        assert_eq!(next.policy, cfg.policy);
        assert_eq!(next.budget_ns, cfg.budget_ns);
        assert_eq!(next.ratio_learning, cfg.ratio_learning);
    }

    #[test]
    fn reason_codes_are_stable() {
        assert_eq!(RejectReason::EmptyDelta.code(), "empty-delta");
        assert_eq!(RejectReason::ZeroBudget.code(), "zero-budget");
        assert_eq!(RejectReason::NoBudgetToRemove.code(), "no-budget-to-remove");
        assert_eq!(RejectReason::NoManager.code(), "no-manager");
        assert_eq!(RejectReason::NoManager.to_string(), "no-manager");
    }

    #[test]
    fn versions_increment_and_display() {
        let v = ConfigVersion::default();
        assert_eq!(v.0, 0);
        assert_eq!(v.next(), ConfigVersion(1));
        assert_eq!(v.next().to_string(), "v1");
        assert!(v < v.next());
    }
}
