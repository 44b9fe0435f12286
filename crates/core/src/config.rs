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
//! policy and its anytime budget, the modeled per-evaluation search
//! cost and ratio learning. The snapshot and its version live in
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
    /// Search policy (including any anytime [`SearchPolicy::Budgeted`]
    /// wrapper — `budget_ns` retunes through [`ConfigDelta::budget`]).
    pub policy: SearchPolicy,
    /// Modeled CPU cost per candidate state evaluated (ns).
    pub cost_per_state_ns: u64,
    /// Online refinement of the assumed per-cluster ratios. Changing
    /// the mode mid-run rebuilds the learner from the estimator's
    /// *current* (possibly already-refined) ratios and drops pending
    /// predictions — they were armed under the old learning regime.
    pub ratio_learning: RatioLearning,
}

impl RuntimeConfig {
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
        let mut policy = match &delta.policy {
            Some(p) => {
                validate_policy(p)?;
                p.clone()
            }
            None => self.policy.clone(),
        };
        match delta.budget {
            Some(BudgetChange::Set(0)) => return Err(RejectReason::ZeroBudget),
            Some(BudgetChange::Set(b)) => {
                policy = match policy {
                    SearchPolicy::Budgeted { inner, .. } => SearchPolicy::Budgeted {
                        inner,
                        budget_ns: b,
                    },
                    other => SearchPolicy::budgeted(other, b),
                };
            }
            Some(BudgetChange::Remove) => {
                policy = match policy {
                    SearchPolicy::Budgeted { inner, .. } => *inner,
                    _ => return Err(RejectReason::NoBudgetToRemove),
                };
            }
            None => {}
        }
        Ok(RuntimeConfig {
            policy,
            cost_per_state_ns: delta.cost_per_state_ns.unwrap_or(self.cost_per_state_ns),
            ratio_learning: delta.ratio_learning.unwrap_or(self.ratio_learning),
        })
    }
}

/// Rejects structurally invalid policies: a [`SearchPolicy::Budgeted`]
/// wrapper needs a positive budget and a non-budgeted inner policy.
fn validate_policy(p: &SearchPolicy) -> Result<(), RejectReason> {
    if let SearchPolicy::Budgeted { inner, budget_ns } = p {
        if *budget_ns == 0 {
            return Err(RejectReason::ZeroBudget);
        }
        if matches!(**inner, SearchPolicy::Budgeted { .. }) {
            return Err(RejectReason::NestedBudget);
        }
    }
    Ok(())
}

/// How a [`ConfigDelta`] changes the anytime decision budget,
/// independent of whether the policy delta (if any) already carries a
/// [`SearchPolicy::Budgeted`] wrapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BudgetChange {
    /// Set the budget to `ns` modeled nanoseconds per decision:
    /// retunes an existing budget wrapper in place, or wraps the
    /// (possibly just-changed) policy in a new one. Zero is rejected
    /// ([`RejectReason::ZeroBudget`]) — use [`BudgetChange::Remove`]
    /// to run unbudgeted.
    Set(u64),
    /// Unwrap the budget and run the inner policy to completion.
    /// Rejected ([`RejectReason::NoBudgetToRemove`]) when the current
    /// policy is not budgeted.
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
    /// Change the anytime decision budget (applied after `policy`).
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
    /// A [`SearchPolicy::Budgeted`] wrapper nested inside another.
    NestedBudget,
    /// [`BudgetChange::Remove`] against an unbudgeted policy.
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
            RejectReason::NestedBudget => "nested-budget",
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
        assert_eq!(
            budgeted.policy,
            SearchPolicy::budgeted(SearchPolicy::exhaustive_default(), 300_000)
        );
        // A second Set retunes the existing wrapper instead of nesting.
        let retuned = budgeted
            .apply(&ConfigDelta::none().with_budget_ns(50_000))
            .unwrap();
        assert_eq!(
            retuned.policy,
            SearchPolicy::budgeted(SearchPolicy::exhaustive_default(), 50_000)
        );
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
        assert_eq!(back.policy, SearchPolicy::exhaustive_default());
    }

    #[test]
    fn zero_and_nested_budgets_are_rejected() {
        let cfg = snapshot();
        assert_eq!(
            cfg.apply(&ConfigDelta::none().with_budget_ns(0)),
            Err(RejectReason::ZeroBudget)
        );
        let nested = SearchPolicy::Budgeted {
            inner: Box::new(SearchPolicy::budgeted(SearchPolicy::Frontier, 1_000)),
            budget_ns: 2_000,
        };
        assert_eq!(
            cfg.apply(&ConfigDelta::none().with_policy(nested)),
            Err(RejectReason::NestedBudget)
        );
        let zero = SearchPolicy::Budgeted {
            inner: Box::new(SearchPolicy::Frontier),
            budget_ns: 0,
        };
        assert_eq!(
            cfg.apply(&ConfigDelta::none().with_policy(zero)),
            Err(RejectReason::ZeroBudget)
        );
    }

    #[test]
    fn policy_change_and_budget_compose_in_one_delta() {
        let cfg = snapshot();
        let next = cfg
            .apply(
                &ConfigDelta::none()
                    .with_policy(SearchPolicy::beam_default())
                    .with_budget_ns(120_000),
            )
            .unwrap();
        assert_eq!(
            next.policy,
            SearchPolicy::budgeted(SearchPolicy::beam_default(), 120_000)
        );
    }

    #[test]
    fn unset_fields_keep_their_values() {
        let cfg = snapshot();
        let next = cfg
            .apply(&ConfigDelta::none().with_cost_per_state_ns(25))
            .unwrap();
        assert_eq!(next.cost_per_state_ns, 25);
        assert_eq!(next.policy, cfg.policy);
        assert_eq!(next.ratio_learning, cfg.ratio_learning);
    }

    #[test]
    fn reason_codes_are_stable() {
        assert_eq!(RejectReason::EmptyDelta.code(), "empty-delta");
        assert_eq!(RejectReason::ZeroBudget.code(), "zero-budget");
        assert_eq!(RejectReason::NestedBudget.code(), "nested-budget");
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
