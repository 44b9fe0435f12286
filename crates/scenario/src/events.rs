//! First-class scenario events: timestamped control-plane actions
//! interleaved with tenant arrivals.
//!
//! A scenario is no longer just an arrival schedule — operators retune
//! the runtime mid-run. [`ScenarioEvent`] makes those actions part of
//! the deterministic scenario description: a
//! [`Reconfigure`](ScenarioEvent::Reconfigure) carries a validated
//! [`ConfigDelta`] to the live manager, a
//! [`SwapAdmission`](ScenarioEvent::SwapAdmission) replaces the
//! admission policy, and a
//! [`SetTargetGuard`](ScenarioEvent::SetTargetGuard) moves the SLO
//! guard band for tenants registered from then on. Events take effect
//! at the first runtime interaction (heartbeat, arrival, or scenario
//! end) at or after their instant, before any arrival sharing it —
//! the config they carry is only read at those interactions, and not
//! forcing an engine stop keeps the timeline bit-identical to an
//! event-free run, so a `(spec, seed)` pair still reproduces the
//! identical scenario bit for bit across executor modes.

use hars_core::ConfigDelta;

use crate::admission::{AdmissionPolicy, AlwaysAdmit, BoundedQueue, CapacityGate};

/// A plain-data description of an admission policy to install mid-run.
/// (A description, not a `Box<dyn AdmissionPolicy>`, so scenario specs
/// stay `Clone + PartialEq` and fingerprint-stable.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionSwap {
    /// Install [`AlwaysAdmit`].
    AlwaysAdmit,
    /// Install a [`CapacityGate`] at `max_load`.
    CapacityGate {
        /// Admission threshold on [`crate::LoadEstimate::total`].
        max_load: f64,
    },
    /// Install a [`BoundedQueue`] of `capacity` slots behind a
    /// `max_load` gate.
    BoundedQueue {
        /// Admission threshold on [`crate::LoadEstimate::total`].
        max_load: f64,
        /// Maximum tenants waiting at once.
        capacity: usize,
    },
}

impl AdmissionSwap {
    /// `true` when the described policy's constructor would accept the
    /// parameters. The driver checks this *before* building, so an
    /// invalid swap is a rejected event, not a panic.
    pub fn is_valid(&self) -> bool {
        match self {
            AdmissionSwap::AlwaysAdmit => true,
            AdmissionSwap::CapacityGate { max_load } => max_load.is_finite() && *max_load > 0.0,
            AdmissionSwap::BoundedQueue { max_load, capacity } => {
                max_load.is_finite() && *max_load > 0.0 && *capacity > 0
            }
        }
    }

    /// Builds the described policy.
    ///
    /// # Panics
    ///
    /// Panics when [`AdmissionSwap::is_valid`] is `false` (the
    /// underlying constructors assert their parameters).
    pub fn build(&self) -> Box<dyn AdmissionPolicy> {
        match self {
            AdmissionSwap::AlwaysAdmit => Box::new(AlwaysAdmit),
            AdmissionSwap::CapacityGate { max_load } => Box::new(CapacityGate::new(*max_load)),
            AdmissionSwap::BoundedQueue { max_load, capacity } => {
                Box::new(BoundedQueue::new(*max_load, *capacity))
            }
        }
    }

    /// The display name of the policy this swap installs.
    pub fn policy_name(&self) -> &'static str {
        match self {
            AdmissionSwap::AlwaysAdmit => "always-admit",
            AdmissionSwap::CapacityGate { .. } => "capacity-gate",
            AdmissionSwap::BoundedQueue { .. } => "bounded-queue",
        }
    }
}

/// One control-plane action a scenario performs mid-run.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioEvent {
    /// Apply a [`ConfigDelta`] to the live runtime manager through its
    /// validated `apply_config` path. Rejections (including
    /// `no-manager` on GTS runs) are counted and reported, never
    /// fatal.
    Reconfigure(ConfigDelta),
    /// Replace the admission policy; queued tenants stay queued and
    /// are drained under the new policy.
    SwapAdmission(AdmissionSwap),
    /// Change the SLO guard band for tenants registered from now on
    /// (already-registered tenants keep their guard-scaled target).
    /// Rejected as `invalid-value` when non-finite or negative.
    SetTargetGuard(f64),
}

/// A [`ScenarioEvent`] pinned to an engine instant.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// The scheduled instant (engine ns): the event takes effect at
    /// the first runtime interaction at or after it. Events at or
    /// beyond the scenario horizon never fire. Events sharing an
    /// instant with an arrival fire *before* the arrival.
    pub at_ns: u64,
    /// The action.
    pub event: ScenarioEvent,
}

impl TimedEvent {
    /// An event at `at_ns`.
    pub fn new(at_ns: u64, event: ScenarioEvent) -> Self {
        Self { at_ns, event }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_validity_mirrors_constructor_asserts() {
        assert!(AdmissionSwap::AlwaysAdmit.is_valid());
        assert!(AdmissionSwap::CapacityGate { max_load: 0.9 }.is_valid());
        assert!(!AdmissionSwap::CapacityGate { max_load: 0.0 }.is_valid());
        assert!(!AdmissionSwap::CapacityGate { max_load: f64::NAN }.is_valid());
        assert!(AdmissionSwap::BoundedQueue {
            max_load: 0.8,
            capacity: 2
        }
        .is_valid());
        assert!(!AdmissionSwap::BoundedQueue {
            max_load: 0.8,
            capacity: 0
        }
        .is_valid());
    }

    #[test]
    fn build_installs_the_named_policy() {
        for swap in [
            AdmissionSwap::AlwaysAdmit,
            AdmissionSwap::CapacityGate { max_load: 0.9 },
            AdmissionSwap::BoundedQueue {
                max_load: 0.8,
                capacity: 4,
            },
        ] {
            assert_eq!(swap.build().name(), swap.policy_name());
        }
    }
}
