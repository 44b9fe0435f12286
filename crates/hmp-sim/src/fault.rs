//! The deterministic fault plane: seeded, timed platform faults
//! injected as first-class engine events.
//!
//! A [`FaultPlan`] is a time-sorted schedule of [`TimedFault`]s handed
//! to [`crate::Engine::install_faults`]. Fault onsets are engine events
//! like ticks and sensor samples: both executor modes read the plan's
//! cursor ([`FaultPlan::next_due`]) when they look for the next event,
//! and idle and busy spans stop at it, so every step ends *at* the
//! onset instant and a faulty run is bit-identical across
//! [`crate::ExecMode`]s and worker counts.
//!
//! The plane is **off by default**: an empty plan adds no events, no
//! state changes and no behavioral difference, so every fault-free
//! golden and fingerprint is untouched.

use crate::board::ClusterId;

/// What a timed fault does when its onset instant is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The whole board dies: every thread stops permanently, no further
    /// heartbeats are emitted, and [`crate::Engine::board_failed`]
    /// reports the failure instant. Applications are *not* marked done
    /// — their budgets stay incomplete, which is how the fleet layer
    /// recognizes in-flight tenants to fail over.
    BoardFail,
    /// Thermal quarantine: the cluster is capped at its lowest DVFS
    /// operating point until `until_ns`. Frequency requests above the
    /// floor are clamped (not rejected) while the cap holds, modeling a
    /// firmware thermal governor overriding the runtime.
    ClusterCap {
        /// Quarantined cluster.
        cluster: ClusterId,
        /// Cap expiry (exclusive; `u64::MAX` = permanent).
        until_ns: u64,
    },
    /// Full cluster quarantine: capped like [`FaultKind::ClusterCap`]
    /// *and* every thread is migrated off the cluster (its cores are
    /// masked out of thread affinities). Threads are not migrated back
    /// at expiry — a runtime manager re-pins at its next decision.
    ClusterOffline {
        /// Quarantined cluster.
        cluster: ClusterId,
        /// Quarantine expiry (exclusive; `u64::MAX` = permanent).
        until_ns: u64,
    },
    /// Power-sensor dropout: scheduled samples inside the window are
    /// lost (no stored sample, no noise draw; the schedule itself keeps
    /// advancing). [`crate::PowerSensor::samples_lost`] counts them.
    SensorDropout {
        /// Window end (exclusive).
        until_ns: u64,
    },
    /// Power-sensor stuck-at: samples inside the window repeat the last
    /// pre-fault reading instead of measuring truth.
    SensorStuck {
        /// Window end (exclusive).
        until_ns: u64,
    },
    /// Heartbeat stall: inside the window, applications keep making
    /// real progress (their budgets still advance) but emissions never
    /// reach the [`heartbeats`] monitors — observed window rates go
    /// stale, exactly like a wedged telemetry daemon.
    HeartbeatStall {
        /// Window end (exclusive).
        until_ns: u64,
    },
}

impl FaultKind {
    /// Stable schema-style discriminator for telemetry and logs.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::BoardFail => "board_fail",
            FaultKind::ClusterCap { .. } => "cluster_cap",
            FaultKind::ClusterOffline { .. } => "cluster_offline",
            FaultKind::SensorDropout { .. } => "sensor_dropout",
            FaultKind::SensorStuck { .. } => "sensor_stuck",
            FaultKind::HeartbeatStall { .. } => "heartbeat_stall",
        }
    }

    /// The affected cluster, for per-cluster faults.
    pub fn cluster(&self) -> Option<ClusterId> {
        match self {
            FaultKind::ClusterCap { cluster, .. } | FaultKind::ClusterOffline { cluster, .. } => {
                Some(*cluster)
            }
            _ => None,
        }
    }

    /// The recovery instant, for windowed faults (`u64::MAX` or `None`
    /// = permanent).
    pub fn until_ns(&self) -> Option<u64> {
        match self {
            FaultKind::BoardFail => None,
            FaultKind::ClusterCap { until_ns, .. }
            | FaultKind::ClusterOffline { until_ns, .. }
            | FaultKind::SensorDropout { until_ns }
            | FaultKind::SensorStuck { until_ns }
            | FaultKind::HeartbeatStall { until_ns } => Some(*until_ns),
        }
    }
}

/// One scheduled fault: a kind and its onset instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedFault {
    /// Onset instant (ns of virtual time).
    pub at_ns: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A time-sorted fault schedule with a consumption cursor.
///
/// The default (empty) plan is inert: [`FaultPlan::next_due`] is `None`
/// forever, so the engine's event math degenerates to the fault-free
/// expressions bit for bit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<TimedFault>,
    next: usize,
}

impl FaultPlan {
    /// A plan over `faults`, sorted by onset (stable, so same-instant
    /// faults apply in insertion order).
    pub fn new(mut faults: Vec<TimedFault>) -> Self {
        faults.sort_by_key(|f| f.at_ns);
        Self { faults, next: 0 }
    }

    /// The inert empty plan.
    pub fn empty() -> Self {
        Self::default()
    }

    /// `true` when no faults are scheduled at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Total scheduled faults (consumed or not).
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Every scheduled fault in onset order (consumed or not).
    pub fn iter(&self) -> impl Iterator<Item = &TimedFault> {
        self.faults.iter()
    }

    /// `true` when the plan schedules a [`FaultKind::BoardFail`]: the
    /// board can die (it may still drain before the death instant).
    pub fn kills_board(&self) -> bool {
        self.faults.iter().any(|f| f.kind == FaultKind::BoardFail)
    }

    /// Onset instant of the earliest not-yet-applied fault.
    pub fn next_due(&self) -> Option<u64> {
        self.faults.get(self.next).map(|f| f.at_ns)
    }

    /// Pops the earliest fault due at or before `now_ns`, advancing the
    /// cursor.
    pub(crate) fn pop_due(&mut self, now_ns: u64) -> Option<TimedFault> {
        let f = *self.faults.get(self.next)?;
        if f.at_ns > now_ns {
            return None;
        }
        self.next += 1;
        Some(f)
    }
}

/// A fault the engine applied, reported to the driving runtime via
/// [`crate::Engine::drain_fault_notices`] so it can react (quarantine
/// the manager's search space, enter degraded calibration, stop serving
/// a dead board) and telemeter the injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultNotice {
    /// Instant the fault was applied (ns).
    pub t_ns: u64,
    /// The applied fault.
    pub kind: FaultKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let mut p = FaultPlan::empty();
        assert!(p.is_empty());
        assert_eq!(p.next_due(), None);
        assert_eq!(p.pop_due(u64::MAX), None);
    }

    #[test]
    fn plan_sorts_and_pops_in_onset_order() {
        let mut p = FaultPlan::new(vec![
            TimedFault {
                at_ns: 300,
                kind: FaultKind::BoardFail,
            },
            TimedFault {
                at_ns: 100,
                kind: FaultKind::SensorDropout { until_ns: 200 },
            },
        ]);
        assert_eq!(p.next_due(), Some(100));
        assert_eq!(p.pop_due(50), None, "not yet due");
        let f = p.pop_due(100).expect("due");
        assert_eq!(f.kind.name(), "sensor_dropout");
        assert_eq!(p.next_due(), Some(300));
        let f = p.pop_due(1_000).expect("due");
        assert_eq!(f.kind, FaultKind::BoardFail);
        assert_eq!(p.next_due(), None);
    }
}
