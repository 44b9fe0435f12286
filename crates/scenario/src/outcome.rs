//! Per-tenant and scenario-level outcome aggregation.

use serde::{Deserialize, Serialize};

use hars_core::search::SearchStats;
use hmp_sim::clock::ns_to_secs;

/// What happened to one tenant over the scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantOutcome {
    /// Tenant index in arrival order.
    pub tenant: usize,
    /// Benchmark name.
    pub bench: &'static str,
    /// Arrival instant (ns).
    pub arrival_ns: u64,
    /// Admission instant (ns); `None` for rejected tenants (and queued
    /// tenants still waiting at the horizon).
    pub admitted_ns: Option<u64>,
    /// Completion instant (ns); `None` when the tenant was rejected or
    /// the horizon cut it off.
    pub finished_ns: Option<u64>,
    /// `true` when the tenant waited in the admission queue.
    pub was_queued: bool,
    /// `true` when the tenant was turned away (never ran).
    pub rejected: bool,
    /// Heartbeats emitted (0 for rejected tenants).
    pub heartbeats: u64,
    /// Whole-tenancy average heartbeat rate.
    pub avg_rate: f64,
    /// The resolved target band minimum (hb/s); 0 for rejected tenants.
    pub target_min: f64,
    /// Fraction of the tenant's rated heartbeats whose window rate met
    /// `target_min` (the per-tenant target-satisfaction rate).
    pub satisfaction: f64,
    /// Normalized performance `min(g, h)/g` of the whole tenancy.
    pub norm_perf: f64,
    /// Isolated (solo, maximum-state) rate of this tenant's benchmark.
    pub solo_rate: f64,
    /// Slowdown versus the isolated run: `solo_rate / avg_rate`
    /// (≥ 1 in practice; targets below solo make >1 intentional).
    pub slowdown: f64,
}

impl TenantOutcome {
    /// Time spent waiting for admission (ns): admission − arrival.
    /// Zero for tenants that were never admitted (rejected, or still
    /// queued when the scenario ended) — check [`TenantOutcome::was_queued`]
    /// with `admitted_ns.is_none()` to spot starved waiters.
    pub fn queue_wait_ns(&self) -> u64 {
        self.admitted_ns
            .map(|a| a.saturating_sub(self.arrival_ns))
            .unwrap_or(0)
    }

    /// `true` when the tenant ran to the end of its heartbeat budget.
    pub fn completed(&self) -> bool {
        self.finished_ns.is_some()
    }
}

/// Aggregate outcome of one open-system scenario run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// Per-tenant records in arrival order.
    pub tenants: Vec<TenantOutcome>,
    /// Tenants that arrived within the horizon.
    pub arrivals: usize,
    /// Tenants that started running.
    pub admitted: usize,
    /// Tenants that waited in the admission queue (whether or not they
    /// were eventually admitted).
    pub queued: usize,
    /// Tenants turned away.
    pub rejected: usize,
    /// Admitted tenants that finished their budget within the horizon.
    pub completed: usize,
    /// Mean per-tenant target-satisfaction rate over admitted tenants
    /// with at least one rated heartbeat.
    pub mean_satisfaction: f64,
    /// Mean normalized performance over the same tenants.
    pub mean_norm_perf: f64,
    /// Mean slowdown versus isolated runs over the same tenants.
    pub mean_slowdown: f64,
    /// Mean admission-queue wait (s) over queued-then-admitted tenants.
    pub mean_queue_wait_secs: f64,
    /// Scenario makespan (s): first arrival to last completion (or the
    /// horizon when tenants were cut off).
    pub makespan_secs: f64,
    /// Total board energy over the run (J).
    pub energy_joules: f64,
    /// Average board power over the run (W).
    pub avg_watts: f64,
    /// Runtime-manager state changes applied (0 for GTS).
    pub adaptations: u64,
    /// Modeled manager CPU time (ns; 0 for GTS).
    pub manager_busy_ns: u64,
    /// Power-sensor sample instants reached over the run, materialized
    /// plus coalesced — invariant under idle-span sample coalescing, so
    /// the engine's default and fixed-step modes must report the same
    /// number. Deliberately *not* part of [`Self::fingerprint`]:
    /// it is reporting, like `wall_ns`, not a decision input.
    #[serde(default)]
    pub sensor_samples: u64,
    /// Of [`Self::sensor_samples`], how many were coalesced across idle
    /// spans (counted, never materialized or charged a noise draw).
    #[serde(default)]
    pub sensor_samples_coalesced: u64,
    /// GTS ticks the engine replayed inside busy fast-forward spans
    /// (`Engine::ticks_fast_forwarded`; 0 under `ExecMode::FixedStep`).
    /// Not fingerprinted (see [`Self::sensor_samples`]).
    #[serde(default)]
    pub ticks_fast_forwarded: u64,
    /// The manager's final config version (0 for GTS runs and runs
    /// with no accepted reconfigure). Reporting, like
    /// [`Self::sensor_samples`] — not part of [`Self::fingerprint`]:
    /// the version counter is control-plane bookkeeping, and the
    /// fingerprint already covers every behavioral consequence of an
    /// applied delta.
    #[serde(default)]
    pub config_version: u64,
    /// Mid-run control-plane events accepted ([`crate::ScenarioEvent`]
    /// reconfigures, admission swaps, guard changes). Not fingerprinted
    /// (see [`Self::config_version`]).
    #[serde(default)]
    pub reconfig_accepted: u64,
    /// Mid-run control-plane events rejected (invalid deltas, invalid
    /// swap parameters, `no-manager` reconfigures on GTS runs). Not
    /// fingerprinted.
    #[serde(default)]
    pub reconfig_rejected: u64,
    /// Solo-rate calibrations this run served from its cache. Not
    /// fingerprinted: with a fleet-shared cache, which shard computes a
    /// key depends on shard interleaving (the *values* and the fleet
    /// totals never do).
    #[serde(default)]
    pub solo_cache_hits: u64,
    /// Solo-rate calibrations this run had to compute (cache misses).
    /// Not fingerprinted (see [`Self::solo_cache_hits`]).
    #[serde(default)]
    pub solo_cache_misses: u64,
    /// Fault-plane injections observed over the run (0 in fault-free
    /// runs). Reporting, not fingerprinted: faults change *behavior*,
    /// and the fingerprint covers every behavioral consequence.
    #[serde(default)]
    pub faults_injected: u64,
    /// The instant the board died mid-run (`None` for runs that made
    /// it to the horizon). Arrivals after this instant were never
    /// processed — the fleet supervisor fails them over. Not
    /// fingerprinted (see [`Self::faults_injected`]).
    #[serde(default)]
    pub board_failed_at: Option<u64>,
    /// Cluster quarantines the runtime applied (cap + offline). Not
    /// fingerprinted.
    #[serde(default)]
    pub quarantines: u64,
    /// Admissions whose target was resolved from a last-known-good
    /// solo rate because a sensor fault was active (degraded-mode
    /// calibration). Not fingerprinted.
    #[serde(default)]
    pub degraded_calibrations: u64,
    /// Heartbeats the apps' monitors never saw because a
    /// heartbeat-stall fault window was active. Not fingerprinted.
    #[serde(default)]
    pub stalled_heartbeats: u64,
    /// Power-sensor samples lost to injected dropout faults. Not
    /// fingerprinted.
    #[serde(default)]
    pub sensor_samples_lost: u64,
    /// Power-sensor samples that repeated a stale reading under
    /// stuck-at faults. Not fingerprinted.
    #[serde(default)]
    pub sensor_samples_stuck: u64,
    /// Cumulative search cost across all tenants' adaptations.
    pub search_stats: SearchStats,
    /// The observability fold over this run's telemetry stream, when
    /// the caller used a metrics entry point
    /// ([`crate::run_shard_with_metrics`]); `None` otherwise.
    /// Deliberately *outside* [`Self::fingerprint`]: metrics observe
    /// the run, they never feed back into it, and a metrics-threaded
    /// run must fingerprint identically to a `NullSink` run.
    #[serde(default)]
    pub metrics: Option<hars_obs::MetricsSummary>,
}

impl ScenarioOutcome {
    /// Tenants still waiting in the admission queue when the scenario
    /// ended (queued, never admitted). Every arrival is admitted,
    /// rejected, or counted here.
    pub fn queued_waiting(&self) -> usize {
        self.tenants
            .iter()
            .filter(|t| t.was_queued && t.admitted_ns.is_none())
            .count()
    }

    /// A deterministic digest of the whole outcome (FNV-1a over every
    /// count and the bit patterns of every float). Two runs of the same
    /// scenario configuration and seed must produce identical
    /// fingerprints — the churn bench's self-check.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        for t in &self.tenants {
            h.write_u64(t.tenant as u64);
            h.write_bytes(t.bench.as_bytes());
            h.write_u64(t.arrival_ns);
            h.write_u64(t.admitted_ns.unwrap_or(u64::MAX));
            h.write_u64(t.finished_ns.unwrap_or(u64::MAX));
            h.write_u64(u64::from(t.was_queued));
            h.write_u64(u64::from(t.rejected));
            h.write_u64(t.heartbeats);
            h.write_f64(t.avg_rate);
            h.write_f64(t.target_min);
            h.write_f64(t.satisfaction);
            h.write_f64(t.norm_perf);
            h.write_f64(t.solo_rate);
        }
        for n in [
            self.arrivals,
            self.admitted,
            self.queued,
            self.rejected,
            self.completed,
        ] {
            h.write_u64(n as u64);
        }
        h.write_f64(self.mean_satisfaction);
        h.write_f64(self.energy_joules);
        h.write_u64(self.adaptations);
        h.write_u64(self.search_stats.explored as u64);
        h.write_u64(self.search_stats.evaluated as u64);
        h.finish()
    }

    /// Builds the aggregate from per-tenant records plus run-level
    /// measurements. `horizon_ns` caps the makespan for truncated runs.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_tenants(
        tenants: Vec<TenantOutcome>,
        horizon_ns: u64,
        energy_joules: f64,
        avg_watts: f64,
        adaptations: u64,
        manager_busy_ns: u64,
        search_stats: SearchStats,
    ) -> Self {
        let arrivals = tenants.len();
        let admitted = tenants.iter().filter(|t| t.admitted_ns.is_some()).count();
        let queued = tenants.iter().filter(|t| t.was_queued).count();
        let rejected = tenants.iter().filter(|t| t.rejected).count();
        let completed = tenants.iter().filter(|t| t.completed()).count();
        let rated: Vec<&TenantOutcome> = tenants
            .iter()
            .filter(|t| t.admitted_ns.is_some() && t.heartbeats > 0)
            .collect();
        let mean = |f: &dyn Fn(&TenantOutcome) -> f64| -> f64 {
            if rated.is_empty() {
                0.0
            } else {
                rated.iter().map(|t| f(t)).sum::<f64>() / rated.len() as f64
            }
        };
        let waits: Vec<f64> = tenants
            .iter()
            .filter(|t| t.was_queued && t.admitted_ns.is_some())
            .map(|t| ns_to_secs(t.queue_wait_ns()))
            .collect();
        let first_arrival = tenants.iter().map(|t| t.arrival_ns).min().unwrap_or(0);
        let last_end = tenants
            .iter()
            .filter_map(|t| t.finished_ns)
            .max()
            .unwrap_or(first_arrival);
        let makespan_end = if completed == admitted {
            last_end
        } else {
            horizon_ns // someone was cut off: the run used the whole horizon
        };
        Self {
            arrivals,
            admitted,
            queued,
            rejected,
            completed,
            mean_satisfaction: mean(&|t| t.satisfaction),
            mean_norm_perf: mean(&|t| t.norm_perf),
            mean_slowdown: mean(&|t| t.slowdown),
            mean_queue_wait_secs: if waits.is_empty() {
                0.0
            } else {
                waits.iter().sum::<f64>() / waits.len() as f64
            },
            makespan_secs: ns_to_secs(makespan_end.saturating_sub(first_arrival)),
            energy_joules,
            avg_watts,
            adaptations,
            manager_busy_ns,
            sensor_samples: 0,
            sensor_samples_coalesced: 0,
            ticks_fast_forwarded: 0,
            config_version: 0,
            reconfig_accepted: 0,
            reconfig_rejected: 0,
            solo_cache_hits: 0,
            solo_cache_misses: 0,
            faults_injected: 0,
            board_failed_at: None,
            quarantines: 0,
            degraded_calibrations: 0,
            stalled_heartbeats: 0,
            sensor_samples_lost: 0,
            sensor_samples_stuck: 0,
            search_stats,
            metrics: None,
            tenants,
        }
    }
}

/// Fingerprint writer over the workspace's shared FNV-1a core
/// ([`hars_core::fnv::FnvHasher`]) so it does not depend on
/// `std::hash`'s unspecified-per-release internals. Also used by the
/// driver's cross-scenario solo-rate cache to fingerprint the
/// (board, engine-config) calibration environment.
pub(crate) struct Fnv1a(hars_core::fnv::FnvHasher);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Self(hars_core::fnv::FnvHasher::new())
    }

    pub(crate) fn finish(&self) -> u64 {
        std::hash::Hasher::finish(&self.0)
    }

    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        std::hash::Hasher::write(&mut self.0, bytes);
    }

    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant(i: usize, admitted: bool) -> TenantOutcome {
        TenantOutcome {
            tenant: i,
            bench: "swaptions",
            arrival_ns: i as u64 * 1_000_000_000,
            admitted_ns: admitted.then_some(i as u64 * 1_000_000_000 + 500_000_000),
            finished_ns: admitted.then_some(20_000_000_000),
            was_queued: admitted && i % 2 == 1,
            rejected: !admitted,
            heartbeats: if admitted { 100 } else { 0 },
            avg_rate: 5.0,
            target_min: 4.5,
            satisfaction: 0.9,
            norm_perf: 0.95,
            solo_rate: 10.0,
            slowdown: 2.0,
        }
    }

    #[test]
    fn aggregation_counts() {
        let out = ScenarioOutcome::from_tenants(
            vec![tenant(0, true), tenant(1, true), tenant(2, false)],
            60_000_000_000,
            100.0,
            2.5,
            7,
            1_000,
            SearchStats::default(),
        );
        assert_eq!(
            (out.arrivals, out.admitted, out.queued, out.rejected),
            (3, 2, 1, 1)
        );
        assert_eq!(out.completed, 2);
        assert!((out.mean_satisfaction - 0.9).abs() < 1e-12);
        assert!((out.mean_queue_wait_secs - 0.5).abs() < 1e-12);
        assert!(out.makespan_secs > 0.0);
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let mk = || {
            ScenarioOutcome::from_tenants(
                vec![tenant(0, true), tenant(1, false)],
                60_000_000_000,
                100.0,
                2.5,
                7,
                1_000,
                SearchStats::default(),
            )
        };
        let a = mk();
        assert_eq!(a.fingerprint(), mk().fingerprint());
        let mut b = mk();
        b.tenants[0].heartbeats += 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn truncated_runs_use_the_horizon_makespan() {
        let mut cut = tenant(1, true);
        cut.finished_ns = None;
        let out = ScenarioOutcome::from_tenants(
            vec![tenant(0, true), cut],
            60_000_000_000,
            1.0,
            1.0,
            0,
            0,
            SearchStats::default(),
        );
        assert_eq!(out.completed, 1);
        assert!((out.makespan_secs - 60.0).abs() < 1e-9);
    }
}
