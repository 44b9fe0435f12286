//! The streaming metrics engine: folds a [`TelemetryEvent`] stream
//! into per-tenant timelines, latency/score histograms, queue-depth
//! and power series, and per-class SLO rollups.
//!
//! The engine is a pure fold: its state after `n` events is a function
//! of those `n` events alone — no clocks, no allocator-order hashing
//! (`BTreeMap` everywhere), no float accumulation outside per-tenant
//! series that replay in stream order. That is the property the
//! replay toolkit leans on: feeding a captured `telemetry.jsonl` back
//! through the engine reproduces the live [`MetricsSummary`] byte for
//! byte.
//!
//! The fleet-mergeable core lives in [`MetricsRollup`]: every field is
//! integral (histogram buckets, SLO counts, event counters), so
//! merging shard rollups is commutative and associative bit-for-bit.
//! Per-tenant detail (timelines, rate series) stays per-run — tenant
//! indices are shard-local and must not be conflated across shards.

use std::collections::BTreeMap;

use hars_core::TelemetryEvent;

use crate::hist::Log2Histogram;

/// Nanoseconds per second, as f64 (latency conversion).
const NS_PER_SEC_F: f64 = 1_000_000_000.0;

/// A tenant meets its SLO when its satisfied-heartbeat fraction is at
/// least this many percent (integer percent so the comparison is exact:
/// `satisfied * 100 >= rated * SLO_PCT`).
pub const SLO_PCT: u8 = 90;

/// One tenant's lifecycle, reconstructed from the event stream:
/// admission verdicts → queue wait → heartbeat-rate series and
/// satisfaction flips → departure.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantTimeline {
    /// Tenant index in arrival order (shard-local).
    pub tenant: u64,
    /// Benchmark (template class); empty until admitted.
    pub bench: String,
    /// First admission-verdict instant (the arrival, engine ns).
    pub arrival_ns: u64,
    /// `true` when the tenant waited in the admission queue.
    pub queued: bool,
    /// `true` when the tenant was turned away.
    pub rejected: bool,
    /// Admission instant (ns).
    pub admitted_ns: Option<u64>,
    /// Admission-queue wait (ns; 0 when admitted on arrival).
    pub queue_wait_ns: u64,
    /// Thread count (0 until admitted).
    pub threads: u64,
    /// Resolved target-band minimum (hb/s; 0 until admitted).
    pub target_min: f64,
    /// Departure instant (ns); `None` when cut off by the horizon.
    pub departed_ns: Option<u64>,
    /// Heartbeats over the whole tenancy (from the departure event).
    pub heartbeats: u64,
    /// Rated heartbeats seen (heartbeat-rate events).
    pub rated: u64,
    /// Rated heartbeats that met the target minimum.
    pub satisfied: u64,
    /// Satisfaction transitions as `(t_ns, satisfied)`.
    pub flips: Vec<(u64, bool)>,
    /// The heartbeat-rate series `(t_ns, rate_hz)`.
    pub rate_series: Vec<(u64, f64)>,
}

impl TenantTimeline {
    fn new(tenant: u64, arrival_ns: u64) -> Self {
        Self {
            tenant,
            bench: String::new(),
            arrival_ns,
            queued: false,
            rejected: false,
            admitted_ns: None,
            queue_wait_ns: 0,
            threads: 0,
            target_min: 0.0,
            departed_ns: None,
            heartbeats: 0,
            rated: 0,
            satisfied: 0,
            flips: Vec::new(),
            rate_series: Vec::new(),
        }
    }

    /// Satisfied fraction of rated heartbeats, in `[0, 1]`.
    pub fn satisfaction(&self) -> f64 {
        if self.rated == 0 {
            0.0
        } else {
            self.satisfied as f64 / self.rated as f64
        }
    }

    /// `true` when the tenant meets the SLO at [`SLO_PCT`] percent
    /// (exact integer comparison; tenants with no rated heartbeat
    /// never meet it).
    pub fn slo_met(&self) -> bool {
        self.rated > 0 && self.satisfied * 100 >= self.rated * SLO_PCT as u64
    }
}

/// Per-template-class SLO rollup: how many admitted tenants of this
/// class met their band, over how many rated heartbeats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SloClass {
    /// Admitted tenants of this class.
    pub tenants: u64,
    /// Of those, tenants meeting the SLO threshold.
    pub met: u64,
    /// Rated heartbeats across the class.
    pub rated: u64,
    /// Satisfied heartbeats across the class.
    pub satisfied: u64,
}

impl SloClass {
    /// Fraction of tenants meeting the SLO, in `[0, 1]`.
    pub fn met_fraction(&self) -> f64 {
        if self.tenants == 0 {
            0.0
        } else {
            self.met as f64 / self.tenants as f64
        }
    }
}

/// One cluster's power observations (from `cluster_power` events,
/// which report the running average over `[0, t_ns]`).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPowerSeries {
    /// Cluster index.
    pub cluster: usize,
    /// `(t_ns, average watts over [0, t_ns])` samples in stream order.
    pub series: Vec<(u64, f64)>,
}

impl ClusterPowerSeries {
    /// The last reported running-average power (W).
    pub fn final_avg_watts(&self) -> f64 {
        self.series.last().map(|&(_, w)| w).unwrap_or(0.0)
    }

    /// Energy estimate (J): final average power × final instant.
    pub fn energy_joules(&self) -> f64 {
        self.series
            .last()
            .map(|&(t, w)| w * (t as f64 / NS_PER_SEC_F))
            .unwrap_or(0.0)
    }
}

/// The fleet-mergeable metrics core. Every field is integral, so
/// [`MetricsRollup::merge`] is a commutative, associative, bit-stable
/// fold — shard rollups merged in any order or grouping equal the
/// rollup of the concatenated event stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRollup {
    /// Events folded. Excludes `cache_hit`/`cache_miss`: which shard
    /// records a shared key's miss depends on thread timing, and a
    /// merged fleet rollup keeps only the final run of each shard (see
    /// [`MetricsEngine::observe`]).
    pub events: u64,
    /// Events per kind (schema discriminator → count; cache-accounting
    /// kinds excluded, as above).
    pub by_kind: BTreeMap<String, u64>,
    /// Admitted tenants.
    pub admitted: u64,
    /// Departed tenants (budget completed within the horizon).
    pub departed: u64,
    /// Rejected tenants.
    pub rejected: u64,
    /// Tenants that waited in the admission queue.
    pub queued: u64,
    /// Maximum admission-queue depth observed.
    pub queue_depth_max: u64,
    /// Admission-queue wait per admitted tenant (ns).
    pub queue_wait_ns: Log2Histogram,
    /// Per-heartbeat latency (ns, `1e9 / rate_hz` rounded).
    pub heartbeat_latency_ns: Log2Histogram,
    /// Modeled decision wall time per manager decision (ns).
    pub decision_wall_ns: Log2Histogram,
    /// Fleet placement scores (micro-units; finite scores only).
    pub placement_score_micros: Log2Histogram,
    /// Fault-plane injections observed (`fault_injected` events; 0 in
    /// fault-free streams).
    pub faults_injected: u64,
    /// Board deaths observed (`board_failed` events).
    pub boards_failed: u64,
    /// Cluster quarantines applied (`cluster_quarantined` events).
    pub quarantines: u64,
    /// Degraded-mode calibrations served (`degraded_calibration`
    /// events: targets resolved from last-known-good solo rates while
    /// a sensor fault was active).
    pub degraded_calibrations: u64,
    /// Tenants the fleet supervisor failed over off dead boards
    /// (`tenant_failed_over` events).
    pub tenants_failed_over: u64,
    /// Per-class SLO rollups, keyed by benchmark name.
    pub classes: BTreeMap<String, SloClass>,
}

impl MetricsRollup {
    /// Absorbs another rollup (integer adds and maxes throughout —
    /// any merge order and grouping produces identical bits).
    pub fn merge(&mut self, other: &Self) {
        self.events += other.events;
        for (k, v) in &other.by_kind {
            *self.by_kind.entry(k.clone()).or_insert(0) += v;
        }
        self.admitted += other.admitted;
        self.departed += other.departed;
        self.rejected += other.rejected;
        self.queued += other.queued;
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        self.queue_wait_ns.merge(&other.queue_wait_ns);
        self.heartbeat_latency_ns.merge(&other.heartbeat_latency_ns);
        self.decision_wall_ns.merge(&other.decision_wall_ns);
        self.placement_score_micros
            .merge(&other.placement_score_micros);
        self.faults_injected += other.faults_injected;
        self.boards_failed += other.boards_failed;
        self.quarantines += other.quarantines;
        self.degraded_calibrations += other.degraded_calibrations;
        self.tenants_failed_over += other.tenants_failed_over;
        for (k, v) in &other.classes {
            let c = self.classes.entry(k.clone()).or_default();
            c.tenants += v.tenants;
            c.met += v.met;
            c.rated += v.rated;
            c.satisfied += v.satisfied;
        }
    }

    /// Fraction of admitted tenants meeting the SLO across all
    /// classes, in `[0, 1]`.
    pub fn slo_met_fraction(&self) -> f64 {
        let (t, m) = self
            .classes
            .values()
            .fold((0u64, 0u64), |(t, m), c| (t + c.tenants, m + c.met));
        if t == 0 {
            0.0
        } else {
            m as f64 / t as f64
        }
    }

    /// Deterministic multi-line rendering of the rollup (the
    /// fleet-level observability report).
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("events: {}\n", self.events));
        for (k, v) in &self.by_kind {
            s.push_str(&format!("  {k}: {v}\n"));
        }
        s.push_str(&format!(
            "tenants: admitted={} departed={} rejected={} queued={} queue_depth_max={}\n",
            self.admitted, self.departed, self.rejected, self.queued, self.queue_depth_max
        ));
        s.push_str(&format!("queue_wait_ns: {}\n", self.queue_wait_ns.render()));
        s.push_str(&format!(
            "heartbeat_latency_ns: {}\n",
            self.heartbeat_latency_ns.render()
        ));
        s.push_str(&format!(
            "decision_wall_ns: {}\n",
            self.decision_wall_ns.render()
        ));
        s.push_str(&format!(
            "placement_score_micros: {}\n",
            self.placement_score_micros.render()
        ));
        s.push_str(&format!("slo threshold: {SLO_PCT}%\n"));
        for (bench, c) in &self.classes {
            s.push_str(&format!(
                "  class {bench}: {}/{} tenants met ({:.1}%), heartbeats {}/{} satisfied\n",
                c.met,
                c.tenants,
                100.0 * c.met_fraction(),
                c.satisfied,
                c.rated,
            ));
        }
        s
    }
}

/// The complete summary of one run: the mergeable rollup plus the
/// per-run detail (timelines, queue-depth series, power series) that
/// stays shard-local.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSummary {
    /// The fleet-mergeable core.
    pub rollup: MetricsRollup,
    /// Per-tenant timelines, ascending tenant index.
    pub tenants: Vec<TenantTimeline>,
    /// Admission-queue depth transitions `(t_ns, depth)` — sampled at
    /// event boundaries (a point per queue/admit of a queued tenant).
    pub queue_depth: Vec<(u64, u64)>,
    /// Per-cluster power series, ascending cluster index.
    pub power: Vec<ClusterPowerSeries>,
}

impl MetricsSummary {
    /// The full deterministic text report: rollup, percentiles, SLO
    /// table, per-cluster power, per-tenant timelines. Byte-identity
    /// between a live run and a replay of its captured stream is
    /// asserted on exactly this rendering.
    pub fn render(&self) -> String {
        let mut s = String::from("== metrics summary ==\n");
        s.push_str(&self.rollup.render());
        s.push_str(&format!(
            "queue depth series: {} points\n",
            self.queue_depth.len()
        ));
        for p in &self.power {
            s.push_str(&format!(
                "cluster {} power: samples={} final_avg_w={:?} energy_j={:?}\n",
                p.cluster,
                p.series.len(),
                p.final_avg_watts(),
                p.energy_joules()
            ));
        }
        s.push_str(&format!("tenant timelines: {}\n", self.tenants.len()));
        for t in &self.tenants {
            let admitted = match t.admitted_ns {
                Some(a) => format!("admit@{a}"),
                None if t.rejected => "rejected".to_string(),
                None => "waiting".to_string(),
            };
            let departed = match t.departed_ns {
                Some(d) => format!("depart@{d}"),
                None => "cutoff".to_string(),
            };
            s.push_str(&format!(
                "  t{} {} arrive@{} {} wait={} {} hb={} rated={} sat={}/{} flips={} slo={}\n",
                t.tenant,
                if t.bench.is_empty() { "-" } else { &t.bench },
                t.arrival_ns,
                admitted,
                t.queue_wait_ns,
                departed,
                t.heartbeats,
                t.rated,
                t.satisfied,
                t.rated,
                t.flips.len(),
                if t.slo_met() { "met" } else { "miss" },
            ));
        }
        s
    }

    /// FNV-1a digest of [`MetricsSummary::render`] — a compact handle
    /// on the byte-identity contract.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = hars_core::fnv::FnvHasher::new();
        h.write(self.render().as_bytes());
        h.finish()
    }
}

/// The streaming fold from [`TelemetryEvent`]s to a
/// [`MetricsSummary`]. Feed events via [`MetricsEngine::observe`]
/// (live, through a [`crate::MetricsSink`]) or from a parsed capture
/// (replay); [`MetricsEngine::finish`] closes the books.
#[derive(Debug, Clone, Default)]
pub struct MetricsEngine {
    rollup: MetricsRollup,
    tenants: BTreeMap<u64, TenantTimeline>,
    /// Tenants currently waiting in the admission queue.
    in_queue: Vec<u64>,
    queue_depth: Vec<(u64, u64)>,
    power: BTreeMap<usize, Vec<(u64, f64)>>,
}

impl MetricsEngine {
    /// An empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Events folded so far.
    pub fn events(&self) -> u64 {
        self.rollup.events
    }

    fn tenant(&mut self, tenant: u64, t_ns: u64) -> &mut TenantTimeline {
        self.tenants
            .entry(tenant)
            .or_insert_with(|| TenantTimeline::new(tenant, t_ns))
    }

    /// Folds one event.
    ///
    /// Calibration-cache accounting (`cache_hit` / `cache_miss`) is
    /// excluded from the fold entirely. The fleet's shared cache is
    /// single-flight, so it computes each key once at any worker count,
    /// but *which* shard records that miss still depends on thread
    /// timing (the cached values are bit-equal either way). Merged
    /// fleet rollups drop the runs a supervisor re-run superseded, so a
    /// miss recorded by a superseded run would vanish from the rollup
    /// at one worker count and not at another. The hit/miss totals
    /// live in the `ScenarioOutcome` and `FleetOutcome` counters
    /// instead; the fleet totals include superseded runs and are
    /// worker-count invariant.
    pub fn observe(&mut self, ev: &TelemetryEvent) {
        if matches!(
            ev,
            TelemetryEvent::CacheHit { .. } | TelemetryEvent::CacheMiss { .. }
        ) {
            return;
        }
        self.rollup.events += 1;
        *self
            .rollup
            .by_kind
            .entry(ev.kind().to_string())
            .or_insert(0) += 1;
        match ev {
            TelemetryEvent::AdmissionVerdict {
                t_ns,
                tenant,
                verdict,
            } => {
                let (t_ns, tenant) = (*t_ns, *tenant);
                self.tenant(tenant, t_ns);
                match verdict.as_ref() {
                    "queue" => {
                        let t = self.tenant(tenant, t_ns);
                        if !t.queued {
                            t.queued = true;
                            self.rollup.queued += 1;
                        }
                        self.in_queue.push(tenant);
                        self.push_depth(t_ns);
                    }
                    "reject" => {
                        let t = self.tenant(tenant, t_ns);
                        if !t.rejected {
                            t.rejected = true;
                            self.rollup.rejected += 1;
                        }
                    }
                    _ => {
                        // "admit": a queued tenant leaving the queue
                        // moves the depth; details arrive with the
                        // tenant_admitted event.
                        if let Some(pos) = self.in_queue.iter().position(|&q| q == tenant) {
                            self.in_queue.remove(pos);
                            self.push_depth(t_ns);
                        }
                    }
                }
            }
            TelemetryEvent::TenantAdmitted {
                t_ns,
                tenant,
                bench,
                threads,
                target_min,
                queue_wait_ns,
            } => {
                let (t_ns, queue_wait_ns) = (*t_ns, *queue_wait_ns);
                let (threads, target_min) = (*threads, *target_min);
                let bench = bench.to_string();
                let t = self.tenant(*tenant, t_ns);
                t.admitted_ns = Some(t_ns);
                t.bench = bench;
                t.threads = threads;
                t.target_min = target_min;
                t.queue_wait_ns = queue_wait_ns;
                self.rollup.admitted += 1;
                self.rollup.queue_wait_ns.record(queue_wait_ns);
            }
            TelemetryEvent::TenantDeparted {
                t_ns,
                tenant,
                heartbeats,
            } => {
                let (t_ns, heartbeats) = (*t_ns, *heartbeats);
                let t = self.tenant(*tenant, t_ns);
                t.departed_ns = Some(t_ns);
                t.heartbeats = heartbeats;
                self.rollup.departed += 1;
            }
            TelemetryEvent::HeartbeatRate {
                t_ns,
                tenant,
                rate_hz,
                satisfied,
            } => {
                let (t_ns, rate_hz, satisfied) = (*t_ns, *rate_hz, *satisfied);
                let t = self.tenant(*tenant, t_ns);
                t.rated += 1;
                if satisfied {
                    t.satisfied += 1;
                }
                t.rate_series.push((t_ns, rate_hz));
                if rate_hz > 0.0 {
                    let latency_ns = (NS_PER_SEC_F / rate_hz).round();
                    self.rollup.heartbeat_latency_ns.record(latency_ns as u64);
                }
            }
            TelemetryEvent::SatisfactionFlip {
                t_ns,
                tenant,
                satisfied,
            } => {
                let (t_ns, satisfied) = (*t_ns, *satisfied);
                self.tenant(*tenant, t_ns).flips.push((t_ns, satisfied));
            }
            TelemetryEvent::Decision { stats, .. } => {
                self.rollup.decision_wall_ns.record(stats.wall_ns);
            }
            TelemetryEvent::ClusterPower {
                t_ns,
                cluster,
                watts,
            } => {
                self.power
                    .entry(*cluster)
                    .or_default()
                    .push((*t_ns, *watts));
            }
            TelemetryEvent::Placement { score, .. } => {
                self.rollup.placement_score_micros.record_f64_micros(*score);
            }
            TelemetryEvent::FaultInjected { .. } => {
                self.rollup.faults_injected += 1;
            }
            TelemetryEvent::BoardFailed { .. } => {
                self.rollup.boards_failed += 1;
            }
            TelemetryEvent::ClusterQuarantined { .. } => {
                self.rollup.quarantines += 1;
            }
            TelemetryEvent::DegradedCalibration { t_ns, tenant, .. } => {
                // The timeline exists from the degraded admission on,
                // even if the tenant_admitted event is filtered out of
                // a replayed capture.
                self.tenant(*tenant, *t_ns);
                self.rollup.degraded_calibrations += 1;
            }
            TelemetryEvent::TenantFailedOver { .. } => {
                self.rollup.tenants_failed_over += 1;
            }
            // Counter-only kinds: already counted above.
            // (CacheHit/CacheMiss returned early above.)
            TelemetryEvent::ConfigApplied { .. }
            | TelemetryEvent::ConfigRejected { .. }
            | TelemetryEvent::AdmissionSwapped { .. }
            | TelemetryEvent::GuardChanged { .. }
            | TelemetryEvent::InitialState { .. }
            | TelemetryEvent::ClusterRestored { .. }
            | TelemetryEvent::CacheHit { .. }
            | TelemetryEvent::CacheMiss { .. } => {}
        }
    }

    fn push_depth(&mut self, t_ns: u64) {
        let depth = self.in_queue.len() as u64;
        self.rollup.queue_depth_max = self.rollup.queue_depth_max.max(depth);
        self.queue_depth.push((t_ns, depth));
    }

    /// Closes the fold: computes the per-class SLO rollups from the
    /// tenant timelines and assembles the summary.
    pub fn finish(mut self) -> MetricsSummary {
        for t in self.tenants.values() {
            if t.admitted_ns.is_none() {
                continue;
            }
            let c = self.rollup.classes.entry(t.bench.clone()).or_default();
            c.tenants += 1;
            if t.slo_met() {
                c.met += 1;
            }
            c.rated += t.rated;
            c.satisfied += t.satisfied;
        }
        MetricsSummary {
            rollup: self.rollup,
            tenants: self.tenants.into_values().collect(),
            queue_depth: self.queue_depth,
            power: self
                .power
                .into_iter()
                .map(|(cluster, series)| ClusterPowerSeries { cluster, series })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant_lifecycle(engine: &mut MetricsEngine, tenant: u64, t0: u64, satisfied: bool) {
        engine.observe(&TelemetryEvent::AdmissionVerdict {
            t_ns: t0,
            tenant,
            verdict: "admit".into(),
        });
        engine.observe(&TelemetryEvent::TenantAdmitted {
            t_ns: t0,
            tenant,
            bench: "swaptions".into(),
            threads: 4,
            target_min: 5.0,
            queue_wait_ns: 0,
        });
        for i in 0..10u64 {
            engine.observe(&TelemetryEvent::HeartbeatRate {
                t_ns: t0 + (i + 1) * 100_000_000,
                tenant,
                rate_hz: if satisfied { 6.0 } else { 3.0 },
                satisfied,
            });
        }
        engine.observe(&TelemetryEvent::TenantDeparted {
            t_ns: t0 + 2_000_000_000,
            tenant,
            heartbeats: 10,
        });
    }

    #[test]
    fn lifecycle_folds_into_timeline_and_slo() {
        let mut e = MetricsEngine::default();
        tenant_lifecycle(&mut e, 0, 0, true);
        tenant_lifecycle(&mut e, 1, 1_000_000_000, false);
        let summary = e.finish();
        assert_eq!(summary.tenants.len(), 2);
        assert_eq!(summary.rollup.admitted, 2);
        assert_eq!(summary.rollup.departed, 2);
        let class = &summary.rollup.classes["swaptions"];
        assert_eq!(class.tenants, 2);
        assert_eq!(class.met, 1, "only the satisfied tenant meets 90%");
        assert_eq!(class.rated, 20);
        assert_eq!(class.satisfied, 10);
        // Latency of a 6 hb/s tenant ≈ 166.7 ms.
        let p50 = summary.rollup.heartbeat_latency_ns.p50();
        assert!(p50 > 150_000_000 && p50 < 400_000_000, "{p50}");
        assert_eq!(summary.tenants[0].rate_series.len(), 10);
        assert!(summary.tenants[0].slo_met());
        assert!(!summary.tenants[1].slo_met());
    }

    #[test]
    fn queue_depth_tracks_queue_and_admit_verdicts() {
        let mut e = MetricsEngine::default();
        for tenant in 0..3u64 {
            e.observe(&TelemetryEvent::AdmissionVerdict {
                t_ns: tenant * 10,
                tenant,
                verdict: "queue".into(),
            });
        }
        e.observe(&TelemetryEvent::AdmissionVerdict {
            t_ns: 40,
            tenant: 0,
            verdict: "admit".into(),
        });
        let summary = e.finish();
        assert_eq!(summary.rollup.queue_depth_max, 3);
        assert_eq!(summary.rollup.queued, 3);
        assert_eq!(summary.queue_depth, vec![(0, 1), (10, 2), (20, 3), (40, 2)]);
    }

    #[test]
    fn rollup_merge_equals_single_fold() {
        let mut whole = MetricsEngine::default();
        let mut a = MetricsEngine::default();
        let mut b = MetricsEngine::default();
        tenant_lifecycle(&mut whole, 0, 0, true);
        tenant_lifecycle(&mut whole, 1, 500, false);
        tenant_lifecycle(&mut a, 0, 0, true);
        tenant_lifecycle(&mut b, 1, 500, false);
        let whole = whole.finish();
        let (a, b) = (a.finish(), b.finish());
        let mut ab = a.rollup.clone();
        ab.merge(&b.rollup);
        let mut ba = b.rollup.clone();
        ba.merge(&a.rollup);
        assert_eq!(ab, whole.rollup);
        assert_eq!(ba, whole.rollup);
        assert_eq!(ab.render(), whole.rollup.render());
    }

    #[test]
    fn render_is_deterministic_and_fingerprinted() {
        let mk = || {
            let mut e = MetricsEngine::default();
            tenant_lifecycle(&mut e, 0, 0, true);
            e.observe(&TelemetryEvent::ClusterPower {
                t_ns: 2_000_000_000,
                cluster: 0,
                watts: 1.5,
            });
            e.finish()
        };
        let (x, y) = (mk(), mk());
        assert_eq!(x, y);
        assert_eq!(x.render(), y.render());
        assert_eq!(x.fingerprint(), y.fingerprint());
        assert!(x.render().contains("cluster 0 power"));
    }
}
