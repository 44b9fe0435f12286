//! What one workload iteration yields, the per-layer ledger built from
//! a traced iteration's spans, and the statistics both are reduced by.

use std::collections::BTreeMap;
use std::hash::Hasher;

use hars_core::fnv::FnvHasher;

use crate::trace::{self, Span};

/// The result of one iteration: the modeled outputs (deterministic for
/// a seed) and the output checks that failed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Digest of every simulated output the iteration produced.
    pub fingerprint: u64,
    /// Apps or tenants that arrived.
    pub arrivals: u64,
    /// Apps or tenants that finished their heartbeat budget.
    pub completed: u64,
    /// Apps or tenants that did not (rejected, lost in failover or cut
    /// off), counted independently of `completed`.
    pub failed: u64,
    /// Simulated board-seconds.
    pub sim_s: f64,
    /// Mean normalized performance per watt (1/W).
    pub perf_per_watt: f64,
    /// Σ(satisfaction·heartbeats) / Σ(requested heartbeats).
    pub service_level: f64,
    /// Modeled energy (J).
    pub energy_j: f64,
    /// Mean normalized performance.
    pub norm_perf: f64,
    /// Failed output checks, empty when the iteration is correct.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Adds the checks every workload shares: the counts add up and
    /// the modeled figures are finite and in range.
    pub fn check_common(&mut self) {
        if self.arrivals != self.completed + self.failed {
            self.errors.push(format!(
                "arrivals {} != completed {} + failed {}",
                self.arrivals, self.completed, self.failed
            ));
        }
        let figures = [
            ("sim_s", self.sim_s),
            ("perf_per_watt", self.perf_per_watt),
            ("energy_j", self.energy_j),
        ];
        for (name, v) in figures {
            if !(v.is_finite() && v > 0.0) {
                self.errors.push(format!("{name} = {v} is not positive"));
            }
        }
        for (name, v) in [
            ("service_level", self.service_level),
            ("norm_perf", self.norm_perf),
        ] {
            if !(v > 0.0 && v <= 1.0) {
                self.errors.push(format!("{name} = {v} outside (0, 1]"));
            }
        }
    }
}

/// A traced iteration: its outcome, its spans and the counts read from
/// the layers' public outputs.
#[derive(Debug)]
pub struct Traced {
    /// Must equal the untraced iteration's outcome.
    pub outcome: Outcome,
    /// Every span the iteration recorded, all threads.
    pub spans: Vec<Span>,
    /// Per-layer counts and ratios measured outside the spans.
    pub counts: BTreeMap<&'static str, f64>,
}

/// FNV-1a digest builder for outcome fingerprints.
#[derive(Debug, Default)]
pub struct Digest(FnvHasher);

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Self(FnvHasher::new())
    }

    /// Mixes in an integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.0.write(&v.to_le_bytes());
        self
    }

    /// Mixes in a float's exact bits.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// The per-layer values of one traced iteration, by metric name.
pub fn layer_ledger(t: &Traced) -> BTreeMap<&'static str, f64> {
    let self_ns = trace::self_ns_by_name(&t.spans);
    let sum = |names: &[&str]| -> f64 {
        names
            .iter()
            .map(|n| self_ns.get(n).copied().unwrap_or(0))
            .sum::<u64>() as f64
    };
    let calls = |name: &str| t.spans.iter().filter(|s| s.name == name).count() as f64;
    let count = |key: &str| t.counts.get(key).copied().unwrap_or(0.0);
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let engine_ns = sum(&["engine.next_heartbeat"]);
    let search_ns = sum(&["search.next_state"]);
    let obs_ns = sum(&["obs.emit"]);
    let mut m = BTreeMap::new();
    m.insert("engine.self_s", engine_ns / 1e9);
    m.insert("engine.calls", calls("engine.next_heartbeat"));
    m.insert(
        "engine.ns_per_hb",
        per(engine_ns, count("engine.heartbeats")),
    );
    m.insert("search.self_s", search_ns / 1e9);
    m.insert("search.calls", calls("search.next_state"));
    m.insert(
        "search.ns_per_eval",
        per(search_ns, count("search.evaluated")),
    );
    m.insert(
        "search.modeled_over_measured",
        per(count("search.modeled_ns"), search_ns),
    );
    m.insert(
        "manager.self_s",
        sum(&["manager.on_heartbeat", "manager.unregister"]) / 1e9,
    );
    m.insert("manager.calls", calls("manager.on_heartbeat"));
    m.insert("manager.apply_self_s", sum(&["manager.apply"]) / 1e9);
    m.insert("scenario.self_s", sum(&["scenario.shard"]) / 1e9);
    m.insert("scenario.shards", calls("scenario.shard"));
    m.insert("scenario.admission_calls", calls("scenario.admission"));
    m.insert(
        "scenario.admission_self_s",
        sum(&["scenario.admission"]) / 1e9,
    );
    m.insert("placement.self_s", sum(&["fleet.place"]) / 1e9);
    m.insert("reduction.self_s", sum(&["fleet.reduce"]) / 1e9);
    m.insert("obs.self_s", obs_ns / 1e9);
    m.insert("obs.events", calls("obs.emit"));
    m.insert("obs.ns_per_event", per(obs_ns, calls("obs.emit")));
    m.insert(
        "other.self_s",
        sum(&["iteration", "pool.round", "pool.worker"]) / 1e9,
    );
    for (k, v) in &t.counts {
        if *k != "search.modeled_ns" {
            m.insert(k, *v);
        }
    }
    m
}

/// The layer each self-time metric belongs to, for the design check.
pub const LAYER_SELF: [(&str, &[&str]); 7] = [
    ("engine", &["engine.self_s"]),
    ("search", &["search.self_s"]),
    ("manager", &["manager.self_s", "manager.apply_self_s"]),
    (
        "scenario",
        &["scenario.self_s", "scenario.admission_self_s"],
    ),
    ("fleet", &["placement.self_s", "reduction.self_s"]),
    ("obs", &["obs.self_s"]),
    ("other", &["other.self_s"]),
];

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile `p` of `v` (0 for an empty slice).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Peak resident set size of this process (MiB), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
