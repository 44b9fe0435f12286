//! Observability layer for the HARS reproduction: a deterministic
//! streaming metrics engine over the runtime's telemetry stream.
//!
//! The runtime (PR 7) emits a pinned-schema [`TelemetryEvent`] stream
//! and the fleet tier (PR 8) fans it across shards — this crate is the
//! consumer story. [`MetricsSink`] mounts a [`MetricsEngine`] as a
//! [`TelemetrySink`](hars_core::TelemetrySink) that composes with any
//! inner sink (metrics + JSONL capture in one pass); the engine folds
//! the stream into:
//!
//! - [`Log2Histogram`]s — fixed-bucket log2 latency/score histograms
//!   with bucket-exact p50/p95/p99 and order-free, bit-stable merges;
//! - [`TenantTimeline`]s — admission → queue wait → satisfaction flips
//!   → departure, with the per-tenant heartbeat-rate series;
//! - queue-depth time series at event boundaries and per-cluster
//!   power/energy rollups;
//! - per-class SLO rollups ([`SloClass`]) — the fraction of tenants
//!   meeting their band, by template class.
//!
//! The mergeable core ([`MetricsRollup`]) is all-integer, so fleet
//! reduction over shards is commutative and associative bit for bit
//! (`tests/merge_laws.rs` proptests the laws). Replay needs no parser
//! of its own: [`hars_core::telemetry::parse_capture`] reads a captured
//! `telemetry.jsonl` strictly against the pinned schema, with the same
//! event table that encoded it, and [`summarize`] feeds the events to
//! the same engine — a replayed summary is byte-identical to the live
//! one, which CI asserts.
//!
//! Mirrors the PAPI-style runtime-monitoring surface of Fanni et al.
//! and the reflective sensing loop of MARS (Mück et al.): metrics as
//! first-class queryable state, not a raw event log.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod hist;
mod sink;

pub use engine::{
    ClusterPowerSeries, MetricsConfig, MetricsEngine, MetricsRollup, MetricsSummary, SloClass,
    TenantTimeline,
};
pub use hist::Log2Histogram;
pub use sink::MetricsSink;

use hars_core::telemetry::{parse_capture, ParseError};
use hars_core::TelemetryEvent;

/// Folds an event stream (a [`VecSink`](hars_core::VecSink) capture or
/// a parsed `telemetry.jsonl`) into a summary: the exact fold a live
/// [`MetricsSink`] performs, so a replayed summary is byte-identical to
/// the live run's.
pub fn summarize(cfg: MetricsConfig, events: &[TelemetryEvent]) -> MetricsSummary {
    let mut engine = MetricsEngine::new(cfg);
    for ev in events {
        engine.observe(ev);
    }
    engine.finish()
}

/// Convenience: parse a capture's text and summarize it at the default
/// config.
pub fn replay_capture(text: &str) -> Result<MetricsSummary, ParseError> {
    Ok(summarize(MetricsConfig::default(), &parse_capture(text)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hars_core::TelemetrySink;

    #[test]
    fn live_and_replayed_summaries_are_byte_identical() {
        let events = [
            TelemetryEvent::AdmissionVerdict {
                t_ns: 0,
                tenant: 0,
                verdict: "admit".into(),
            },
            TelemetryEvent::TenantAdmitted {
                t_ns: 0,
                tenant: 0,
                bench: "swaptions".into(),
                threads: 4,
                target_min: 5.5,
                queue_wait_ns: 0,
            },
            TelemetryEvent::HeartbeatRate {
                t_ns: 100_000_000,
                tenant: 0,
                rate_hz: 6.25,
                satisfied: true,
            },
            TelemetryEvent::ClusterPower {
                t_ns: 200_000_000,
                cluster: 0,
                watts: 1.75,
            },
            TelemetryEvent::TenantDeparted {
                t_ns: 300_000_000,
                tenant: 0,
                heartbeats: 1,
            },
        ];
        let mut sink = MetricsSink::observer();
        let mut jsonl = String::new();
        for ev in &events {
            sink.emit(ev);
            jsonl.push_str(&ev.to_json());
            jsonl.push('\n');
        }
        let live = sink.into_summary();
        let replayed = replay_capture(&jsonl).expect("capture parses");
        assert_eq!(live, replayed);
        assert_eq!(live.render(), replayed.render());
        assert_eq!(live.fingerprint(), replayed.fingerprint());
    }
}
