//! Observability contracts at the scenario level: metrics never
//! perturb the run, and a replay of the captured JSONL reproduces the
//! live summary byte for byte.

use std::collections::BTreeSet;

use hars_core::telemetry::parse_capture;
use hars_core::{NullSink, TelemetrySink};
use hars_obs::{replay_capture, summarize};
use hars_scenario::{
    run_scenario, run_shard_with_metrics, AdmissionPolicy, AlwaysAdmit, AppTemplate,
    ArrivalProcess, BoundedQueue, JsonlSink, ScenarioOutcome, ScenarioRuntime, ScenarioSpec,
    ShardConfig, SharedSoloRateCache, SoloCacheHandle, TemplateSet,
};
use hmp_sim::clock::NS_PER_SEC;
use hmp_sim::{BoardSpec, ClusterId, EngineConfig, FaultKind, FaultPlan, TimedFault};
use workloads::Benchmark;

fn bursty_spec(seed: u64) -> ScenarioSpec {
    let mut fast = AppTemplate::new(Benchmark::Swaptions);
    fast.heartbeats = 20;
    let mut slow = AppTemplate::new(Benchmark::Blackscholes);
    slow.heartbeats = 15;
    slow.target_frac = 0.35;
    let mut spec = ScenarioSpec::new(
        ArrivalProcess::Bursty {
            on_rate_per_sec: 2.0,
            mean_on_secs: 3.0,
            mean_off_secs: 4.0,
        },
        TemplateSet::uniform(vec![fast, slow]),
        20 * NS_PER_SEC,
        seed,
    );
    spec.solo_budget = 20;
    spec
}

/// `spec` on `board` under MP-HARS-I, with `faults` injected and the
/// metrics fold mounted in front of `sink`.
fn run_metered(
    board: &BoardSpec,
    spec: &ScenarioSpec,
    faults: FaultPlan,
    admission: &mut dyn AdmissionPolicy,
    sink: &mut dyn TelemetrySink,
) -> ScenarioOutcome {
    run_shard_with_metrics(
        board,
        &EngineConfig::default(),
        &spec.tenant_schedule(),
        &ShardConfig {
            faults,
            ..spec.shard_config()
        },
        admission,
        ScenarioRuntime::mp_hars(board, mp_hars::mp_hars_i()),
        SoloCacheHandle::Shared(&SharedSoloRateCache::new()),
        sink,
    )
    .expect("runs")
}

#[test]
fn metrics_run_fingerprints_identically_to_null_sink_run() {
    let board = BoardSpec::odroid_xu3();
    let spec = bursty_spec(7);
    let plain = run_scenario(
        &board,
        &EngineConfig::default(),
        &spec,
        &mut BoundedQueue::new(0.85, 4),
        ScenarioRuntime::mp_hars(&board, mp_hars::mp_hars_i()),
    )
    .expect("runs");
    let metered = run_metered(
        &board,
        &spec,
        FaultPlan::empty(),
        &mut BoundedQueue::new(0.85, 4),
        &mut NullSink,
    );
    assert_eq!(plain.fingerprint(), metered.fingerprint());
    assert!(plain.metrics.is_none());
    let summary = metered.metrics.expect("metrics entry point fills it");
    assert_eq!(summary.rollup.admitted as usize, metered.admitted);
    assert_eq!(summary.rollup.rejected as usize, metered.rejected);
    assert_eq!(summary.rollup.departed as usize, metered.completed);
    assert!(summary.rollup.heartbeat_latency_ns.count() > 0);
    assert!(!summary.rollup.classes.is_empty());
}

#[test]
fn replayed_capture_matches_live_summary_byte_for_byte() {
    let board = BoardSpec::odroid_xu3();
    let spec = bursty_spec(11);
    let mut capture = JsonlSink::new(Vec::new());
    let out = run_metered(
        &board,
        &spec,
        FaultPlan::empty(),
        &mut AlwaysAdmit,
        &mut capture,
    );
    let live = out.metrics.expect("filled");
    let (written, dropped, bytes) = capture.finish();
    assert_eq!(dropped, 0);
    // The capture carries every event; the fold excludes only the
    // cache-accounting kinds (a merged fleet rollup drops superseded
    // re-runs, so which shard recorded a shared key's miss would leak
    // into it; they live in outcome counters).
    assert_eq!(
        written,
        live.rollup.events + out.solo_cache_hits + out.solo_cache_misses,
        "capture covers every event; fold skips only cache accounting"
    );
    let text = String::from_utf8(bytes).expect("utf8 capture");
    let replayed = replay_capture(&text).expect("capture parses against the schema");
    assert_eq!(live, replayed);
    assert_eq!(live.render(), replayed.render());
    assert_eq!(live.fingerprint(), replayed.fingerprint());
}

/// The fault plane's stream end to end: a thermal cap that expires, a
/// cluster taken offline, a sensor dropout across an admission and a
/// board death. Every line re-encodes to itself, and the replayed
/// summary equals the live one.
#[test]
fn fault_stream_replays_byte_for_byte() {
    let board = BoardSpec::odroid_xu3();
    let mut tenant = AppTemplate::new(Benchmark::Swaptions);
    tenant.heartbeats = 20;
    let mut spec = ScenarioSpec::new(
        ArrivalProcess::Poisson { rate_per_sec: 0.5 },
        TemplateSet::uniform(vec![tenant]),
        20 * NS_PER_SEC,
        5,
    );
    spec.solo_budget = 20;
    // The dropout opens after the first admission calibrated, and
    // covers the second admission: it resolves from the stale rate.
    let arrivals: Vec<u64> = spec.tenant_schedule().iter().map(|&(t, _)| t).collect();
    let (first, second) = (arrivals[0], arrivals[1]);
    assert!(first < second && second < 12 * NS_PER_SEC, "{arrivals:?}");
    let fault = |at_ns, kind| TimedFault { at_ns, kind };
    let faults = FaultPlan::new(vec![
        fault(
            NS_PER_SEC / 2,
            FaultKind::ClusterCap {
                cluster: ClusterId::BIG,
                until_ns: 3 * NS_PER_SEC,
            },
        ),
        fault(
            (first + second) / 2,
            FaultKind::SensorDropout {
                until_ns: second + NS_PER_SEC,
            },
        ),
        fault(
            12 * NS_PER_SEC,
            FaultKind::ClusterOffline {
                cluster: ClusterId::LITTLE,
                until_ns: u64::MAX,
            },
        ),
        fault(15 * NS_PER_SEC, FaultKind::BoardFail),
    ]);

    let mut capture = JsonlSink::new(Vec::new());
    let out = run_metered(&board, &spec, faults, &mut AlwaysAdmit, &mut capture);
    let live = out.metrics.expect("filled");
    let text = String::from_utf8(capture.into_inner()).expect("utf8 capture");
    let events = parse_capture(&text).expect("capture parses against the schema");

    let kinds: BTreeSet<&str> = events.iter().map(|ev| ev.kind()).collect();
    for kind in [
        "fault_injected",
        "cluster_quarantined",
        "cluster_restored",
        "degraded_calibration",
        "board_failed",
    ] {
        assert!(kinds.contains(kind), "no {kind} in {kinds:?}");
    }
    for (line, ev) in text.lines().zip(&events) {
        assert_eq!(ev.to_json(), line);
    }
    assert_eq!(events.len(), text.lines().count());
    let replayed = summarize(&events);
    assert_eq!(live.render(), replayed.render());
    assert_eq!(live, replayed);
}
