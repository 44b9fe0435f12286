//! The runtime ops surface, end to end: a churn scenario that is
//! retuned twice mid-run through the hot-reload control plane while
//! every decision, admission verdict and config change streams out as
//! JSONL telemetry.
//!
//! The scenario starts under MP-HARS-E with an always-admit policy,
//! then — without restarting anything — an operator:
//!
//! 1. at t = 40 s swaps the search policy to the beam-limited variant
//!    under a 0.3 ms anytime budget (load grew; decisions must stay
//!    cheap) and installs a bounded admission queue;
//! 2. at t = 65 s drops the budget and switches the overhead model to
//!    the measured (calibrated) per-evaluation cost for the quiet tail.
//!
//! The run self-asserts the control-plane contracts: every delta is
//! accepted and versioned, the run is bit-identical across executor
//! modes, and replaying it produces byte-identical telemetry. It
//! writes `telemetry.jsonl` (the stream) and `telemetry_schema.txt`
//! (the schema text whose SHA-256 is pinned in
//! `ci/telemetry_schema.sha256`).
//!
//! ```sh
//! cargo run --release --example ops_surface
//! ```

use hars::hars_core::policy::SearchPolicy;
use hars::hars_core::telemetry::{parse_capture, schema_text};
use hars::hars_scenario::ScenarioOutcome;
use hars::prelude::*;
use hmp_sim::clock::NS_PER_SEC;
use hmp_sim::ExecMode;

fn spec() -> ScenarioSpec {
    let foreground = AppTemplate {
        threads: 2,
        heartbeats: 60,
        target_frac: 0.65,
        target_jitter: 0.03,
        target_tolerance: 0.15,
        ..AppTemplate::new(Benchmark::Swaptions)
    };
    let background = AppTemplate {
        heartbeats: 40,
        target_frac: 0.25,
        target_jitter: 0.03,
        target_tolerance: 0.30,
        ..AppTemplate::new(Benchmark::Bodytrack)
    };
    let mut spec = ScenarioSpec::new(
        ArrivalProcess::Bursty {
            on_rate_per_sec: 0.6,
            mean_on_secs: 10.0,
            mean_off_secs: 55.0,
        },
        TemplateSet::weighted(vec![(1.0, foreground), (2.0, background)]),
        240 * NS_PER_SEC,
        143,
    );
    spec.target_guard = 0.10;
    // The mid-run retunes. Deltas ride the managers' validated
    // `apply_config` path; each acceptance bumps the config version
    // stamped onto every subsequent decision event.
    spec.events = vec![
        TimedEvent::new(
            40 * NS_PER_SEC,
            ScenarioEvent::Reconfigure(
                ConfigDelta::none()
                    .with_policy(SearchPolicy::beam_default())
                    .with_budget_ns(300_000),
            ),
        ),
        TimedEvent::new(
            40 * NS_PER_SEC,
            ScenarioEvent::SwapAdmission(AdmissionSwap::BoundedQueue {
                max_load: 0.90,
                capacity: 4,
            }),
        ),
        TimedEvent::new(
            65 * NS_PER_SEC,
            ScenarioEvent::Reconfigure(
                ConfigDelta::none()
                    .without_budget()
                    .with_cost_per_state_ns(hars::hars_core::config::CALIBRATED_COST_PER_STATE_NS),
            ),
        ),
    ];
    spec
}

fn run(exec: ExecMode) -> Result<(ScenarioOutcome, Vec<u8>), Box<dyn std::error::Error>> {
    let board = BoardSpec::odroid_xu3();
    let engine_cfg = EngineConfig {
        hb_window: 10,
        exec,
        ..EngineConfig::default()
    };
    let mut sink = JsonlSink::new(Vec::new());
    let spec = spec();
    let out = run_shard(
        &board,
        &engine_cfg,
        &spec.tenant_schedule(),
        &spec.shard_config(),
        &mut AlwaysAdmit,
        ScenarioRuntime::mp_hars(&board, hars::mp_hars::mp_hars_e()),
        SoloCacheHandle::Shared(&SharedSoloRateCache::new()),
        &mut sink,
    )?;
    assert_eq!(sink.events_dropped(), 0, "in-memory writes never fail");
    Ok((out, sink.into_inner()))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (out, stream) = run(ExecMode::FastForward)?;

    println!(
        "ops_surface: {} arrivals, {} admitted, {} completed over {:.0} s",
        out.arrivals, out.admitted, out.completed, out.makespan_secs
    );
    println!(
        "control plane: {} events accepted, {} rejected, final config version v{}",
        out.reconfig_accepted, out.reconfig_rejected, out.config_version
    );
    println!(
        "telemetry: {} JSONL events ({} bytes)",
        stream.iter().filter(|&&b| b == b'\n').count(),
        stream.len()
    );

    // --- contract 1: the whole retune sequence was accepted live.
    assert_eq!(out.reconfig_accepted, 3, "all three events accepted");
    assert_eq!(out.reconfig_rejected, 0);
    assert_eq!(out.config_version, 2, "two deltas bump the version twice");
    assert!(out.completed > 0, "tenants ran to completion mid-retune");

    // --- contract 2: reconfigures preserve determinism across the
    // executor modes and across reruns.
    let (fixed_out, fixed_stream) = run(ExecMode::FixedStep)?;
    assert_eq!(
        out.fingerprint(),
        fixed_out.fingerprint(),
        "fast-forward and fixed-step outcomes must fingerprint identically"
    );
    let (replay_out, replay_stream) = run(ExecMode::FastForward)?;
    assert_eq!(out.fingerprint(), replay_out.fingerprint());
    assert_eq!(
        stream, replay_stream,
        "replaying the scenario must reproduce the telemetry byte for byte"
    );
    assert_eq!(stream, fixed_stream, "telemetry is mode-invariant too");
    println!(
        "determinism: fingerprint {:#018x} stable across exec modes and reruns",
        out.fingerprint()
    );

    // --- contract 3: the stream parses strictly against the published
    // schema, and post-retune decisions carry the final config version.
    let events = parse_capture(std::str::from_utf8(&stream)?)?;
    let versioned = events
        .iter()
        .filter(|ev| {
            matches!(
                ev,
                TelemetryEvent::Decision {
                    config_version: 2,
                    ..
                }
            )
        })
        .count();
    assert!(
        versioned > 0,
        "post-retune decisions must carry config version 2"
    );

    std::fs::write("telemetry.jsonl", &stream)?;
    std::fs::write("telemetry_schema.txt", schema_text())?;
    println!("wrote telemetry.jsonl and telemetry_schema.txt");
    println!("\nPASS ops surface: hot reload + streaming telemetry, no restart required");
    Ok(())
}
