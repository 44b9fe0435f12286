//! Determinism of the runtime control plane: mid-run reconfigures,
//! admission swaps and guard changes must not cost the scenario its
//! bit-reproducibility.
//!
//! The contracts pinned here:
//!
//! * a scenario with mid-run [`ScenarioEvent`]s fingerprints
//!   identically across `ExecMode::FixedStep` and
//!   `ExecMode::FastForward` and across reruns — config changes ride the
//!   same deterministic clock as arrivals;
//! * a *rejected* delta leaves the run bit-identical to an event-free
//!   run (validation happens before any state is touched);
//! * telemetry is observe-only: streaming into a [`VecSink`] produces
//!   the same outcome as the default [`NullSink`] path, and the stream
//!   itself replays identically across modes and reruns;
//! * [`ScenarioOutcome`] reports the final config version and the
//!   accept/reject counts, and none of them perturb the fingerprint.

use proptest::prelude::*;

use hars_core::policy::SearchPolicy;
use hars_core::{ConfigDelta, TelemetrySink, VecSink};
use hars_scenario::{
    run_scenario, run_shard, AdmissionSwap, AlwaysAdmit, AppTemplate, ArrivalProcess,
    ScenarioEvent, ScenarioOutcome, ScenarioRuntime, ScenarioSpec, SharedSoloRateCache,
    SoloCacheHandle, TemplateSet,
};
use hmp_sim::clock::NS_PER_SEC;
use hmp_sim::{BoardSpec, EngineConfig, ExecMode};
use mp_hars::{mp_hars_e, mp_hars_i};
use workloads::Benchmark;

fn templates() -> TemplateSet {
    TemplateSet::uniform(vec![
        AppTemplate {
            heartbeats: 25,
            ..AppTemplate::new(Benchmark::Swaptions)
        },
        AppTemplate {
            heartbeats: 20,
            ..AppTemplate::new(Benchmark::Bodytrack)
        },
    ])
}

fn spec_with_events(horizon_secs: u64, seed: u64, events: bool) -> ScenarioSpec {
    let horizon_ns = horizon_secs * NS_PER_SEC;
    let mut spec = ScenarioSpec::new(
        ArrivalProcess::Poisson { rate_per_sec: 0.25 },
        templates(),
        horizon_ns,
        seed,
    );
    spec.solo_budget = 20;
    if events {
        // The issue's ops scenario: a policy + budget retune, an
        // admission swap and a guard change, all mid-run.
        spec = spec
            .with_event(
                horizon_ns / 4,
                ScenarioEvent::Reconfigure(
                    ConfigDelta::none()
                        .with_policy(SearchPolicy::Frontier)
                        .with_budget_ns(40_000),
                ),
            )
            .with_event(
                horizon_ns / 3,
                ScenarioEvent::SwapAdmission(AdmissionSwap::BoundedQueue {
                    max_load: 0.85,
                    capacity: 3,
                }),
            )
            .with_event(horizon_ns / 2, ScenarioEvent::SetTargetGuard(0.04))
            .with_event(
                2 * horizon_ns / 3,
                ScenarioEvent::Reconfigure(ConfigDelta::none().with_cost_per_state_ns(500)),
            );
    }
    spec
}

fn run_mode(
    board: &BoardSpec,
    mode: ExecMode,
    spec: &ScenarioSpec,
    exhaustive: bool,
    sink: &mut dyn TelemetrySink,
) -> ScenarioOutcome {
    let cfg = EngineConfig {
        exec: mode,
        ..EngineConfig::default()
    };
    let runtime = if exhaustive {
        ScenarioRuntime::mp_hars(board, mp_hars_e())
    } else {
        ScenarioRuntime::mp_hars(board, mp_hars_i())
    };
    run_shard(
        board,
        &cfg,
        &spec.tenant_schedule(),
        &spec.shard_config(),
        &mut AlwaysAdmit,
        runtime,
        SoloCacheHandle::Shared(&SharedSoloRateCache::new()),
        sink,
    )
    .expect("scenario runs")
}

proptest! {
    /// Mid-run reconfigures are fingerprint-stable across executor
    /// modes and reruns, and the telemetry stream replays identically.
    #[test]
    fn reconfigured_scenarios_stay_deterministic(
        board_idx in 0usize..2,
        seed in 0u64..1_000,
        horizon_secs in 25u64..40,
        exhaustive in proptest::bool::ANY,
    ) {
        let board = if board_idx == 0 {
            BoardSpec::odroid_xu3()
        } else {
            BoardSpec::dynamiq_1p_3m_4l()
        };
        let spec = spec_with_events(horizon_secs, seed, true);
        let mut fixed_sink = VecSink::new();
        let mut heap_sink = VecSink::new();
        let fixed = run_mode(&board, ExecMode::FixedStep, &spec, exhaustive, &mut fixed_sink);
        let heap = run_mode(&board, ExecMode::FastForward, &spec, exhaustive, &mut heap_sink);
        prop_assert_eq!(
            fixed.fingerprint(),
            heap.fingerprint(),
            "mid-run reconfigures broke idle-skip equivalence (board {}, seed {seed})",
            board.name
        );
        prop_assert_eq!(fixed.energy_joules.to_bits(), heap.energy_joules.to_bits());
        // All four events land before the horizon and must resolve the
        // same way in both modes.
        prop_assert_eq!(fixed.reconfig_accepted, 4);
        prop_assert_eq!(fixed.reconfig_rejected, 0);
        prop_assert_eq!(fixed.reconfig_accepted, heap.reconfig_accepted);
        prop_assert_eq!(fixed.config_version, 2, "two accepted deltas bump twice");
        prop_assert_eq!(heap.config_version, 2);
        // The stream itself is part of the deterministic surface.
        prop_assert_eq!(&fixed_sink.events, &heap_sink.events);
        let mut rerun_sink = VecSink::new();
        let rerun = run_mode(&board, ExecMode::FastForward, &spec, exhaustive, &mut rerun_sink);
        prop_assert_eq!(heap.fingerprint(), rerun.fingerprint());
        prop_assert_eq!(&heap_sink.events, &rerun_sink.events);
    }

    /// A rejected delta is a no-op: the run is bit-identical to an
    /// event-free run, and the sink never influences the outcome.
    #[test]
    fn rejected_deltas_leave_the_run_bit_identical(
        seed in 0u64..1_000,
        horizon_secs in 25u64..40,
    ) {
        let board = BoardSpec::odroid_xu3();
        let baseline_spec = spec_with_events(horizon_secs, seed, false);
        let baseline = run_mode(
            &board,
            ExecMode::FastForward,
            &baseline_spec,
            false,
            &mut hars_core::NullSink,
        );
        // Every one of these must bounce off validation: an empty
        // delta, a zero budget, an invalid admission swap, a negative
        // guard.
        let rejected_spec = baseline_spec
            .clone()
            .with_event(
                horizon_secs * NS_PER_SEC / 4,
                ScenarioEvent::Reconfigure(ConfigDelta::none()),
            )
            .with_event(
                horizon_secs * NS_PER_SEC / 3,
                ScenarioEvent::Reconfigure(ConfigDelta::none().with_budget_ns(0)),
            )
            .with_event(
                horizon_secs * NS_PER_SEC / 2,
                ScenarioEvent::SwapAdmission(AdmissionSwap::CapacityGate { max_load: 0.0 }),
            )
            .with_event(
                2 * horizon_secs * NS_PER_SEC / 3,
                ScenarioEvent::SetTargetGuard(-0.5),
            );
        let mut sink = VecSink::new();
        let rejected = run_mode(&board, ExecMode::FastForward, &rejected_spec, false, &mut sink);
        prop_assert_eq!(baseline.fingerprint(), rejected.fingerprint());
        prop_assert_eq!(baseline.energy_joules.to_bits(), rejected.energy_joules.to_bits());
        prop_assert_eq!(rejected.reconfig_accepted, 0);
        prop_assert_eq!(rejected.reconfig_rejected, 4);
        prop_assert_eq!(rejected.config_version, 0);
        let reasons: Vec<&str> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                hars_core::TelemetryEvent::ConfigRejected { reason, .. } => Some(reason.as_ref()),
                _ => None,
            })
            .collect();
        prop_assert_eq!(
            reasons,
            vec!["empty-delta", "zero-budget", "invalid-value", "invalid-value"]
        );
    }
}

/// Reconfigures against a manager-less GTS run are rejected with the
/// stable `no-manager` code — counted, reported, never fatal.
#[test]
fn gts_runs_reject_reconfigures_with_no_manager() {
    let board = BoardSpec::odroid_xu3();
    let spec = spec_with_events(25, 7, false).with_event(
        5 * NS_PER_SEC,
        ScenarioEvent::Reconfigure(ConfigDelta::none().with_policy(SearchPolicy::Frontier)),
    );
    let mut sink = VecSink::new();
    let out = run_shard(
        &board,
        &EngineConfig::default(),
        &spec.tenant_schedule(),
        &spec.shard_config(),
        &mut AlwaysAdmit,
        ScenarioRuntime::Gts,
        SoloCacheHandle::Shared(&SharedSoloRateCache::new()),
        &mut sink,
    )
    .expect("scenario runs");
    assert_eq!(out.reconfig_rejected, 1);
    assert_eq!(out.config_version, 0);
    assert!(sink.events.iter().any(|e| matches!(
        e,
        hars_core::TelemetryEvent::ConfigRejected { reason, .. } if reason == "no-manager"
    )));
}

/// Beyond-horizon events never fire, and the null-sink path matches
/// the vec-sink path bit for bit.
#[test]
fn beyond_horizon_events_never_fire_and_sinks_are_inert() {
    let board = BoardSpec::odroid_xu3();
    let horizon_ns = 25 * NS_PER_SEC;
    let spec = spec_with_events(25, 11, true).with_event(
        horizon_ns + 1,
        ScenarioEvent::Reconfigure(ConfigDelta::none().with_policy(SearchPolicy::Frontier)),
    );
    let mut sink = VecSink::new();
    let with_vec = run_mode(&board, ExecMode::FastForward, &spec, false, &mut sink);
    let with_null = run_mode(
        &board,
        ExecMode::FastForward,
        &spec,
        false,
        &mut hars_core::NullSink,
    );
    // The past-horizon event is dropped: still 4 accepted, version 2.
    assert_eq!(with_vec.reconfig_accepted, 4);
    assert_eq!(with_vec.config_version, 2);
    assert_eq!(with_vec.fingerprint(), with_null.fingerprint());
    assert_eq!(
        with_vec.energy_joules.to_bits(),
        with_null.energy_joules.to_bits()
    );
    // run_scenario (no sink, no events) on the same seed is the
    // pre-control-plane behavior; the accepted reconfigures must have
    // actually changed something for the run to be a real exercise.
    let event_free = run_scenario(
        &board,
        &EngineConfig::default(),
        &spec_with_events(25, 11, false),
        &mut AlwaysAdmit,
        ScenarioRuntime::mp_hars(&board, mp_hars_i()),
    )
    .expect("scenario runs");
    assert_eq!(event_free.reconfig_accepted, 0);
    assert_eq!(event_free.config_version, 0);
}
