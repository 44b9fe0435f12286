//! # hars — a reproduction of the HARS runtime system
//!
//! This facade crate re-exports the whole workspace behind one
//! dependency: a full reproduction of *HARS: a Heterogeneity-Aware
//! Runtime System for Self-Adaptive Multithreaded Applications*
//! (DAC 2015 / Jaeyoung Yun's UNIST thesis) together with every
//! substrate it needs:
//!
//! * [`hmp_sim`] — a deterministic N-cluster heterogeneous board
//!   simulator (ODROID-XU3, DynamIQ tri-cluster and x86 hybrid presets,
//!   per-cluster DVFS, power sensors, Linux GTS-style scheduling);
//! * [`heartbeats`] — the Application Heartbeats observation channel;
//! * [`workloads`] — PARSEC-analog multithreaded benchmarks;
//! * [`hars_core`] — the HARS runtime manager, estimators, search and
//!   schedulers;
//! * [`mp_hars`] — the multi-application extension (resource
//!   partitioning + interference-aware adaptation) and the CONS-I
//!   baseline;
//! * [`hars_scenario`] — the open-system scenario engine (stochastic
//!   tenant arrivals, admission control, churn benchmarking, mid-run
//!   control-plane events and streaming JSONL telemetry);
//! * [`hars_fleet`] — fleet-scale parallel serving: a heterogeneous
//!   board fleet sharded over a worker pool, with a placement tier, a
//!   single-flight shared solo-rate calibration cache, and a seeded
//!   fault plane with shard supervision and tenant failover — all
//!   bit-identical across worker counts.
//!
//! ## Quickstart
//!
//! Run blackscholes under HARS-E at half its maximum speed:
//!
//! ```
//! use hars::prelude::*;
//!
//! let board = BoardSpec::odroid_xu3();
//! let mut engine = Engine::new(board.clone(), EngineConfig::default());
//! let app = engine.add_app(Benchmark::Swaptions.spec_with_budget(8, 1, 100))?;
//!
//! // Calibrate the power model the way HARS does on a real board.
//! let power = hars::hars_core::calibrate::run_power_calibration(
//!     &board,
//!     &EngineConfig::default(),
//!     &CalibrationConfig { secs_per_point: 1.1, duties: vec![0.5, 1.0], spinner_period_ns: 1_000_000 },
//! )?;
//! let perf = PerfEstimator::paper_default(board.base_freq);
//! let target = PerfTarget::from_center(10.0, 0.10).unwrap();
//! let mut manager = RuntimeManager::new(
//!     &board, target, perf, power, 8, HarsConfig::from_variant(hars::hars_core::policy::hars_e()),
//! );
//! let outcome = run_single_app(&mut engine, app, &mut manager, 120_000_000_000, false)?;
//! assert!(outcome.heartbeats > 0);
//! # Ok::<(), hmp_sim::SimError>(())
//! ```
//!
//! See `examples/` for runnable scenarios and the `hars-bench` crate for
//! the full paper-evaluation harness.

#![warn(missing_docs)]

pub use hars_core;
pub use hars_fleet;
pub use hars_obs;
pub use hars_scenario;
pub use heartbeats;
pub use hmp_sim;
pub use mp_hars;
pub use workloads;

/// The common imports for working with the HARS stack.
pub mod prelude {
    pub use hars_core::{
        run_single_app, ConfigDelta, ConfigVersion, HarsConfig, NullSink, PerfEstimator,
        PowerEstimator, RejectReason, RuntimeConfig, RuntimeManager, SchedulerKind, SearchParams,
        StateSpace, SystemState, TelemetryEvent, TelemetrySink, VecSink,
    };
    pub use hars_fleet::{
        run_fleet, run_fleet_with_metrics, FleetBoard, FleetCacheMode, FleetFaultSpec,
        FleetOutcome, FleetRuntimeKind, FleetSpec, PlacementPolicy, ShardFailure,
    };
    pub use hars_obs::{
        replay_capture, Log2Histogram, MetricsRollup, MetricsSink, MetricsSummary, SloClass,
        TenantTimeline, SLO_PCT,
    };
    pub use hars_scenario::{
        run_scenario, run_shard, run_shard_with_metrics, AdmissionPolicy, AdmissionSwap,
        AlwaysAdmit, AppTemplate, ArrivalProcess, BoundedQueue, CapacityGate, JsonlSink,
        ScenarioEvent, ScenarioRuntime, ScenarioSpec, ShardConfig, SharedSoloRateCache,
        SoloCacheHandle, TemplateSet, TimedEvent,
    };
    pub use heartbeats::{AppId, HeartbeatMonitor, PerfTarget};
    pub use hmp_sim::microbench::CalibrationConfig;
    pub use hmp_sim::{
        AppSpec, BoardSpec, ClusterId, ClusterSpec, CoreId, CpuSet, Engine, EngineConfig,
        FaultKind, FaultPlan, FreqKhz, FreqLadder, GtsConfig, SpeedProfile, TimedFault,
    };
    pub use mp_hars::{
        ConsConfig, ConsIManager, MpHarsConfig, MpHarsManager, MpVersion, QuarantineMode,
    };
    pub use workloads::Benchmark;
}
