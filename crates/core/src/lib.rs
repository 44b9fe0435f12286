//! # hars-core — the HARS runtime system
//!
//! A reproduction of **HARS**, the heterogeneity-aware runtime system
//! for self-adaptive multithreaded applications (DAC 2015 / Yun's UNIST
//! thesis). HARS lets a multithreaded application declare a heartbeat
//! performance target and then periodically:
//!
//! 1. **observes** the application-level heartbeat rate,
//! 2. **decides** by searching the neighborhood of the current system
//!    state — per cluster, an allocated-core count and a DVFS frequency
//!    ([`SystemState`]; the paper's big.LITTLE 4-tuple
//!    `(C_B, C_L, f_B, f_L)` is the two-cluster case) — with a
//!    pluggable [`search::SearchStrategy`]: Algorithm 2's
//!    [`ExhaustiveSweep`] over all `2N` index dimensions, the
//!    beam-limited [`BeamSearch`] or the coordinate-descent
//!    [`GreedyFrontier`] for many-cluster boards, all ranked by
//!    estimated normalized-performance/power ([`PerfEstimator`],
//!    [`PowerEstimator`]),
//! 3. **acts** by setting cluster frequencies and pinning threads with
//!    the chunk-based or interleaving scheduler ([`sched`]).
//!
//! The three evaluated variants are [`policy::hars_i`] (incremental),
//! [`policy::hars_e`] (exhaustive) and [`policy::hars_ei`] (exhaustive +
//! interleaving); [`static_optimal`] implements the offline SO baseline.
//! Everything is cluster-count agnostic: the same manager runs the
//! ODROID-XU3, a DynamIQ tri-cluster SoC or an x86 P/E hybrid — pick a
//! [`hmp_sim::BoardSpec`] preset or describe your own board.
//!
//! ## Quickstart
//!
//! ```
//! use hars_core::{HarsConfig, PerfEstimator, RuntimeManager};
//! use hars_core::policy::hars_e;
//! use hars_core::power_est::{LinearCoeff, PowerEstimator};
//! use heartbeats::PerfTarget;
//! use hmp_sim::BoardSpec;
//!
//! let board = BoardSpec::odroid_xu3();
//! // Power model normally comes from hars_core::calibrate; hand-rolled
//! // here: one (ladder, per-level coefficient table) pair per cluster.
//! let power = PowerEstimator::from_clusters(
//!     board
//!         .cluster_ids()
//!         .map(|c| {
//!             let alpha = if c == hmp_sim::ClusterId::BIG { 0.9 } else { 0.15 };
//!             let ladder = board.ladder(c).clone();
//!             let table = ladder
//!                 .iter()
//!                 .map(|_| LinearCoeff { alpha, beta: 0.2 })
//!                 .collect();
//!             (ladder, table)
//!         })
//!         .collect(),
//! );
//! // The estimator assumes the board's nominal per-cluster ratios
//! // (r₀ = 1.5 for the XU3 big cluster, straight from the paper).
//! let perf = PerfEstimator::from_board(&board);
//! let target = PerfTarget::from_center(10.0, 0.10)?;
//! let mut manager = RuntimeManager::new(
//!     &board, target, perf, power, 8, HarsConfig::from_variant(hars_e()),
//! );
//!
//! // Over-performing at 30 hb/s: the manager decides to shrink.
//! let decision = manager.on_heartbeat(10, Some(30.0)).expect("adapts");
//! assert!(decision.state.total_cores() <= 8);
//! # Ok::<(), heartbeats::HeartbeatError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod assign;
pub mod calibrate;
pub mod config;
pub mod driver;
pub mod fnv;
pub mod linreg;
pub mod manager;
pub mod metrics;
pub mod perf_est;
pub mod policy;
pub mod power_est;
pub mod predictor;
pub mod ratio_learn;
pub mod sched;
pub mod search;
pub mod state;
pub mod static_optimal;
pub mod telemetry;

pub use assign::{assign_threads, ThreadAssignment};
pub use config::{BudgetChange, ConfigDelta, ConfigVersion, RejectReason, RuntimeConfig};
pub use driver::{run_single_app, BehaviorSample, RunOutcome};
pub use manager::{Decision, DecisionCore, HarsConfig, RuntimeManager};
pub use perf_est::{PerfEstimator, UnitTimes};
pub use power_est::PowerEstimator;
pub use predictor::{Kalman1D, Predictor};
pub use ratio_learn::{PendingPrediction, RatioLearner, RatioLearning};
pub use sched::SchedulerKind;
pub use search::{
    AnyStrategy, BeamSearch, BestTracker, ExhaustiveSweep, FreqChange, GreedyFrontier,
    SearchConstraints, SearchContext, SearchOutcome, SearchParams, SearchStats, SearchStrategy,
    SearchStrategyFactory,
};
pub use state::{StateSpace, SystemState};
pub use telemetry::{NullSink, TelemetryEvent, TelemetrySink, VecSink};
