//! # hmp-sim — an N-cluster heterogeneous platform simulator
//!
//! This crate is the hardware substrate for the HARS reproduction: a
//! deterministic, event-exact simulator of heterogeneous multicore
//! boards, from the paper's ODROID-XU3 (Samsung Exynos 5422) up to
//! arbitrary N-cluster topologies:
//!
//! * any number of clusters, each a [`ClusterSpec`] with its own core
//!   count, DVFS ladder, power model and nominal per-core performance
//!   ratio — presets cover the XU3 ([`BoardSpec::odroid_xu3`]), an
//!   asymmetric phone SoC, a DynamIQ-style tri-cluster part
//!   ([`BoardSpec::dynamiq_1p_3m_4l`]) and an x86 hybrid
//!   ([`BoardSpec::x86_hybrid_6p_8e`]),
//! * a ground-truth `V²f` power model measured by a sampling
//!   [`PowerSensor`] (one rail per cluster; 263,808 µs period on the
//!   XU3, like the board's INA231 rails),
//! * a Linux GTS-style HMP scheduler, fixed at the Linux 3.10
//!   big.LITTLE MP defaults (up-migration at 80 % load, down-migration
//!   below 30 %, a 4 ms tick, [`GTS_TICK_NS`]), whose migrations climb
//!   and descend the board's performance order one cluster at a time,
//! * multithreaded application models (data-parallel barriers, bounded
//!   -queue pipelines, duty-cycle calibration spinners) that emit
//!   heartbeats through the `heartbeats` crate,
//! * the exact control surface HARS drives: per-cluster frequency
//!   setting and per-thread `sched_setaffinity` masks.
//!
//! ## Quickstart
//!
//! ```
//! use hmp_sim::{AppSpec, BoardSpec, Engine, EngineConfig};
//!
//! let mut engine = Engine::new(BoardSpec::odroid_xu3(), EngineConfig::default());
//! let app = engine.add_app(AppSpec::data_parallel("demo", 8, 800.0))?;
//!
//! // Run for two virtual seconds and inspect the heartbeat rate.
//! engine.run_until(2_000_000_000);
//! let rate = engine.monitor(app)?.window_rate().unwrap();
//! assert!(rate.heartbeats_per_sec() > 0.0);
//! # Ok::<(), hmp_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod app;
mod board;
pub mod clock;
mod cpuset;
mod energy;
mod engine;
mod error;
mod fault;
mod freq;
pub mod microbench;
mod power;
mod sched;
mod sensor;
mod spec;
mod thread;

pub use board::{BoardSpec, ClusterId, ClusterPowerModel, ClusterSpec, MAX_CLUSTERS};
pub use cpuset::{CoreId, CpuSet, CpuSetIter};
pub use energy::{EnergyMeter, EnergySnapshot};
pub use engine::{Action, Engine, EngineConfig, ExecMode, HeartbeatEvent};
pub use error::SimError;
pub use fault::{FaultKind, FaultNotice, FaultPlan, TimedFault};
pub use freq::{FreqKhz, FreqLadder};
pub use power::{board_power, cluster_power};
pub use sched::GTS_TICK_NS;
pub use sensor::{PowerSample, PowerSensor};
pub use spec::{AppSpec, ParallelismModel, SpeedProfile, WorkSource};

// Re-export the heartbeat vocabulary used across the API surface.
pub use heartbeats::{AppId, PerfTarget};
