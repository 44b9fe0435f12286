//! # mp-hars — the multi-application extension of HARS
//!
//! MP-HARS (Chapter 4 of the paper) supervises several concurrently
//! running self-adaptive applications on one big.LITTLE board. Each
//! application keeps its own HARS adaptation loop, with two additional
//! mechanisms:
//!
//! * **resource partitioning** ([`partition`]) — applications own
//!   disjoint core sets managed through per-app ownership bitmaps
//!   (Table 4.1), per-cluster free lists (Table 4.2) and the Algorithm 4
//!   allocator, which reuses owned cores to minimize thread migration;
//! * **interference-aware adaptation** ([`freeze`]) — cluster
//!   frequencies are shared, so decreases require a unanimously
//!   over-performing domain (Table 4.3) and arm per-app *freezing
//!   counts* that freeze the cluster until everyone has re-measured.
//!
//! [`ConsIManager`] implements the CONS-I baseline (the conservative
//! incremental naive model the paper compares against), and
//! [`driver::run_multi_app`] runs any of the versions on a simulated
//! board.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod app_data;
pub mod cluster_data;
pub mod cons;
pub mod driver;
pub mod freeze;
pub mod manager;
pub mod partition;

pub use app_data::{AppData, PerfClass};
pub use cluster_data::ClusterData;
pub use cons::{ConsDecision, ConsIManager};
pub use driver::{run_multi_app, AppRunStats, MpRunOutcome, MpVersion};
pub use freeze::{combine_others, decide, FreezeDecision, StateDecision};
pub use hars_core::ratio_learn::RatioLearning;
pub use manager::{mp_hars_e, mp_hars_i, MpDecision, MpHarsConfig, MpHarsManager, QuarantineMode};
pub use partition::{get_allocatable_core_set, AllocatedCores};
