//! # hars-bench — the evaluation harness
//!
//! Reproduces every table and figure of the HARS paper's Chapter 5 on
//! the simulated ODROID-XU3. Each has one function in [`experiments`]
//! that computes and prints it, and one `src/bin/` binary that calls
//! that function:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table3_1` | Table 3.1 (thread assignment) |
//! | `table4_3` | Table 4.3 (state & freeze decisions) |
//! | `fig5_1` | Figure 5.1 (perf/watt, default target) |
//! | `fig5_2` | Figure 5.2 (perf/watt, high target) |
//! | `fig5_3` | Figure 5.3 (distance sweep: efficiency + overhead) |
//! | `fig5_4` | Figure 5.4 (multi-application perf/watt) |
//! | `fig5_5_6_7` | Figures 5.5–5.7 (case-4 behavior graphs) |
//! | `all_experiments` | everything above, in order, in one process |
//!
//! Beyond the paper, `sweep` runs the sensitivity study, `ablations`
//! the Section 3.1.4 extension ablations (ratio learning, tabu,
//! Kalman predictor, schedulers), `tri_cluster` the full stack on the
//! DynamIQ 3-cluster preset, and `ratio_learning` the per-cluster
//! online ratio-learning scenario (mid-cluster nominal ratio misstated
//! by 25%; `RatioLearning::PerCluster` converges it onto the truth,
//! the legacy fastest-only nudge cannot).
//!
//! Pass `--quick` to any binary for a reduced-scale run; the binaries
//! that write a `BENCH_*.json` report also take `--out <path>` ([`Cli`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod experiments;
pub mod multi;
pub mod ratio_scenario;
pub mod setup;
pub mod single;
pub mod table;

pub use cli::Cli;
pub use multi::{hb_budget, run_case, MpScale, MpVersionKind, CASES};
pub use setup::{measure_max_rate, seed_for, target_for, Lab};
pub use single::{run_version, RunScale, SingleResult, Version};
