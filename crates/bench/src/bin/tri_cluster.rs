//! Beyond the paper: HARS on a DynamIQ-style tri-cluster board.
//!
//! The paper notes its design "generalizes to more" than two clusters;
//! this scenario proves it end to end. A data-parallel workload runs on
//! [`BoardSpec::dynamiq_1p_3m_4l`] (4 little + 3 mid + 1 prime) under
//! the baseline and HARS-E, with the power model calibrated from the
//! board's own microbenchmark sweep and Algorithm 2 searching the full
//! 6-dimensional `(C_0..C_2, f_0..f_2)` neighborhood.
//!
//! ```sh
//! cargo run --release -p hars-bench --bin tri_cluster [-- --quick]
//! ```

use hars_bench::Cli;
use hars_core::calibrate::run_power_calibration;
use hars_core::policy::hars_e;
use hars_core::{run_single_app, HarsConfig, PerfEstimator, RuntimeManager};
use heartbeats::PerfTarget;
use hmp_sim::clock::secs_to_ns;
use hmp_sim::microbench::CalibrationConfig;
use hmp_sim::{AppSpec, BoardSpec, Engine, EngineConfig, SpeedProfile};

fn main() {
    let quick = Cli::parse().quick;
    let board = BoardSpec::dynamiq_1p_3m_4l();
    println!(
        "board: {} ({} clusters, {} cores)",
        board.name,
        board.n_clusters(),
        board.n_cores()
    );
    for c in board.cluster_ids() {
        println!(
            "  {}: {} cores, {}..{} ({} levels), nominal ratio {:.1}",
            board.cluster_name(c),
            board.cluster_size(c),
            board.ladder(c).min(),
            board.ladder(c).max(),
            board.ladder(c).len(),
            board.perf_ratio(c),
        );
    }

    let engine_cfg = EngineConfig {
        hb_window: 10,
        ..EngineConfig::default()
    };
    let cal = if quick {
        CalibrationConfig::quick()
    } else {
        CalibrationConfig::default()
    };
    println!("\ncalibrating the per-cluster power model...");
    let power = run_power_calibration(&board, &engine_cfg, &cal).expect("valid board");
    let perf = PerfEstimator::from_board(&board);

    let mut spec = AppSpec::data_parallel("tri-app", 8, 800.0);
    spec.speed = SpeedProfile::compute_bound(1.7);
    spec.max_heartbeats = Some(if quick { 200 } else { 500 });

    // Baseline: GTS at the maximum state.
    let mut engine = Engine::new(board.clone(), engine_cfg.clone());
    let app = engine.add_app(spec.clone()).expect("spec validates");
    engine.run_while_active(secs_to_ns(240.0));
    let base_rate = engine
        .monitor(app)
        .expect("registered")
        .global_rate()
        .expect("heartbeats observed")
        .heartbeats_per_sec();
    let base_watts = engine.energy().average_power();
    println!("baseline: {base_rate:.2} hb/s at {base_watts:.2} W");

    // HARS-E targeting half the baseline rate.
    let target = PerfTarget::from_center(0.5 * base_rate, 0.10).expect("valid target");
    let mut engine = Engine::new(board.clone(), engine_cfg);
    let app = engine.add_app(spec).expect("spec validates");
    let mut manager = RuntimeManager::new(
        &board,
        target,
        perf,
        power,
        8,
        HarsConfig {
            cost_per_state_ns: 8_000,
            cost_per_heartbeat_ns: 1_000_000,
            ..HarsConfig::from_variant(hars_e())
        },
    );
    let out = run_single_app(&mut engine, app, &mut manager, secs_to_ns(480.0), false)
        .expect("driver runs");
    println!(
        "HARS-E  : {:.2} hb/s (target {target}) at {:.2} W — norm perf {:.3}, \
         perf/watt {:.4}, {} adaptations, settled at {}",
        out.avg_rate,
        out.avg_watts,
        out.norm_perf,
        out.perf_per_watt,
        out.adaptations,
        manager.state(),
    );
    let base_pp = 1.0 / base_watts;
    println!(
        "efficiency vs baseline: {:.2}x (6-D search per adaptation explored \
         up to the full (m,n,d)=(4,4,7) neighborhood)",
        out.perf_per_watt / base_pp
    );
}
