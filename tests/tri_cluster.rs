//! The N-cluster acceptance test: the full HARS stack on the DynamIQ
//! tri-cluster preset. Calibration, the 6-dimensional Algorithm 2
//! search, the generalized Table 3.1 assignment and the schedulers all
//! run on a board the paper never saw — and HARS-E still converges into
//! its heartbeat target band while saving power over the baseline.

use hars::hars_core::calibrate::run_power_calibration;
use hars::hars_core::policy::{hars_e, hars_ei};
use hars::hars_core::run_single_app;
use hars::mp_hars::{mp_hars_e, run_multi_app, MpVersion};
use hars::prelude::*;
use hmp_sim::clock::secs_to_ns;
use hmp_sim::microbench::CalibrationConfig;

fn calibrated(board: &BoardSpec) -> PowerEstimator {
    run_power_calibration(
        board,
        &EngineConfig {
            sensor_noise: 0.0,
            ..EngineConfig::default()
        },
        &CalibrationConfig::quick(),
    )
    .unwrap()
}

fn app_spec(budget: u64) -> AppSpec {
    let mut spec = AppSpec::data_parallel("tri", 8, 600.0);
    spec.speed = SpeedProfile {
        big_little_ratio: 1.8,
        mem_bound_frac: 0.1,
    };
    spec.max_heartbeats = Some(budget);
    spec
}

/// The headline acceptance criterion: a HARS-E run on a 3-cluster board
/// converges to its heartbeat target band in simulation.
#[test]
fn hars_e_converges_on_tri_cluster_board() {
    let board = BoardSpec::dynamiq_1p_3m_4l();
    assert_eq!(board.n_clusters(), 3);
    let power = calibrated(&board);
    let perf = PerfEstimator::from_board(&board);

    // Baseline rate and power on this board.
    let mut engine = Engine::new(board.clone(), EngineConfig::default());
    let app = engine.add_app(app_spec(120)).unwrap();
    engine.run_while_active(secs_to_ns(60.0));
    let max = engine
        .monitor(app)
        .unwrap()
        .global_rate()
        .unwrap()
        .heartbeats_per_sec();
    let base_watts = engine.energy().average_power();

    // HARS-E at a 50% target.
    let target = PerfTarget::new(0.45 * max, 0.55 * max).unwrap();
    let mut engine = Engine::new(board.clone(), EngineConfig::default());
    let app = engine.add_app(app_spec(300)).unwrap();
    let mut manager = RuntimeManager::new(
        &board,
        target,
        perf,
        power,
        8,
        HarsConfig::from_variant(hars_e()),
    );
    let out = run_single_app(&mut engine, app, &mut manager, secs_to_ns(300.0), true).unwrap();
    assert!(
        out.norm_perf > 0.85,
        "HARS-E missed the band on the tri-cluster board: norm perf {} (rate {:.2} vs {target})",
        out.norm_perf,
        out.avg_rate
    );
    assert!(
        out.avg_watts < 0.8 * base_watts,
        "no power savings: {} W vs baseline {} W",
        out.avg_watts,
        base_watts
    );
    assert!(out.adaptations >= 1, "must actually adapt");
    // The tail of the run sits inside (or hugging) the band.
    let tail: Vec<f64> = out
        .trace
        .iter()
        .rev()
        .take(30)
        .filter_map(|s| s.rate)
        .collect();
    let in_band = tail
        .iter()
        .filter(|&&r| r >= 0.9 * target.min() && r <= 1.1 * target.max())
        .count();
    assert!(
        in_band * 2 >= tail.len(),
        "tail spends less than half its time near the band: {in_band}/{}",
        tail.len()
    );
    // The settled state respects the per-cluster bounds.
    let st = manager.state();
    for c in board.cluster_ids() {
        assert!(st.cores(c) <= board.cluster_size(c));
        assert!(board.ladder(c).contains(st.freq(c)));
    }
}

/// The interleaving variant also runs the tri-cluster board.
#[test]
fn hars_ei_runs_on_tri_cluster_board() {
    let board = BoardSpec::dynamiq_1p_3m_4l();
    let power = calibrated(&board);
    let perf = PerfEstimator::from_board(&board);
    let mut engine = Engine::new(board.clone(), EngineConfig::default());
    let app = engine.add_app(app_spec(150)).unwrap();
    let target = PerfTarget::new(5.0, 7.0).unwrap();
    let mut manager = RuntimeManager::new(
        &board,
        target,
        perf,
        power,
        8,
        HarsConfig::from_variant(hars_ei()),
    );
    let out = run_single_app(&mut engine, app, &mut manager, secs_to_ns(120.0), false).unwrap();
    assert!(out.heartbeats > 0);
    assert!(out.manager_cpu_percent < 50.0);
}

/// MP-HARS partitions a tri-cluster board between two applications
/// without ever sharing a core.
#[test]
fn mp_hars_partitions_tri_cluster_board() {
    let board = BoardSpec::dynamiq_1p_3m_4l();
    let power = calibrated(&board);
    let perf = PerfEstimator::from_board(&board);
    let mut engine = Engine::new(board.clone(), EngineConfig::default());
    let spec_a = app_spec(100);
    let mut spec_b = app_spec(100);
    spec_b.threads = 4;
    let app_a = engine.add_app(spec_a).unwrap();
    let app_b = engine.add_app(spec_b).unwrap();
    let t_a = PerfTarget::new(4.0, 6.0).unwrap();
    let t_b = PerfTarget::new(4.0, 6.0).unwrap();
    engine.set_perf_target(app_a, t_a).unwrap();
    engine.set_perf_target(app_b, t_b).unwrap();
    let mut manager = MpHarsManager::new(&board, perf, power, mp_hars_e());
    manager.register_app(app_a, 8, t_a);
    manager.register_app(app_b, 4, t_b);
    let mut version = MpVersion::MpHars(manager);
    let out = run_multi_app(
        &mut engine,
        &[app_a, app_b],
        &mut version,
        secs_to_ns(120.0),
        false,
    )
    .unwrap();
    assert_eq!(out.apps.len(), 2);
    for app in &out.apps {
        assert!(app.heartbeats > 0, "{:?} made no progress", app.app);
    }
    // Ownership stayed disjoint throughout (assert the final snapshot).
    let MpVersion::MpHars(m) = &version else {
        unreachable!()
    };
    for ci in 0..board.n_clusters() {
        for i in 0..board.cluster_size(hmp_sim::ClusterId(ci)) {
            let owners: usize = m.apps().iter().map(|a| usize::from(a.owned[ci][i])).sum();
            assert!(owners <= 1, "cluster {ci} core {i} shared");
            assert_eq!(owners == 0, m.clusters()[ci].free[i]);
        }
    }
}

/// The x86 P/E preset drives the same stack (two clusters, asymmetric
/// core counts, wide ladders).
#[test]
fn x86_hybrid_preset_runs_hars() {
    let board = BoardSpec::x86_hybrid_6p_8e();
    let power = calibrated(&board);
    let perf = PerfEstimator::from_board(&board);
    let mut engine = Engine::new(board.clone(), EngineConfig::default());
    let mut spec = app_spec(150);
    spec.threads = 12;
    let app = engine.add_app(spec).unwrap();
    engine.run_while_active(secs_to_ns(40.0));
    let max = engine
        .monitor(app)
        .unwrap()
        .global_rate()
        .unwrap()
        .heartbeats_per_sec();

    let target = PerfTarget::new(0.45 * max, 0.55 * max).unwrap();
    let mut engine = Engine::new(board.clone(), EngineConfig::default());
    let mut spec = app_spec(300);
    spec.threads = 12;
    let app = engine.add_app(spec).unwrap();
    let mut manager = RuntimeManager::new(
        &board,
        target,
        perf,
        power,
        12,
        HarsConfig::from_variant(hars_e()),
    );
    let out = run_single_app(&mut engine, app, &mut manager, secs_to_ns(300.0), false).unwrap();
    assert!(
        out.norm_perf > 0.8,
        "norm perf {} on the P/E board",
        out.norm_perf
    );
    let st = manager.state();
    assert!(st.cores(hmp_sim::ClusterId(0)) <= 8);
    assert!(st.cores(hmp_sim::ClusterId(1)) <= 6);
}
