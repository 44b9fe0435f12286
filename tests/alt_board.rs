//! Topology generality: the whole HARS stack (calibration, estimators,
//! search, schedulers, partitioning) on a board that is *not* the
//! paper's symmetric 4+4 — the phone-class 2 big + 4 little preset.

use hars::hars_core::calibrate::run_power_calibration;
use hars::hars_core::policy::hars_e;
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
    let mut spec = AppSpec::data_parallel("alt", 6, 600.0);
    spec.speed = SpeedProfile {
        big_little_ratio: 1.8,
        mem_bound_frac: 0.1,
    };
    spec.max_heartbeats = Some(budget);
    spec
}

#[test]
fn hars_works_on_a_2_plus_4_board() {
    let board = BoardSpec::phone_2big_4little();
    let power = calibrated(&board);
    let perf = PerfEstimator::paper_default(board.base_freq);

    // Baseline rate on this board.
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
        6,
        HarsConfig::from_variant(hars_e()),
    );
    let out = run_single_app(&mut engine, app, &mut manager, secs_to_ns(300.0), false).unwrap();
    assert!(out.norm_perf > 0.85, "norm perf {}", out.norm_perf);
    assert!(
        out.avg_watts < 0.75 * base_watts,
        "no savings: {} W vs baseline {} W",
        out.avg_watts,
        base_watts
    );
    // The settled state must respect this board's bounds.
    let st = manager.state();
    let (big, little) = (ClusterId::BIG, ClusterId::LITTLE);
    assert!(st.cores(big) <= 2);
    assert!(st.cores(little) <= 4);
    assert!(board.ladder(big).contains(st.freq(big)));
    assert!(board.ladder(little).contains(st.freq(little)));
}

#[test]
fn mp_hars_partitions_the_asymmetric_board() {
    let board = BoardSpec::phone_2big_4little();
    let power = calibrated(&board);
    let perf = PerfEstimator::paper_default(board.base_freq);
    let mut engine = Engine::new(board.clone(), EngineConfig::default());
    let a = engine.add_app(app_spec(120)).unwrap();
    let b = engine.add_app(app_spec(120)).unwrap();
    let ta = PerfTarget::new(1.2, 1.6).unwrap();
    let tb = PerfTarget::new(1.0, 1.4).unwrap();
    engine.set_perf_target(a, ta).unwrap();
    engine.set_perf_target(b, tb).unwrap();
    let mut manager = MpHarsManager::new(&board, perf, power, mp_hars_e());
    manager.register_app(a, 6, ta);
    manager.register_app(b, 6, tb);
    let mut version = MpVersion::MpHars(manager);
    let out = run_multi_app(&mut engine, &[a, b], &mut version, secs_to_ns(300.0), true).unwrap();
    for stats in &out.apps {
        assert!(stats.heartbeats >= 120);
        assert!(
            stats.norm_perf > 0.6,
            "{:?}: {}",
            stats.app,
            stats.norm_perf
        );
    }
    // Allocations must fit 2 big + 4 little at every aligned instant.
    let (big, little) = (ClusterId::BIG, ClusterId::LITTLE);
    for s0 in &out.apps[0].trace {
        for s1 in &out.apps[1].trace {
            if s0.time_ns.abs_diff(s1.time_ns) < 1_000_000 {
                assert!(s0.state.cores(big) + s1.state.cores(big) <= 2);
                assert!(s0.state.cores(little) + s1.state.cores(little) <= 4);
            }
        }
    }
}
