//! Three concurrent applications under MP-HARS: partitioning, freezing
//! and per-app adaptation must scale past the paper's two-app cases.

use heartbeats::PerfTarget;
use hmp_sim::clock::secs_to_ns;
use hmp_sim::{AppSpec, BoardSpec, Engine, EngineConfig, SpeedProfile};

use hars_core::calibrate::run_power_calibration;
use hars_core::PerfEstimator;
use hmp_sim::microbench::CalibrationConfig;
use mp_hars::{mp_hars_e, run_multi_app, MpHarsManager, MpVersion};

fn spec(name: &str, threads: usize, work: f64, budget: u64) -> AppSpec {
    let mut s = AppSpec::data_parallel(name, threads, work);
    s.speed = SpeedProfile::compute_bound(1.5);
    s.serial_frac = 0.1;
    s.max_heartbeats = Some(budget);
    s
}

#[test]
fn three_apps_partition_and_adapt() {
    let board = BoardSpec::odroid_xu3();
    let cfg = EngineConfig {
        sensor_noise: 0.0,
        hb_window: 10,
        ..EngineConfig::default()
    };
    let power = run_power_calibration(&board, &cfg, &CalibrationConfig::quick()).unwrap();
    let perf = PerfEstimator::paper_default(board.base_freq);

    let mut engine = Engine::new(board.clone(), cfg);
    // Three small apps so all three targets fit the board comfortably.
    let a = engine.add_app(spec("a", 4, 600.0, 150)).unwrap();
    let b = engine.add_app(spec("b", 4, 800.0, 150)).unwrap();
    let c = engine.add_app(spec("c", 4, 1_000.0, 150)).unwrap();
    // Modest absolute targets (hb/s), reachable with 1-3 cores each.
    let ta = PerfTarget::new(2.0, 2.6).unwrap();
    let tb = PerfTarget::new(1.5, 2.0).unwrap();
    let tc = PerfTarget::new(1.2, 1.6).unwrap();
    for (app, t) in [(a, ta), (b, tb), (c, tc)] {
        engine.set_perf_target(app, t).unwrap();
    }
    let mut manager = MpHarsManager::new(&board, perf, power, mp_hars_e());
    manager.register_app(a, 4, ta);
    manager.register_app(b, 4, tb);
    manager.register_app(c, 4, tc);
    let mut version = MpVersion::MpHars(manager);
    let out = run_multi_app(
        &mut engine,
        &[a, b, c],
        &mut version,
        secs_to_ns(300.0),
        true,
    )
    .unwrap();

    for stats in &out.apps {
        assert!(
            stats.heartbeats >= 150,
            "{:?} finished only {} beats",
            stats.app,
            stats.heartbeats
        );
        assert!(
            stats.norm_perf > 0.7,
            "{:?} norm perf {}",
            stats.app,
            stats.norm_perf
        );
    }
    // Partitioning: sum of allocations never exceeds the board at any
    // aligned trace instant.
    let traces: Vec<_> = out.apps.iter().map(|s| &s.trace).collect();
    for s0 in traces[0] {
        for s1 in traces[1] {
            if s0.time_ns.abs_diff(s1.time_ns) > 1_000_000 {
                continue;
            }
            for s2 in traces[2] {
                if s0.time_ns.abs_diff(s2.time_ns) > 1_000_000 {
                    continue;
                }
                for c in board.cluster_ids() {
                    let held = s0.state.cores(c) + s1.state.cores(c) + s2.state.cores(c);
                    assert!(held <= board.cluster_size(c));
                }
            }
        }
    }
    // The board must not be running flat out: three modest targets
    // should cost clearly less than the ~6.5 W baseline.
    assert!(
        out.avg_watts < 4.5,
        "three small apps should not need the whole board: {} W",
        out.avg_watts
    );
}
