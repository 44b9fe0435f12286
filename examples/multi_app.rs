//! Multi-application adaptation: bodytrack + fluidanimate (the paper's
//! case 4) under MP-HARS-E, with resource partitioning and
//! interference-aware frequency control.
//!
//! ```sh
//! cargo run --release --example multi_app
//! ```

use hars::hars_core::calibrate::run_power_calibration;
use hars::mp_hars::{mp_hars_e, run_multi_app, MpVersion};
use hars::prelude::*;

fn solo_max(board: &BoardSpec, bench: Benchmark, seed: u64) -> f64 {
    let mut engine = Engine::new(board.clone(), EngineConfig::default());
    let app = engine
        .add_app(bench.spec_with_budget(8, seed, 150))
        .expect("preset validates");
    engine.run_while_active(60_000_000_000);
    engine
        .monitor(app)
        .expect("registered")
        .global_rate()
        .map(|r| r.heartbeats_per_sec())
        .unwrap_or(0.0)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let board = BoardSpec::odroid_xu3();
    println!("calibrating power model...");
    let power = run_power_calibration(
        &board,
        &EngineConfig::default(),
        &CalibrationConfig::default(),
    )?;
    let perf = PerfEstimator::paper_default(board.base_freq);

    let (bo, fl) = (Benchmark::Bodytrack, Benchmark::Fluidanimate);
    let (max_bo, max_fl) = (solo_max(&board, bo, 1), solo_max(&board, fl, 2));
    let t_bo = PerfTarget::new(0.45 * max_bo, 0.55 * max_bo)?;
    let t_fl = PerfTarget::new(0.45 * max_fl, 0.55 * max_fl)?;
    println!("targets: bodytrack {t_bo}  fluidanimate {t_fl}");

    let mut engine = Engine::new(board.clone(), EngineConfig::default());
    let app_bo = engine.add_app(bo.spec_with_budget(8, 1, 250))?;
    let app_fl = engine.add_app(fl.spec_with_budget(8, 2, 500))?;
    engine.set_perf_target(app_bo, t_bo)?;
    engine.set_perf_target(app_fl, t_fl)?;

    let mut manager = MpHarsManager::new(&board, perf, power, mp_hars_e());
    manager.register_app(app_bo, 8, t_bo);
    manager.register_app(app_fl, 8, t_fl);
    let mut version = MpVersion::MpHars(manager);

    let out = run_multi_app(
        &mut engine,
        &[app_bo, app_fl],
        &mut version,
        300_000_000_000,
        true,
    )?;
    println!(
        "\nboard: {:.2} W average over {:.1} s, {} adaptations",
        out.avg_watts, out.elapsed_secs, out.adaptations
    );
    for stats in &out.apps {
        let name = if stats.app == app_bo {
            "bodytrack"
        } else {
            "fluidanimate"
        };
        println!(
            "{name:<13} {:>4} heartbeats, {:>6.2} hb/s, normalized perf {:.3}",
            stats.heartbeats, stats.avg_rate, stats.norm_perf
        );
    }
    println!("\nper-app core ownership over time (every 50th heartbeat of fluidanimate):");
    let (big, little) = (ClusterId::BIG, ClusterId::LITTLE);
    for s in out.apps[1].trace.iter().step_by(50) {
        println!(
            "  hb {:>4}: {} big + {} little @ B {:.1} GHz / L {:.1} GHz, rate {:>6.2}",
            s.hb_index,
            s.state.cores(big),
            s.state.cores(little),
            s.state.freq(big).ghz(),
            s.state.freq(little).ghz(),
            s.rate.unwrap_or(0.0)
        );
    }
    println!(
        "\ncase perf/watt: {:.4} (mean normalized perf / W)",
        out.perf_per_watt
    );
    Ok(())
}
