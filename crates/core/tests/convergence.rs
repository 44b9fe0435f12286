//! Convergence tests: HARS must keep an application near its target
//! across a matrix of *model errors* — true big/little ratios and
//! memory-boundedness the estimator knows nothing about. This is the
//! feedback-loop robustness the paper's design leans on (its estimator
//! assumes `r₀ = 1.5`, φ = 0 for everything).

use hars_core::calibrate::run_power_calibration;
use hars_core::policy::{hars_e, hars_i};
use hars_core::{run_single_app, HarsConfig, PerfEstimator, RuntimeManager};
use heartbeats::PerfTarget;
use hmp_sim::clock::secs_to_ns;
use hmp_sim::microbench::CalibrationConfig;
use hmp_sim::{AppSpec, BoardSpec, Engine, EngineConfig, SpeedProfile};

fn power(board: &BoardSpec) -> hars_core::PowerEstimator {
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

fn engine_cfg() -> EngineConfig {
    EngineConfig {
        sensor_noise: 0.0,
        hb_window: 10,
        ..EngineConfig::default()
    }
}

fn spec_with(r: f64, phi: f64, budget: u64) -> AppSpec {
    let mut spec = AppSpec::data_parallel("m", 8, 600.0);
    spec.speed = SpeedProfile {
        big_little_ratio: r,
        mem_bound_frac: phi,
    };
    spec.max_heartbeats = Some(budget);
    spec
}

fn baseline_rate(board: &BoardSpec, r: f64, phi: f64) -> f64 {
    let mut engine = Engine::new(board.clone(), engine_cfg());
    let app = engine.add_app(spec_with(r, phi, 120)).unwrap();
    engine.run_while_active(secs_to_ns(60.0));
    engine
        .monitor(app)
        .unwrap()
        .global_rate()
        .unwrap()
        .heartbeats_per_sec()
}

/// HARS-E meets a 50% target across true ratios 1.0–2.2 and
/// memory-bound fractions 0–0.6 even though its estimator assumes
/// r₀ = 1.5 and φ = 0.
#[test]
fn hars_e_converges_across_model_errors() {
    let board = BoardSpec::odroid_xu3();
    let power = power(&board);
    let perf = PerfEstimator::paper_default(board.base_freq);
    for r in [1.0, 1.5, 2.2] {
        for phi in [0.0, 0.3, 0.6] {
            let max = baseline_rate(&board, r, phi);
            let target = PerfTarget::new(0.45 * max, 0.55 * max).unwrap();
            let mut engine = Engine::new(board.clone(), engine_cfg());
            let app = engine.add_app(spec_with(r, phi, 300)).unwrap();
            let mut manager = RuntimeManager::new(
                &board,
                target,
                perf,
                power.clone(),
                8,
                HarsConfig::from_variant(hars_e()),
            );
            let out =
                run_single_app(&mut engine, app, &mut manager, secs_to_ns(300.0), false).unwrap();
            assert!(
                out.norm_perf > 0.85,
                "r={r} phi={phi}: norm perf {} (rate {:.2} vs target {:.2})",
                out.norm_perf,
                out.avg_rate,
                target.avg()
            );
            assert!(
                out.avg_watts < 0.75 * 6.5,
                "r={r} phi={phi}: no power savings ({} W)",
                out.avg_watts
            );
        }
    }
}

/// HARS-I's one-step walk also converges, just more slowly — after a
/// long run it must be inside the band too.
#[test]
fn hars_i_converges_eventually() {
    let board = BoardSpec::odroid_xu3();
    let power = power(&board);
    let perf = PerfEstimator::paper_default(board.base_freq);
    let max = baseline_rate(&board, 1.5, 0.1);
    let target = PerfTarget::new(0.45 * max, 0.55 * max).unwrap();
    let mut engine = Engine::new(board.clone(), engine_cfg());
    let app = engine.add_app(spec_with(1.5, 0.1, 500)).unwrap();
    let mut manager = RuntimeManager::new(
        &board,
        target,
        perf,
        power,
        8,
        HarsConfig::from_variant(hars_i()),
    );
    let out = run_single_app(&mut engine, app, &mut manager, secs_to_ns(400.0), true).unwrap();
    assert!(out.norm_perf > 0.85, "norm perf {}", out.norm_perf);
    // The tail of the trace should be in-band more often than the head
    // (monotone improvement of the incremental walk).
    let rates: Vec<f64> = out.trace.iter().filter_map(|s| s.rate).collect();
    let half = rates.len() / 2;
    let in_band = |r: &&f64| **r >= target.min() && **r <= target.max();
    let head = rates[..half].iter().filter(in_band).count() as f64 / half as f64;
    let tail = rates[half..].iter().filter(in_band).count() as f64 / (rates.len() - half) as f64;
    assert!(
        tail >= head,
        "incremental walk regressed: head {head:.2} tail {tail:.2}"
    );
}

/// A moving target: re-targeting mid-run (via a fresh manager) adapts
/// the state in the new direction.
#[test]
fn retargeting_adapts_both_directions() {
    let board = BoardSpec::odroid_xu3();
    let power = power(&board);
    let perf = PerfEstimator::paper_default(board.base_freq);
    let max = baseline_rate(&board, 1.5, 0.0);

    // Phase 1: low target -> small state.
    let low = PerfTarget::new(0.25 * max, 0.35 * max).unwrap();
    let mut engine = Engine::new(board.clone(), engine_cfg());
    let app = engine.add_app(spec_with(1.5, 0.0, 250)).unwrap();
    let mut manager = RuntimeManager::new(
        &board,
        low,
        perf,
        power.clone(),
        8,
        HarsConfig::from_variant(hars_e()),
    );
    let out_low = run_single_app(&mut engine, app, &mut manager, secs_to_ns(200.0), false).unwrap();
    let low_watts = out_low.avg_watts;
    assert!(out_low.norm_perf > 0.85, "low target missed");

    // Phase 2: high target -> bigger state, more power.
    let high = PerfTarget::new(0.70 * max, 0.80 * max).unwrap();
    let mut engine = Engine::new(board.clone(), engine_cfg());
    let app = engine.add_app(spec_with(1.5, 0.0, 250)).unwrap();
    let mut manager = RuntimeManager::new(
        &board,
        high,
        perf,
        power,
        8,
        HarsConfig::from_variant(hars_e()),
    );
    let out_high =
        run_single_app(&mut engine, app, &mut manager, secs_to_ns(200.0), false).unwrap();
    assert!(out_high.norm_perf > 0.85, "high target missed");
    assert!(
        out_high.avg_watts > 1.3 * low_watts,
        "75% target should cost clearly more than 30%: {} vs {}",
        out_high.avg_watts,
        low_watts
    );
}
