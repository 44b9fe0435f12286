//! The per-cluster ratio-learning scenario, shared by the
//! `ratio_learning` experiment binary and the workspace-level
//! acceptance test so both exercise exactly the same setup.
//!
//! The DynamIQ tri-cluster preset runs a steady compute-bound workload
//! whose true fastest-cluster ratio equals the prime cluster's nominal
//! 2.0 — so the engine's interpolation runs the mid cluster at exactly
//! its nominal 1.6 — while HARS is configured to assume
//! [`ASSUMED_MID`] = 1.2, a 25% understatement. The target band toggles
//! between a low and a high fraction of the maximum rate far enough
//! apart that core counts (and with them thread shares) must change:
//! frequency-only transitions carry no ratio information.

use hars_core::calibrate::run_power_calibration;
use hars_core::driver::apply_decision;
use hars_core::policy::hars_e;
use hars_core::{HarsConfig, PerfEstimator, PowerEstimator, RatioLearning, RuntimeManager};
use heartbeats::PerfTarget;
use hmp_sim::clock::secs_to_ns;
use hmp_sim::microbench::CalibrationConfig;
use hmp_sim::{AppSpec, BoardSpec, ClusterId, Engine, EngineConfig, SpeedProfile};

/// True mid-cluster ratio: the app's fastest-cluster ratio matches the
/// prime cluster's nominal 2.0, so the engine's interpolation makes the
/// mid cluster run at exactly its nominal 1.6.
pub const TRUE_MID: f64 = 1.6;
/// What HARS is told instead: 25% under the truth.
pub const ASSUMED_MID: f64 = 1.2;
/// Heartbeats between target-band toggles (both bands outlive the
/// 10-heartbeat rate window several times over).
pub const TOGGLE_EVERY: u64 = 80;

/// The deterministic engine configuration of the scenario.
pub fn engine_cfg() -> EngineConfig {
    EngineConfig {
        hb_window: 10,
        sensor_noise: 0.0,
        ..EngineConfig::default()
    }
}

/// The scenario's power model, calibrated from the board's own
/// microbenchmark sweep (coarse when `quick`).
pub fn calibrated_power(board: &BoardSpec, quick: bool) -> PowerEstimator {
    let cal = if quick {
        CalibrationConfig::quick()
    } else {
        CalibrationConfig::default()
    };
    run_power_calibration(board, &engine_cfg(), &cal).expect("valid board")
}

/// The deliberately wrong estimator: mid assumed 1.2, true 1.6.
pub fn misstated_estimator(board: &BoardSpec) -> PerfEstimator {
    PerfEstimator::from_ratios(&[1.0, ASSUMED_MID, 2.0], board.base_freq)
}

/// The 8-thread compute-bound application (true ratios 1.0/1.6/2.0).
pub fn app_spec(budget: u64) -> AppSpec {
    let mut spec = AppSpec::data_parallel("ratio-app", 8, 600.0);
    spec.speed = SpeedProfile {
        big_little_ratio: 2.0,
        mem_bound_frac: 0.0,
    };
    spec.max_heartbeats = Some(budget);
    spec
}

/// Measures the board's maximum rate and derives the two target bands
/// the run toggles between: the low band is reachable with few cores,
/// the high band needs most of the board, so every toggle forces core
/// (and therefore thread-share) changes.
pub fn target_bands(board: &BoardSpec) -> (PerfTarget, PerfTarget) {
    let mut engine = Engine::new(board.clone(), engine_cfg());
    let app = engine.add_app(app_spec(200)).expect("spec validates");
    engine.run_while_active(secs_to_ns(120.0));
    let max = engine
        .monitor(app)
        .expect("registered")
        .global_rate()
        .expect("heartbeats observed")
        .heartbeats_per_sec();
    let low = PerfTarget::new(0.25 * max, 0.35 * max).expect("valid band");
    let high = PerfTarget::new(0.65 * max, 0.75 * max).expect("valid band");
    (low, high)
}

/// What one mode's run produced.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioOutcome {
    /// Final assumed mid-cluster ratio.
    pub mid_estimate: f64,
    /// Mean recent `|ln(observed/predicted)|` over all consumptions.
    pub prediction_error: Option<f64>,
    /// The same, restricted to share-moving transitions.
    pub informative_error: Option<f64>,
    /// State changes applied.
    pub adaptations: u64,
}

/// One full run: pump the engine's heartbeat stream through the
/// manager, toggling the target band every [`TOGGLE_EVERY`] heartbeats.
pub fn run_mode(
    board: &BoardSpec,
    power: &PowerEstimator,
    (low, high): (PerfTarget, PerfTarget),
    budget: u64,
    mode: RatioLearning,
) -> ScenarioOutcome {
    let mut engine = Engine::new(board.clone(), engine_cfg());
    let app = engine.add_app(app_spec(budget)).expect("spec validates");
    let mut manager = RuntimeManager::new(
        board,
        low,
        misstated_estimator(board),
        power.clone(),
        8,
        HarsConfig {
            ratio_learning: mode,
            ..HarsConfig::from_variant(hars_e())
        },
    );
    engine.set_perf_target(app, low).expect("registered");
    let initial = manager.initial_decision();
    let now = engine.now_ns();
    apply_decision(&mut engine, app, &initial, now).expect("valid decision");
    let mut is_high = false;
    let deadline = secs_to_ns(1_200.0);
    while let Some(hb) = engine.next_heartbeat(deadline) {
        if hb.app != app {
            continue;
        }
        if hb.index > 0 && hb.index.is_multiple_of(TOGGLE_EVERY) {
            is_high = !is_high;
            let t = if is_high { high } else { low };
            manager.set_target(t);
            engine.set_perf_target(app, t).expect("registered");
        }
        let rate = engine
            .monitor(app)
            .expect("registered")
            .window_rate()
            .map(|r| r.heartbeats_per_sec());
        if let Some(d) = manager.on_heartbeat(hb.index, rate) {
            apply_decision(&mut engine, app, &d, hb.time_ns + d.overhead_ns)
                .expect("valid decision");
        }
    }
    ScenarioOutcome {
        mid_estimate: manager.core().perf.ratio_of(ClusterId(1)),
        prediction_error: manager.core().learner().mean_recent_error(),
        informative_error: manager.core().learner().mean_recent_informative_error(),
        adaptations: manager.adaptations(),
    }
}
