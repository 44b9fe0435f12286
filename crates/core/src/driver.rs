//! The HARS driver: wires a [`RuntimeManager`] to a simulated platform.
//!
//! On real hardware this is HARS's main loop blocking on the heartbeat
//! channel; here it pumps [`hmp_sim::Engine::next_heartbeat`], feeds the
//! manager, and applies decisions through the engine's control surface
//! after each decision's modeled CPU latency. `next_heartbeat` steps
//! the engine from event to event: spans where no thread is runnable
//! are fast-forwarded instead of stepped, so "blocking on the channel"
//! is as cheap in simulation as it is on hardware.

use heartbeats::AppId;
use hmp_sim::{Action, Engine, SimError};
use serde::{Deserialize, Serialize};

use crate::manager::{Decision, RuntimeManager};
use crate::metrics::{normalized_performance, perf_per_watt};
use crate::search::SearchStats;
use crate::state::SystemState;

/// One behavior-graph sample (Figures 5.5–5.7): the state HARS holds at
/// a heartbeat plus the observed rate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BehaviorSample {
    /// Heartbeat index.
    pub hb_index: u64,
    /// Virtual time (ns).
    pub time_ns: u64,
    /// Windowed heartbeat rate (HPS), if available.
    pub rate: Option<f64>,
    /// Allocated cores and cluster frequencies.
    pub state: SystemState,
}

/// Aggregate results of one driven run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Heartbeats emitted by the application.
    pub heartbeats: u64,
    /// Virtual run length (s).
    pub elapsed_secs: f64,
    /// Whole-run average heartbeat rate (hb/s).
    pub avg_rate: f64,
    /// Average board power over the run (W).
    pub avg_watts: f64,
    /// Normalized performance `min(g, h)/g` of the whole run.
    pub norm_perf: f64,
    /// The paper's efficiency metric: normalized performance per watt.
    pub perf_per_watt: f64,
    /// Modeled manager CPU time (ns).
    pub manager_busy_ns: u64,
    /// Manager CPU utilization of one core (%).
    pub manager_cpu_percent: f64,
    /// State changes applied.
    pub adaptations: u64,
    /// Cumulative search cost over the run: candidates considered,
    /// distinct estimator evaluations (the modeled-overhead unit) and
    /// incumbent rank changes, summed over every search.
    pub search_stats: SearchStats,
    /// The manager's final assumed per-cluster ratios, indexed by
    /// cluster (equal to the nominal ratios unless ratio learning ran).
    pub assumed_ratios: Vec<f64>,
    /// Mean `|ln(observed/predicted)|` over the recently consumed rate
    /// predictions (`None` with ratio learning off).
    pub prediction_error: Option<f64>,
    /// Behavior trace (empty unless requested).
    pub trace: Vec<BehaviorSample>,
}

/// Applies a manager decision to the engine at `at_ns` (its heartbeat
/// time plus the decision's modeled latency).
///
/// # Errors
///
/// Propagates [`SimError`] for invalid frequencies/affinities — cannot
/// occur for decisions produced against the same board.
pub fn apply_decision(
    engine: &mut Engine,
    app: AppId,
    decision: &Decision,
    at_ns: u64,
) -> Result<(), SimError> {
    for (cluster, _, freq) in decision.state.iter().rev() {
        engine.schedule_action(at_ns, Action::SetClusterFreq { cluster, freq })?;
    }
    for (thread, &affinity) in decision.affinities.iter().enumerate() {
        engine.schedule_action(
            at_ns,
            Action::SetThreadAffinity {
                app,
                thread,
                affinity,
            },
        )?;
    }
    Ok(())
}

/// Drives a single application under HARS until `deadline_ns` (or until
/// the app's heartbeat budget runs out).
///
/// # Errors
///
/// Propagates [`SimError`] from engine interaction (unknown app, etc.).
pub fn run_single_app(
    engine: &mut Engine,
    app: AppId,
    manager: &mut RuntimeManager,
    deadline_ns: u64,
    record_trace: bool,
) -> Result<RunOutcome, SimError> {
    engine.set_perf_target(app, *manager.target())?;
    let initial = manager.initial_decision();
    apply_decision(engine, app, &initial, engine.now_ns())?;
    let mut trace = Vec::new();
    while let Some(hb) = engine.next_heartbeat(deadline_ns) {
        if hb.app != app {
            continue;
        }
        let rate = engine
            .monitor(app)?
            .window_rate()
            .map(|r| r.heartbeats_per_sec());
        if record_trace {
            trace.push(BehaviorSample {
                hb_index: hb.index,
                time_ns: hb.time_ns,
                rate,
                state: manager.state(),
            });
        }
        if let Some(decision) = manager.on_heartbeat(hb.index, rate) {
            apply_decision(engine, app, &decision, hb.time_ns + decision.overhead_ns)?;
        }
    }
    Ok(summarize(engine, app, manager, trace))
}

/// Computes the run summary from engine accounting.
pub(crate) fn summarize(
    engine: &Engine,
    app: AppId,
    manager: &RuntimeManager,
    trace: Vec<BehaviorSample>,
) -> RunOutcome {
    let heartbeats = engine.app_heartbeats(app);
    let elapsed_secs = engine.energy().elapsed_secs();
    let avg_watts = engine.energy().average_power();
    let avg_rate = engine
        .monitor(app)
        .ok()
        .and_then(|m| m.global_rate())
        .map(|r| r.heartbeats_per_sec())
        .unwrap_or(0.0);
    let target = manager.target();
    let norm_perf = normalized_performance(target, avg_rate);
    let pp = perf_per_watt(target, avg_rate, avg_watts);
    let busy = manager.busy_ns();
    let cpu_percent = if engine.now_ns() > 0 {
        100.0 * busy as f64 / engine.now_ns() as f64
    } else {
        0.0
    };
    RunOutcome {
        heartbeats,
        elapsed_secs,
        avg_rate,
        avg_watts,
        norm_perf,
        perf_per_watt: pp,
        manager_busy_ns: busy,
        manager_cpu_percent: cpu_percent,
        adaptations: manager.adaptations(),
        search_stats: manager.search_stats(),
        assumed_ratios: (0..engine.board().n_clusters())
            .map(|c| manager.core().perf.ratio_of(hmp_sim::ClusterId(c)))
            .collect(),
        prediction_error: manager.core().learner().mean_recent_error(),
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::run_power_calibration;
    use crate::manager::HarsConfig;
    use crate::perf_est::PerfEstimator;
    use crate::policy::hars_e;
    use heartbeats::PerfTarget;
    use hmp_sim::clock::secs_to_ns;
    use hmp_sim::microbench::CalibrationConfig;
    use hmp_sim::{AppSpec, BoardSpec, Engine, EngineConfig, SpeedProfile};

    fn quick_power(board: &BoardSpec) -> crate::power_est::PowerEstimator {
        let cfg = EngineConfig {
            sensor_noise: 0.0,
            ..EngineConfig::default()
        };
        let cal = CalibrationConfig::quick();
        run_power_calibration(board, &cfg, &cal).unwrap()
    }

    #[test]
    fn hars_reaches_target_and_saves_power() {
        let board = BoardSpec::odroid_xu3();
        let power = quick_power(&board);
        let cfg = EngineConfig {
            sensor_noise: 0.0,
            ..EngineConfig::default()
        };

        // Baseline run: GTS at max everything, no HARS.
        let mut baseline = Engine::new(board.clone(), cfg.clone());
        let mut spec = AppSpec::data_parallel("dp", 8, 800.0);
        spec.speed = SpeedProfile::compute_bound(1.5);
        let app = baseline.add_app(spec.clone()).unwrap();
        baseline.run_until(secs_to_ns(10.0));
        let base_rate = baseline
            .monitor(app)
            .unwrap()
            .global_rate()
            .unwrap()
            .heartbeats_per_sec();
        let base_watts = baseline.energy().average_power();

        // HARS-E run targeting half of the baseline rate.
        let target = PerfTarget::from_center(base_rate * 0.5, 0.10).unwrap();
        let mut engine = Engine::new(board.clone(), cfg);
        let app = engine.add_app(spec).unwrap();
        let perf = PerfEstimator::paper_default(board.base_freq);
        let mut manager = RuntimeManager::new(
            &board,
            target,
            perf,
            power,
            8,
            HarsConfig::from_variant(hars_e()),
        );
        let out = run_single_app(&mut engine, app, &mut manager, secs_to_ns(60.0), true).unwrap();

        assert!(
            out.norm_perf > 0.85,
            "HARS missed the target: norm perf {} (rate {:.2} vs target {:.2})",
            out.norm_perf,
            out.avg_rate,
            target.avg()
        );
        assert!(
            out.avg_watts < 0.7 * base_watts,
            "HARS should save power: {} W vs baseline {} W",
            out.avg_watts,
            base_watts
        );
        assert!(out.adaptations >= 1);
        assert!(!out.trace.is_empty());
        assert!(out.manager_cpu_percent < 10.0);
        // Efficiency must beat the baseline's.
        let base_pp = perf_per_watt(&target, base_rate, base_watts);
        assert!(
            out.perf_per_watt > 1.5 * base_pp,
            "pp {} vs baseline pp {}",
            out.perf_per_watt,
            base_pp
        );
    }
}
