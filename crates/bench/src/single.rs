//! Single-application experiment runner: the five versions of
//! Figures 5.1/5.2 (Baseline, SO, HARS-I, HARS-E, HARS-EI) plus the
//! Figure 5.3 distance sweep.

use heartbeats::PerfTarget;
use hmp_sim::clock::secs_to_ns;
use hmp_sim::{Action, AppId, Engine};

use hars_core::driver::{run_single_app, BehaviorSample};
use hars_core::metrics::{normalized_performance, perf_per_watt};
use hars_core::policy::{hars_e, hars_ei, hars_ei_with_distance, hars_i, HarsVariant};
use hars_core::static_optimal::oracle_sweep;
use hars_core::{HarsConfig, RuntimeManager, StateSpace, SystemState};
use mp_hars::cons::allowed_core_set;
use workloads::Benchmark;

use crate::setup::{seed_for, Lab};

/// The five single-application versions of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// Linux GTS at maximum cores and frequencies.
    Baseline,
    /// Static optimal: best state from an offline oracle sweep, run
    /// under GTS.
    StaticOptimal,
    /// HARS incremental.
    HarsI,
    /// HARS exhaustive (chunk scheduler).
    HarsE,
    /// HARS exhaustive + interleaving scheduler.
    HarsEI,
}

impl Version {
    /// All versions in the paper's bar order.
    pub const ALL: [Version; 5] = [
        Version::Baseline,
        Version::StaticOptimal,
        Version::HarsI,
        Version::HarsE,
        Version::HarsEI,
    ];

    /// Display label used in the figures.
    pub fn label(&self) -> &'static str {
        match self {
            Version::Baseline => "Baseline",
            Version::StaticOptimal => "SO",
            Version::HarsI => "HARS-I",
            Version::HarsE => "HARS-E",
            Version::HarsEI => "HARS-EI",
        }
    }

    fn hars_variant(&self) -> Option<HarsVariant> {
        match self {
            Version::HarsI => Some(hars_i()),
            Version::HarsE => Some(hars_e()),
            Version::HarsEI => Some(hars_ei()),
            _ => None,
        }
    }
}

/// Result of one (benchmark, version) run.
#[derive(Debug, Clone)]
pub struct SingleResult {
    /// Version label.
    pub version: String,
    /// Normalized performance `min(g, h)/g`.
    pub norm_perf: f64,
    /// Average board power (W).
    pub watts: f64,
    /// Whole-run heartbeat rate.
    pub rate: f64,
    /// Normalized performance per watt (absolute, not yet normalized to
    /// the baseline).
    pub perf_per_watt: f64,
    /// Manager CPU utilization (% of one core).
    pub cpu_percent: f64,
    /// Adaptations applied.
    pub adaptations: u64,
    /// Behavior trace when requested.
    pub trace: Vec<BehaviorSample>,
}

/// Experiment sizing knobs (full fidelity vs quick CI runs).
#[derive(Debug, Clone, Copy)]
pub struct RunScale {
    /// Heartbeat budget of a measured run.
    pub hb_budget: u64,
    /// Virtual-time cap of a measured run (s).
    pub deadline_secs: f64,
    /// Heartbeat budget of each oracle-sweep probe run.
    pub oracle_hb_budget: u64,
    /// Virtual-time cap of each probe (s).
    pub oracle_deadline_secs: f64,
    /// Probe only every `oracle_stride`-th frequency level per cluster
    /// (1 = every state; 2 halves the sweep per frequency dimension).
    pub oracle_stride: usize,
}

impl RunScale {
    /// Paper-scale runs.
    pub fn full() -> Self {
        Self {
            hb_budget: 400,
            deadline_secs: 240.0,
            oracle_hb_budget: 100,
            oracle_deadline_secs: 45.0,
            oracle_stride: 1,
        }
    }

    /// Reduced scale for tests.
    pub fn quick() -> Self {
        Self {
            hb_budget: 120,
            deadline_secs: 90.0,
            oracle_hb_budget: 40,
            oracle_deadline_secs: 15.0,
            oracle_stride: 2,
        }
    }
}

/// Runs one (benchmark, version) cell of Figures 5.1/5.2.
pub fn run_version(
    lab: &Lab,
    bench: Benchmark,
    version: Version,
    target: &PerfTarget,
    scale: &RunScale,
    record_trace: bool,
) -> SingleResult {
    match version {
        Version::Baseline => {
            let state = StateSpace::from_board(&lab.board).max_state();
            run_static(
                lab,
                bench,
                &state,
                target,
                scale.hb_budget,
                scale.deadline_secs,
                version,
            )
        }
        Version::StaticOptimal => {
            let state = find_static_optimal(lab, bench, target, scale);
            run_static(
                lab,
                bench,
                &state,
                target,
                scale.hb_budget,
                scale.deadline_secs,
                version,
            )
        }
        Version::HarsI | Version::HarsE | Version::HarsEI => {
            let variant = version.hars_variant().expect("hars versions have variants");
            run_hars(
                lab,
                bench,
                variant,
                target,
                scale,
                record_trace,
                version.label(),
            )
        }
    }
}

/// Runs a HARS variant with explicit search-distance override (the
/// Figure 5.3 sweep).
pub fn run_hars_distance(
    lab: &Lab,
    bench: Benchmark,
    d: i64,
    target: &PerfTarget,
    scale: &RunScale,
) -> SingleResult {
    run_hars(
        lab,
        bench,
        hars_ei_with_distance(d),
        target,
        scale,
        false,
        "HARS-EI",
    )
}

fn run_hars(
    lab: &Lab,
    bench: Benchmark,
    variant: HarsVariant,
    target: &PerfTarget,
    scale: &RunScale,
    record_trace: bool,
    label: &str,
) -> SingleResult {
    let mut engine = lab.engine();
    let spec = bench.spec_with_budget(8, seed_for(bench), scale.hb_budget);
    let threads = spec.threads;
    let app = engine.add_app(spec).expect("preset specs validate");
    let mut manager = RuntimeManager::new(
        &lab.board,
        *target,
        lab.perf_est,
        lab.power_est.clone(),
        threads,
        HarsConfig {
            // Overhead model sized to an embedded A7 management core:
            // heartbeat processing dominates (sysfs/procfs I/O), search
            // adds per-candidate estimator math.
            cost_per_state_ns: 8_000,
            cost_per_heartbeat_ns: 1_000_000,
            ..HarsConfig::from_variant(variant)
        },
    );
    let out = run_single_app(
        &mut engine,
        app,
        &mut manager,
        secs_to_ns(scale.deadline_secs),
        record_trace,
    )
    .expect("driver cannot fail on its own engine");
    SingleResult {
        version: label.to_string(),
        norm_perf: out.norm_perf,
        watts: out.avg_watts,
        rate: out.avg_rate,
        perf_per_watt: out.perf_per_watt,
        cpu_percent: out.manager_cpu_percent,
        adaptations: out.adaptations,
        trace: out.trace,
    }
}

/// Runs a benchmark pinned (by affinity masks, GTS inside) to a fixed
/// state — the baseline and SO versions.
fn run_static(
    lab: &Lab,
    bench: Benchmark,
    state: &SystemState,
    target: &PerfTarget,
    hb_budget: u64,
    deadline_secs: f64,
    version: Version,
) -> SingleResult {
    let mut engine = lab.engine();
    let spec = bench.spec_with_budget(8, seed_for(bench), hb_budget);
    let app = engine.add_app(spec).expect("preset specs validate");
    apply_static_state(&mut engine, app, state);
    engine.run_while_active(secs_to_ns(deadline_secs));
    let rate = engine
        .monitor(app)
        .expect("registered")
        .global_rate()
        .map(|r| r.heartbeats_per_sec())
        .unwrap_or(0.0);
    let watts = engine.energy().average_power();
    SingleResult {
        version: version.label().to_string(),
        norm_perf: normalized_performance(target, rate),
        watts,
        rate,
        perf_per_watt: perf_per_watt(target, rate, watts),
        cpu_percent: 0.0,
        adaptations: 0,
        trace: Vec::new(),
    }
}

/// Applies a fixed state the way the SO/baseline versions run: cluster
/// frequencies set, every thread's affinity limited to the state's core
/// set, GTS scheduling within it.
fn apply_static_state(engine: &mut Engine, app: AppId, state: &SystemState) {
    for (cluster, _, freq) in state.iter().rev() {
        engine
            .set_cluster_freq(cluster, freq)
            .expect("ladder state");
    }
    let mask = allowed_core_set(engine.board(), state);
    for thread in 0..engine.app_threads(app) {
        engine
            .schedule_action(
                0,
                Action::SetThreadAffinity {
                    app,
                    thread,
                    affinity: mask,
                },
            )
            .expect("valid affinity");
    }
}

/// The offline oracle sweep behind the SO version: measure every state
/// with a short probe run and keep the best (satisfaction-first).
pub fn find_static_optimal(
    lab: &Lab,
    bench: Benchmark,
    target: &PerfTarget,
    scale: &RunScale,
) -> SystemState {
    let space = StateSpace::from_board(&lab.board);
    // "Satisfies" for measured runs: normalized performance above the
    // band's lower edge relative to its center.
    let satisfy = target.min() / target.avg();
    let stride = scale.oracle_stride.max(1);
    let so = oracle_sweep(&space, satisfy, |state| {
        // Stride pruning: skip off-stride frequency levels on any
        // cluster (they remain measured as "worthless" so the sweep
        // ignores them).
        let off_stride = lab.board.cluster_ids().any(|c| {
            let ladder = lab.board.ladder(c);
            let k = ladder.index_of(state.freq(c)).unwrap_or(0);
            !k.is_multiple_of(stride) && state.freq(c) != ladder.min()
        });
        if off_stride {
            return (0.0, 0.0);
        }
        probe_state(lab, bench, state, target, scale)
    });
    so.state
}

/// One probe run of the oracle sweep: `(norm_perf, perf/watt)`.
fn probe_state(
    lab: &Lab,
    bench: Benchmark,
    state: &SystemState,
    target: &PerfTarget,
    scale: &RunScale,
) -> (f64, f64) {
    let r = run_static(
        lab,
        bench,
        state,
        target,
        scale.oracle_hb_budget,
        scale.oracle_deadline_secs,
        Version::StaticOptimal,
    );
    (r.norm_perf, r.perf_per_watt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{measure_max_rate, Lab};

    #[test]
    fn baseline_overperforms_and_burns_power() {
        let lab = Lab::quick();
        let max = measure_max_rate(
            &lab,
            Benchmark::Swaptions,
            8,
            seed_for(Benchmark::Swaptions),
        );
        let target = target_for(max, 0.5);
        let r = run_version(
            &lab,
            Benchmark::Swaptions,
            Version::Baseline,
            &target,
            &RunScale::quick(),
            false,
        );
        assert!(r.norm_perf > 0.99, "baseline meets any 50% target");
        assert!(r.watts > 3.0, "baseline busy board draws real power");
    }

    #[test]
    fn hars_e_beats_baseline_efficiency() {
        let lab = Lab::quick();
        let max = measure_max_rate(
            &lab,
            Benchmark::Swaptions,
            8,
            seed_for(Benchmark::Swaptions),
        );
        let target = target_for(max, 0.5);
        let scale = RunScale::quick();
        let base = run_version(
            &lab,
            Benchmark::Swaptions,
            Version::Baseline,
            &target,
            &scale,
            false,
        );
        let hars = run_version(
            &lab,
            Benchmark::Swaptions,
            Version::HarsE,
            &target,
            &scale,
            false,
        );
        assert!(
            hars.perf_per_watt > 1.5 * base.perf_per_watt,
            "HARS-E pp {} vs baseline pp {}",
            hars.perf_per_watt,
            base.perf_per_watt
        );
        assert!(hars.norm_perf > 0.8, "HARS-E norm perf {}", hars.norm_perf);
    }

    fn target_for(max: f64, frac: f64) -> PerfTarget {
        crate::setup::target_for(max, frac)
    }
}
