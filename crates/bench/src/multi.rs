//! Multi-application experiment runner: the six cases × four versions
//! of Figure 5.4 and the Figure 5.5–5.7 behavior traces.

use hmp_sim::clock::secs_to_ns;
use serde::{Deserialize, Serialize};
use workloads::Benchmark;

use mp_hars::cons::ConsIManager;
use mp_hars::manager::{mp_hars_e, mp_hars_i, MpHarsConfig, MpHarsManager};
use mp_hars::{run_multi_app, MpRunOutcome, MpVersion};

use crate::setup::{measure_max_rate, seed_for, target_for, Lab};

/// The six benchmark pairings of Figure 5.4, in case order.
pub const CASES: [(Benchmark, Benchmark); 6] = [
    (Benchmark::Bodytrack, Benchmark::Swaptions), // case 1
    (Benchmark::Blackscholes, Benchmark::Swaptions), // case 2
    (Benchmark::Fluidanimate, Benchmark::Blackscholes), // case 3
    (Benchmark::Bodytrack, Benchmark::Fluidanimate), // case 4
    (Benchmark::Fluidanimate, Benchmark::Swaptions), // case 5
    (Benchmark::Bodytrack, Benchmark::Blackscholes), // case 6
];

/// The four versions of Figure 5.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MpVersionKind {
    /// GTS at the maximum state.
    Baseline,
    /// Conservative incremental naive model.
    ConsI,
    /// MP-HARS with incremental search.
    MpHarsI,
    /// MP-HARS with exhaustive search.
    MpHarsE,
}

impl MpVersionKind {
    /// All versions in figure order.
    pub const ALL: [MpVersionKind; 4] = [
        MpVersionKind::Baseline,
        MpVersionKind::ConsI,
        MpVersionKind::MpHarsI,
        MpVersionKind::MpHarsE,
    ];

    /// Figure label.
    pub fn label(&self) -> &'static str {
        match self {
            MpVersionKind::Baseline => "Baseline",
            MpVersionKind::ConsI => "CONS-I",
            MpVersionKind::MpHarsI => "MP-HARS-I",
            MpVersionKind::MpHarsE => "MP-HARS-E",
        }
    }
}

/// Heartbeat budget per benchmark in multi-app runs (the paper's
/// benchmarks have different native-input lengths; these reproduce the
/// HB-index spans of Figures 5.5–5.7).
pub fn hb_budget(bench: Benchmark) -> u64 {
    match bench {
        Benchmark::Blackscholes => 300,
        Benchmark::Bodytrack => 250,
        Benchmark::Facesim => 250,
        Benchmark::Ferret => 400,
        Benchmark::Fluidanimate => 500,
        Benchmark::Swaptions => 450,
    }
}

/// Multi-app run sizing.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MpScale {
    /// Budget multiplier over [`hb_budget`] (1.0 = paper scale).
    pub budget_factor: f64,
    /// Virtual-time cap (s).
    pub deadline_secs: f64,
}

impl MpScale {
    /// Paper-scale runs.
    pub fn full() -> Self {
        Self {
            budget_factor: 1.0,
            deadline_secs: 300.0,
        }
    }

    /// Reduced scale for tests.
    pub fn quick() -> Self {
        Self {
            budget_factor: 0.3,
            deadline_secs: 120.0,
        }
    }
}

/// Runs one case (two benchmarks started simultaneously) under one
/// version. Targets are 50% ± 5% of each benchmark's *solo* maximum
/// rate, as in the paper.
pub fn run_case(
    lab: &Lab,
    pair: (Benchmark, Benchmark),
    kind: MpVersionKind,
    scale: &MpScale,
    record_trace: bool,
) -> MpRunOutcome {
    let (a, b) = pair;
    let max_a = measure_max_rate(lab, a, 8, seed_for(a));
    let max_b = measure_max_rate(lab, b, 8, seed_for(b));
    let target_a = target_for(max_a, 0.50);
    let target_b = target_for(max_b, 0.50);
    let mut engine = lab.engine();
    let budget_a = ((hb_budget(a) as f64 * scale.budget_factor) as u64).max(30);
    let budget_b = ((hb_budget(b) as f64 * scale.budget_factor) as u64).max(30);
    // Both apps start at the same time; seeds offset so co-running
    // instances are not phase-locked.
    let spec_a = a.spec_with_budget(8, seed_for(a), budget_a);
    let spec_b = b.spec_with_budget(8, seed_for(b) + 17, budget_b);
    let (threads_a, threads_b) = (spec_a.threads, spec_b.threads);
    let app_a = engine.add_app(spec_a).expect("preset validates");
    let app_b = engine.add_app(spec_b).expect("preset validates");
    engine.set_perf_target(app_a, target_a).expect("registered");
    engine.set_perf_target(app_b, target_b).expect("registered");
    let mut version = match kind {
        MpVersionKind::Baseline => MpVersion::Baseline,
        MpVersionKind::ConsI => {
            let mut m = ConsIManager::new(&lab.board);
            m.register_app(app_a, target_a);
            m.register_app(app_b, target_b);
            MpVersion::ConsI(m)
        }
        MpVersionKind::MpHarsI | MpVersionKind::MpHarsE => {
            let cfg: MpHarsConfig = if kind == MpVersionKind::MpHarsI {
                mp_hars_i()
            } else {
                mp_hars_e()
            };
            let cfg = MpHarsConfig {
                cost_per_state_ns: 8_000,
                cost_per_heartbeat_ns: 1_000_000,
                ..cfg
            };
            let mut m = MpHarsManager::new(&lab.board, lab.perf_est, lab.power_est.clone(), cfg);
            m.register_app(app_a, threads_a, target_a);
            m.register_app(app_b, threads_b, target_b);
            MpVersion::MpHars(m)
        }
    };
    run_multi_app(
        &mut engine,
        &[app_a, app_b],
        &mut version,
        secs_to_ns(scale.deadline_secs),
        record_trace,
    )
    .expect("driver cannot fail on its own engine")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_list_matches_paper() {
        assert_eq!(CASES.len(), 6);
        // Case 4 is BO + FL (the behavior-graph case).
        assert_eq!(CASES[3], (Benchmark::Bodytrack, Benchmark::Fluidanimate));
        // Case 6 is BO + BL (the late-heartbeat case).
        assert_eq!(CASES[5], (Benchmark::Bodytrack, Benchmark::Blackscholes));
    }

    #[test]
    fn mp_hars_e_beats_baseline_on_case_4() {
        let lab = Lab::quick();
        let scale = MpScale::quick();
        let base = run_case(&lab, CASES[3], MpVersionKind::Baseline, &scale, false);
        let mp = run_case(&lab, CASES[3], MpVersionKind::MpHarsE, &scale, false);
        assert!(
            mp.perf_per_watt > base.perf_per_watt,
            "MP-HARS-E pp {} vs baseline {}",
            mp.perf_per_watt,
            base.perf_per_watt
        );
        // Both apps should still roughly meet their targets.
        for app in &mp.apps {
            assert!(
                app.norm_perf > 0.6,
                "{:?} norm perf {}",
                app.app,
                app.norm_perf
            );
        }
    }

    #[test]
    fn apps_run_to_their_budgets() {
        let lab = Lab::quick();
        let out = run_case(
            &lab,
            CASES[0],
            MpVersionKind::Baseline,
            &MpScale::quick(),
            false,
        );
        for app in &out.apps {
            assert!(app.heartbeats >= 30, "app made {} beats", app.heartbeats);
        }
    }
}
