//! Scenario-level bit-identity of the engine's idle-skipping default
//! mode.
//!
//! The engine-level equivalence tests (in `hmp-sim`) pin the raw
//! timeline; this suite pins the *composed* system: full open-system
//! scenarios — stochastic arrivals, admission, MP-HARS adapting
//! mid-run, departures, idle gaps between tenancies — must produce
//! [`ScenarioOutcome`]s whose fingerprints (every per-tenant field,
//! count, satisfaction mean, energy total, adaptation and search
//! totals) are identical whether the engine steps every event
//! (`ExecMode::FixedStep`) or fast-forwards idle spans
//! (`ExecMode::FastForward`, the default). The power-sensor sample count
//! must also be conserved: coalesced + stored in the default mode
//! equals the fixed-step total.

use proptest::prelude::*;

use hars_scenario::{
    run_scenario, AlwaysAdmit, AppTemplate, ArrivalProcess, ScenarioRuntime, ScenarioSpec,
    TemplateSet,
};
use hmp_sim::clock::NS_PER_SEC;
use hmp_sim::{BoardSpec, EngineConfig, ExecMode};
use mp_hars::{mp_hars_e, mp_hars_i};
use workloads::Benchmark;

fn templates() -> TemplateSet {
    TemplateSet::uniform(vec![
        AppTemplate {
            heartbeats: 25,
            ..AppTemplate::new(Benchmark::Swaptions)
        },
        AppTemplate {
            heartbeats: 20,
            ..AppTemplate::new(Benchmark::Bodytrack)
        },
    ])
}

fn arrival(kind: usize, rate_scale: f64, seed: u64) -> ArrivalProcess {
    match kind {
        0 => ArrivalProcess::Poisson {
            rate_per_sec: 0.1 + 0.2 * rate_scale,
        },
        1 => ArrivalProcess::Bursty {
            on_rate_per_sec: 0.5 + rate_scale,
            mean_on_secs: 4.0,
            mean_off_secs: 10.0 + 10.0 * rate_scale,
        },
        // A sparse trace with long dead air between arrivals — the
        // idle-skip's best case, and the likeliest place for a
        // fast-forward bug to shift an admission instant.
        _ => ArrivalProcess::Trace(
            (0..4)
                .map(|i| (seed % 3) * NS_PER_SEC / 3 + i * 13 * NS_PER_SEC)
                .collect(),
        ),
    }
}

fn run_mode(
    board: &BoardSpec,
    mode: ExecMode,
    arrivals: &ArrivalProcess,
    horizon_secs: u64,
    seed: u64,
    exhaustive: bool,
) -> hars_scenario::ScenarioOutcome {
    let cfg = EngineConfig {
        exec: mode,
        ..EngineConfig::default()
    };
    let mut spec = ScenarioSpec::new(
        arrivals.clone(),
        templates(),
        horizon_secs * NS_PER_SEC,
        seed,
    );
    spec.solo_budget = 20;
    let runtime = if exhaustive {
        ScenarioRuntime::mp_hars(board, mp_hars_e())
    } else {
        ScenarioRuntime::mp_hars(board, mp_hars_i())
    };
    run_scenario(board, &cfg, &spec, &mut AlwaysAdmit, runtime).expect("scenario runs")
}

proptest! {
    /// Fixed-step and fast-forward scenario runs fingerprint identically
    /// on both boards across Poisson, bursty and trace arrivals, and
    /// the sensor sample count is conserved under coalescing.
    #[test]
    fn scenario_fingerprints_survive_idle_skip(
        board_idx in 0usize..2,
        kind in 0usize..3,
        rate_scale in 0.0f64..1.0,
        seed in 0u64..1_000,
        horizon_secs in 25u64..45,
        exhaustive in proptest::bool::ANY,
    ) {
        let board = if board_idx == 0 {
            BoardSpec::odroid_xu3()
        } else {
            BoardSpec::dynamiq_1p_3m_4l()
        };
        let arrivals = arrival(kind, rate_scale, seed);
        let fixed = run_mode(&board, ExecMode::FixedStep, &arrivals, horizon_secs, seed, exhaustive);
        let heap = run_mode(&board, ExecMode::FastForward, &arrivals, horizon_secs, seed, exhaustive);
        prop_assert_eq!(
            fixed.fingerprint(),
            heap.fingerprint(),
            "idle skipping changed an outcome (board {}, kind {kind}, seed {seed})",
            board.name
        );
        prop_assert_eq!(fixed.energy_joules.to_bits(), heap.energy_joules.to_bits());
        prop_assert_eq!(
            fixed.sensor_samples, heap.sensor_samples,
            "scheduled sample instants must be conserved under coalescing"
        );
        // Fixed-step never coalesces; heap mode reports its elisions.
        prop_assert_eq!(fixed.sensor_samples_coalesced, 0);
        prop_assert!(heap.sensor_samples_coalesced <= heap.sensor_samples);
    }
}
