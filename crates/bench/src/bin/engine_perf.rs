//! Engine-loop performance baseline: the machine-readable numbers
//! (`BENCH_engine.json`) behind the discrete-event engine core — the
//! once-per-step wake-up scan, tick/sensor quiescence, the idle
//! fast-forward with its batched quiescent ticks, and the busy span
//! that goes on tick by tick, pinned or not.
//!
//! Two open-system scenarios bracket the engine's operating envelope:
//!
//! * **idle-churn** — a sparse arrival trace on the XU3 under stock
//!   GTS: four short tenants separated by long dead air, so the board
//!   is busy a few percent of the horizon. This is the idle-skip's
//!   target case: the fixed-step reference walks every scheduler tick
//!   of every idle span while the default engine fast-forwards
//!   through them (replaying only the energy-integral boundaries that
//!   bit-identity requires, and integrating every whole tick between
//!   two sensor samples in one call once the loads have decayed).
//! * **dense** — Poisson churn heavy enough to keep the board busy
//!   end to end under MP-HARS-E. Nothing is idle, but MP-HARS pins
//!   every thread to one core, so between events the default engine
//!   replays runs of GTS ticks over a working set of the runnable
//!   threads (each tick reduced to work decrements and an in-place
//!   load update, the span's energy integrated once at its end) where
//!   the fixed-step reference runs a full step and the full migration
//!   passes per tick.
//!
//! Both modes scan only the threads of tenants that have not finished,
//! so the fixed-step reference is cheaper than it once was too; the
//! floors below compare the two modes as they are.
//!
//! Both scenarios run in both [`ExecMode`]s (the default and the
//! fixed-step reference) and the run self-asserts the engine's
//! contracts:
//!
//! 1. **bit-identity** — fixed-step and default-mode outcomes
//!    fingerprint identically (every tenant field, energy, search
//!    totals) and reach the same power-sensor sample count;
//! 2. **idle speedup** — the default engine is ≥ 10× faster on the
//!    idle-churn trace;
//! 3. **dense speedup** — the default engine is ≥ 1.5× faster on
//!    the dense scenario too (`--quick` asks 1.25× to absorb the noise
//!    of short runs on shared hosts), and it really fast-forwarded
//!    ticks there.
//!
//! The JSON also records the fast-forwarded tick count per case and the
//! host's `available_parallelism`, next to the wall times.
//!
//! ```sh
//! cargo run --release -p hars-bench --bin engine_perf [-- --quick] [--out <path>]
//! ```
//!
//! Without `--out` the report goes to `BENCH_engine.json`, the committed
//! full-scale one, or with `--quick` to `BENCH_engine_quick.json`.

use std::fmt::Write as _;
use std::time::Instant;

use hars_bench::Cli;
use hars_core::NullSink;
use hars_scenario::{
    run_shard, AlwaysAdmit, AppTemplate, ArrivalProcess, ScenarioOutcome, ScenarioRuntime,
    ScenarioSpec, SharedSoloRateCache, SoloCacheHandle, TemplateSet,
};
use hmp_sim::clock::NS_PER_SEC;
use hmp_sim::{BoardSpec, EngineConfig, ExecMode};
use mp_hars::mp_hars_e;
use workloads::Benchmark;

/// Contract floor on the idle-churn trace.
const IDLE_SPEEDUP_FLOOR: f64 = 10.0;

/// Contract floor on `fixed / fast-forward` wall time for the dense case
/// (quick runs are short enough for host noise to matter).
fn dense_speedup_floor(quick: bool) -> f64 {
    if quick {
        1.25
    } else {
        1.5
    }
}

struct Case {
    name: &'static str,
    arrivals: ArrivalProcess,
    horizon_secs: u64,
    seed: u64,
    /// `true`: MP-HARS-E manages the tenants; `false`: stock GTS.
    managed: bool,
}

fn cases(quick: bool) -> Vec<Case> {
    vec![
        Case {
            name: "idle-churn",
            // Four short tenancies separated by long fully-idle gaps:
            // each tenant runs for a handful of seconds, so the busy
            // fraction of the horizon stays around 1%. Same scale in
            // quick mode — the idle trace costs tens of milliseconds
            // even for the fixed-step reference, and a shorter horizon
            // would let the (mode-independent) busy prefix dilute the
            // speedup the contract measures.
            arrivals: ArrivalProcess::Trace((0..4).map(|i| i * 150 * NS_PER_SEC).collect()),
            horizon_secs: 600,
            seed: 17,
            managed: false,
        },
        Case {
            name: "dense",
            arrivals: ArrivalProcess::Poisson { rate_per_sec: 0.5 },
            horizon_secs: if quick { 60 } else { 120 },
            seed: 23,
            managed: true,
        },
    ]
}

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

fn run_once(
    board: &BoardSpec,
    case: &Case,
    mode: ExecMode,
    cache: &SharedSoloRateCache,
) -> (ScenarioOutcome, f64) {
    let cfg = EngineConfig {
        exec: mode,
        ..EngineConfig::default()
    };
    let mut spec = ScenarioSpec::new(
        case.arrivals.clone(),
        templates(),
        case.horizon_secs * NS_PER_SEC,
        case.seed,
    );
    spec.solo_budget = 20;
    let runtime = if case.managed {
        ScenarioRuntime::mp_hars(board, mp_hars_e())
    } else {
        ScenarioRuntime::Gts
    };
    let t0 = Instant::now();
    let out = run_shard(
        board,
        &cfg,
        &spec.tenant_schedule(),
        &spec.shard_config(),
        &mut AlwaysAdmit,
        runtime,
        SoloCacheHandle::Shared(cache),
        &mut NullSink,
    )
    .expect("scenario runs");
    (out, t0.elapsed().as_secs_f64())
}

struct Measured {
    outcome: ScenarioOutcome,
    wall_secs: f64,
}

/// Min-of-reps timing of both modes, each with its own warm solo-rate
/// cache: the first run per mode pays the solo calibrations (its time
/// is discarded), and the timed repeats alternate the two modes so
/// that a drift in host speed hits both alike. Returns
/// `[fixed-step, fast-forward]`.
fn measure(board: &BoardSpec, case: &Case, reps: usize) -> [Measured; 2] {
    let modes = [ExecMode::FixedStep, ExecMode::FastForward];
    let caches = [SharedSoloRateCache::new(), SharedSoloRateCache::new()];
    let mut measured = [0, 1].map(|i| Measured {
        outcome: run_once(board, case, modes[i], &caches[i]).0,
        wall_secs: f64::INFINITY,
    });
    for _ in 0..reps {
        for (i, m) in measured.iter_mut().enumerate() {
            let (again, secs) = run_once(board, case, modes[i], &caches[i]);
            assert_eq!(
                again.fingerprint(),
                m.outcome.fingerprint(),
                "{}/{:?}: repeat runs must be deterministic",
                case.name,
                modes[i]
            );
            m.wall_secs = m.wall_secs.min(secs);
        }
    }
    measured
}

struct CaseReport {
    name: &'static str,
    horizon_secs: u64,
    busy_frac: f64,
    fingerprint: u64,
    sensor_samples: u64,
    coalesced: u64,
    ticks_fast_forwarded: u64,
    fixed_ms: f64,
    fast_ms: f64,
    speedup: f64,
}

fn render_json(reports: &[CaseReport], quick: bool, cores: usize) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"engine_perf\",");
    let _ = writeln!(
        s,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(s, "  \"available_parallelism\": {cores},");
    let _ = writeln!(s, "  \"idle_speedup_floor_x\": {IDLE_SPEEDUP_FLOOR},");
    let _ = writeln!(
        s,
        "  \"dense_speedup_floor_x\": {},",
        dense_speedup_floor(quick)
    );
    let _ = writeln!(s, "  \"cases\": [");
    for (i, r) in reports.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"case\": \"{}\",", r.name);
        let _ = writeln!(s, "      \"horizon_secs\": {},", r.horizon_secs);
        let _ = writeln!(s, "      \"busy_frac\": {:.4},", r.busy_frac);
        let _ = writeln!(s, "      \"fingerprint\": \"{:016x}\",", r.fingerprint);
        let _ = writeln!(s, "      \"sensor_samples\": {},", r.sensor_samples);
        let _ = writeln!(s, "      \"sensor_samples_coalesced\": {},", r.coalesced);
        let _ = writeln!(
            s,
            "      \"ticks_fast_forwarded\": {},",
            r.ticks_fast_forwarded
        );
        let _ = writeln!(s, "      \"fixed_step_ms\": {:.2},", r.fixed_ms);
        let _ = writeln!(s, "      \"fast_forward_ms\": {:.2},", r.fast_ms);
        let _ = writeln!(s, "      \"speedup_x\": {:.2}", r.speedup);
        let _ = writeln!(s, "    }}{}", if i + 1 == reports.len() { "" } else { "," });
    }
    let _ = writeln!(s, "  ]");
    let _ = write!(s, "}}");
    s
}

fn main() {
    let cli = Cli::parse();
    let quick = cli.quick;
    let out_path = cli.out("engine");
    let reps = if quick { 3 } else { 5 };

    println!(
        "engine_perf ({} mode): fixed-step vs fast-forward wall time\n",
        if quick { "quick" } else { "full" }
    );
    println!(
        "{:<12} {:>8} {:>10} {:>11} {:>11} {:>9}  fingerprint",
        "case", "busy%", "samples", "fixed(ms)", "fast(ms)", "speedup"
    );

    let board = BoardSpec::odroid_xu3();
    let mut reports = Vec::new();
    for case in cases(quick) {
        let [fixed, fast] = measure(&board, &case, reps);

        // --- contract 1: bit-identity between the two loops.
        assert_eq!(
            fixed.outcome.fingerprint(),
            fast.outcome.fingerprint(),
            "{}: the fast-forward engine changed the outcome",
            case.name
        );
        assert_eq!(
            fixed.outcome.energy_joules.to_bits(),
            fast.outcome.energy_joules.to_bits(),
            "{}: energy accounting must be bit-equal",
            case.name
        );
        assert_eq!(
            fixed.outcome.sensor_samples, fast.outcome.sensor_samples,
            "{}: sample-count conservation",
            case.name
        );
        assert_eq!(fixed.outcome.sensor_samples_coalesced, 0);
        assert_eq!(fixed.outcome.ticks_fast_forwarded, 0);

        // Busy fraction estimate: completed tenancy spans over horizon.
        let busy_ns: u64 = fixed
            .outcome
            .tenants
            .iter()
            .filter_map(|t| Some(t.finished_ns?.saturating_sub(t.admitted_ns?)))
            .sum();
        let busy_frac = busy_ns as f64 / (case.horizon_secs * NS_PER_SEC) as f64;

        let speedup = fixed.wall_secs / fast.wall_secs;
        println!(
            "{:<12} {:>7.1}% {:>10} {:>11.2} {:>11.2} {:>8.2}x  {:016x}",
            case.name,
            100.0 * busy_frac,
            fast.outcome.sensor_samples,
            1e3 * fixed.wall_secs,
            1e3 * fast.wall_secs,
            speedup,
            fast.outcome.fingerprint()
        );
        reports.push(CaseReport {
            name: case.name,
            horizon_secs: case.horizon_secs,
            busy_frac,
            fingerprint: fast.outcome.fingerprint(),
            sensor_samples: fast.outcome.sensor_samples,
            coalesced: fast.outcome.sensor_samples_coalesced,
            ticks_fast_forwarded: fast.outcome.ticks_fast_forwarded,
            fixed_ms: 1e3 * fixed.wall_secs,
            fast_ms: 1e3 * fast.wall_secs,
            speedup,
        });
    }

    // --- contract 2: the idle trace really is idle, and the default
    // engine skips it ≥ 10× faster.
    let idle = &reports[0];
    assert!(
        idle.busy_frac <= 0.05,
        "idle-churn busy fraction {:.3} exceeds the 5% duty ceiling",
        idle.busy_frac
    );
    assert!(
        idle.speedup >= IDLE_SPEEDUP_FLOOR,
        "idle-churn speedup {:.2}x below the {IDLE_SPEEDUP_FLOOR}x contract",
        idle.speedup
    );
    println!(
        "\nPASS idle: fast-forward engine is {:.1}x faster on the {:.1}%-duty churn trace \
         ({} of {} sensor samples coalesced)",
        idle.speedup,
        100.0 * idle.busy_frac,
        idle.coalesced,
        idle.sensor_samples
    );

    // --- contract 3: the busy tick fast-forward runs and pays off.
    let dense = &reports[1];
    let floor = dense_speedup_floor(quick);
    assert!(
        dense.ticks_fast_forwarded > 0,
        "dense: the busy tick fast-forward never ran"
    );
    assert!(
        dense.speedup >= floor,
        "dense speedup {:.2}x below the {floor}x contract",
        dense.speedup
    );
    println!(
        "PASS dense: fast-forward engine is {:.2}x faster on the always-busy scenario \
         (floor {floor}x; {} ticks fast-forwarded)",
        dense.speedup, dense.ticks_fast_forwarded
    );
    println!(
        "PASS identity: both cases fingerprint-identical across modes, sample counts conserved"
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = render_json(&reports, quick, cores);
    std::fs::write(&out_path, &json).expect("write engine bench JSON");
    println!("\nwrote {out_path}");
}
