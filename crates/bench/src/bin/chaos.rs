//! Chaos serving: the deterministic fault plane at fleet scale, with
//! and without shard supervision.
//!
//! One fleet, one tenant stream, one seeded fault schedule (board
//! deaths, cluster quarantines, sensor faults, heartbeat stalls), three
//! serving configurations:
//!
//! 1. **fault-free** — the fault plane off (the pre-chaos baseline);
//! 2. **faults, no failover** — boards die and their tenants die with
//!    them (supervision off, report-only);
//! 3. **faults + failover** — the shard supervisor re-places victims
//!    of dead boards onto survivors with capped, backed-off retries.
//!
//! Self-asserted contracts:
//!
//! 1. **bit-identity** — the supervised chaos run produces the
//!    identical fleet fingerprint, service level, cache hit and miss
//!    counts and shard-run count on 1, 2 and 8 workers;
//! 2. **off-by-default** — a zero-probability fault model is
//!    bit-identical to no fault model at all;
//! 3. **failover win** — under the same fault schedule, failover's
//!    service level (satisfaction-weighted heartbeats served over
//!    heartbeats requested) strictly beats no-failover's;
//! 4. **conservation** — every run's service level lies in [0, 1].
//!
//! ```sh
//! cargo run --release -p hars-bench --bin chaos [-- --quick] [--out BENCH_chaos.json]
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use hars_core::NullSink;
use hars_fleet::{
    run_fleet, FleetBoard, FleetFaultSpec, FleetOutcome, FleetRuntimeKind, FleetSpec,
    PlacementPolicy,
};
use hars_scenario::{AdmissionSwap, AppTemplate, ArrivalProcess, TemplateSet};
use hmp_sim::clock::NS_PER_SEC;
use hmp_sim::BoardSpec;
use workloads::Benchmark;

/// The fleet under test: a mixed edge/server population served a
/// global Poisson stream of mid-length tenants — long enough that a
/// mid-run board death strands real in-flight work for the supervisor
/// to rescue.
fn fleet(n_boards: usize, quick: bool) -> FleetSpec {
    let classes = [
        (BoardSpec::odroid_xu3(), AdmissionSwap::AlwaysAdmit),
        (
            BoardSpec::dynamiq_1p_3m_4l(),
            AdmissionSwap::CapacityGate { max_load: 0.95 },
        ),
        (BoardSpec::x86_hybrid_6p_8e(), AdmissionSwap::AlwaysAdmit),
    ];
    let boards: Vec<FleetBoard> = (0..n_boards)
        .map(|i| {
            let (board, admission) = classes[i % classes.len()].clone();
            FleetBoard {
                board,
                runtime: FleetRuntimeKind::MpHarsI,
                admission,
            }
        })
        .collect();
    let mk = |bench, threads, heartbeats, target_frac| AppTemplate {
        threads,
        heartbeats,
        target_frac,
        target_jitter: 0.03,
        target_tolerance: 0.20,
        ..AppTemplate::new(bench)
    };
    let hb = if quick { 40 } else { 80 };
    let templates = TemplateSet::uniform(vec![
        mk(Benchmark::Swaptions, 2, hb, 0.5),
        mk(Benchmark::Bodytrack, 4, hb, 0.25),
        mk(Benchmark::Blackscholes, 4, hb, 0.25),
    ]);
    let horizon_secs = if quick { 60 } else { 120 };
    let rate = 2.0 * n_boards as f64 / horizon_secs as f64;
    let mut spec = FleetSpec::new(
        boards,
        ArrivalProcess::Poisson { rate_per_sec: rate },
        templates,
        horizon_secs * NS_PER_SEC,
        0xC4A05,
    );
    spec.solo_budget = if quick { 20 } else { 40 };
    spec.target_guard = 0.10;
    spec.placement = PlacementPolicy::RoundRobin;
    spec
}

/// A full-spectrum fault model whose seed is scanned (deterministically
/// — plan derivation only, no simulation) until at least one board
/// dies and at least one survives: chaos with something to fail over
/// *to*.
fn chaos_model(spec: &FleetSpec) -> FleetFaultSpec {
    let mk = |seed| {
        let mut f = FleetFaultSpec::new(seed);
        f.board_fail_prob = 0.35;
        f.cluster_cap_prob = 0.25;
        f.cluster_offline_prob = 0.15;
        f.sensor_fault_prob = 0.25;
        f.hb_stall_prob = 0.25;
        f
    };
    let n = spec.boards.len();
    let kills = |f: &FleetFaultSpec, b: usize| {
        f.plan_for(b, spec.boards[b].board.n_clusters(), spec.horizon_ns)
            .kills_board()
    };
    let seed = (0..10_000u64)
        .find(|&s| {
            let f = mk(s);
            let dead = (0..n).filter(|&b| kills(&f, b)).count();
            dead >= 1 && dead < n
        })
        .expect("a seed with partial board loss exists");
    mk(seed)
}

struct Run {
    label: &'static str,
    workers: usize,
    wall_ms: f64,
    out: FleetOutcome,
}

/// Service level is satisfaction-weighted heartbeats served over
/// heartbeats requested, so it lies in [0, 1] unless some tenant was
/// served past its budget.
fn assert_service_level_in_range(out: &FleetOutcome, label: &str) {
    assert!(
        (0.0..=1.0).contains(&out.service_level),
        "{label}: service level {} outside [0, 1]",
        out.service_level
    );
}

fn measure(spec: &FleetSpec, label: &'static str, workers: usize) -> Run {
    let start = Instant::now();
    let out = run_fleet(spec, workers, &mut NullSink).expect("fleet runs");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_service_level_in_range(&out, label);
    println!(
        "{label:<22} {workers:>2} workers  {:>8.0} ms  fp {:#018x}  service {:>6.4}  \
         (boards dead {}, failed over {}, lost {}, shard runs {})",
        wall_ms,
        out.fingerprint,
        out.service_level,
        out.boards_failed,
        out.tenants_failed_over,
        out.failover_lost,
        out.shard_runs,
    );
    Run {
        label,
        workers,
        wall_ms,
        out,
    }
}

fn render_json(runs: &[Run], spec: &FleetSpec, faults: &FleetFaultSpec, quick: bool) -> String {
    let failover = &runs.last().expect("runs exist").out;
    let abandoned = &runs[1].out;
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"chaos\",");
    let _ = writeln!(
        s,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(s, "  \"boards\": {},", spec.boards.len());
    let _ = writeln!(
        s,
        "  \"available_cores\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(s, "  \"fault_seed\": {},", faults.seed);
    let _ = writeln!(s, "  \"arrivals\": {},", failover.arrivals);
    let _ = writeln!(s, "  \"faults_injected\": {},", failover.faults_injected);
    let _ = writeln!(s, "  \"boards_failed\": {},", failover.boards_failed);
    let _ = writeln!(
        s,
        "  \"tenants_failed_over\": {},",
        failover.tenants_failed_over
    );
    let _ = writeln!(s, "  \"failover_lost\": {},", failover.failover_lost);
    let _ = writeln!(
        s,
        "  \"service_level\": {{ \"fault_free\": {:.4}, \"no_failover\": {:.4}, \
         \"failover\": {:.4} }},",
        runs[0].out.service_level, abandoned.service_level, failover.service_level
    );
    let _ = writeln!(
        s,
        "  \"failover_service_gain\": {:.4},",
        failover.service_level - abandoned.service_level
    );
    let _ = writeln!(
        s,
        "  \"fingerprint_failover\": \"{:#018x}\",",
        failover.fingerprint
    );
    let _ = writeln!(s, "  \"worker_counts_bit_identical\": true,");
    let _ = writeln!(s, "  \"runs\": [");
    for (i, r) in runs.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{ \"label\": \"{}\", \"workers\": {}, \"wall_ms\": {:.0}, \
             \"service_level\": {:.4}, \"completed\": {}, \"shard_runs\": {} }}{}",
            r.label,
            r.workers,
            r.wall_ms,
            r.out.service_level,
            r.out.completed,
            r.out.shard_runs,
            if i + 1 == runs.len() { "" } else { "," }
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = write!(s, "}}");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| {
            if quick {
                "BENCH_chaos_quick.json".to_string()
            } else {
                "BENCH_chaos.json".to_string()
            }
        });

    let n_boards = if quick { 6 } else { 12 };
    let base = fleet(n_boards, quick);
    let faults = chaos_model(&base);
    println!(
        "chaos ({} mode): {} boards, fault seed {} \
         (p_board_fail={}, p_cap={}, p_offline={}, p_sensor={}, p_stall={})\n",
        if quick { "quick" } else { "full" },
        n_boards,
        faults.seed,
        faults.board_fail_prob,
        faults.cluster_cap_prob,
        faults.cluster_offline_prob,
        faults.sensor_fault_prob,
        faults.hb_stall_prob,
    );

    let mut fault_free = base.clone();
    fault_free.faults = None;
    let mut abandoned = base.clone();
    let mut f_off = faults;
    f_off.failover = false;
    abandoned.faults = Some(f_off);
    let mut supervised = base.clone();
    supervised.faults = Some(faults);

    let runs = vec![
        measure(&fault_free, "fault-free", 8),
        measure(&abandoned, "faults, no failover", 8),
        measure(&supervised, "faults + failover", 1),
        measure(&supervised, "faults + failover", 2),
        measure(&supervised, "faults + failover", 8),
    ];

    // Contract 1: worker-count bit-identity under supervision.
    let fp = runs[2].out.fingerprint;
    for r in &runs[2..] {
        assert_eq!(
            r.out.fingerprint, fp,
            "supervised chaos run diverged at {} workers",
            r.workers
        );
        assert_eq!(r.out.service_level, runs[2].out.service_level);
        assert_eq!(
            (r.out.solo_cache_hits, r.out.solo_cache_misses),
            (runs[2].out.solo_cache_hits, runs[2].out.solo_cache_misses),
            "supervised chaos run's cache counts diverged at {} workers",
            r.workers
        );
        assert_eq!(
            r.out.shard_runs, runs[2].out.shard_runs,
            "supervised chaos run's shard-run count diverged at {} workers",
            r.workers
        );
    }
    println!("\nbit-identity: supervised runs share fingerprint {fp:#018x} at 1/2/8 workers");

    // Contract 2: the fault plane is off by default — a zero-probability
    // model is indistinguishable from no model.
    let mut silent = base.clone();
    silent.faults = Some(FleetFaultSpec::new(faults.seed));
    let silent_out = run_fleet(&silent, 8, &mut NullSink).expect("fleet runs");
    assert_service_level_in_range(&silent_out, "zero-probability faults");
    assert_eq!(
        silent_out.fingerprint, runs[0].out.fingerprint,
        "zero-probability faults must be bit-identical to the fault-free baseline"
    );
    println!("off-by-default: zero-probability model matches the fault-free fingerprint");

    // Contract 3: failover strictly beats abandonment under the same
    // fault schedule.
    let supervised_out = &runs[4].out;
    assert!(
        supervised_out.boards_failed >= 1,
        "the scanned fault seed must kill at least one board"
    );
    assert!(
        supervised_out.tenants_failed_over > 0,
        "victims must actually be re-placed"
    );
    assert!(
        supervised_out.service_level > runs[1].out.service_level,
        "failover must strictly beat no-failover: {} vs {}",
        supervised_out.service_level,
        runs[1].out.service_level
    );
    println!(
        "failover win: service level {:.4} (failover) > {:.4} (no failover), fault-free {:.4}",
        supervised_out.service_level, runs[1].out.service_level, runs[0].out.service_level
    );

    let json = render_json(&runs, &base, &faults, quick);
    std::fs::write(&out_path, &json).expect("write chaos bench JSON");
    println!("\nwrote {out_path}");
    println!("all chaos contracts hold");
}
