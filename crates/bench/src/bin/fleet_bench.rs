//! Fleet-scale parallel serving: a large heterogeneous board fleet on
//! a worker pool, with and without the fleet-wide shared solo-rate
//! calibration cache.
//!
//! The comparison that matters is against the *naive pre-fleet serving
//! path*: one worker walking the boards with a private calibration
//! cache per board, so every board re-pays every `(benchmark,
//! threads)` solo calibration its tenants need. The fleet path runs 8
//! workers over the same shards with one shared cache — each unique
//! `(board spec, benchmark, threads, budget)` calibration runs once
//! fleet-wide. On a many-core host the worker pool adds thread-level
//! speedup on top; on a single-core host (CI) the shared cache *is*
//! the win, which is why the headline holds regardless of
//! `available_cores` (reported in the JSON).
//!
//! Self-asserted contracts:
//!
//! 1. **bit-identity** — every run (1, 2 or 8 workers; shared or
//!    private caches) produces the identical fleet fingerprint, and
//!    the shared-cache runs report identical cache hit and miss counts
//!    (the cache is single-flight: misses equal unique keys);
//! 2. **cache effectiveness** — the shared cache serves ≥ 90% of solo
//!    lookups from cache (full fleet; the quick fleet asserts ≥ 75%);
//! 3. **wall-clock win** — 8 workers + shared cache beat the naive
//!    path by ≥ 4× (full mode only; quick CI timings are too noisy to
//!    gate on);
//! 4. **conservation** — every run's service level lies in [0, 1].
//!
//! ```sh
//! cargo run --release -p hars-bench --bin fleet_bench [-- --quick] [--out BENCH_fleet.json]
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use hars_core::NullSink;
use hars_fleet::{
    run_fleet, FleetBoard, FleetCacheMode, FleetOutcome, FleetRuntimeKind, FleetSpec,
    PlacementPolicy,
};
use hars_scenario::{AdmissionSwap, AppTemplate, ArrivalProcess, TemplateSet};
use hmp_sim::clock::NS_PER_SEC;
use hmp_sim::BoardSpec;
use workloads::Benchmark;

/// The unique hardware population (≤ 8 specs by design: the shared
/// cache keys on the board spec, so few specs + many boards is the
/// regime where fleet-wide sharing pays).
fn board_classes() -> Vec<(BoardSpec, FleetRuntimeKind, AdmissionSwap)> {
    vec![
        (
            BoardSpec::odroid_xu3(),
            FleetRuntimeKind::MpHarsI,
            AdmissionSwap::AlwaysAdmit,
        ),
        (
            BoardSpec::dynamiq_1p_3m_4l(),
            FleetRuntimeKind::MpHarsI,
            AdmissionSwap::CapacityGate { max_load: 0.95 },
        ),
        (
            BoardSpec::x86_hybrid_6p_8e(),
            FleetRuntimeKind::Gts,
            AdmissionSwap::AlwaysAdmit,
        ),
        (
            BoardSpec::server_4c_32core(),
            FleetRuntimeKind::MpHarsI,
            AdmissionSwap::AlwaysAdmit,
        ),
        (
            BoardSpec::server_5c_48core(),
            FleetRuntimeKind::MpHarsI,
            AdmissionSwap::CapacityGate { max_load: 0.95 },
        ),
    ]
}

/// The fleet under test: `n_boards` boards cycling over the board
/// classes, served a global Poisson stream of short mixed tenants.
/// Tenants are deliberately short and the solo budget deliberately
/// long: production serving is admission-heavy, so calibration cost —
/// the thing the shared cache removes — dominates the naive path.
fn fleet(n_boards: usize, quick: bool) -> FleetSpec {
    let classes = board_classes();
    let boards: Vec<FleetBoard> = (0..n_boards)
        .map(|i| {
            let (board, runtime, admission) = classes[i % classes.len()].clone();
            FleetBoard {
                board,
                runtime,
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
    let hb = 12;
    let templates = TemplateSet::uniform(vec![
        mk(Benchmark::Swaptions, 2, hb, 0.6),
        mk(Benchmark::Bodytrack, 8, hb, 0.25),
        mk(Benchmark::Blackscholes, 8, hb, 0.25),
    ]);
    let horizon_secs = if quick { 60 } else { 120 };
    // ~3 tenants per board on average over the horizon: short, frequent
    // tenancies — admission-heavy serving, where the naive path's
    // per-board recalibration overhead dominates.
    let rate = 3.0 * n_boards as f64 / horizon_secs as f64;
    let mut spec = FleetSpec::new(
        boards,
        ArrivalProcess::Poisson { rate_per_sec: rate },
        templates,
        horizon_secs * NS_PER_SEC,
        0xF1EE7,
    );
    spec.solo_budget = if quick { 40 } else { 320 };
    spec.target_guard = 0.10;
    // Round-robin: spread tenant *count* over the whole fleet (the
    // least-loaded scorer funnels a lightly loaded fleet onto the
    // biggest servers and leaves the edge boards idle — realistic for
    // utilization, wrong for a bench whose point is per-board
    // calibration pressure on every board class).
    spec.placement = PlacementPolicy::RoundRobin;
    spec
}

struct Run {
    label: &'static str,
    workers: usize,
    cache: FleetCacheMode,
    wall_ms: f64,
    out: FleetOutcome,
}

fn measure(spec: &FleetSpec, label: &'static str, workers: usize, cache: FleetCacheMode) -> Run {
    let mut spec = spec.clone();
    spec.cache = cache;
    let start = Instant::now();
    let out = run_fleet(&spec, workers, &mut NullSink).expect("fleet runs");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(
        (0.0..=1.0).contains(&out.service_level),
        "{label} @ {workers} workers: service level {} outside [0, 1]",
        out.service_level
    );
    println!(
        "{label:<22} {workers:>2} workers  {:>9.0} ms  fp {:#018x}  hit rate {:>5.1}%  \
         ({} adm / {} arr)",
        wall_ms,
        out.fingerprint,
        100.0 * out.cache_hit_rate(),
        out.admitted,
        out.arrivals,
    );
    Run {
        label,
        workers,
        cache,
        wall_ms,
        out,
    }
}

fn render_json(runs: &[Run], spec: &FleetSpec, quick: bool, speedup: f64) -> String {
    let headline = &runs.last().expect("runs exist").out;
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"fleet\",");
    let _ = writeln!(
        s,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(s, "  \"boards\": {},", spec.boards.len());
    let _ = writeln!(s, "  \"unique_board_specs\": {},", board_classes().len());
    let _ = writeln!(
        s,
        "  \"available_cores\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(s, "  \"arrivals\": {},", headline.arrivals);
    let _ = writeln!(s, "  \"admitted\": {},", headline.admitted);
    let _ = writeln!(s, "  \"completed\": {},", headline.completed);
    let _ = writeln!(s, "  \"fleet_rejected\": {},", headline.fleet_rejected);
    let _ = writeln!(
        s,
        "  \"mean_satisfaction\": {:.4},",
        headline.mean_satisfaction
    );
    let _ = writeln!(s, "  \"fingerprint\": \"{:#018x}\",", headline.fingerprint);
    let _ = writeln!(s, "  \"fingerprints_identical\": true,");
    let _ = writeln!(
        s,
        "  \"shared_cache\": {{ \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4} }},",
        headline.solo_cache_hits,
        headline.solo_cache_misses,
        headline.cache_hit_rate()
    );
    let _ = writeln!(s, "  \"speedup_fleet8_vs_naive\": {speedup:.2},");
    let _ = writeln!(s, "  \"runs\": [");
    for (i, r) in runs.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{ \"label\": \"{}\", \"workers\": {}, \"cache\": \"{}\", \
             \"wall_ms\": {:.0}, \"solo_misses\": {} }}{}",
            r.label,
            r.workers,
            match r.cache {
                FleetCacheMode::Shared => "shared",
                FleetCacheMode::PerShard => "per-shard",
            },
            r.wall_ms,
            r.out.solo_cache_misses,
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
                "BENCH_fleet_quick.json".to_string()
            } else {
                "BENCH_fleet.json".to_string()
            }
        });

    let n_boards = if quick { 48 } else { 256 };
    let spec = fleet(n_boards, quick);
    println!(
        "fleet_bench ({} mode): {} boards over {} unique specs, {} workers max\n",
        if quick { "quick" } else { "full" },
        n_boards,
        board_classes().len(),
        8
    );

    // The naive pre-fleet path first (it is the slowest), then the
    // fleet path at increasing worker counts. The 8-worker shared run
    // last: its outcome is the headline the JSON reports.
    let runs = vec![
        measure(&spec, "naive (per-shard)", 1, FleetCacheMode::PerShard),
        measure(&spec, "fleet shared", 1, FleetCacheMode::Shared),
        measure(&spec, "fleet shared", 2, FleetCacheMode::Shared),
        measure(&spec, "fleet shared", 8, FleetCacheMode::Shared),
    ];

    // Contract 1: bit-identity across worker counts and cache modes.
    let fp = runs[0].out.fingerprint;
    for r in &runs {
        assert_eq!(
            r.out.fingerprint, fp,
            "{} @ {} workers diverged from the reference fingerprint",
            r.label, r.workers
        );
    }
    let shared = &runs[1];
    for r in &runs[2..] {
        assert_eq!(
            (r.out.solo_cache_hits, r.out.solo_cache_misses),
            (shared.out.solo_cache_hits, shared.out.solo_cache_misses),
            "shared-cache hit/miss counts diverged at {} workers",
            r.workers
        );
    }
    println!(
        "\nbit-identity: all {} runs share fingerprint {fp:#018x}; shared-cache runs \
         share {} hits / {} misses",
        runs.len(),
        shared.out.solo_cache_hits,
        shared.out.solo_cache_misses
    );

    // Contract 2: the shared cache serves the fleet from few unique
    // calibrations.
    let headline = &runs[3];
    let hit_rate = headline.out.cache_hit_rate();
    let floor = if quick { 0.75 } else { 0.90 };
    assert!(
        hit_rate >= floor,
        "shared-cache hit rate {hit_rate:.3} below the {floor:.2} floor"
    );

    // Contract 3: wall-clock win over the naive path (full mode only —
    // CI quick-run timings are noise-dominated).
    let speedup = runs[0].wall_ms / headline.wall_ms;
    println!(
        "speedup: fleet (8 workers, shared cache) is {speedup:.2}x the naive path \
         ({:.0} ms vs {:.0} ms)",
        headline.wall_ms, runs[0].wall_ms
    );
    if !quick {
        assert!(
            speedup >= 4.0,
            "fleet path must beat naive serving by >= 4x (got {speedup:.2}x)"
        );
    }

    let json = render_json(&runs, &spec, quick, speedup);
    std::fs::write(&out_path, &json).expect("write fleet bench JSON");
    println!("\nwrote {out_path}");
    println!("all fleet contracts hold");
}
