//! The observability surface: per-tenant timelines and SLO rollups
//! for a 20-tenant bursty workload.
//!
//! A [`MetricsSink`] mounts the streaming metrics engine in front of
//! the scenario's telemetry stream: while MP-HARS serves the churn,
//! every admission verdict, heartbeat rate, satisfaction flip and
//! departure folds into per-tenant timelines, queue-wait and
//! heartbeat-latency histograms with exact bucket percentiles, and
//! per-class SLO rollups — printed here as the operator-facing tables.
//! The fold is observe-only: the run's outcome fingerprint is
//! bit-identical to a metrics-less run.
//!
//! ```sh
//! cargo run --release --example observability
//! ```

use hars::prelude::*;
use hmp_sim::clock::NS_PER_SEC;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let board = BoardSpec::odroid_xu3();

    // The mixed population: a latency-critical 2-thread foreground
    // class and a relaxed 8-thread background class.
    let foreground = AppTemplate {
        threads: 2,
        heartbeats: 50,
        target_frac: 0.6,
        target_jitter: 0.03,
        target_tolerance: 0.15,
        ..AppTemplate::new(Benchmark::Swaptions)
    };
    let background = AppTemplate {
        heartbeats: 30,
        target_frac: 0.25,
        target_jitter: 0.03,
        target_tolerance: 0.30,
        ..AppTemplate::new(Benchmark::Blackscholes)
    };

    // Exactly 20 tenants in three bursts (an explicit trace, so the
    // arrival shape is part of the example, not of a seed hunt).
    let burst = |start_s: u64, n: u64, gap_ms: u64| {
        (0..n).map(move |i| start_s * NS_PER_SEC + i * gap_ms * 1_000_000)
    };
    let arrivals: Vec<u64> = burst(0, 8, 700)
        .chain(burst(25, 7, 500))
        .chain(burst(50, 5, 900))
        .collect();
    let mut spec = ScenarioSpec::new(
        ArrivalProcess::Trace(arrivals),
        TemplateSet::weighted(vec![(1.0, foreground), (2.0, background)]),
        120 * NS_PER_SEC,
        42,
    );
    spec.solo_budget = 30;

    let out = run_shard_with_metrics(
        &board,
        &EngineConfig::default(),
        &spec.tenant_schedule(),
        &spec.shard_config(),
        &mut BoundedQueue::new(0.85, 5),
        ScenarioRuntime::mp_hars(&board, hars::mp_hars::mp_hars_i()),
        SoloCacheHandle::Shared(&SharedSoloRateCache::new()),
        &mut NullSink,
    )?;
    let m = out.metrics.as_ref().expect("metrics entry point fills it");

    println!(
        "20-tenant bursty churn on {}: {} admitted, {} queued, {} rejected, {} completed",
        board.name, out.admitted, out.queued, out.rejected, out.completed
    );
    println!(
        "{} telemetry events folded; max queue depth {}",
        m.rollup.events, m.rollup.queue_depth_max
    );
    println!("queue wait:        {}", m.rollup.queue_wait_ns.render());
    println!(
        "heartbeat latency: {}",
        m.rollup.heartbeat_latency_ns.render()
    );
    println!("decision wall:     {}", m.rollup.decision_wall_ns.render());

    println!("\nper-tenant timelines:");
    println!(
        "  {:<4} {:<13} {:>8} {:>9} {:>9} {:>6} {:>7} {:>6}",
        "id", "class", "arrive_s", "wait_ms", "depart_s", "beats", "sat%", "flips"
    );
    for t in &m.tenants {
        let depart = t
            .departed_ns
            .map(|d| format!("{:.1}", d as f64 / 1e9))
            .unwrap_or_else(|| if t.rejected { "-".into() } else { "cut".into() });
        println!(
            "  t{:<3} {:<13} {:>8.1} {:>9.1} {:>9} {:>6} {:>6.1}% {:>6}",
            t.tenant,
            if t.bench.is_empty() {
                "(rejected)"
            } else {
                &t.bench
            },
            t.arrival_ns as f64 / 1e9,
            t.queue_wait_ns as f64 / 1e6,
            depart,
            t.heartbeats,
            100.0 * t.satisfaction(),
            t.flips.len(),
        );
    }

    println!(
        "\nSLO rollup (threshold {}% of rated heartbeats):",
        m.rollup.slo_pct
    );
    println!(
        "  {:<13} {:>8} {:>8} {:>8} {:>16}",
        "class", "tenants", "met", "met%", "heartbeats"
    );
    for (bench, c) in &m.rollup.classes {
        println!(
            "  {:<13} {:>8} {:>8} {:>7.1}% {:>9}/{}",
            bench,
            c.tenants,
            c.met,
            100.0 * c.met_fraction(),
            c.satisfied,
            c.rated,
        );
    }
    println!(
        "\nfleet-wide: {:.1}% of admitted tenants met their SLO; summary fingerprint {:#018x}",
        100.0 * m.rollup.slo_met_fraction(),
        m.fingerprint()
    );
    Ok(())
}
