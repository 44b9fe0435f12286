//! Search scaling across cluster counts: decision cost and decision
//! quality of the pluggable search strategies.
//!
//! Two sections:
//!
//! 1. **Decision cost** — one adaptation-period search from an
//!    interior mid-space state (half cores, mid ladder levels: the
//!    two-sided worst case) on 2/3/4/5-cluster boards, per policy:
//!    candidates explored, distinct states evaluated, incumbent rank
//!    changes and wall time, against the closed-form exhaustive
//!    candidate count (`hars_core::search::count_sweep_candidates`).
//!    On the 5-cluster 48-core server the exhaustive sweep would walk
//!    `9^10 ≈ 3.5·10⁹` odometer steps, so only the yardstick is
//!    computed there.
//! 2. **Decision quality** — full HARS runs on the boards where the
//!    exhaustive sweep is still tractable (ODROID-XU3, DynamIQ
//!    tri-cluster): rate satisfaction (normalized performance) and
//!    perf/watt per policy, relative to the exhaustive policy.
//!
//! The run asserts the scaling contract: on `server_5c_48core()` the
//! beam and frontier policies explore ≤ 5% (measured: ~0.1–0.2%) of
//! the exhaustive candidate count, while staying within 5% of the
//! exhaustive policy's perf/watt on the tri-cluster board.
//!
//! ```sh
//! cargo run --release -p hars-bench --bin search_scaling [-- --quick]
//! ```

use std::time::Instant;

use hars_core::calibrate::run_power_calibration;
use hars_core::policy::SearchPolicy;
use hars_core::search::{
    count_sweep_candidates, SearchConstraints, SearchContext, SearchParams, SearchStrategyFactory,
};
use hars_core::{
    run_single_app, HarsConfig, PerfEstimator, PowerEstimator, RuntimeManager, StateSpace,
};
use heartbeats::PerfTarget;
use hmp_sim::clock::secs_to_ns;
use hmp_sim::microbench::CalibrationConfig;
use hmp_sim::{AppSpec, BoardSpec, Engine, EngineConfig, SpeedProfile};

/// The policies under comparison, in report order.
fn policies() -> Vec<(&'static str, SearchPolicy)> {
    vec![
        ("exhaustive", SearchPolicy::exhaustive_default()),
        ("beam(8,7)", SearchPolicy::beam_default()),
        ("frontier", SearchPolicy::Frontier),
        ("incremental", SearchPolicy::Incremental),
    ]
}

struct CostRow {
    policy: &'static str,
    explored: usize,
    evaluated: usize,
    rank_changes: usize,
    micros: f64,
}

fn cost_section(quick: bool) -> (u128, Vec<(String, Vec<CostRow>)>) {
    let boards = [
        BoardSpec::odroid_xu3(),
        BoardSpec::dynamiq_1p_3m_4l(),
        BoardSpec::server_4c_32core(),
        BoardSpec::server_5c_48core(),
    ];
    let mut server5_exhaustive_count = 0u128;
    let mut all_rows = Vec::new();
    println!("== decision cost: one over-performing adaptation from a mid-space state ==");
    println!(
        "{:<28} {:>2}  {:<12} {:>12} {:>10} {:>6} {:>10}  {:>14}",
        "board", "N", "policy", "explored", "evaluated", "best", "time", "% of exhaustive"
    );
    for board in boards {
        let n = board.n_clusters();
        let space = StateSpace::from_board(&board);
        let perf = PerfEstimator::from_board(&board);
        let power = PowerEstimator::synthetic_for_board(&board);
        let constraints = SearchConstraints::unrestricted(&space);
        let target = PerfTarget::new(9.0, 11.0).expect("valid band");
        // An interior state (half the cores, mid ladder levels): the
        // steady-state case where the sweep's neighborhood is two-sided
        // in every dimension — the worst case for candidate counts.
        let current = {
            let per: Vec<(usize, hmp_sim::FreqKhz)> = board
                .cluster_ids()
                .map(|c| {
                    let ladder = board.ladder(c);
                    (
                        board.cluster_size(c).div_ceil(2),
                        ladder.level(ladder.len() / 2).expect("mid level"),
                    )
                })
                .collect();
            hars_core::SystemState::new(&per)
        };
        let threads = board.n_cores().min(16);
        let ctx = SearchContext {
            space: &space,
            current: &current,
            observed_rate: 30.0,
            threads,
            target: &target,
            constraints: &constraints,
            perf: &perf,
            power: &power,
            tabu: &[],
            eval_limit: None,
        };
        let exhaustive_count = count_sweep_candidates(&ctx, SearchParams::exhaustive());
        if n == 5 {
            server5_exhaustive_count = exhaustive_count;
        }
        let mut rows = Vec::new();
        for (name, policy) in policies() {
            // The full sweep is only run where it is tractable; its
            // candidate count is exact everywhere via the closed form.
            if name == "exhaustive" && n > 4 {
                println!(
                    "{:<28} {:>2}  {:<12} {:>12.3e} {:>10} {:>6} {:>10}  {:>14}",
                    board.name, n, name, exhaustive_count as f64, "-", "-", "(skipped)", "100%"
                );
                continue;
            }
            let strategy = policy.strategy_for(true, 3_000);
            let t0 = Instant::now();
            let mut out = strategy.next_state(&ctx);
            let mut best_micros = t0.elapsed().as_secs_f64() * 1e6;
            // Re-time fast searches for a stable minimum; slow sweeps
            // (the 43M-step 4-cluster odometer) are measured once.
            let reps = if best_micros > 50_000.0 {
                0
            } else if quick {
                3
            } else {
                10
            };
            for _ in 0..reps {
                let t0 = Instant::now();
                out = strategy.next_state(&ctx);
                best_micros = best_micros.min(t0.elapsed().as_secs_f64() * 1e6);
            }
            let pct = 100.0 * out.stats.explored as f64 / exhaustive_count as f64;
            println!(
                "{:<28} {:>2}  {:<12} {:>12} {:>10} {:>6} {:>9.0}µ  {:>13.4}%",
                board.name,
                n,
                name,
                out.stats.explored,
                out.stats.evaluated,
                out.stats.best_rank_changes,
                best_micros,
                pct
            );
            rows.push(CostRow {
                policy: name,
                explored: out.stats.explored,
                evaluated: out.stats.evaluated,
                rank_changes: out.stats.best_rank_changes,
                micros: best_micros,
            });
        }
        all_rows.push((board.name.clone(), rows));
    }
    (server5_exhaustive_count, all_rows)
}

struct QualityRow {
    policy: &'static str,
    avg_rate: f64,
    norm_perf: f64,
    avg_watts: f64,
    perf_per_watt: f64,
    adaptations: u64,
    evaluated: usize,
}

fn quality_runs(board: &BoardSpec, quick: bool) -> Vec<QualityRow> {
    let engine_cfg = EngineConfig {
        hb_window: 10,
        ..EngineConfig::default()
    };
    let cal = if quick {
        CalibrationConfig::quick()
    } else {
        CalibrationConfig::default()
    };
    let power = run_power_calibration(board, &engine_cfg, &cal).expect("valid board");

    let threads = 8;
    let mut spec = AppSpec::data_parallel("scaling-app", threads, 800.0);
    spec.speed = SpeedProfile::compute_bound(board.max_perf_ratio());
    spec.max_heartbeats = Some(if quick { 200 } else { 500 });

    // Baseline (GTS at the max state) sets the target.
    let mut engine = Engine::new(board.clone(), engine_cfg.clone());
    let app = engine.add_app(spec.clone()).expect("spec validates");
    engine.run_while_active(secs_to_ns(240.0));
    let base_rate = engine
        .monitor(app)
        .expect("registered")
        .global_rate()
        .expect("heartbeats observed")
        .heartbeats_per_sec();
    let target = PerfTarget::from_center(0.5 * base_rate, 0.10).expect("valid target");

    let mut rows = Vec::new();
    for (name, policy) in policies() {
        let mut engine = Engine::new(board.clone(), engine_cfg.clone());
        let app = engine.add_app(spec.clone()).expect("spec validates");
        let perf = PerfEstimator::from_board(board);
        let mut manager = RuntimeManager::new(
            board,
            target,
            perf,
            power.clone(),
            threads,
            HarsConfig {
                policy,
                ..HarsConfig::default()
            },
        );
        let out = run_single_app(&mut engine, app, &mut manager, secs_to_ns(480.0), false)
            .expect("driver runs");
        rows.push(QualityRow {
            policy: name,
            avg_rate: out.avg_rate,
            norm_perf: out.norm_perf,
            avg_watts: out.avg_watts,
            perf_per_watt: out.perf_per_watt,
            adaptations: out.adaptations,
            evaluated: out.search_stats.evaluated,
        });
    }
    rows
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "-q");
    println!(
        "search_scaling ({} mode): pluggable strategies across 2/3/4/5-cluster boards\n",
        if quick { "quick" } else { "full" }
    );

    let (server5_count, cost_rows) = cost_section(quick);

    println!("\n== decision quality: full runs where exhaustive is tractable ==");
    println!(
        "{:<28} {:<12} {:>9} {:>10} {:>8} {:>11} {:>7} {:>10} {:>8}",
        "board",
        "policy",
        "rate",
        "norm perf",
        "watts",
        "perf/watt",
        "adapts",
        "evaluated",
        "vs exh"
    );
    let mut dynamiq_quality: Vec<(String, f64, f64)> = Vec::new();
    for board in [BoardSpec::odroid_xu3(), BoardSpec::dynamiq_1p_3m_4l()] {
        let rows = quality_runs(&board, quick);
        let exh_pp = rows
            .iter()
            .find(|r| r.policy == "exhaustive")
            .map(|r| r.perf_per_watt)
            .expect("exhaustive row");
        for r in &rows {
            let rel = if exh_pp > 0.0 {
                100.0 * r.perf_per_watt / exh_pp
            } else {
                0.0
            };
            println!(
                "{:<28} {:<12} {:>9.2} {:>10.3} {:>8.2} {:>11.4} {:>7} {:>10} {:>7.1}%",
                board.name,
                r.policy,
                r.avg_rate,
                r.norm_perf,
                r.avg_watts,
                r.perf_per_watt,
                r.adaptations,
                r.evaluated,
                rel
            );
            if board.n_clusters() == 3 {
                dynamiq_quality.push((r.policy.to_string(), r.perf_per_watt, exh_pp));
            }
        }
    }

    // --- the scaling contract the ROADMAP item asked for -------------
    let server5 = cost_rows
        .iter()
        .find(|(name, _)| name.contains("5-cluster"))
        .expect("server board measured");
    for row in &server5.1 {
        if row.policy == "beam(8,7)" || row.policy == "frontier" {
            let pct = 100.0 * row.explored as f64 / server5_count as f64;
            assert!(
                pct <= 5.0,
                "{} explored {:.4}% of exhaustive on the 5-cluster server (limit 5%)",
                row.policy,
                pct
            );
            println!(
                "\nPASS {}: {} explored / {:.3e} exhaustive candidates = {:.6}% (≤ 5%), \
                 {} evaluations in {:.0}µs ({} rank changes)",
                row.policy,
                row.explored,
                server5_count as f64,
                pct,
                row.evaluated,
                row.micros,
                row.rank_changes
            );
        }
    }
    for (policy, pp, exh_pp) in &dynamiq_quality {
        if policy == "beam(8,7)" || policy == "frontier" {
            let rel = pp / exh_pp;
            assert!(
                *pp >= 0.95 * exh_pp,
                "{policy} perf/watt {pp:.4} fell below 95% of exhaustive ({exh_pp:.4}) \
                 on the tri-cluster board"
            );
            println!(
                "PASS {policy}: tri-cluster perf/watt {:.1}% of exhaustive (≥ 95%)",
                100.0 * rel
            );
        }
    }
}
