//! Decision-loop performance baseline: the machine-readable perf
//! numbers (`BENCH_search.json`) behind the decision-loop overhaul —
//! distance-ball enumeration, delta evaluation and the anytime
//! evaluation limit a decision budget sets.
//!
//! For each board (2/3/4/5 clusters) and strategy the bench times
//! full adaptation-period decisions from three representative centers
//! (interior mid-space, the boot-time max state, a small low state)
//! and reports decisions/sec, evaluations per decision, the
//! truncation rate and the measured wall time per evaluated state
//! (`ns_per_eval`). The JSON also records the host's
//! `available_parallelism`. For the exhaustive policy it also reports the
//! enumeration economics: the legacy box odometer's `(m+n+1)^(2N)`
//! iteration count versus the distance-ball enumerator's walk nodes
//! (`hars_core::search::count_enumeration_nodes`).
//!
//! The run self-asserts the overhaul's contracts:
//!
//! 1. on the 4-cluster server the ball enumerator takes ≥ 50× fewer
//!    iterations than the box odometer, and its node count stays
//!    proportional to the candidate count;
//! 2. a strategy run under the evaluation limit a budget buys (the
//!    `budgeted-*` rows: `budget_ns / cost_per_state_ns` evaluations,
//!    set as `SearchContext::eval_limit` the way the managers set it)
//!    never exceeds it by more than the mandatory current-state
//!    evaluation, and reports `truncated` whenever the limit binds;
//! 3. every strategy's decision agrees with itself across repeats
//!    (pure determinism).
//!
//! The bench also *calibrates* the search-overhead model: every
//! `(policy, center, board)` decision contributes one
//! `(evaluated, nodes, wall_ns)` point, and a non-negative
//! least-squares fit of `wall_ns ≈ evaluated·c_state + nodes·c_node`
//! recovers the measured per-evaluation and per-node costs. The fit is
//! printed and written to the JSON report. An earlier run of this fit
//! set `hars_core::config::CALIBRATED_COST_PER_STATE_NS`, which stays
//! fixed (see its doc), so the report is where the current cost is
//! read; the managers charge evaluations only, so the per-node cost is
//! reported as a measurement and backs no constant.
//!
//! ```sh
//! cargo run --release -p hars-bench --bin decision_perf [-- --quick] [--out <path>]
//! ```
//!
//! Without `--out` the report goes to `BENCH_search.json`, the committed
//! full-scale one, or with `--quick` to `BENCH_search_quick.json`.

use std::fmt::Write as _;
use std::time::Instant;

use hars_bench::Cli;
use hars_core::policy::SearchPolicy;
use hars_core::search::{
    count_enumeration_nodes, count_sweep_candidates, SearchConstraints, SearchContext,
    SearchParams, SearchStrategyFactory,
};
use hars_core::{PerfEstimator, PowerEstimator, StateSpace, SystemState};
use heartbeats::PerfTarget;
use hmp_sim::BoardSpec;

const COST_PER_STATE_NS: u64 = 3_000;
/// The anytime allowance under test: 0.3 ms of modeled decision time,
/// i.e. 100 evaluations at the default per-state cost.
const BUDGET_NS: u64 = 300_000;
/// The evaluation limit [`BUDGET_NS`] buys.
const ALLOWANCE: usize = (BUDGET_NS / COST_PER_STATE_NS) as usize;

/// Each row's policy and evaluation limit.
fn policies() -> Vec<(&'static str, SearchPolicy, Option<usize>)> {
    vec![
        ("exhaustive", SearchPolicy::exhaustive_default(), None),
        (
            "budgeted-exh",
            SearchPolicy::exhaustive_default(),
            Some(ALLOWANCE),
        ),
        ("beam(8,7)", SearchPolicy::beam_default(), None),
        ("adaptive-beam", SearchPolicy::adaptive_beam_default(), None),
        (
            "budgeted-beam",
            SearchPolicy::beam_default(),
            Some(ALLOWANCE),
        ),
        ("frontier", SearchPolicy::Frontier, None),
        ("incremental", SearchPolicy::Incremental, None),
    ]
}

/// The three decision centers: interior mid-space (two-sided worst
/// case), the boot-time maximum state, and a small low state.
fn centers(board: &BoardSpec, space: &StateSpace) -> Vec<(&'static str, SystemState, f64)> {
    let interior = {
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
        SystemState::new(&per)
    };
    let low = {
        let per: Vec<(usize, hmp_sim::FreqKhz)> = board
            .cluster_ids()
            .map(|c| (usize::from(c.index() == 0), board.ladder(c).min()))
            .collect();
        SystemState::new(&per)
    };
    // Over-performing from the interior and max states (shrink
    // searches), under-performing from the low state (grow search).
    vec![
        ("interior", interior, 30.0),
        ("max", space.max_state(), 30.0),
        ("low", low, 2.0),
    ]
}

struct Row {
    policy: &'static str,
    decisions: usize,
    explored: usize,
    evaluated: usize,
    truncated: usize,
    micros_per_decision: f64,
    decisions_per_sec: f64,
    /// Measured wall time per evaluated state (the decisions' total
    /// over their total evaluations).
    ns_per_eval: f64,
}

/// One measured decision, for the overhead-model fit.
struct FitPoint {
    evaluated: f64,
    nodes: f64,
    wall_ns: f64,
}

struct BoardReport {
    name: String,
    clusters: usize,
    exhaustive_candidates: u128,
    box_iterations: f64,
    ball_nodes: u64,
    rows: Vec<Row>,
    fit_points: Vec<FitPoint>,
}

/// Non-negative least squares of `wall ≈ evaluated·c_state +
/// nodes·c_node` via the 2×2 normal equations, falling back to the
/// single-variable fit when the full solution goes negative (the
/// per-node share can be indistinguishable from zero on fast builds).
fn fit_costs(points: &[FitPoint]) -> (f64, f64) {
    let (mut see, mut sen, mut snn, mut sew, mut snw) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for p in points {
        see += p.evaluated * p.evaluated;
        sen += p.evaluated * p.nodes;
        snn += p.nodes * p.nodes;
        sew += p.evaluated * p.wall_ns;
        snw += p.nodes * p.wall_ns;
    }
    let det = see * snn - sen * sen;
    if det.abs() > 1e-9 {
        let c_state = (sew * snn - snw * sen) / det;
        let c_node = (snw * see - sew * sen) / det;
        if c_state >= 0.0 && c_node >= 0.0 {
            return (c_state, c_node);
        }
    }
    // Degenerate or sign-violating: attribute everything to the
    // dominant regressor.
    if see > 0.0 && (snn == 0.0 || sew / see >= snw / snn.max(1e-12)) {
        ((sew / see).max(0.0), 0.0)
    } else if snn > 0.0 {
        (0.0, (snw / snn).max(0.0))
    } else {
        (0.0, 0.0)
    }
}

fn measure_board(board: &BoardSpec, quick: bool) -> BoardReport {
    let space = StateSpace::from_board(board);
    let perf = PerfEstimator::from_board(board);
    let power = PowerEstimator::synthetic_for_board(board);
    let constraints = SearchConstraints::unrestricted(&space);
    let target = PerfTarget::new(9.0, 11.0).expect("valid band");
    let threads = board.n_cores().min(16);
    let centers = centers(board, &space);
    let params = SearchParams::exhaustive();

    // Enumeration economics from the interior center (the two-sided
    // worst case the ROADMAP's odometer-waste item measured).
    let interior_ctx = SearchContext {
        space: &space,
        current: &centers[0].1,
        observed_rate: centers[0].2,
        threads,
        target: &target,
        constraints: &constraints,
        perf: &perf,
        power: &power,
        tabu: &[],
        eval_limit: None,
    };
    let exhaustive_candidates = count_sweep_candidates(&interior_ctx, params);
    let ball_nodes = count_enumeration_nodes(&interior_ctx, params);
    let box_iterations = ((params.m + params.n + 1) as f64).powi(2 * space.n_clusters() as i32);

    let mut rows = Vec::new();
    let mut fit_points = Vec::new();
    for (name, policy, eval_limit) in policies() {
        let mut explored = 0usize;
        let mut evaluated = 0usize;
        let mut truncated = 0usize;
        let mut decisions = 0usize;
        let mut best_secs_total = 0.0f64;
        for (_, center, rate) in &centers {
            let ctx = SearchContext {
                space: &space,
                current: center,
                observed_rate: *rate,
                threads,
                target: &target,
                constraints: &constraints,
                perf: &perf,
                power: &power,
                tabu: &[],
                eval_limit,
            };
            let strategy = policy.strategy_for(*rate > target.avg(), COST_PER_STATE_NS);
            let t0 = Instant::now();
            let mut out = strategy.next_state(&ctx);
            let mut best = t0.elapsed().as_secs_f64();
            let reps = if best > 0.05 {
                0
            } else if quick {
                2
            } else {
                8
            };
            for _ in 0..reps {
                let t0 = Instant::now();
                let again = strategy.next_state(&ctx);
                assert_eq!(again.state, out.state, "{name}: decision must be pure");
                assert_eq!(again.stats, out.stats);
                best = best.min(t0.elapsed().as_secs_f64());
                out = again;
            }
            if let Some(limit) = eval_limit {
                assert!(
                    out.stats.evaluated <= limit + 1,
                    "{name} on {}: {} evaluations exceed the {limit}-evaluation budget + 1",
                    board.name,
                    out.stats.evaluated
                );
            }
            explored += out.stats.explored;
            evaluated += out.stats.evaluated;
            truncated += usize::from(out.stats.truncated);
            decisions += 1;
            best_secs_total += best;
            fit_points.push(FitPoint {
                evaluated: out.stats.evaluated as f64,
                nodes: out.stats.nodes as f64,
                wall_ns: best * 1e9,
            });
        }
        let micros = 1e6 * best_secs_total / decisions as f64;
        rows.push(Row {
            ns_per_eval: 1e9 * best_secs_total / evaluated as f64,
            policy: name,
            decisions,
            explored: explored / decisions,
            evaluated: evaluated / decisions,
            truncated,
            micros_per_decision: micros,
            decisions_per_sec: 1e6 / micros,
        });
    }
    BoardReport {
        name: board.name.clone(),
        clusters: board.n_clusters(),
        exhaustive_candidates,
        box_iterations,
        ball_nodes,
        rows,
        fit_points,
    }
}

fn render_json(
    reports: &[BoardReport],
    quick: bool,
    cores: usize,
    calibration: (f64, f64, usize),
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"decision_perf\",");
    let _ = writeln!(
        s,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(s, "  \"available_parallelism\": {cores},");
    let _ = writeln!(s, "  \"cost_per_state_ns\": {COST_PER_STATE_NS},");
    let _ = writeln!(s, "  \"budget_ns\": {BUDGET_NS},");
    let (cal_state, cal_node, cal_points) = calibration;
    let _ = writeln!(
        s,
        "  \"calibration\": {{ \"cost_per_state_ns\": {cal_state:.1}, \
         \"cost_per_node_ns\": {cal_node:.2}, \"points\": {cal_points} }},"
    );
    let _ = writeln!(s, "  \"boards\": [");
    for (bi, r) in reports.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"board\": \"{}\",", r.name);
        let _ = writeln!(s, "      \"clusters\": {},", r.clusters);
        let _ = writeln!(
            s,
            "      \"exhaustive\": {{ \"candidates\": {}, \"box_iterations\": {:.0}, \
             \"ball_nodes\": {}, \"iteration_speedup_x\": {:.1} }},",
            r.exhaustive_candidates,
            r.box_iterations,
            r.ball_nodes,
            r.box_iterations / r.ball_nodes as f64
        );
        let _ = writeln!(s, "      \"strategies\": [");
        for (i, row) in r.rows.iter().enumerate() {
            let _ = writeln!(
                s,
                "        {{ \"policy\": \"{}\", \"decisions\": {}, \"explored\": {}, \
                 \"evaluated\": {}, \"truncated\": {}, \"truncation_rate\": {:.3}, \
                 \"micros_per_decision\": {:.1}, \"decisions_per_sec\": {:.1}, \
                 \"ns_per_eval\": {:.1} }}{}",
                row.policy,
                row.decisions,
                row.explored,
                row.evaluated,
                row.truncated,
                row.truncated as f64 / row.decisions as f64,
                row.micros_per_decision,
                row.decisions_per_sec,
                row.ns_per_eval,
                if i + 1 == r.rows.len() { "" } else { "," }
            );
        }
        let _ = writeln!(s, "      ]");
        let _ = writeln!(
            s,
            "    }}{}",
            if bi + 1 == reports.len() { "" } else { "," }
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = write!(s, "}}");
    s
}

fn main() {
    let cli = Cli::parse();
    let quick = cli.quick;
    let out_path = cli.out("search");

    println!(
        "decision_perf ({} mode): decision-loop cost per strategy × board\n",
        if quick { "quick" } else { "full" }
    );
    println!(
        "{:<28} {:>2}  {:<14} {:>10} {:>10} {:>6} {:>11} {:>12} {:>8}",
        "board",
        "N",
        "policy",
        "explored",
        "evaluated",
        "trunc",
        "µs/decision",
        "decisions/s",
        "ns/eval"
    );

    let boards = [
        BoardSpec::odroid_xu3(),
        BoardSpec::dynamiq_1p_3m_4l(),
        BoardSpec::server_4c_32core(),
        BoardSpec::server_5c_48core(),
    ];
    let mut reports = Vec::new();
    for board in &boards {
        let report = measure_board(board, quick);
        for row in &report.rows {
            println!(
                "{:<28} {:>2}  {:<14} {:>10} {:>10} {:>4}/{} {:>10.0}µ {:>12.1} {:>8.1}",
                report.name,
                report.clusters,
                row.policy,
                row.explored,
                row.evaluated,
                row.truncated,
                row.decisions,
                row.micros_per_decision,
                row.decisions_per_sec,
                row.ns_per_eval
            );
        }
        println!(
            "{:<28}     enumeration: {:.3e} box iterations -> {} ball nodes \
             ({:.0}x fewer) for {} candidates",
            "",
            report.box_iterations,
            report.ball_nodes,
            report.box_iterations / report.ball_nodes as f64,
            report.exhaustive_candidates,
        );
        reports.push(report);
    }

    // --- contract 1: ball enumeration beats the box odometer ≥ 50× on
    // the 4-cluster server, with nodes proportional to candidates.
    let four = reports
        .iter()
        .find(|r| r.clusters == 4)
        .expect("4-cluster board measured");
    let speedup = four.box_iterations / four.ball_nodes as f64;
    assert!(
        speedup >= 50.0,
        "4-cluster enumeration speedup {speedup:.1}x below the 50x contract"
    );
    assert!(
        (four.ball_nodes as u128) <= 10 * four.exhaustive_candidates,
        "ball nodes {} not proportional to the candidate count {}",
        four.ball_nodes,
        four.exhaustive_candidates
    );
    println!(
        "\nPASS enumeration: 4-cluster exhaustive takes {:.0}x fewer iterations than the \
         legacy box odometer ({} nodes for {} candidates)",
        speedup, four.ball_nodes, four.exhaustive_candidates
    );

    // --- contract 2: budgets bind (and stay bound) on the big boards.
    for r in &reports {
        let budgeted = r
            .rows
            .iter()
            .find(|row| row.policy == "budgeted-exh")
            .expect("budgeted row");
        let exhaustive = r
            .rows
            .iter()
            .find(|row| row.policy == "exhaustive")
            .expect("exhaustive row");
        if exhaustive.evaluated > ALLOWANCE * 2 {
            assert!(
                budgeted.truncated > 0,
                "{}: a binding budget must truncate",
                r.name
            );
        }
    }
    println!(
        "PASS budget: truncation reported wherever the {}-evaluation allowance binds, \
         never exceeded by more than one evaluation",
        ALLOWANCE
    );

    // --- overhead-model calibration: fit the measured wall times.
    let points: Vec<FitPoint> = reports
        .iter_mut()
        .flat_map(|r| std::mem::take(&mut r.fit_points))
        .collect();
    let (cal_state, cal_node) = fit_costs(&points);
    println!(
        "\ncalibration: wall_ns ~= evaluated x {cal_state:.1} + nodes x {cal_node:.2} \
         (fit over {} decisions; see hars_core::config::CALIBRATED_COST_PER_STATE_NS)",
        points.len()
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = render_json(&reports, quick, cores, (cal_state, cal_node, points.len()));
    std::fs::write(&out_path, &json).expect("write search bench JSON");
    println!("\nwrote {out_path}");
}
