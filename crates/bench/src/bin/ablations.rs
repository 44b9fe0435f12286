//! Ablation studies of the design choices DESIGN.md calls out and the
//! paper's Section 3.1.4 extensions:
//!
//! 1. **ratio learning** — online refinement of `r₀` (the paper's
//!    proposed fix for blackscholes' mis-modeled big/little ratio);
//! 2. **Kalman workload predictor** vs the last-value default;
//! 3. **tabu search** vs plain neighborhood search (escape from local
//!    optima on the stable-workload benchmark);
//! 4. **chunk vs interleaving scheduler** across the whole suite.

use hars_bench::table::render_table;
use hars_bench::{measure_max_rate, seed_for, target_for, Cli, Lab, RunScale};
use hars_core::driver::run_single_app;
use hars_core::policy::{hars_e, hars_ei};
use hars_core::{HarsConfig, Predictor, RatioLearning, RuntimeManager};
use heartbeats::PerfTarget;
use hmp_sim::clock::secs_to_ns;
use workloads::Benchmark;

fn run_with(
    lab: &Lab,
    bench: Benchmark,
    target: &PerfTarget,
    scale: &RunScale,
    cfg: HarsConfig,
) -> (f64, f64) {
    let mut engine = lab.engine();
    let spec = bench.spec_with_budget(8, seed_for(bench), scale.hb_budget);
    let threads = spec.threads;
    let app = engine.add_app(spec).expect("preset validates");
    let mut manager = RuntimeManager::new(
        &lab.board,
        *target,
        lab.perf_est,
        lab.power_est.clone(),
        threads,
        cfg,
    );
    let out = run_single_app(
        &mut engine,
        app,
        &mut manager,
        secs_to_ns(scale.deadline_secs),
        false,
    )
    .expect("driver succeeds");
    (out.norm_perf, out.perf_per_watt)
}

fn main() {
    let cli = Cli::parse();
    let lab = cli.lab();
    let scale = cli.single;

    // --- Ablation 1 & 3: blackscholes, the mis-modeled benchmark. ---
    let bl = Benchmark::Blackscholes;
    let max = measure_max_rate(&lab, bl, 8, seed_for(bl));
    let target = target_for(max, 0.5);
    let base_cfg = HarsConfig::from_variant(hars_e());
    let variants: Vec<(&str, HarsConfig)> = vec![
        ("HARS-E (paper)", base_cfg.clone()),
        (
            "+ ratio learning",
            HarsConfig {
                ratio_learning: RatioLearning::FastOnly,
                ..base_cfg.clone()
            },
        ),
        (
            "+ per-cluster learning",
            HarsConfig {
                ratio_learning: RatioLearning::PerCluster,
                ..base_cfg.clone()
            },
        ),
        (
            "+ tabu (len 6)",
            HarsConfig {
                tabu_len: 6,
                ..base_cfg.clone()
            },
        ),
        (
            "+ kalman predictor",
            HarsConfig {
                predictor: Predictor::kalman(),
                ..base_cfg.clone()
            },
        ),
        (
            "+ all three",
            HarsConfig {
                ratio_learning: RatioLearning::FastOnly,
                tabu_len: 6,
                predictor: Predictor::kalman(),
                ..base_cfg.clone()
            },
        ),
    ];
    let rows: Vec<(String, Vec<f64>)> = variants
        .iter()
        .map(|(name, cfg)| {
            let (np, pp) = run_with(&lab, bl, &target, &scale, cfg.clone());
            (name.to_string(), vec![np, pp])
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Ablation: Section 3.1.4 extensions on blackscholes (true r = 1.0, assumed 1.5)",
            &["variant", "norm-perf", "perf/watt"],
            &rows,
        )
    );

    // --- Ablation 4: scheduler choice across the suite. ---
    let mut rows = Vec::new();
    for bench in Benchmark::ALL {
        let max = measure_max_rate(&lab, bench, 8, seed_for(bench));
        let target = target_for(max, 0.5);
        let (_, pp_chunk) = run_with(
            &lab,
            bench,
            &target,
            &scale,
            HarsConfig::from_variant(hars_e()),
        );
        let (_, pp_il) = run_with(
            &lab,
            bench,
            &target,
            &scale,
            HarsConfig::from_variant(hars_ei()),
        );
        rows.push((
            bench.abbrev().to_string(),
            vec![pp_chunk, pp_il, pp_il / pp_chunk],
        ));
    }
    println!(
        "{}",
        render_table(
            "Ablation: chunk vs interleaving scheduler (perf/watt)",
            &["bench", "chunk", "interleave", "ratio"],
            &rows,
        )
    );
}
