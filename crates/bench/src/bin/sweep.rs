//! Parameterized single-run experiments for exploration beyond the
//! paper's figures.
//!
//! ```sh
//! sweep <bench> [--version baseline|so|hars-i|hars-e|hars-ei]
//!               [--target <frac>] [--budget <heartbeats>] [--quick]
//! # e.g.
//! cargo run --release -p hars-bench --bin sweep -- ferret --version hars-ei --target 0.6
//! ```

use hars_bench::{measure_max_rate, run_version, seed_for, target_for, Cli, Version};
use workloads::Benchmark;

fn usage() -> ! {
    eprintln!(
        "usage: sweep <bench: BL|BO|FA|FE|FL|SW|name> \
         [--version baseline|so|hars-i|hars-e|hars-ei] \
         [--target <frac 0-1>] [--budget <heartbeats>] [--quick]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let Some(bench) = Benchmark::parse(&args[0]) else {
        eprintln!("unknown benchmark {:?}", args[0]);
        usage();
    };
    let cli = Cli::parse();
    let mut version = Version::HarsE;
    let mut target_frac = 0.5f64;
    let mut budget: Option<u64> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--version" => {
                i += 1;
                version = match args.get(i).map(|s| s.as_str()) {
                    Some("baseline") => Version::Baseline,
                    Some("so") => Version::StaticOptimal,
                    Some("hars-i") => Version::HarsI,
                    Some("hars-e") => Version::HarsE,
                    Some("hars-ei") => Version::HarsEI,
                    _ => usage(),
                };
            }
            "--target" => {
                i += 1;
                target_frac = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                if !(0.05..=0.95).contains(&target_frac) {
                    eprintln!("target fraction must be in [0.05, 0.95]");
                    std::process::exit(2);
                }
            }
            "--budget" => {
                i += 1;
                budget = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            // Read by `Cli`.
            "--quick" | "-q" => {}
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
        i += 1;
    }
    let mut scale = cli.single;
    if let Some(b) = budget {
        scale.hb_budget = b;
    }
    let lab = cli.lab();
    let max = measure_max_rate(&lab, bench, 8, seed_for(bench));
    let target = target_for(max, target_frac);
    println!(
        "{}: max {:.2} hb/s, target [{:.2}, {:.2}] ({}% of max)",
        bench.name(),
        max,
        target.min(),
        target.max(),
        (target_frac * 100.0) as u32
    );
    let r = run_version(&lab, bench, version, &target, &scale, false);
    println!(
        "{:<9} rate {:>7.3} hb/s  norm-perf {:>5.3}  {:>6.3} W  perf/watt {:>7.4}  cpu {:.2}%  {} adaptations",
        r.version, r.rate, r.norm_perf, r.watts, r.perf_per_watt, r.cpu_percent, r.adaptations
    );
}
