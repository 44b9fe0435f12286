//! Runs the complete evaluation — every table and figure of the paper's
//! Chapter 5 — in order, in this process, over one calibrated lab. Pass
//! `--quick` for a reduced-scale pass. A failing experiment (one that
//! panics) does not stop the others; the run then exits non-zero naming
//! every one that failed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use hars_bench::experiments::{fig5_1, fig5_2, fig5_3, fig5_4, fig5_5_6_7, table3_1, table4_3};
use hars_bench::Cli;

fn main() -> ExitCode {
    let cli = Cli::parse();
    let lab = cli.lab();
    let (single, multi) = (&cli.single, &cli.multi);
    let experiments: [(&str, &dyn Fn()); 7] = [
        ("table3_1", &table3_1),
        ("table4_3", &table4_3),
        ("fig5_1", &|| fig5_1(&lab, single)),
        ("fig5_2", &|| fig5_2(&lab, single)),
        ("fig5_3", &|| fig5_3(&lab, single)),
        ("fig5_4", &|| fig5_4(&lab, multi)),
        ("fig5_5_6_7", &|| fig5_5_6_7(&lab, multi)),
    ];
    let mut failed = Vec::new();
    for (name, run) in experiments {
        println!("\n================ {name} ================\n");
        // The lab and scales are only read, so a panic leaves nothing
        // half-updated for the experiments after it.
        if catch_unwind(AssertUnwindSafe(run)).is_err() {
            eprintln!("{name} failed");
            failed.push(name);
        }
    }
    if !failed.is_empty() {
        eprintln!("experiments failed: {}", failed.join(", "));
        return ExitCode::FAILURE;
    }
    println!("\nAll experiments complete. CSVs are under results/.");
    ExitCode::SUCCESS
}
