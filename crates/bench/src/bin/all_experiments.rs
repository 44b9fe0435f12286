//! Runs the complete evaluation — every table and figure of the paper's
//! Chapter 5 — in order. Pass `--quick` for a reduced-scale pass. Exits
//! non-zero when any experiment fails or cannot be launched.

use std::process::{Command, ExitCode};

/// Runs one experiment bin; `false` when it exits non-zero or cannot be
/// launched.
fn run(bin: &str, quick: bool) -> bool {
    println!("\n================ {bin} ================\n");
    let mut cmd = Command::new(std::env::current_exe().unwrap().parent().unwrap().join(bin));
    if quick {
        cmd.arg("--quick");
    }
    match cmd.status() {
        Ok(s) if s.success() => true,
        Ok(s) => {
            eprintln!("{bin} exited with {s}");
            false
        }
        Err(e) => {
            eprintln!("failed to launch {bin}: {e}");
            false
        }
    }
}

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick" || a == "-q");
    let mut failed = Vec::new();
    for bin in [
        "table3_1",
        "table4_3",
        "fig5_1",
        "fig5_2",
        "fig5_3",
        "fig5_4",
        "fig5_5_6_7",
    ] {
        if !run(bin, quick) {
            failed.push(bin);
        }
    }
    if !failed.is_empty() {
        eprintln!("experiments failed: {}", failed.join(", "));
        return ExitCode::FAILURE;
    }
    println!("\nAll experiments complete. CSVs are under results/.");
    ExitCode::SUCCESS
}
