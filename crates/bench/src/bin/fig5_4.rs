//! Reproduces **Figure 5.4** — multi-application performance/watt over
//! the six benchmark pairings for Baseline / CONS-I / MP-HARS-I /
//! MP-HARS-E, normalized to the baseline, with the geometric mean.
//! Pass `--quick` for a reduced-scale run.

use hars_bench::Cli;

fn main() {
    let cli = Cli::parse();
    hars_bench::experiments::fig5_4(&cli.lab(), &cli.multi);
}
