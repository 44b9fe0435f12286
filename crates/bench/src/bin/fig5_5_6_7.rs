//! Reproduces **Figures 5.5–5.7** — the behavior graphs of case 4
//! (bodytrack + fluidanimate) under CONS-I, MP-HARS-I and MP-HARS-E:
//! per-heartbeat HPS, allocated core counts and cluster frequencies.
//! Pass `--quick` for a reduced-scale run.

use hars_bench::Cli;

fn main() {
    let cli = Cli::parse();
    hars_bench::experiments::fig5_5_6_7(&cli.lab(), &cli.multi);
}
