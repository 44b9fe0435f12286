//! Reproduces **Figure 5.1** — performance/watt of the six PARSEC
//! analogs under the default performance target (50% ± 5% of maximum),
//! for Baseline / SO / HARS-I / HARS-E / HARS-EI, normalized to the
//! baseline, with the geometric-mean bar. Pass `--quick` for a
//! reduced-scale run.

use hars_bench::Cli;

fn main() {
    let cli = Cli::parse();
    hars_bench::experiments::fig5_1(&cli.lab(), &cli.single);
}
