//! Reproduces **Figure 5.2** — performance/watt under the high
//! performance target (75% ± 5% of maximum). Pass `--quick` for a
//! reduced-scale run.

use hars_bench::Cli;

fn main() {
    let cli = Cli::parse();
    hars_bench::experiments::fig5_2(&cli.lab(), &cli.single);
}
