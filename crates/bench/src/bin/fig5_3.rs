//! Reproduces **Figure 5.3** — efficiency and runtime overhead of HARS
//! versus the explored-space size: (a) GM performance/watt normalized to
//! `d = 1` and (b) manager CPU utilization, for `d ∈ {1,3,5,7,9}` under
//! both targets. Pass `--quick` for a reduced-scale run.

use hars_bench::Cli;

fn main() {
    let cli = Cli::parse();
    hars_bench::experiments::fig5_3(&cli.lab(), &cli.single);
}
