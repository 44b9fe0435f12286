//! Reproduces **Figure 5.2** — performance/watt under the high
//! performance target (75% ± 5% of maximum).

use hars_bench::table::{relative, render_table, results_dir, write_csv};
use hars_bench::{figure_perf_per_watt, parse_args, Lab, Version};

fn main() {
    let scales = parse_args();
    eprintln!(
        "fig5_2: calibrating power model ({} mode)...",
        if scales.quick { "quick" } else { "full" }
    );
    let lab = if scales.quick {
        Lab::quick()
    } else {
        Lab::new()
    };
    eprintln!("fig5_2: running 6 benchmarks x 5 versions...");
    let fig = figure_perf_per_watt(&lab, 0.75, &scales.single);
    let mut rows = fig.rows.clone();
    rows.push(("GM".to_string(), fig.gm.clone()));
    let headers: Vec<&str> = std::iter::once("bench")
        .chain(Version::ALL.iter().map(|v| v.label()))
        .collect();
    println!(
        "{}",
        render_table(
            "Figure 5.2: Performance/watt, high target (normalized to Baseline)",
            &headers,
            &rows,
        )
    );
    let csv = results_dir().join("fig5_2.csv");
    if let Err(e) = write_csv(&csv, &headers, &rows) {
        eprintln!("warning: could not write {}: {e}", csv.display());
    } else {
        println!("wrote {}", relative(&csv).display());
    }
    println!("\nRaw measurements:");
    for (bench, results) in &fig.raw {
        for r in results {
            println!(
                "  {bench:<3} {:<9} rate {:>7.3} hb/s  norm-perf {:>5.3}  {:>6.3} W  pp {:>6.4}",
                r.version, r.rate, r.norm_perf, r.watts, r.perf_per_watt
            );
        }
    }
}
