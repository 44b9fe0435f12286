//! Reproduces **Figure 5.3** — efficiency and runtime overhead of HARS
//! versus the explored-space size: (a) GM performance/watt normalized to
//! `d = 1` and (b) manager CPU utilization, for `d ∈ {1,3,5,7,9}` under
//! both targets.

use hars_bench::table::{relative, render_table, results_dir, write_csv};
use hars_bench::{figure_distance_sweep, parse_args, Lab};

fn main() {
    let scales = parse_args();
    eprintln!(
        "fig5_3: calibrating power model ({} mode)...",
        if scales.quick { "quick" } else { "full" }
    );
    let lab = if scales.quick {
        Lab::quick()
    } else {
        Lab::new()
    };
    eprintln!("fig5_3: sweeping d in {{1,3,5,7,9}} x 6 benchmarks x 2 targets...");
    let fig = figure_distance_sweep(&lab, &scales.single);
    let rows_a: Vec<(String, Vec<f64>)> = fig
        .distances
        .iter()
        .enumerate()
        .map(|(i, d)| (format!("d={d}"), vec![fig.pp_default[i], fig.pp_high[i]]))
        .collect();
    println!(
        "{}",
        render_table(
            "Figure 5.3(a): GM perf/watt vs distance (normalized to d=1)",
            &["d", "default", "high"],
            &rows_a,
        )
    );
    let rows_b: Vec<(String, Vec<f64>)> = fig
        .distances
        .iter()
        .enumerate()
        .map(|(i, d)| (format!("d={d}"), vec![fig.cpu_default[i], fig.cpu_high[i]]))
        .collect();
    println!(
        "{}",
        render_table(
            "Figure 5.3(b): manager CPU utilization (%) vs distance",
            &["d", "default", "high"],
            &rows_b,
        )
    );
    let dir = results_dir();
    let _ = write_csv(&dir.join("fig5_3a.csv"), &["d", "default", "high"], &rows_a);
    let _ = write_csv(&dir.join("fig5_3b.csv"), &["d", "default", "high"], &rows_b);
    println!("wrote {}", relative(&dir.join("fig5_3{a,b}.csv")).display());
}
