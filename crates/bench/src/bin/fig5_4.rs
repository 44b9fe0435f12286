//! Reproduces **Figure 5.4** — multi-application performance/watt over
//! the six benchmark pairings for Baseline / CONS-I / MP-HARS-I /
//! MP-HARS-E, normalized to the baseline, with the geometric mean.

use hars_bench::table::{relative, render_table, results_dir, write_csv};
use hars_bench::{figure_multi_app, parse_args, Lab, MpVersionKind};

fn main() {
    let scales = parse_args();
    eprintln!(
        "fig5_4: calibrating power model ({} mode)...",
        if scales.quick { "quick" } else { "full" }
    );
    let lab = if scales.quick {
        Lab::quick()
    } else {
        Lab::new()
    };
    eprintln!("fig5_4: running 6 cases x 4 versions...");
    let fig = figure_multi_app(&lab, &scales.multi);
    let mut rows = fig.rows.clone();
    rows.push(("GM".to_string(), fig.gm.clone()));
    let headers: Vec<&str> = std::iter::once("case")
        .chain(MpVersionKind::ALL.iter().map(|k| k.label()))
        .collect();
    println!(
        "{}",
        render_table(
            "Figure 5.4: multi-application performance/watt (normalized to Baseline)",
            &headers,
            &rows,
        )
    );
    let gm = &fig.gm;
    println!(
        "MP-HARS-E vs Baseline: +{:.0}%   MP-HARS-E vs CONS-I: +{:.0}%",
        (gm[3] - 1.0) * 100.0,
        (gm[3] / gm[1] - 1.0) * 100.0
    );
    let csv = results_dir().join("fig5_4.csv");
    if let Err(e) = write_csv(&csv, &headers, &rows) {
        eprintln!("warning: could not write {}: {e}", csv.display());
    } else {
        println!("wrote {}", relative(&csv).display());
    }
}
