//! Reproduces **Figures 5.5–5.7** — the behavior graphs of case 4
//! (bodytrack + fluidanimate) under CONS-I, MP-HARS-I and MP-HARS-E:
//! per-heartbeat HPS, allocated core counts and cluster frequencies.

use hars_bench::table::{relative, render_series, render_table, results_dir, write_csv};
use hars_bench::{behavior_trace, parse_args, Lab, MpVersionKind};
use hars_core::driver::BehaviorSample;
use hmp_sim::ClusterId;

const B: ClusterId = ClusterId::BIG;
const L: ClusterId = ClusterId::LITTLE;

fn trace_rows(samples: &[BehaviorSample]) -> Vec<(String, Vec<f64>)> {
    samples
        .iter()
        .map(|s| {
            (
                s.hb_index.to_string(),
                vec![
                    s.rate.unwrap_or(0.0),
                    s.state.cores(B) as f64,
                    s.state.cores(L) as f64,
                    s.state.freq(B).ghz(),
                    s.state.freq(L).ghz(),
                ],
            )
        })
        .collect()
}

fn summarize(label: &str, samples: &[BehaviorSample], band: (f64, f64)) {
    if samples.is_empty() {
        println!("{label}: no samples");
        return;
    }
    let rates: Vec<f64> = samples.iter().filter_map(|s| s.rate).collect();
    let in_band = rates
        .iter()
        .filter(|r| **r >= band.0 && **r <= band.1)
        .count();
    let mean =
        |x: fn(&BehaviorSample) -> f64| samples.iter().map(x).sum::<f64>() / samples.len() as f64;
    let mean_b = mean(|s| s.state.cores(B) as f64);
    let mean_l = mean(|s| s.state.cores(L) as f64);
    let mean_fb = mean(|s| s.state.freq(B).ghz());
    let mean_fl = mean(|s| s.state.freq(L).ghz());
    println!(
        "{label}: {} heartbeats, {:.0}% in target band [{:.2}, {:.2}], \
         avg {:.2} big cores @ {:.2} GHz, {:.2} little cores @ {:.2} GHz",
        samples.len(),
        100.0 * in_band as f64 / rates.len().max(1) as f64,
        band.0,
        band.1,
        mean_b,
        mean_fb,
        mean_l,
        mean_fl
    );
}

fn main() {
    let scales = parse_args();
    eprintln!(
        "fig5_5_6_7: calibrating power model ({} mode)...",
        if scales.quick { "quick" } else { "full" }
    );
    let lab = if scales.quick {
        Lab::quick()
    } else {
        Lab::new()
    };
    let versions = [
        (MpVersionKind::ConsI, "fig5_5"),
        (MpVersionKind::MpHarsI, "fig5_6"),
        (MpVersionKind::MpHarsE, "fig5_7"),
    ];
    let headers = [
        "hb_index",
        "hps",
        "b_core",
        "l_core",
        "b_freq_ghz",
        "l_freq_ghz",
    ];
    for (kind, figure) in versions {
        eprintln!("{figure}: tracing case 4 under {}...", kind.label());
        let traces = behavior_trace(&lab, kind, &scales.multi);
        println!(
            "=== {} — behavior of case 4 (BO + FL) under {} ===",
            figure, traces.version
        );
        summarize("  bodytrack   ", &traces.bodytrack, traces.targets[0]);
        summarize("  fluidanimate", &traces.fluidanimate, traces.targets[1]);
        let dir = results_dir();
        for (app_label, samples) in [("bo", &traces.bodytrack), ("fl", &traces.fluidanimate)] {
            let rows = trace_rows(samples);
            let path = dir.join(format!("{figure}_{app_label}.csv"));
            if let Err(e) = write_csv(&path, &headers, &rows) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("  wrote {}", relative(&path).display());
            }
        }
        // ASCII behavior graphs (HPS vs heartbeat index, target band
        // marked) — the terminal rendition of the paper's figures.
        for (label, samples, band) in [
            ("bodytrack", &traces.bodytrack, traces.targets[0]),
            ("fluidanimate", &traces.fluidanimate, traces.targets[1]),
        ] {
            let hps: Vec<f64> = samples.iter().filter_map(|s| s.rate).collect();
            println!(
                "{}",
                render_series(
                    &format!("  {label} HPS under {}", traces.version),
                    &hps,
                    70,
                    10,
                    &[band.0, band.1],
                )
            );
        }
        // A compact excerpt table as well.
        let excerpt: Vec<(String, Vec<f64>)> = trace_rows(&traces.fluidanimate)
            .into_iter()
            .step_by(50)
            .collect();
        println!(
            "{}",
            render_table(
                &format!(
                    "  fluidanimate excerpt under {} (every 50th heartbeat)",
                    traces.version
                ),
                &headers,
                &excerpt,
            )
        );
    }
}
