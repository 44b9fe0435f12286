//! The paper's Chapter 5 evaluation: one function per table and figure
//! that computes it, prints it to stdout and writes its CSVs under
//! `results/`. The binaries of the same names wrap one function each,
//! and `all_experiments` calls all seven in order, in one process, over
//! one [`Lab`].

use workloads::Benchmark;

use hars_core::assign::{assign_threads_n, ClusterCapacity};
use hars_core::driver::BehaviorSample;
use hars_core::metrics::geometric_mean;
use hars_core::ThreadAssignment;
use hmp_sim::ClusterId;
use mp_hars::{decide, FreezeDecision, PerfClass, StateDecision};

use crate::multi::{run_case, MpScale, MpVersionKind, CASES};
use crate::setup::{measure_max_rate, seed_for, target_for, Lab};
use crate::single::{run_hars_distance, run_version, RunScale, Version};
use crate::table::{relative, render_series, render_table, results_dir, write_csv};

const B: ClusterId = ClusterId::BIG;
const L: ClusterId = ClusterId::LITTLE;

/// Writes `rows` to `results/<file>` and prints its path after
/// `indent`, or warns on stderr when the write fails.
fn save_csv(file: &str, headers: &[&str], rows: &[(String, Vec<f64>)], indent: &str) {
    let path = results_dir().join(file);
    match write_csv(&path, headers, rows) {
        Ok(()) => println!("{indent}wrote {}", relative(&path).display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Divides each row of perf/watt values by its first column (the
/// baseline) and appends the geometric-mean row.
fn normalize_with_gm(mut rows: Vec<(String, Vec<f64>)>) -> Vec<(String, Vec<f64>)> {
    for (_, row) in &mut rows {
        let base = row[0].max(1e-12);
        for v in row.iter_mut() {
            *v /= base;
        }
    }
    let gm = (0..rows[0].1.len())
        .map(|i| {
            let column: Vec<f64> = rows.iter().map(|(_, row)| row[i]).collect();
            geometric_mean(&column).unwrap_or(0.0)
        })
        .collect();
    rows.push(("GM".to_string(), gm));
    rows
}

/// **Table 3.1**: the thread assignment rule, evaluated over the
/// paper's regimes on 4 big and 4 little cores.
pub fn table3_1() {
    // Little cores at speed 1, big cores at speed `r = S_B/S_L`.
    let assign = |threads: usize, cb: usize, cl: usize, r: f64| -> ThreadAssignment {
        let cluster = |cores, speed| ClusterCapacity { cores, speed };
        assign_threads_n(threads, &[cluster(cl, 1.0), cluster(cb, r)])
    };
    println!("Table 3.1: thread assignment to the big and little clusters");
    println!("(C_B = 4, C_L = 4, r = 1.5 — the paper's platform at equal frequencies)\n");
    println!(
        "{:>3}  {:>4}  {:>4}  {:>5}  {:>5}   regime",
        "T", "T_B", "T_L", "C_B,U", "C_L,U"
    );
    println!("{}", "-".repeat(48));
    let (cb, cl, r) = (4usize, 4usize, 1.5f64);
    for t in 1..=16 {
        let a = assign(t, cb, cl, r);
        let regime = if t <= cb {
            "0 < T <= C_B"
        } else if t as f64 <= r * cb as f64 {
            "C_B < T <= r*C_B"
        } else if t as f64 <= r * cb as f64 + cl as f64 {
            "r*C_B < T <= r*C_B + C_L"
        } else {
            "r*C_B + C_L < T"
        };
        println!(
            "{:>3}  {:>4}  {:>4}  {:>5}  {:>5}   {regime}",
            t,
            a.threads(B),
            a.threads(L),
            a.used(B),
            a.used(L)
        );
    }
    println!("\nWith per-cluster DVFS the ratio shifts: r = r0 * (f_B / f_L).");
    println!("Example rows at r = 0.92 (big 0.8 GHz, little 1.3 GHz — r < 1 mirror):\n");
    for t in [2usize, 6, 8, 12] {
        let a = assign(t, cb, cl, 0.92);
        println!(
            "T = {:>2}: T_B = {}, T_L = {}, C_B,U = {}, C_L,U = {}",
            t,
            a.threads(B),
            a.threads(L),
            a.used(B),
            a.used(L)
        );
    }
}

/// **Table 4.3**: MP-HARS's state and freeze decision, evaluated over
/// every row, then over the single-application domain.
pub fn table4_3() {
    let class_name = |c| match c {
        PerfClass::Underperf => "Underperf",
        PerfClass::Achieve => "Achieve",
        PerfClass::Overperf => "Overperf",
    };
    let row = |app, others: &str, frozen: bool, (s, f)| {
        println!(
            "{:<11} {:<11} {:<11} {:<14} {:<10}",
            class_name(app),
            others,
            if frozen { "FREEZE" } else { "UNFREEZE" },
            match s {
                StateDecision::Inc => "INC",
                StateDecision::Keep => "KEEP",
                StateDecision::Dec => "DEC",
            },
            match f {
                FreezeDecision::Freeze => "FREEZE",
                FreezeDecision::Unfreeze => "UNFREEZE",
                FreezeDecision::Keep => "KEEP",
            }
        );
    };
    println!("Table 4.3: state & freeze decision table\n");
    println!(
        "{:<11} {:<11} {:<11} {:<14} {:<10}",
        "AppInPeriod", "TheOthers", "FrozenState", "StateDecision", "FreezeDecision"
    );
    println!("{}", "-".repeat(60));
    let classes = [
        PerfClass::Underperf,
        PerfClass::Achieve,
        PerfClass::Overperf,
    ];
    for app in classes {
        for others in classes {
            for frozen in [true, false] {
                row(
                    app,
                    class_name(others),
                    frozen,
                    decide(app, Some(others), frozen),
                );
            }
        }
    }
    println!("\nSingle-application domain (no interference):\n");
    for app in classes {
        for frozen in [true, false] {
            row(app, "(alone)", frozen, decide(app, None, frozen));
        }
    }
}

/// **Figure 5.1**: performance/watt of the six PARSEC analogs under the
/// default target (50% ± 5% of maximum) for Baseline, SO, HARS-I,
/// HARS-E and HARS-EI, normalized to the baseline, with the
/// geometric-mean row and each run's raw measurements, manager CPU and
/// adaptations.
pub fn fig5_1(lab: &Lab, scale: &RunScale) {
    let title = "Figure 5.1: Performance/watt, default target (normalized to Baseline)";
    perf_per_watt_figure(lab, scale, "fig5_1", title, 0.50, true);
}

/// **Figure 5.2**: [`fig5_1`] under the high target (75% ± 5% of
/// maximum), without the manager CPU and adaptations.
pub fn fig5_2(lab: &Lab, scale: &RunScale) {
    let title = "Figure 5.2: Performance/watt, high target (normalized to Baseline)";
    perf_per_watt_figure(lab, scale, "fig5_2", title, 0.75, false);
}

/// Figures 5.1 and 5.2: every benchmark under every version at
/// `target_frac` of its maximum rate; the CSV is `results/<name>.csv`.
fn perf_per_watt_figure(
    lab: &Lab,
    scale: &RunScale,
    name: &str,
    title: &str,
    target_frac: f64,
    cpu_detail: bool,
) {
    eprintln!("{name}: running 6 benchmarks x 5 versions...");
    let mut rows = Vec::new();
    let mut raw = Vec::new();
    for bench in Benchmark::ALL {
        let max = measure_max_rate(lab, bench, 8, seed_for(bench));
        let band = target_for(max, target_frac);
        let results: Vec<_> = Version::ALL
            .iter()
            .map(|v| run_version(lab, bench, *v, &band, scale, false))
            .collect();
        rows.push((
            bench.abbrev().to_string(),
            results.iter().map(|r| r.perf_per_watt).collect(),
        ));
        raw.push((bench.abbrev(), results));
    }
    let rows = normalize_with_gm(rows);
    let headers: Vec<&str> = std::iter::once("bench")
        .chain(Version::ALL.iter().map(|v| v.label()))
        .collect();
    println!("{}", render_table(title, &headers, &rows));
    save_csv(&format!("{name}.csv"), &headers, &rows, "");
    println!("\nRaw measurements:");
    for (bench, results) in &raw {
        for r in results {
            let detail = if cpu_detail {
                format!(
                    "  (cpu {:.2}%, {} adaptations)",
                    r.cpu_percent, r.adaptations
                )
            } else {
                String::new()
            };
            println!(
                "  {bench:<3} {:<9} rate {:>7.3} hb/s  norm-perf {:>5.3}  {:>6.3} W  pp {:>6.4}{detail}",
                r.version, r.rate, r.norm_perf, r.watts, r.perf_per_watt
            );
        }
    }
}

/// **Figure 5.3**: HARS-EI's efficiency and overhead against the search
/// distance `d ∈ {1,3,5,7,9}` under both targets: (a) GM
/// performance/watt normalized to `d = 1`, (b) mean manager CPU
/// utilization.
pub fn fig5_3(lab: &Lab, scale: &RunScale) {
    const DISTANCES: [i64; 5] = [1, 3, 5, 7, 9];
    eprintln!("fig5_3: sweeping d in {{1,3,5,7,9}} x 6 benchmarks x 2 targets...");
    // Per target (default, high), one value per distance.
    let mut pp = [Vec::new(), Vec::new()];
    let mut cpu = [Vec::new(), Vec::new()];
    for (ti, frac) in [0.50, 0.75].iter().enumerate() {
        let mut gm_at = Vec::new();
        for d in DISTANCES {
            let mut pps = Vec::new();
            let mut cpus = Vec::new();
            for bench in Benchmark::ALL {
                let max = measure_max_rate(lab, bench, 8, seed_for(bench));
                let target = target_for(max, *frac);
                let r = run_hars_distance(lab, bench, d, &target, scale);
                pps.push(r.perf_per_watt.max(1e-12));
                cpus.push(r.cpu_percent);
            }
            gm_at.push(geometric_mean(&pps).unwrap_or(0.0));
            cpu[ti].push(cpus.iter().sum::<f64>() / cpus.len() as f64);
        }
        let base = gm_at[0].max(1e-12);
        pp[ti] = gm_at.iter().map(|v| v / base).collect();
    }
    let by_distance = |per_target: &[Vec<f64>; 2]| -> Vec<(String, Vec<f64>)> {
        DISTANCES
            .iter()
            .enumerate()
            .map(|(i, d)| (format!("d={d}"), vec![per_target[0][i], per_target[1][i]]))
            .collect()
    };
    let headers = ["d", "default", "high"];
    let rows_a = by_distance(&pp);
    println!(
        "{}",
        render_table(
            "Figure 5.3(a): GM perf/watt vs distance (normalized to d=1)",
            &headers,
            &rows_a,
        )
    );
    let rows_b = by_distance(&cpu);
    println!(
        "{}",
        render_table(
            "Figure 5.3(b): manager CPU utilization (%) vs distance",
            &headers,
            &rows_b,
        )
    );
    let dir = results_dir();
    let _ = write_csv(&dir.join("fig5_3a.csv"), &headers, &rows_a);
    let _ = write_csv(&dir.join("fig5_3b.csv"), &headers, &rows_b);
    println!("wrote {}", relative(&dir.join("fig5_3{a,b}.csv")).display());
}

/// **Figure 5.4**: multi-application performance/watt over the six
/// benchmark pairings for Baseline, CONS-I, MP-HARS-I and MP-HARS-E,
/// normalized to the baseline, with the geometric mean.
pub fn fig5_4(lab: &Lab, scale: &MpScale) {
    eprintln!("fig5_4: running 6 cases x 4 versions...");
    let rows = CASES
        .iter()
        .map(|&pair| {
            let label = format!("{}-{}", pair.0.abbrev(), pair.1.abbrev());
            let pp = MpVersionKind::ALL
                .iter()
                .map(|k| run_case(lab, pair, *k, scale, false).perf_per_watt)
                .collect();
            (label, pp)
        })
        .collect();
    let rows = normalize_with_gm(rows);
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
    let gm = &rows.last().expect("the GM row").1;
    println!(
        "MP-HARS-E vs Baseline: +{:.0}%   MP-HARS-E vs CONS-I: +{:.0}%",
        (gm[3] - 1.0) * 100.0,
        (gm[3] / gm[1] - 1.0) * 100.0
    );
    save_csv("fig5_4.csv", &headers, &rows, "");
}

/// **Figures 5.5–5.7**: the behavior of case 4 (bodytrack +
/// fluidanimate) under CONS-I, MP-HARS-I and MP-HARS-E: per-heartbeat
/// HPS, allocated core counts and cluster frequencies.
pub fn fig5_5_6_7(lab: &Lab, scale: &MpScale) {
    let pair = CASES[3];
    // The two apps' target bands (hb/s), as `run_case` sets them.
    let [bo_band, fl_band] = [pair.0, pair.1].map(|bench| {
        let t = target_for(measure_max_rate(lab, bench, 8, seed_for(bench)), 0.50);
        (t.min(), t.max())
    });
    let headers = [
        "hb_index",
        "hps",
        "b_core",
        "l_core",
        "b_freq_ghz",
        "l_freq_ghz",
    ];
    for (kind, figure) in [
        (MpVersionKind::ConsI, "fig5_5"),
        (MpVersionKind::MpHarsI, "fig5_6"),
        (MpVersionKind::MpHarsE, "fig5_7"),
    ] {
        let version = kind.label();
        eprintln!("{figure}: tracing case 4 under {version}...");
        let out = run_case(lab, pair, kind, scale, true);
        let (bodytrack, fluidanimate) = (&out.apps[0].trace, &out.apps[1].trace);
        println!("=== {figure} — behavior of case 4 (BO + FL) under {version} ===");
        summarize("  bodytrack   ", bodytrack, bo_band);
        summarize("  fluidanimate", fluidanimate, fl_band);
        for (app_label, samples) in [("bo", bodytrack), ("fl", fluidanimate)] {
            let file = format!("{figure}_{app_label}.csv");
            save_csv(&file, &headers, &trace_rows(samples), "  ");
        }
        // ASCII behavior graphs (HPS vs heartbeat index, target band
        // marked) — the terminal rendition of the paper's figures.
        for (label, samples, band) in [
            ("bodytrack", bodytrack, bo_band),
            ("fluidanimate", fluidanimate, fl_band),
        ] {
            let hps: Vec<f64> = samples.iter().filter_map(|s| s.rate).collect();
            println!(
                "{}",
                render_series(
                    &format!("  {label} HPS under {version}"),
                    &hps,
                    70,
                    10,
                    &[band.0, band.1],
                )
            );
        }
        // A compact excerpt table as well.
        let excerpt: Vec<(String, Vec<f64>)> =
            trace_rows(fluidanimate).into_iter().step_by(50).collect();
        println!(
            "{}",
            render_table(
                &format!("  fluidanimate excerpt under {version} (every 50th heartbeat)"),
                &headers,
                &excerpt,
            )
        );
    }
}

/// One row per heartbeat: HPS, big and little cores, big and little
/// frequencies (GHz).
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

/// Prints one app's share of heartbeats inside its target band and its
/// mean cores and frequencies per cluster.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A light end-to-end smoke test of the figure pipeline (full scale
    /// runs live in the experiment binaries).
    #[test]
    fn figure_pipeline_smoke() {
        let lab = Lab::quick();
        let mut scale = RunScale::quick();
        scale.hb_budget = 60;
        scale.oracle_stride = 4;
        scale.oracle_hb_budget = 25;
        // One benchmark, two versions, to keep CI fast.
        let max = measure_max_rate(
            &lab,
            Benchmark::Swaptions,
            8,
            seed_for(Benchmark::Swaptions),
        );
        let target = target_for(max, 0.5);
        let base = run_version(
            &lab,
            Benchmark::Swaptions,
            Version::Baseline,
            &target,
            &scale,
            false,
        );
        let so = run_version(
            &lab,
            Benchmark::Swaptions,
            Version::StaticOptimal,
            &target,
            &scale,
            false,
        );
        assert!(
            so.perf_per_watt > base.perf_per_watt,
            "SO {} must beat baseline {}",
            so.perf_per_watt,
            base.perf_per_watt
        );
    }

    /// The case-4 trace behind Figures 5.5–5.7 has samples for both
    /// apps, and CONS-I is labelled as the figure prints it.
    #[test]
    fn behavior_trace_has_samples_for_both_apps() {
        let lab = Lab::quick();
        let kind = MpVersionKind::ConsI;
        let out = run_case(&lab, CASES[3], kind, &MpScale::quick(), true);
        assert!(!out.apps[0].trace.is_empty());
        assert!(!out.apps[1].trace.is_empty());
        assert_eq!(kind.label(), "CONS-I");
    }
}
