//! High-level experiment orchestrators — one function per table/figure
//! of the paper. Binaries in `src/bin/` are thin wrappers over these.

use workloads::Benchmark;

use hars_core::driver::BehaviorSample;
use hars_core::metrics::geometric_mean;

use crate::multi::{run_case, MpScale, MpVersionKind, CASES};
use crate::setup::{measure_max_rate, seed_for, target_for, Lab};
use crate::single::{run_hars_distance, run_version, RunScale, SingleResult, Version};

/// A full Figure 5.1/5.2 dataset: per-benchmark, per-version
/// performance/watt normalized to the baseline, plus the geometric mean
/// row.
#[derive(Debug, Clone)]
pub struct FigurePerfPerWatt {
    /// `(benchmark abbrev, [pp per version in Version::ALL order])`.
    pub rows: Vec<(String, Vec<f64>)>,
    /// Geometric-mean row over the benchmarks.
    pub gm: Vec<f64>,
    /// Raw (unnormalized) results for EXPERIMENTS.md.
    pub raw: Vec<(String, Vec<SingleResult>)>,
}

/// Runs Figures 5.1 (`target_frac = 0.50`) or 5.2 (`0.75`).
pub fn figure_perf_per_watt(lab: &Lab, target_frac: f64, scale: &RunScale) -> FigurePerfPerWatt {
    let mut rows = Vec::new();
    let mut raw = Vec::new();
    let mut per_version: Vec<Vec<f64>> = vec![Vec::new(); Version::ALL.len()];
    for bench in Benchmark::ALL {
        let max = measure_max_rate(lab, bench, 8, seed_for(bench));
        let target = target_for(max, target_frac);
        let results: Vec<SingleResult> = Version::ALL
            .iter()
            .map(|v| run_version(lab, bench, *v, &target, scale, false))
            .collect();
        let base_pp = results[0].perf_per_watt.max(1e-12);
        let normalized: Vec<f64> = results.iter().map(|r| r.perf_per_watt / base_pp).collect();
        for (i, v) in normalized.iter().enumerate() {
            per_version[i].push(*v);
        }
        rows.push((bench.abbrev().to_string(), normalized));
        raw.push((bench.abbrev().to_string(), results));
    }
    let gm: Vec<f64> = per_version
        .iter()
        .map(|vals| geometric_mean(vals).unwrap_or(0.0))
        .collect();
    FigurePerfPerWatt { rows, gm, raw }
}

/// Figure 5.3 dataset: efficiency and manager overhead vs the search
/// distance `d`.
#[derive(Debug, Clone)]
pub struct FigureDistanceSweep {
    /// The swept distances (1, 3, 5, 7, 9).
    pub distances: Vec<i64>,
    /// GM performance/watt normalized to `d = 1`, default target.
    pub pp_default: Vec<f64>,
    /// Same for the high target.
    pub pp_high: Vec<f64>,
    /// Mean manager CPU % over the benchmarks, default target.
    pub cpu_default: Vec<f64>,
    /// Same for the high target.
    pub cpu_high: Vec<f64>,
}

/// Runs the Figure 5.3 sensitivity sweep (HARS-EI, both targets).
pub fn figure_distance_sweep(lab: &Lab, scale: &RunScale) -> FigureDistanceSweep {
    let distances = vec![1i64, 3, 5, 7, 9];
    let mut pp = [Vec::new(), Vec::new()];
    let mut cpu = [Vec::new(), Vec::new()];
    for (ti, frac) in [0.50, 0.75].iter().enumerate() {
        let mut gm_rows: Vec<Vec<f64>> = Vec::new();
        let mut cpu_rows: Vec<f64> = Vec::new();
        for &d in &distances {
            let mut pps = Vec::new();
            let mut cpus = Vec::new();
            for bench in Benchmark::ALL {
                let max = measure_max_rate(lab, bench, 8, seed_for(bench));
                let target = target_for(max, *frac);
                let r = run_hars_distance(lab, bench, d, &target, scale);
                pps.push(r.perf_per_watt.max(1e-12));
                cpus.push(r.cpu_percent);
            }
            gm_rows.push(pps);
            cpu_rows.push(cpus.iter().sum::<f64>() / cpus.len() as f64);
        }
        let gm_at: Vec<f64> = gm_rows
            .iter()
            .map(|v| geometric_mean(v).unwrap_or(0.0))
            .collect();
        let base = gm_at[0].max(1e-12);
        pp[ti] = gm_at.iter().map(|v| v / base).collect();
        cpu[ti] = cpu_rows;
    }
    let [pp_default, pp_high] = pp;
    let [cpu_default, cpu_high] = cpu;
    FigureDistanceSweep {
        distances,
        pp_default,
        pp_high,
        cpu_default,
        cpu_high,
    }
}

/// Figure 5.4 dataset: the six multi-app cases × four versions.
#[derive(Debug, Clone)]
pub struct FigureMultiApp {
    /// `("BO-SW", [pp per version in MpVersionKind::ALL order])`,
    /// normalized to the baseline per case.
    pub rows: Vec<(String, Vec<f64>)>,
    /// Geometric mean over the cases.
    pub gm: Vec<f64>,
}

/// Runs Figure 5.4.
pub fn figure_multi_app(lab: &Lab, scale: &MpScale) -> FigureMultiApp {
    let mut rows = Vec::new();
    let mut per_version: Vec<Vec<f64>> = vec![Vec::new(); MpVersionKind::ALL.len()];
    for pair in CASES {
        let label = format!("{}-{}", pair.0.abbrev(), pair.1.abbrev());
        let results: Vec<f64> = MpVersionKind::ALL
            .iter()
            .map(|k| run_case(lab, pair, *k, scale, false).perf_per_watt)
            .collect();
        let base = results[0].max(1e-12);
        let normalized: Vec<f64> = results.iter().map(|v| v / base).collect();
        for (i, v) in normalized.iter().enumerate() {
            per_version[i].push(*v);
        }
        rows.push((label, normalized));
    }
    let gm = per_version
        .iter()
        .map(|v| geometric_mean(v).unwrap_or(0.0))
        .collect();
    FigureMultiApp { rows, gm }
}

/// Figures 5.5–5.7 dataset: behavior traces of case 4 (BO + FL) under
/// CONS-I, MP-HARS-I and MP-HARS-E.
#[derive(Debug, Clone)]
pub struct BehaviorTraces {
    /// Version label ("CONS-I", ...).
    pub version: String,
    /// Trace of bodytrack, per heartbeat.
    pub bodytrack: Vec<BehaviorSample>,
    /// Trace of fluidanimate.
    pub fluidanimate: Vec<BehaviorSample>,
    /// The targets' min/max lines (hb/s) for the two apps.
    pub targets: [(f64, f64); 2],
}

/// Runs the case-4 behavior traces for one version.
pub fn behavior_trace(lab: &Lab, kind: MpVersionKind, scale: &MpScale) -> BehaviorTraces {
    let pair = CASES[3];
    let max_bo = measure_max_rate(lab, pair.0, 8, seed_for(pair.0));
    let max_fl = measure_max_rate(lab, pair.1, 8, seed_for(pair.1));
    let t_bo = target_for(max_bo, 0.50);
    let t_fl = target_for(max_fl, 0.50);
    let out = run_case(lab, pair, kind, scale, true);
    BehaviorTraces {
        version: kind.label().to_string(),
        bodytrack: out.apps[0].trace.clone(),
        fluidanimate: out.apps[1].trace.clone(),
        targets: [(t_bo.min(), t_bo.max()), (t_fl.min(), t_fl.max())],
    }
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

    #[test]
    fn behavior_trace_has_samples_for_both_apps() {
        let lab = Lab::quick();
        let traces = behavior_trace(&lab, MpVersionKind::ConsI, &MpScale::quick());
        assert!(!traces.bodytrack.is_empty());
        assert!(!traces.fluidanimate.is_empty());
        assert_eq!(traces.version, "CONS-I");
    }
}
