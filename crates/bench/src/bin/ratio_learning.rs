//! Beyond the paper: per-cluster online ratio learning on a tri-cluster
//! board whose mid cluster the estimator *misstates*.
//!
//! The DynamIQ preset's mid cluster has a nominal per-core ratio of 1.6,
//! but HARS is configured here to assume 1.2 — a 25% understatement, the
//! N-cluster analog of the paper's blackscholes model error. The legacy
//! scalar nudge (`RatioLearning::FastOnly`) can only refine the *prime*
//! cluster's ratio, so the mid-cluster error is permanent; the
//! per-cluster regression (`RatioLearning::PerCluster`) converges the
//! mid estimate onto the truth and cuts the steady-state rate-prediction
//! error on share-moving transitions.
//!
//! The scenario itself (board, workload, toggling targets) lives in
//! [`hars_bench::ratio_scenario`], shared with the workspace-level
//! acceptance test so CI smoke runs and the test suite validate the
//! same setup.
//!
//! ```sh
//! cargo run --release -p hars-bench --bin ratio_learning [-- --quick]
//! ```

use hars_bench::ratio_scenario::{calibrated_power, run_mode, target_bands, ASSUMED_MID, TRUE_MID};
use hars_bench::table::render_table;
use hars_bench::Cli;
use hars_core::RatioLearning;
use hmp_sim::BoardSpec;

fn main() {
    let quick = Cli::parse().quick;
    let board = BoardSpec::dynamiq_1p_3m_4l();
    let budget = if quick { 1_000 } else { 2_400 };
    eprintln!("ratio_learning: calibrating the power model...");
    let power = calibrated_power(&board, quick);
    let (low, high) = target_bands(&board);
    println!(
        "board {} — mid cluster nominal {TRUE_MID}, assumed {ASSUMED_MID} \
         ({:.0}% understated); targets {low} <-> {high}",
        board.name,
        100.0 * (TRUE_MID - ASSUMED_MID) / TRUE_MID,
    );

    let modes = [
        ("off", RatioLearning::Off),
        ("fast-only (legacy)", RatioLearning::FastOnly),
        ("per-cluster", RatioLearning::PerCluster),
    ];
    let mut rows = Vec::new();
    let mut per_cluster_mid = ASSUMED_MID;
    let mut errors = [None, None];
    for (name, mode) in modes {
        let out = run_mode(&board, &power, (low, high), budget, mode);
        let mid_err = 100.0 * (out.mid_estimate - TRUE_MID).abs() / TRUE_MID;
        if mode == RatioLearning::PerCluster {
            per_cluster_mid = out.mid_estimate;
            errors[1] = out.informative_error;
        } else if mode == RatioLearning::FastOnly {
            errors[0] = out.informative_error;
        }
        rows.push((
            name.to_string(),
            vec![
                out.mid_estimate,
                mid_err,
                out.prediction_error.unwrap_or(f64::NAN),
                out.informative_error.unwrap_or(f64::NAN),
                out.adaptations as f64,
            ],
        ));
    }
    println!(
        "{}",
        render_table(
            "Ratio-learning ablation on dynamiq_1p_3m_4l (true mid ratio 1.6, assumed 1.2)",
            &[
                "mode",
                "mid est.",
                "mid err %",
                "pred err",
                "share-move err",
                "adapts",
            ],
            &rows,
        )
    );
    let converged = (per_cluster_mid - TRUE_MID).abs() / TRUE_MID <= 0.10;
    println!(
        "per-cluster learning {} the mid-cluster ratio: {ASSUMED_MID} -> {:.3} \
         (truth {TRUE_MID}, {}within 10%)",
        if converged {
            "converged"
        } else {
            "did NOT converge"
        },
        per_cluster_mid,
        if converged { "" } else { "not " },
    );
    if let (Some(fast), Some(per)) = (errors[0], errors[1]) {
        println!(
            "steady-state |log rate-prediction error| on share-moving transitions: \
             fast-only {fast:.4} vs per-cluster {per:.4} ({})",
            if per < fast {
                "per-cluster wins"
            } else {
                "fast-only wins"
            }
        );
    }
}
