//! Fitting the power estimator from microbenchmark measurements.
//!
//! Reproduces the paper's methodology: the microbenchmark sweeps
//! (cluster, frequency, cores, utilization), the board's power sensor
//! records cluster power, and a linear regression per (cluster,
//! frequency level) yields the α/β coefficients of equations (3.1)/(3.2).

use hmp_sim::microbench::{run_calibration, CalibrationConfig, CalibrationPoint};
use hmp_sim::{BoardSpec, EngineConfig, SimError};

use crate::linreg::fit_line;
use crate::power_est::{LinearCoeff, PowerEstimator};

/// Fits a [`PowerEstimator`] from raw calibration points.
///
/// Points are grouped by (cluster, frequency level); each group is fitted
/// with ordinary least squares over `(C_used·U, watts)`.
///
/// # Panics
///
/// Panics when any (cluster, level) group has fewer than two distinct
/// load points — the sweep in [`run_power_calibration`] always provides
/// enough.
pub fn fit_power_model(board: &BoardSpec, points: &[CalibrationPoint]) -> PowerEstimator {
    let clusters = board
        .cluster_ids()
        .map(|cluster| {
            let ladder = board.ladder(cluster);
            let table = ladder
                .iter()
                .map(|freq| {
                    let group: Vec<(f64, f64)> = points
                        .iter()
                        .filter(|p| p.cluster == cluster && p.freq == freq)
                        .map(|p| (p.load_product(), p.measured_watts))
                        .collect();
                    let (alpha, beta) = fit_line(&group).unwrap_or_else(|| {
                        panic!(
                            "calibration sweep must cover the {} cluster at {freq} \
                             with at least two load points",
                            board.cluster_name(cluster)
                        )
                    });
                    LinearCoeff {
                        // Power physically increases with load; clamp tiny
                        // negative slopes from sensor noise.
                        alpha: alpha.max(0.0),
                        beta: beta.max(0.0),
                    }
                })
                .collect();
            (ladder.clone(), table)
        })
        .collect();
    PowerEstimator::from_clusters(clusters)
}

/// End-to-end calibration: runs the microbenchmark sweep on a fresh
/// simulated board and fits the estimator, exactly as HARS is deployed.
///
/// # Errors
///
/// Propagates [`SimError`] from the sweep (cannot occur for a valid
/// board).
pub fn run_power_calibration(
    board: &BoardSpec,
    engine_cfg: &EngineConfig,
    cal: &CalibrationConfig,
) -> Result<PowerEstimator, SimError> {
    let points = run_calibration(board, engine_cfg, cal)?;
    Ok(fit_power_model(board, &points))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmp_sim::cluster_power;
    use hmp_sim::{ClusterId, FreqKhz};

    fn quick() -> (BoardSpec, PowerEstimator) {
        let board = BoardSpec::odroid_xu3();
        let cfg = EngineConfig {
            sensor_noise: 0.0,
            ..EngineConfig::default()
        };
        let cal = CalibrationConfig::quick();
        let est = run_power_calibration(&board, &cfg, &cal).unwrap();
        (board, est)
    }

    #[test]
    fn fitted_model_tracks_truth_at_full_load() {
        let (board, est) = quick();
        for cluster in board.cluster_ids() {
            for freq in board.ladder(cluster).clone().iter() {
                let n = board.cluster_size(cluster);
                let truth = cluster_power(&board, cluster, freq, n as f64, n);
                let fit = est.cluster_watts(cluster, freq, n, 1.0);
                let err = (fit - truth).abs() / truth;
                assert!(
                    err < 0.10,
                    "{} @ {freq}: fit {fit:.3} vs truth {truth:.3} ({err:.1}% err)",
                    board.cluster_name(cluster)
                );
            }
        }
    }

    #[test]
    fn alpha_monotone_in_frequency() {
        let (board, est) = quick();
        let mut prev = 0.0;
        for freq in board.ladder(ClusterId::BIG).clone().iter() {
            let a = est.coeff(ClusterId::BIG, freq).alpha;
            assert!(a >= prev, "alpha must grow with frequency");
            prev = a;
        }
    }

    #[test]
    fn big_cluster_costs_more_per_core() {
        let (_, est) = quick();
        let ab = est.coeff(ClusterId::BIG, FreqKhz::from_mhz(1_300)).alpha;
        let al = est.coeff(ClusterId::LITTLE, FreqKhz::from_mhz(1_300)).alpha;
        assert!(ab > 3.0 * al, "big {ab} vs little {al}");
    }

    #[test]
    fn noisy_calibration_still_close() {
        let board = BoardSpec::odroid_xu3();
        let cfg = EngineConfig {
            sensor_noise: 0.02,
            ..EngineConfig::default()
        };
        let cal = CalibrationConfig {
            secs_per_point: 1.6,
            duties: vec![0.25, 0.5, 1.0],
            spinner_period_ns: 1_000_000,
        };
        let est = run_power_calibration(&board, &cfg, &cal).unwrap();
        let f = FreqKhz::from_mhz(1_600);
        let truth = cluster_power(&board, ClusterId::BIG, f, 4.0, 4);
        let fit = est.cluster_watts(ClusterId::BIG, f, 4, 1.0);
        assert!(
            (fit - truth).abs() / truth < 0.15,
            "fit {fit} truth {truth}"
        );
    }
}
