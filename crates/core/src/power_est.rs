//! The power estimator (Section 3.1.2), generalized to N clusters.
//!
//! Linear-regression models per (cluster, frequency level):
//!
//! ```text
//! P_c = α_c,f_c · C_c,U · U_c,U + β_c,f_c
//! ```
//!
//! (the paper's equations (3.1)/(3.2) are the big/little instances),
//! with the utilizations `U_c,U = t_c/t_f` supplied by the performance
//! estimator. Coefficients come from fitting the microbenchmark
//! calibration data (see [`crate::calibrate`]).

use hmp_sim::{ClusterId, FreqKhz, FreqLadder};
use serde::{Deserialize, Serialize};

use crate::assign::ThreadAssignment;
use crate::perf_est::UnitTimes;
use crate::state::SystemState;

/// One `P = α·(C·U) + β` model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct LinearCoeff {
    /// Watts per (used core × utilization).
    pub alpha: f64,
    /// Constant watts (idle cluster floor).
    pub beta: f64,
}

impl LinearCoeff {
    /// Evaluates the model at `core_util = C_used · U`.
    pub fn watts(&self, core_util: f64) -> f64 {
        self.alpha * core_util + self.beta
    }
}

/// The full per-cluster, per-frequency-level power model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerEstimator {
    /// Per-cluster DVFS ladders, indexed by cluster.
    ladders: Vec<FreqLadder>,
    /// Per-cluster coefficient tables, indexed by (cluster, level).
    tables: Vec<Vec<LinearCoeff>>,
}

impl PowerEstimator {
    /// Builds an N-cluster estimator from per-cluster `(ladder, table)`
    /// pairs in cluster-index order.
    ///
    /// # Panics
    ///
    /// Panics when no clusters are given or a table's length does not
    /// match its ladder.
    pub fn from_clusters(clusters: Vec<(FreqLadder, Vec<LinearCoeff>)>) -> Self {
        assert!(!clusters.is_empty(), "at least one cluster");
        let mut ladders = Vec::with_capacity(clusters.len());
        let mut tables = Vec::with_capacity(clusters.len());
        for (i, (ladder, table)) in clusters.into_iter().enumerate() {
            assert_eq!(
                table.len(),
                ladder.len(),
                "one coefficient set per level of cluster {i}"
            );
            ladders.push(ladder);
            tables.push(table);
        }
        Self { ladders, tables }
    }

    /// A synthetic but monotone estimator for any board, with each
    /// cluster's α scaled by its nominal performance ratio and growing
    /// with the ladder level — enough to rank candidate states without
    /// a calibration run. Used by the open-system scenario driver and
    /// by board-generic tests; real experiments calibrate with
    /// [`crate::calibrate::run_power_calibration`] instead.
    pub fn synthetic_for_board(board: &hmp_sim::BoardSpec) -> Self {
        Self::from_clusters(
            board
                .cluster_ids()
                .map(|c| {
                    let ladder = board.ladder(c).clone();
                    let ratio = board.perf_ratio(c);
                    let table: Vec<LinearCoeff> = (0..ladder.len())
                        .map(|i| LinearCoeff {
                            alpha: 0.12 * ratio + 0.03 * i as f64,
                            beta: 0.08,
                        })
                        .collect();
                    (ladder, table)
                })
                .collect(),
        )
    }

    /// Number of clusters modeled.
    pub fn n_clusters(&self) -> usize {
        self.ladders.len()
    }

    /// The coefficients for `cluster` at `freq` (nearest level at or
    /// below `freq` when it is off-ladder).
    pub fn coeff(&self, cluster: ClusterId, freq: FreqKhz) -> LinearCoeff {
        let ladder = &self.ladders[cluster.index()];
        let level = ladder
            .index_of(ladder.floor(freq))
            .expect("floor always lands on the ladder");
        self.tables[cluster.index()][level]
    }

    /// Estimated power (W) of one cluster given used cores and their
    /// utilization.
    pub fn cluster_watts(
        &self,
        cluster: ClusterId,
        freq: FreqKhz,
        used_cores: usize,
        utilization: f64,
    ) -> f64 {
        debug_assert!((0.0..=1.0 + 1e-9).contains(&utilization));
        self.coeff(cluster, freq)
            .watts(used_cores as f64 * utilization)
    }

    /// Total estimated power of a candidate state: the per-cluster
    /// linear models summed with the assignment's used-core counts and
    /// the performance estimator's utilizations. Clusters are summed
    /// highest index first (the paper's `P_B + P_L` ordering).
    pub fn estimate(
        &self,
        state: &SystemState,
        assignment: &ThreadAssignment,
        times: &UnitTimes,
    ) -> f64 {
        debug_assert_eq!(state.n_clusters(), self.n_clusters());
        let mut total = 0.0;
        for i in (0..self.n_clusters()).rev() {
            let c = ClusterId(i);
            total += self.cluster_watts(c, state.freq(c), assignment.used(c), times.util(c));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_estimator() -> PowerEstimator {
        let little_ladder = FreqLadder::from_mhz_range(800, 1_300, 100);
        let big_ladder = FreqLadder::from_mhz_range(800, 1_600, 100);
        // α grows with level; β constant — easy to eyeball in tests.
        let little = (0..little_ladder.len())
            .map(|i| LinearCoeff {
                alpha: 0.1 + 0.01 * i as f64,
                beta: 0.05,
            })
            .collect();
        let big = (0..big_ladder.len())
            .map(|i| LinearCoeff {
                alpha: 0.5 + 0.1 * i as f64,
                beta: 0.3,
            })
            .collect();
        PowerEstimator::from_clusters(vec![(little_ladder, little), (big_ladder, big)])
    }

    fn st(cb: usize, cl: usize, fb_mhz: u32, fl_mhz: u32) -> SystemState {
        SystemState::new(&[
            (cl, FreqKhz::from_mhz(fl_mhz)),
            (cb, FreqKhz::from_mhz(fb_mhz)),
        ])
    }

    /// The `(T_B, T_L, C_B,U, C_L,U)` assignment.
    fn bl(tb: usize, tl: usize, ub: usize, ul: usize) -> ThreadAssignment {
        let mut a = ThreadAssignment::empty(2);
        a.set(ClusterId::LITTLE, tl, ul);
        a.set(ClusterId::BIG, tb, ub);
        a
    }

    /// The `(t_B, t_L)` unit times.
    fn ut(t_big: f64, t_little: f64) -> UnitTimes {
        UnitTimes::new(&[t_little, t_big])
    }

    #[test]
    fn coeff_lookup_by_level() {
        let e = flat_estimator();
        let c0 = e.coeff(ClusterId::BIG, FreqKhz::from_mhz(800));
        let c8 = e.coeff(ClusterId::BIG, FreqKhz::from_mhz(1_600));
        assert!((c0.alpha - 0.5).abs() < 1e-12);
        assert!((c8.alpha - 1.3).abs() < 1e-12);
        // Off-ladder frequencies floor to the level below.
        let c_mid = e.coeff(ClusterId::BIG, FreqKhz::from_mhz(1_050));
        assert_eq!(c_mid, e.coeff(ClusterId::BIG, FreqKhz::from_mhz(1_000)));
    }

    #[test]
    fn estimate_sums_both_clusters() {
        let e = flat_estimator();
        let state = st(4, 4, 800, 800);
        let a = bl(4, 4, 4, 4);
        let times = ut(1.0, 0.5);
        // Big: 0.5·(4·1.0) + 0.3 = 2.3; little: 0.1·(4·0.5) + 0.05 = 0.25.
        let p = e.estimate(&state, &a, &times);
        assert!((p - 2.55).abs() < 1e-12);
    }

    #[test]
    fn idle_cluster_still_costs_beta() {
        let e = flat_estimator();
        let state = st(4, 4, 800, 800);
        let a = bl(2, 0, 2, 0);
        let times = ut(1.0, 0.0);
        let p = e.estimate(&state, &a, &times);
        // Big: 0.5·2 + 0.3 = 1.3; little floor: β = 0.05.
        assert!((p - 1.35).abs() < 1e-12);
    }

    #[test]
    fn higher_frequency_is_costlier() {
        let e = flat_estimator();
        let a = bl(4, 0, 4, 0);
        let times = ut(1.0, 0.0);
        let lo = e.estimate(&st(4, 0, 800, 800), &a, &times);
        let hi = e.estimate(&st(4, 0, 1_600, 800), &a, &times);
        assert!(hi > lo);
    }

    #[test]
    fn from_clusters_builds_n_cluster_model() {
        let mk = |lo, hi, step, alpha0: f64| {
            let ladder = FreqLadder::from_mhz_range(lo, hi, step);
            let table: Vec<LinearCoeff> = (0..ladder.len())
                .map(|i| LinearCoeff {
                    alpha: alpha0 + 0.05 * i as f64,
                    beta: 0.1,
                })
                .collect();
            (ladder, table)
        };
        let e = PowerEstimator::from_clusters(vec![
            mk(600, 1_400, 200, 0.1),
            mk(800, 2_000, 200, 0.4),
            mk(800, 2_600, 200, 0.6),
        ]);
        assert_eq!(e.n_clusters(), 3);
        let f = FreqKhz::from_mhz(1_000);
        assert!(
            e.cluster_watts(ClusterId(2), f, 1, 1.0) > e.cluster_watts(ClusterId(0), f, 1, 1.0)
        );
        let state = SystemState::new(&[(1, f), (1, f), (1, f)]);
        let a = {
            let mut a = ThreadAssignment::empty(3);
            a.set(ClusterId(0), 1, 1);
            a.set(ClusterId(1), 1, 1);
            a.set(ClusterId(2), 1, 1);
            a
        };
        let times = UnitTimes::new(&[1.0, 1.0, 1.0]);
        let total = e.estimate(&state, &a, &times);
        let parts: f64 = (0..3)
            .map(|i| e.cluster_watts(ClusterId(i), f, 1, 1.0))
            .sum();
        assert!((total - parts).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one coefficient set per level")]
    fn mismatched_tables_panic() {
        let little_ladder = FreqLadder::from_mhz_range(800, 1_300, 100);
        let big_ladder = FreqLadder::from_mhz_range(800, 1_600, 100);
        let _ = PowerEstimator::from_clusters(vec![(little_ladder, vec![]), (big_ladder, vec![])]);
    }
}
