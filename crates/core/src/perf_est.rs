//! The performance estimator (Section 3.1.1), generalized to N
//! clusters.
//!
//! Assumes performance is proportional to core count and frequency: the
//! per-core speed of cluster `c` is `S_c = r_c · (f_c/f₀)` in units of
//! the reference cluster at `f₀`, with `r_c` the *assumed* per-cluster
//! ratio (the paper's `r₀ = S_B,f₀/S_L,f₀ = 1.5` on the XU3, from the
//! 3-wide vs 2-wide issue widths of the A15 and A7).
//!
//! For a candidate state it derives the generalized Table 3.1
//! assignment, the per-cluster unit times
//!
//! ```text
//! t_c = (W/T)/S_c            if T_c ≤ C_c
//!       T_c·W/(T·C_c,U·S_c)  otherwise
//! ```
//!
//! the barrier time `t_f = max_c t_c`, and predicts the candidate's
//! heartbeat rate as `observed_rate · t_f(current) / t_f(candidate)` —
//! the paper's simple last-period workload predictor.

use serde::{Deserialize, Serialize};

use crate::assign::{assign_threads_n, ClusterCapacity, ThreadAssignment};
use crate::state::SystemState;
use hmp_sim::{BoardSpec, ClusterId, FreqKhz, MAX_CLUSTERS};

/// Per-cluster unit times for one state (arbitrary work `W = 1`; only
/// ratios are ever used).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnitTimes {
    n: u8,
    /// Time cluster `c`'s threads need (`t_c`), 0 when unused.
    t: [f64; MAX_CLUSTERS],
    /// Barrier completion time `t_f = max_c t_c`.
    pub t_finish: f64,
}

impl UnitTimes {
    /// Builds unit times from per-cluster values.
    pub fn new(per_cluster: &[f64]) -> Self {
        assert!(
            !per_cluster.is_empty() && per_cluster.len() <= MAX_CLUSTERS,
            "1..={MAX_CLUSTERS} clusters"
        );
        let mut t = [0.0; MAX_CLUSTERS];
        t[..per_cluster.len()].copy_from_slice(per_cluster);
        let mut t_finish = 0.0f64;
        for &x in per_cluster {
            t_finish = t_finish.max(x);
        }
        Self {
            n: per_cluster.len() as u8,
            t,
            t_finish,
        }
    }

    /// Number of clusters covered.
    pub fn n_clusters(&self) -> usize {
        self.n as usize
    }

    /// Time the threads of `cluster` need (`t_c`), 0 when unused.
    pub fn time(&self, cluster: ClusterId) -> f64 {
        self.t[cluster.index()]
    }

    /// Estimated utilization of the used cores of `cluster`:
    /// `U_c = t_c / t_f`.
    pub fn util(&self, cluster: ClusterId) -> f64 {
        if self.t_finish > 0.0 {
            self.time(cluster) / self.t_finish
        } else {
            0.0
        }
    }
}

/// The performance estimator. Cheap to copy; the search evaluates it for
/// every candidate state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerfEstimator {
    n: u8,
    /// Assumed per-core ratio of each cluster relative to the reference
    /// cluster at `f₀`.
    ratios: [f64; MAX_CLUSTERS],
    /// The cluster whose ratio online learning refines (the fastest).
    fast: u8,
    /// Baseline frequency `f₀`.
    base_freq: FreqKhz,
}

impl PerfEstimator {
    /// Creates an estimator from explicit per-cluster assumed ratios.
    ///
    /// # Panics
    ///
    /// Panics unless every ratio is positive and finite.
    pub fn from_ratios(ratios: &[f64], base_freq: FreqKhz) -> Self {
        assert!(
            !ratios.is_empty() && ratios.len() <= MAX_CLUSTERS,
            "1..={MAX_CLUSTERS} clusters"
        );
        assert!(
            ratios.iter().all(|r| r.is_finite() && *r > 0.0),
            "ratios must be positive"
        );
        let mut rs = [0.0; MAX_CLUSTERS];
        rs[..ratios.len()].copy_from_slice(ratios);
        // The fastest cluster, ties toward the higher index (the big
        // cluster on homogeneous-ratio boards).
        let mut fast = 0usize;
        for (i, &r) in ratios.iter().enumerate() {
            if r >= rs[fast] {
                fast = i;
            }
        }
        Self {
            n: ratios.len() as u8,
            ratios: rs,
            fast: fast as u8,
            base_freq,
        }
    }

    /// Builds the estimator HARS would assume for `board`: the board's
    /// nominal per-cluster ratios (derived offline from issue widths,
    /// exactly like the paper's `r₀ = 3/2`).
    pub fn from_board(board: &BoardSpec) -> Self {
        let ratios: Vec<f64> = board.cluster_ids().map(|c| board.perf_ratio(c)).collect();
        Self::from_ratios(&ratios, board.base_freq)
    }

    /// The paper's configuration: `r₀ = 3/2` from the instruction-width
    /// ratio of the Cortex-A15 (3) and Cortex-A7 (2), on a two-cluster
    /// board (little = cluster 0).
    pub fn paper_default(base_freq: FreqKhz) -> Self {
        Self::from_ratios(&[1.0, 1.5], base_freq)
    }

    /// Number of clusters assumed.
    pub fn n_clusters(&self) -> usize {
        self.n as usize
    }

    /// The baseline frequency `f₀` the speed model normalizes to.
    pub fn base_freq(&self) -> FreqKhz {
        self.base_freq
    }

    /// The *nominally* fastest cluster (big, on two-cluster boards) —
    /// the one the legacy scalar nudge ([`PerfEstimator::set_r0`])
    /// refines. Fixed at construction: online learning may move other
    /// ratios past it, but the designation (and the meaning of `r₀`)
    /// does not change mid-run.
    pub fn fast_cluster(&self) -> ClusterId {
        ClusterId(self.fast as usize)
    }

    /// The assumed ratio of the fastest cluster (the paper's `r₀`).
    pub fn r0(&self) -> f64 {
        self.ratios[self.fast as usize]
    }

    /// The assumed ratio of `cluster`.
    pub fn ratio_of(&self, cluster: ClusterId) -> f64 {
        self.ratios[cluster.index()]
    }

    /// Replaces the fastest cluster's assumed ratio — the legacy
    /// entry point of the scalar-nudge heuristic
    /// ([`crate::ratio_learn::RatioLearning::FastOnly`]).
    pub fn set_r0(&mut self, r0: f64) {
        self.set_ratio(self.fast_cluster(), r0);
    }

    /// Replaces the assumed ratio of any single cluster — the
    /// per-cluster online learning entry point
    /// ([`crate::ratio_learn::RatioLearner`]).
    ///
    /// # Panics
    ///
    /// Panics unless the ratio is positive and finite.
    pub fn set_ratio(&mut self, cluster: ClusterId, ratio: f64) {
        assert!(ratio.is_finite() && ratio > 0.0, "ratio must be positive");
        debug_assert!(cluster.index() < self.n as usize, "cluster in range");
        self.ratios[cluster.index()] = ratio;
    }

    /// Per-core speeds per cluster in `S_ref,f₀ = 1` units, indexed by
    /// cluster.
    pub fn speeds(&self, state: &SystemState) -> [f64; MAX_CLUSTERS] {
        debug_assert_eq!(state.n_clusters(), self.n as usize);
        let mut s = [0.0; MAX_CLUSTERS];
        for (c, _, freq) in state.iter() {
            s[c.index()] = self.ratios[c.index()] * freq.ratio_to(self.base_freq);
        }
        s
    }

    /// The state's per-core performance ratio of the fastest cluster to
    /// the reference cluster, `r = S_fast/S_0` (the paper's
    /// `r = r₀·f_B/f_L` on two clusters).
    pub fn ratio(&self, state: &SystemState) -> f64 {
        let s = self.speeds(state);
        s[self.fast as usize] / s[0]
    }

    /// Generalized Table 3.1 assignment of `threads` threads under
    /// `state`.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or the state has no cores.
    pub fn assignment(&self, threads: usize, state: &SystemState) -> ThreadAssignment {
        let speeds = self.speeds(state);
        // Speeds are normalized to the reference cluster, exactly like
        // the paper's `r = S_B/S_L`: cluster 0 gets speed 1.0 and the
        // others their ratio to it, so the two-cluster waterfill
        // reproduces Table 3.1's arithmetic verbatim.
        let s0 = speeds[0];
        let mut caps = [ClusterCapacity {
            cores: 0,
            speed: 1.0,
        }; MAX_CLUSTERS];
        for (c, cores, _) in state.iter() {
            let speed = if c.index() == 0 {
                1.0
            } else {
                speeds[c.index()] / s0
            };
            caps[c.index()] = ClusterCapacity { cores, speed };
        }
        assign_threads_n(threads, &caps[..state.n_clusters()])
    }

    /// Unit times of `threads` equally loaded threads under `state`
    /// (work `W = 1`).
    pub fn unit_times(&self, threads: usize, state: &SystemState) -> UnitTimes {
        let a = self.assignment(threads, state);
        self.unit_times_for(threads, state, &a)
    }

    /// Unit times under an explicit (possibly non-optimal) assignment.
    pub fn unit_times_for(
        &self,
        threads: usize,
        state: &SystemState,
        a: &ThreadAssignment,
    ) -> UnitTimes {
        debug_assert_eq!(a.n_clusters(), state.n_clusters());
        let speeds = self.speeds(state);
        let share = 1.0 / threads as f64;
        let mut per = [0.0f64; MAX_CLUSTERS];
        for (c, _, _) in state.iter() {
            per[c.index()] = cluster_time(a.threads(c), a.used(c), share, speeds[c.index()]);
        }
        UnitTimes::new(&per[..state.n_clusters()])
    }

    /// Predicted heartbeat rate under `candidate` given the rate observed
    /// under `current`: `rate · t_f(current) / t_f(candidate)`.
    ///
    /// Returns 0 for a candidate that cannot run the threads (no cores).
    pub fn estimate_rate(
        &self,
        observed_rate: f64,
        threads: usize,
        current: &SystemState,
        candidate: &SystemState,
    ) -> f64 {
        debug_assert!(observed_rate >= 0.0);
        if candidate.total_cores() == 0 {
            return 0.0;
        }
        let tf_cur = self.unit_times(threads, current).t_finish;
        let tf_cand = self.unit_times(threads, candidate).t_finish;
        if tf_cand <= 0.0 {
            return 0.0;
        }
        observed_rate * tf_cur / tf_cand
    }
}

/// `t_c` of one cluster: dedicated-core regime or time-shared regime,
/// for a thread share `per_thread_work = 1/T` of the unit of work.
/// Crate-visible so the search's delta evaluator recombines the exact
/// same per-cluster term.
pub(crate) fn cluster_time(
    cluster_threads: usize,
    used_cores: usize,
    per_thread_work: f64,
    speed: f64,
) -> f64 {
    if cluster_threads == 0 || used_cores == 0 {
        return 0.0;
    }
    if cluster_threads <= used_cores {
        per_thread_work / speed
    } else {
        cluster_threads as f64 * per_thread_work / (used_cores as f64 * speed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> PerfEstimator {
        PerfEstimator::paper_default(FreqKhz::from_mhz(1_000))
    }

    fn st(cb: usize, cl: usize, fb_mhz: u32, fl_mhz: u32) -> SystemState {
        SystemState::new(&[
            (cl, FreqKhz::from_mhz(fl_mhz)),
            (cb, FreqKhz::from_mhz(fb_mhz)),
        ])
    }

    #[test]
    fn speeds_scale_with_frequency() {
        let e = est();
        let s = e.speeds(&st(4, 4, 1600, 1300));
        let (sl, sb) = (s[0], s[1]);
        assert!((sb - 1.5 * 1.6).abs() < 1e-12);
        assert!((sl - 1.3).abs() < 1e-12);
        assert!((e.ratio(&st(4, 4, 1000, 1000)) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn ratio_can_drop_below_one() {
        // Big at 0.8 GHz vs little at 1.3 GHz: r = 1.5·0.8/1.3 ≈ 0.92.
        let e = est();
        assert!(e.ratio(&st(4, 4, 800, 1300)) < 1.0);
    }

    #[test]
    fn unit_times_match_hand_math() {
        let e = est();
        // 8 threads, 4B+4L at 1 GHz: T_B = 6 shared on 4 big cores,
        // T_L = 2 dedicated. t_B = 6·(1/8)/(4·1.5) = 0.125;
        // t_L = (1/8)/1.0 = 0.125. Balanced by construction.
        let ut = e.unit_times(8, &st(4, 4, 1000, 1000));
        assert!((ut.time(ClusterId::BIG) - 0.125).abs() < 1e-12);
        assert!((ut.time(ClusterId::LITTLE) - 0.125).abs() < 1e-12);
        assert!((ut.t_finish - 0.125).abs() < 1e-12);
        assert!((ut.util(ClusterId::BIG) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unused_cluster_has_zero_time_and_utilization() {
        let e = est();
        // 2 threads on 4B+4L: both fit on big; little unused.
        let ut = e.unit_times(2, &st(4, 4, 1000, 1000));
        assert_eq!(ut.time(ClusterId::LITTLE), 0.0);
        assert_eq!(ut.util(ClusterId::LITTLE), 0.0);
        assert!(ut.time(ClusterId::BIG) > 0.0);
    }

    #[test]
    fn estimate_rate_doubles_with_capacity() {
        let e = est();
        // 4 threads all on big: doubling big frequency halves t_f.
        let cur = st(4, 0, 800, 800);
        let cand = st(4, 0, 1600, 800);
        let r = e.estimate_rate(10.0, 4, &cur, &cand);
        assert!((r - 20.0).abs() < 1e-9);
    }

    #[test]
    fn estimate_rate_handles_degenerate_candidate() {
        let e = est();
        let cur = st(4, 4, 1000, 1000);
        let none = st(0, 0, 800, 800);
        assert_eq!(e.estimate_rate(10.0, 8, &cur, &none), 0.0);
    }

    #[test]
    fn more_cores_never_slower() {
        let e = est();
        let mut prev = 0.0;
        for cb in 1..=4 {
            let rate = e.estimate_rate(1.0, 8, &st(1, 0, 1000, 1000), &st(cb, 2, 1000, 1000));
            assert!(rate >= prev, "rate decreased at cb={cb}");
            prev = rate;
        }
    }

    #[test]
    fn unbalanced_explicit_assignment_is_slower() {
        let e = est();
        let state = st(4, 4, 1000, 1000);
        let optimal = e.unit_times(8, &state);
        // Force a bad split: all 8 threads on the little cluster.
        let mut bad = ThreadAssignment::empty(2);
        bad.set(ClusterId::LITTLE, 8, 4);
        let forced = e.unit_times_for(8, &state, &bad);
        assert!(forced.t_finish > optimal.t_finish);
    }

    #[test]
    fn set_r0_updates_ratio() {
        let mut e = est();
        e.set_r0(1.0);
        assert!((e.ratio(&st(1, 1, 1000, 1000)) - 1.0).abs() < 1e-12);
        assert_eq!(e.fast_cluster(), ClusterId::BIG);
    }

    #[test]
    fn from_board_matches_nominal_ratios() {
        let board = BoardSpec::odroid_xu3();
        let e = PerfEstimator::from_board(&board);
        assert_eq!(e.r0(), 1.5);
        assert_eq!(e.ratio_of(ClusterId::LITTLE), 1.0);
        // Identical to the paper default on the canonical board.
        assert_eq!(e, PerfEstimator::paper_default(board.base_freq));
    }

    #[test]
    fn tri_cluster_estimator() {
        let board = BoardSpec::dynamiq_1p_3m_4l();
        let e = PerfEstimator::from_board(&board);
        assert_eq!(e.n_clusters(), 3);
        assert_eq!(e.fast_cluster(), ClusterId(2));
        assert_eq!(e.r0(), 2.0);
        let f = FreqKhz::from_mhz(1_000);
        let state = SystemState::new(&[(4, f), (3, f), (1, f)]);
        let s = e.speeds(&state);
        assert!((s[0] - 1.0).abs() < 1e-12);
        assert!((s[1] - 1.6).abs() < 1e-12);
        assert!((s[2] - 2.0).abs() < 1e-12);
        // 8 threads over 4+3+1 cores: everything used, finite times.
        let ut = e.unit_times(8, &state);
        assert!(ut.t_finish > 0.0);
        assert!(ut.util(ClusterId(2)) > 0.0);
    }

    #[test]
    fn set_ratio_updates_one_cluster_only() {
        let board = BoardSpec::dynamiq_1p_3m_4l();
        let mut e = PerfEstimator::from_board(&board);
        e.set_ratio(ClusterId(1), 1.25);
        assert_eq!(e.ratio_of(ClusterId(1)), 1.25);
        assert_eq!(e.ratio_of(ClusterId(0)), 1.0);
        assert_eq!(e.r0(), 2.0);
        // The fast designation is fixed at construction, even if
        // learning pushes another cluster past it.
        e.set_ratio(ClusterId(1), 2.5);
        assert_eq!(e.fast_cluster(), ClusterId(2));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_set_ratio_panics() {
        let mut e = est();
        e.set_ratio(ClusterId(1), f64::NAN);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_r0_panics() {
        let _ = PerfEstimator::from_ratios(&[1.0, 0.0], FreqKhz::from_mhz(1_000));
    }
}
