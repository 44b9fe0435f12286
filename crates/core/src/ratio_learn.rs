//! Per-cluster online ratio learning — the model-refinement loop that
//! closes the gap between a board's *nominal* per-cluster performance
//! ratios and an application's *true* ones.
//!
//! The paper's future-work fix for blackscholes nudges a single scalar
//! (`r₀`, the fastest cluster's assumed ratio) whenever a prediction
//! misses. That heuristic cannot touch middle clusters — a DynamIQ
//! "mid" cluster or the E-cores of a P/E/LP split keep their nominal
//! issue-width ratios forever. [`RatioLearner`] generalizes the loop:
//!
//! * every consumed prediction yields one *log rate-error*
//!   `e = ln(observed / predicted)`;
//! * to first order `e ≈ Σ_c Δs_c · Δln r_c`, where `Δs_c` is the
//!   change in cluster `c`'s thread share between the old and the new
//!   state and `Δln r_c` the log-error of the assumed ratio — so the
//!   per-cluster slope of `e` against `Δs_c` estimates exactly how
//!   wrong that cluster's ratio is;
//! * each non-reference cluster keeps a bounded sliding window of
//!   `(Δs_c, e)` pairs and fits [`crate::linreg::fit_line`] over it
//!   once a minimum-evidence threshold is met (the fitted intercept
//!   absorbs share-independent bias such as workload drift, which the
//!   scalar nudge conflates with ratio error);
//! * updates are damped (`r_c ← r_c · exp(gain · slope)`) and clamped
//!   per cluster around the nominal ratio, so a burst of noisy
//!   observations cannot run an estimate away.
//!
//! The reference cluster (index 0) is never learned: estimated rates
//! depend only on ratios *between* clusters, so its ratio is the unit
//! of measurement and carries no identifiable error.
//!
//! [`RatioLearning::FastOnly`] reproduces the legacy scalar nudge
//! bit-for-bit (see [`legacy_fast_nudge`]); [`RatioLearning::Off`]
//! records and learns nothing.

use std::collections::VecDeque;

use crate::assign::ThreadAssignment;
use crate::linreg::fit_line;
use crate::perf_est::PerfEstimator;
use hmp_sim::{ClusterId, MAX_CLUSTERS};

/// Legacy clamp on one observation's rate error (`[1/4, 4]`), shared by
/// the scalar nudge and (in log space) the per-cluster regression.
const MAX_LOG_ERROR: f64 = 1.386_294_361_119_890_6; // ln 4

/// Absolute floor for any learned ratio (ratios must stay positive).
const MIN_RATIO: f64 = 0.05;

/// Bound on the diagnostic window of recent prediction errors.
const ERROR_WINDOW: usize = 32;

/// Bound on each cluster's sliding window of `(Δs, e)` pairs.
const WINDOW: usize = 16;

/// Minimum samples in a cluster's window before its ratio may move.
const MIN_EVIDENCE: usize = 3;

/// Transitions moving less than this much thread share on a cluster
/// carry no ratio information and are not recorded (the legacy nudge
/// used the same threshold).
const MIN_SHARE_DELTA: f64 = 0.05;

/// Share move treated as "full effect": the regression abscissa is
/// `sign(Δs) · min(|Δs| / SHARE_SATURATION, 1)`. Once a transition
/// moves at least this much share onto (or off) a cluster, the cluster
/// tends to bind the barrier time and the observed log error is the
/// *full* ratio log-error — so with the saturating feature the fitted
/// slope reads directly as `Δln r_c`, instead of overshooting by
/// `1/|Δs|`.
const SHARE_SATURATION: f64 = 0.25;

/// Damping factor on each multiplicative update
/// (`r ← r · exp(GAIN · slope)`); 1.0 would jump to the regression
/// estimate in one step.
const GAIN: f64 = 0.5;

/// Bound on one update's log-ratio step (`|GAIN·slope|` is clamped to
/// this), so a window of noisy evidence — short-window OLS slopes can
/// be wild — moves the estimate by a bounded factor and convergence
/// happens over several damped steps.
const MAX_STEP: f64 = 0.10;

/// Fitted slopes below this magnitude are treated as "model is fine"
/// and apply no update.
const MIN_SLOPE: f64 = 0.02;

/// Per-cluster clamp: a learned ratio stays within
/// `[nominal / MAX_DRIFT, nominal · MAX_DRIFT]`.
const MAX_DRIFT: f64 = 3.0;

/// Online refinement mode of the assumed per-cluster ratios.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RatioLearning {
    /// No refinement: ratios stay at their configured values.
    #[default]
    Off,
    /// The legacy scalar heuristic: only the fastest cluster's assumed
    /// ratio (`r₀`) is nudged — the paper's Section 5.1.2 future-work
    /// fix for blackscholes. Middle clusters keep their nominal ratios.
    FastOnly,
    /// Per-cluster damped online regression: every non-reference
    /// cluster's ratio is refined from the observed
    /// `(Δ thread-share, log rate-error)` pairs.
    PerCluster,
}

/// The bookkeeping armed when a state change is decided: the rate the
/// estimator predicted for the new state, plus the per-cluster thread
/// shares of the new and the replaced state. Consumed (or dropped) at
/// the *first* adaptation period after the change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingPrediction {
    /// The estimated heartbeat rate of the chosen state.
    pub predicted_rate: f64,
    n: u8,
    old_share: [f64; MAX_CLUSTERS],
    new_share: [f64; MAX_CLUSTERS],
}

impl PendingPrediction {
    /// Builds the record from the assignments of the replaced and the
    /// chosen state.
    ///
    /// # Panics
    ///
    /// Panics if the assignments cover different cluster counts or
    /// either assigns zero threads.
    pub fn from_assignments(
        predicted_rate: f64,
        old: &ThreadAssignment,
        new: &ThreadAssignment,
    ) -> Self {
        assert_eq!(old.n_clusters(), new.n_clusters(), "same board");
        let n = old.n_clusters();
        let (old_total, new_total) = (old.total_threads(), new.total_threads());
        assert!(old_total > 0 && new_total > 0, "assignments need threads");
        let mut old_share = [0.0; MAX_CLUSTERS];
        let mut new_share = [0.0; MAX_CLUSTERS];
        for c in (0..n).map(ClusterId) {
            old_share[c.index()] = old.threads(c) as f64 / old_total as f64;
            new_share[c.index()] = new.threads(c) as f64 / new_total as f64;
        }
        Self {
            predicted_rate,
            n: n as u8,
            old_share,
            new_share,
        }
    }

    /// Builds the record from explicit share vectors (tests, replay).
    ///
    /// # Panics
    ///
    /// Panics on empty or mismatched share slices.
    pub fn from_shares(predicted_rate: f64, old: &[f64], new: &[f64]) -> Self {
        assert_eq!(old.len(), new.len(), "same board");
        assert!(
            !old.is_empty() && old.len() <= MAX_CLUSTERS,
            "1..={MAX_CLUSTERS} clusters"
        );
        let mut old_share = [0.0; MAX_CLUSTERS];
        let mut new_share = [0.0; MAX_CLUSTERS];
        old_share[..old.len()].copy_from_slice(old);
        new_share[..new.len()].copy_from_slice(new);
        Self {
            predicted_rate,
            n: old.len() as u8,
            old_share,
            new_share,
        }
    }

    /// Number of clusters covered.
    pub fn n_clusters(&self) -> usize {
        self.n as usize
    }

    /// Thread share of `cluster` under the replaced state.
    pub fn old_share(&self, cluster: ClusterId) -> f64 {
        self.old_share[cluster.index()]
    }

    /// Thread share of `cluster` under the chosen state.
    pub fn new_share(&self, cluster: ClusterId) -> f64 {
        self.new_share[cluster.index()]
    }

    /// The share change `Δs_c = s_new − s_old` of `cluster`.
    pub fn delta_share(&self, cluster: ClusterId) -> f64 {
        self.new_share[cluster.index()] - self.old_share[cluster.index()]
    }
}

/// The legacy scalar nudge, verbatim: the damped multiplicative `r₀`
/// update the runtime applied before per-cluster learning existed.
/// Returns the new `r₀`, or `None` when the pair carries no ratio
/// information (invalid rates or a share move under the 0.05 threshold).
///
/// Kept as a pure function so [`RatioLearning::FastOnly`] is provably
/// bit-identical to the historical behavior (the proptests fold it over
/// random pair sequences and compare).
pub fn legacy_fast_nudge(r0: f64, predicted: f64, observed: f64, delta_share: f64) -> Option<f64> {
    if predicted <= 0.0 || observed <= 0.0 {
        return None;
    }
    // No share movement -> the error says nothing about r₀ (frequency
    // sensitivity and workload drift dominate).
    if delta_share.abs() < 0.05 {
        return None;
    }
    let error = (observed / predicted).clamp(0.25, 4.0);
    // Damped multiplicative update, signed by the share direction.
    let gamma = 0.5 * delta_share.signum();
    Some((r0 * error.powf(gamma)).clamp(0.5, 4.0))
}

/// The per-cluster online ratio learner.
#[derive(Debug, Clone)]
pub struct RatioLearner {
    mode: RatioLearning,
    n: usize,
    /// The ratios at construction time — the clamp anchors.
    nominal: [f64; MAX_CLUSTERS],
    /// Per-cluster sliding windows of `(x_c, log rate-error)` pairs,
    /// with `x_c` the saturating share feature derived from `Δs_c`
    /// (see `SHARE_SATURATION`).
    windows: Vec<VecDeque<(f64, f64)>>,
    /// Recent `|ln(observed/predicted)|` of consumed predictions — the
    /// steady-state prediction-error diagnostic.
    recent_errors: VecDeque<f64>,
    /// The same diagnostic restricted to *share-moving* transitions
    /// (some non-reference cluster moved at least `MIN_SHARE_DELTA` of
    /// thread share) — the transitions where the ratio model matters.
    recent_informative_errors: VecDeque<f64>,
}

impl RatioLearner {
    /// Creates a learner anchored at `est`'s current (nominal) ratios.
    pub fn new(mode: RatioLearning, est: &PerfEstimator) -> Self {
        let n = est.n_clusters();
        let mut nominal = [0.0; MAX_CLUSTERS];
        for c in (0..n).map(ClusterId) {
            nominal[c.index()] = est.ratio_of(c);
        }
        Self {
            mode,
            n,
            nominal,
            windows: vec![VecDeque::new(); n],
            recent_errors: VecDeque::new(),
            recent_informative_errors: VecDeque::new(),
        }
    }

    /// The learning mode.
    pub fn mode(&self) -> RatioLearning {
        self.mode
    }

    /// The clamp range of `cluster`'s learned ratio.
    pub fn clamp_range(&self, cluster: ClusterId) -> (f64, f64) {
        let nominal = self.nominal[cluster.index()];
        ((nominal / MAX_DRIFT).max(MIN_RATIO), nominal * MAX_DRIFT)
    }

    /// Samples currently held in `cluster`'s evidence window.
    pub fn evidence(&self, cluster: ClusterId) -> usize {
        self.windows[cluster.index()].len()
    }

    /// Mean `|ln(observed/predicted)|` over the recent consumed
    /// predictions, or `None` before any prediction was consumed.
    pub fn mean_recent_error(&self) -> Option<f64> {
        if self.recent_errors.is_empty() {
            return None;
        }
        Some(self.recent_errors.iter().sum::<f64>() / self.recent_errors.len() as f64)
    }

    /// [`RatioLearner::mean_recent_error`] restricted to share-moving
    /// transitions — frequency-only transitions predict well under any
    /// assumed ratios, so this is the diagnostic that isolates the
    /// quality of the per-cluster ratio model.
    pub fn mean_recent_informative_error(&self) -> Option<f64> {
        if self.recent_informative_errors.is_empty() {
            return None;
        }
        Some(
            self.recent_informative_errors.iter().sum::<f64>()
                / self.recent_informative_errors.len() as f64,
        )
    }

    /// Consumes one `(prediction, observation)` pair and refines `est`'s
    /// assumed ratios according to the mode.
    pub fn observe(
        &mut self,
        pending: &PendingPrediction,
        observed_rate: f64,
        est: &mut PerfEstimator,
    ) {
        if self.mode == RatioLearning::Off {
            return;
        }
        if pending.predicted_rate <= 0.0 || observed_rate <= 0.0 {
            return;
        }
        let log_err = (observed_rate / pending.predicted_rate).ln();
        self.recent_errors.push_back(log_err.abs());
        while self.recent_errors.len() > ERROR_WINDOW {
            self.recent_errors.pop_front();
        }
        let informative = (1..self.n.min(pending.n_clusters()))
            .any(|c| pending.delta_share(ClusterId(c)).abs() >= MIN_SHARE_DELTA);
        if informative {
            self.recent_informative_errors.push_back(log_err.abs());
            while self.recent_informative_errors.len() > ERROR_WINDOW {
                self.recent_informative_errors.pop_front();
            }
        }
        match self.mode {
            RatioLearning::Off => unreachable!("handled above"),
            RatioLearning::FastOnly => {
                let fast = est.fast_cluster();
                if let Some(r0) = legacy_fast_nudge(
                    est.r0(),
                    pending.predicted_rate,
                    observed_rate,
                    pending.delta_share(fast),
                ) {
                    est.set_r0(r0);
                }
            }
            RatioLearning::PerCluster => self.learn_per_cluster(pending, log_err, est),
        }
    }

    fn learn_per_cluster(
        &mut self,
        pending: &PendingPrediction,
        log_err: f64,
        est: &mut PerfEstimator,
    ) {
        let e = log_err.clamp(-MAX_LOG_ERROR, MAX_LOG_ERROR);
        // Cluster 0 is the reference: its ratio is the unit and has no
        // identifiable error.
        for c in (1..self.n.min(pending.n_clusters())).map(ClusterId) {
            let ds = pending.delta_share(c);
            if ds.abs() < MIN_SHARE_DELTA {
                continue;
            }
            let x = (ds / SHARE_SATURATION).clamp(-1.0, 1.0);
            let w = &mut self.windows[c.index()];
            w.push_back((x, e));
            while w.len() > WINDOW {
                w.pop_front();
            }
            if w.len() < MIN_EVIDENCE {
                continue;
            }
            let pts: Vec<(f64, f64)> = w.iter().copied().collect();
            let slope = match fit_line(&pts) {
                Some((slope, _)) => slope,
                // Degenerate share spread (every recorded Δs is the
                // same transition): fall back to the through-origin
                // estimate Σxy/Σxx, which is well-defined because every
                // recorded |Δs| >= MIN_SHARE_DELTA. The bias-absorbing
                // intercept is lost, but evidence is not thrown away.
                None => {
                    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
                    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
                    sxy / sxx
                }
            };
            if slope.abs() < MIN_SLOPE || !slope.is_finite() {
                continue;
            }
            let step = (GAIN * slope).clamp(-MAX_STEP, MAX_STEP);
            let (lo, hi) = self.clamp_range(c);
            let refined = (est.ratio_of(c) * step.exp()).clamp(lo, hi);
            est.set_ratio(c, refined);
            // The window's errors were measured under the old ratio;
            // the update spends that evidence.
            self.windows[c.index()].clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmp_sim::FreqKhz;

    fn tri_est(mid: f64) -> PerfEstimator {
        PerfEstimator::from_ratios(&[1.0, mid, 2.0], FreqKhz::from_mhz(1_000))
    }

    fn pending(predicted: f64, old: &[f64], new: &[f64]) -> PendingPrediction {
        PendingPrediction::from_shares(predicted, old, new)
    }

    #[test]
    fn off_mode_never_moves_ratios_or_records_errors() {
        let mut est = tri_est(1.2);
        let mut l = RatioLearner::new(RatioLearning::Off, &est);
        for _ in 0..20 {
            l.observe(
                &pending(10.0, &[0.5, 0.2, 0.3], &[0.2, 0.5, 0.3]),
                20.0,
                &mut est,
            );
        }
        assert_eq!(est, tri_est(1.2));
        assert_eq!(l.mean_recent_error(), None);
    }

    #[test]
    fn fast_only_matches_legacy_nudge() {
        let mut est = tri_est(1.2);
        let mut l = RatioLearner::new(RatioLearning::FastOnly, &est);
        let p = pending(10.0, &[0.5, 0.3, 0.2], &[0.3, 0.3, 0.4]);
        let expected = legacy_fast_nudge(2.0, 10.0, 6.0, 0.2).unwrap();
        l.observe(&p, 6.0, &mut est);
        assert_eq!(est.r0(), expected);
        // The mid cluster is untouchable in FastOnly mode.
        assert_eq!(est.ratio_of(ClusterId(1)), 1.2);
    }

    #[test]
    fn per_cluster_converges_understated_mid_ratio() {
        // True mid ratio 1.6, assumed 1.2: when share moves onto the
        // mid cluster, the observation beats the prediction by
        // exp(Δs · ln(1.6/1.2)) — the first-order model exactly.
        let truth = (1.6f64 / 1.2).ln();
        let mut est = tri_est(1.2);
        let mut l = RatioLearner::new(RatioLearning::PerCluster, &est);
        let transitions = [0.30, -0.20, 0.25, -0.35, 0.15, 0.40, -0.25, 0.20];
        for step in 0..40 {
            let ds = transitions[step % transitions.len()];
            // Residual model error shrinks as the estimate converges.
            let residual = truth + (1.2f64 / est.ratio_of(ClusterId(1))).ln();
            let observed = 10.0 * (ds * residual).exp();
            let p = pending(10.0, &[0.5, 0.3, 0.2], &[0.5 - ds, 0.3 + ds, 0.2]);
            l.observe(&p, observed, &mut est);
        }
        let mid = est.ratio_of(ClusterId(1));
        assert!(
            (mid - 1.6).abs() / 1.6 < 0.10,
            "mid ratio {mid} not within 10% of 1.6"
        );
        // The prime cluster saw no share movement and keeps its value.
        assert_eq!(est.ratio_of(ClusterId(2)), 2.0);
    }

    #[test]
    fn min_evidence_gates_updates() {
        let mut est = tri_est(1.2);
        let mut l = RatioLearner::new(RatioLearning::PerCluster, &est);
        let sample = |ds: f64| {
            // Error correlated with the share move: e = 0.5 · Δs.
            let observed = 10.0 * (0.5 * ds).exp();
            (
                pending(10.0, &[0.5, 0.3, 0.2], &[0.5 - ds, 0.3 + ds, 0.2]),
                observed,
            )
        };
        for i in 0..MIN_EVIDENCE - 1 {
            // Informative pairs below the evidence threshold: nothing
            // moves yet.
            let (p, observed) = sample(0.20 + 0.03 * i as f64);
            l.observe(&p, observed, &mut est);
            assert_eq!(est.ratio_of(ClusterId(1)), 1.2, "moved at sample {i}");
        }
        let (p, observed) = sample(0.45);
        l.observe(&p, observed, &mut est);
        assert!(
            est.ratio_of(ClusterId(1)) > 1.2,
            "the MIN_EVIDENCE-th sample must update"
        );
    }

    #[test]
    fn small_share_moves_are_ignored() {
        let mut est = tri_est(1.2);
        let mut l = RatioLearner::new(RatioLearning::PerCluster, &est);
        for _ in 0..20 {
            l.observe(
                &pending(10.0, &[0.5, 0.30, 0.2], &[0.49, 0.31, 0.2]),
                30.0,
                &mut est,
            );
        }
        assert_eq!(est.ratio_of(ClusterId(1)), 1.2);
        assert_eq!(l.evidence(ClusterId(1)), 0);
    }

    #[test]
    fn updates_respect_per_cluster_clamps() {
        let mut est = tri_est(1.2);
        let mut l = RatioLearner::new(RatioLearning::PerCluster, &est);
        let (lo, hi) = l.clamp_range(ClusterId(1));
        assert!((lo - 0.4).abs() < 1e-12 && (hi - 3.6).abs() < 1e-12);
        // Hammer the learner with absurdly optimistic observations.
        for _ in 0..200 {
            l.observe(
                &pending(1.0, &[0.8, 0.0, 0.2], &[0.2, 0.6, 0.2]),
                1_000.0,
                &mut est,
            );
        }
        let mid = est.ratio_of(ClusterId(1));
        assert!(mid <= hi && mid >= lo, "mid {mid} escaped [{lo}, {hi}]");
        assert!((mid - hi).abs() < 1e-9, "should pin at the upper clamp");
    }

    #[test]
    fn degenerate_share_spread_uses_through_origin_fallback() {
        let mut est = tri_est(1.2);
        let mut l = RatioLearner::new(RatioLearning::PerCluster, &est);
        // The identical transition over and over: fit_line rejects the
        // window (zero x spread) but the fallback still learns.
        for _ in 0..6 {
            l.observe(
                &pending(10.0, &[0.5, 0.3, 0.2], &[0.2, 0.6, 0.2]),
                12.0,
                &mut est,
            );
        }
        assert!(
            est.ratio_of(ClusterId(1)) > 1.2,
            "constant-Δs evidence must still move the ratio"
        );
    }

    #[test]
    fn invalid_rates_are_ignored() {
        let mut est = tri_est(1.2);
        let mut l = RatioLearner::new(RatioLearning::PerCluster, &est);
        l.observe(
            &pending(0.0, &[0.5, 0.3, 0.2], &[0.2, 0.6, 0.2]),
            5.0,
            &mut est,
        );
        l.observe(
            &pending(5.0, &[0.5, 0.3, 0.2], &[0.2, 0.6, 0.2]),
            0.0,
            &mut est,
        );
        assert_eq!(est, tri_est(1.2));
        assert_eq!(l.mean_recent_error(), None);
    }

    #[test]
    fn recent_error_diagnostic_tracks_consumed_pairs() {
        let mut est = tri_est(1.2);
        let mut l = RatioLearner::new(RatioLearning::FastOnly, &est);
        l.observe(
            &pending(10.0, &[1.0, 0.0, 0.0], &[1.0, 0.0, 0.0]),
            20.0,
            &mut est,
        );
        let err = l.mean_recent_error().unwrap();
        assert!((err - 2.0f64.ln()).abs() < 1e-12);
    }
}
