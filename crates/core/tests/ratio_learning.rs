//! Ratio-learning behavioral tests at the manager level: mode gating,
//! clamps, and the structural limits of the legacy scalar nudge.
//! (The end-to-end convergence acceptance test drives the full
//! simulator from the workspace-level `tests/ratio_learning.rs`.)

use hars_core::policy::SearchPolicy;
use hars_core::power_est::LinearCoeff;
use hars_core::{HarsConfig, PerfEstimator, PowerEstimator, RatioLearning, RuntimeManager};
use heartbeats::PerfTarget;
use hmp_sim::{BoardSpec, ClusterId};

const ASSUMED_MID: f64 = 1.2;

fn power(board: &BoardSpec) -> PowerEstimator {
    PowerEstimator::from_clusters(
        board
            .cluster_ids()
            .map(|c| {
                let ladder = board.ladder(c).clone();
                let table: Vec<LinearCoeff> = (0..ladder.len())
                    .map(|i| LinearCoeff {
                        alpha: 0.1 * (c.index() + 1) as f64 + 0.02 * i as f64,
                        beta: 0.1,
                    })
                    .collect();
                (ladder, table)
            })
            .collect(),
    )
}

/// A tri-cluster manager with the mid-cluster ratio misstated, driven
/// by `rates` at every heartbeat (adaptation period 1).
fn driven(mode: RatioLearning, rates: impl Iterator<Item = f64>) -> RuntimeManager {
    let board = BoardSpec::dynamiq_1p_3m_4l();
    let assumed = PerfEstimator::from_ratios(&[1.0, ASSUMED_MID, 2.0], board.base_freq);
    let mut m = RuntimeManager::new(
        &board,
        PerfTarget::new(9.0, 11.0).unwrap(),
        assumed,
        power(&board),
        8,
        HarsConfig {
            ratio_learning: mode,
            adapt_every: 1,
            // One-step search: these are policy-independent properties
            // and the incremental walk keeps debug-mode runtime low.
            policy: SearchPolicy::Incremental,
            ..HarsConfig::default()
        },
    );
    for (hb, rate) in rates.enumerate() {
        let _ = m.on_heartbeat(hb as u64 + 1, Some(rate));
    }
    m
}

/// Wildly oscillating observations: many adaptations, many surprising
/// consumed predictions — maximum learning pressure.
fn wild_rates(n: usize) -> impl Iterator<Item = f64> {
    (0..n).map(|i| if i % 2 == 0 { 100.0 } else { 0.5 })
}

/// The legacy scalar nudge structurally cannot touch a middle cluster:
/// whatever it observes, only the fastest cluster's ratio may move.
#[test]
fn fast_only_cannot_move_the_mid_ratio() {
    let m = driven(RatioLearning::FastOnly, wild_rates(300));
    assert_eq!(
        m.core().perf.ratio_of(ClusterId(1)),
        ASSUMED_MID,
        "FastOnly must leave middle clusters at their nominal ratios"
    );
    // It does track prediction errors, though.
    assert!(m.core().learner().mean_recent_error().is_some());
}

/// Off learns nothing at all and reports no prediction errors.
#[test]
fn off_keeps_every_ratio_nominal() {
    let m = driven(RatioLearning::Off, wild_rates(300));
    assert_eq!(m.core().perf.ratio_of(ClusterId(0)), 1.0);
    assert_eq!(m.core().perf.ratio_of(ClusterId(1)), ASSUMED_MID);
    assert_eq!(m.core().perf.ratio_of(ClusterId(2)), 2.0);
    assert_eq!(m.core().learner().mean_recent_error(), None);
    assert_eq!(m.core().learner().mean_recent_informative_error(), None);
}

/// Learned ratios always respect the per-cluster clamps, even under
/// adversarial feedback that bears no relation to any model.
#[test]
fn learned_ratios_stay_inside_clamps() {
    let m = driven(RatioLearning::PerCluster, wild_rates(300));
    // Default clamps: nominal / 3 .. nominal * 3.
    let mid = m.core().perf.ratio_of(ClusterId(1));
    let prime = m.core().perf.ratio_of(ClusterId(2));
    assert!(
        (ASSUMED_MID / 3.0..=ASSUMED_MID * 3.0).contains(&mid),
        "mid {mid}"
    );
    assert!((2.0 / 3.0..=2.0 * 3.0).contains(&prime), "prime {prime}");
    assert_eq!(
        m.core().perf.ratio_of(ClusterId(0)),
        1.0,
        "the reference cluster is never learned"
    );
}

/// Retargeting mid-run never corrupts the learned state: the armed
/// prediction from before the retarget is dropped, not consumed.
#[test]
fn retargets_between_every_heartbeat_never_learn_garbage() {
    let board = BoardSpec::dynamiq_1p_3m_4l();
    let assumed = PerfEstimator::from_ratios(&[1.0, ASSUMED_MID, 2.0], board.base_freq);
    let mut m = RuntimeManager::new(
        &board,
        PerfTarget::new(9.0, 11.0).unwrap(),
        assumed,
        power(&board),
        8,
        HarsConfig {
            ratio_learning: RatioLearning::PerCluster,
            adapt_every: 1,
            policy: SearchPolicy::Incremental,
            ..HarsConfig::default()
        },
    );
    for hb in 1..=200u64 {
        // A retarget before every single heartbeat: every armed
        // prediction is dropped before it can be consumed, so no
        // learning happens at all.
        m.set_target(PerfTarget::new(5.0 + (hb % 30) as f64, 40.0 + (hb % 30) as f64).unwrap());
        let rate = if hb % 2 == 0 { 80.0 } else { 1.0 };
        let _ = m.on_heartbeat(hb, Some(rate));
    }
    assert_eq!(m.core().perf.ratio_of(ClusterId(1)), ASSUMED_MID);
    assert_eq!(m.core().perf.ratio_of(ClusterId(2)), 2.0);
    assert_eq!(m.core().learner().mean_recent_error(), None);
}
