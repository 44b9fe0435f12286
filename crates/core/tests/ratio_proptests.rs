//! Property-based tests for the ratio-learning subsystem.

use proptest::prelude::*;

use hars_core::ratio_learn::{legacy_fast_nudge, PendingPrediction, RatioLearner};
use hars_core::{HarsConfig, PerfEstimator, RatioLearning, RuntimeManager};
use heartbeats::PerfTarget;
use hmp_sim::{BoardSpec, ClusterId, FreqKhz};

fn share_triple(a: f64, b: f64) -> [f64; 3] {
    // Any (a, b) in the unit square maps to a point on the 2-simplex.
    [1.0 - a, a * (1.0 - b), a * b]
}

fn power() -> hars_core::PowerEstimator {
    use hars_core::power_est::LinearCoeff;
    let board = BoardSpec::odroid_xu3();
    hars_core::PowerEstimator::from_clusters(
        board
            .cluster_ids()
            .map(|c| {
                let ladder = board.ladder(c).clone();
                let table: Vec<LinearCoeff> = (0..ladder.len())
                    .map(|i| LinearCoeff {
                        alpha: 0.2 + 0.3 * c.index() as f64 + 0.05 * i as f64,
                        beta: 0.2,
                    })
                    .collect();
                (ladder, table)
            })
            .collect(),
    )
}

proptest! {
    /// Whatever evidence arrives — any rates, any share movements — a
    /// learned ratio never leaves its per-cluster clamp range, never
    /// goes non-finite, and the reference cluster never moves.
    #[test]
    fn learned_ratios_respect_clamps(
        pairs in proptest::collection::vec(
            (0.01f64..200.0, 0.01f64..200.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
            1..80,
        ),
    ) {
        let base = FreqKhz::from_mhz(1_000);
        let mut est = PerfEstimator::from_ratios(&[1.0, 1.3, 2.2], base);
        let mut learner = RatioLearner::new(RatioLearning::PerCluster, &est);
        let (mid_lo, mid_hi) = learner.clamp_range(ClusterId(1));
        let (pr_lo, pr_hi) = learner.clamp_range(ClusterId(2));
        for (pred, obs, a1, b1, a2, b2) in pairs {
            let p = PendingPrediction::from_shares(
                pred,
                &share_triple(a1, b1),
                &share_triple(a2, b2),
            );
            learner.observe(&p, obs, &mut est);
            let mid = est.ratio_of(ClusterId(1));
            let prime = est.ratio_of(ClusterId(2));
            prop_assert!(mid.is_finite() && (mid_lo..=mid_hi).contains(&mid), "mid {}", mid);
            prop_assert!(prime.is_finite() && (pr_lo..=pr_hi).contains(&prime), "prime {}", prime);
            prop_assert_eq!(est.ratio_of(ClusterId(0)), 1.0);
        }
    }

    /// `FastOnly` is bit-identical to folding the legacy scalar nudge
    /// over the same `(prediction, observation, share-move)` sequence.
    #[test]
    fn fast_only_is_bit_identical_to_legacy_nudge(
        pairs in proptest::collection::vec(
            (0.0f64..60.0, 0.0f64..60.0, 0.0f64..1.0, 0.0f64..1.0),
            1..60,
        ),
    ) {
        let base = FreqKhz::from_mhz(1_000);
        let mut est = PerfEstimator::from_ratios(&[1.0, 1.5], base);
        let mut learner = RatioLearner::new(RatioLearning::FastOnly, &est);
        let mut legacy_r0 = 1.5f64;
        for (pred, obs, old_big, new_big) in pairs {
            let p = PendingPrediction::from_shares(
                pred,
                &[1.0 - old_big, old_big],
                &[1.0 - new_big, new_big],
            );
            learner.observe(&p, obs, &mut est);
            // The legacy manager ran exactly this arithmetic inline.
            if pred > 0.0 && obs > 0.0 {
                if let Some(r0) = legacy_fast_nudge(legacy_r0, pred, obs, new_big - old_big) {
                    legacy_r0 = r0;
                }
            }
            prop_assert_eq!(est.r0(), legacy_r0, "diverged from the legacy fold");
            // FastOnly never touches the reference cluster.
            prop_assert_eq!(est.ratio_of(ClusterId(0)), 1.0);
        }
    }

    /// When every prediction comes true exactly, `FastOnly` applies
    /// only identity updates, so an `Off` manager and a `FastOnly`
    /// manager driven by the same model-following feedback produce
    /// bit-identical decision streams — the legacy two-cluster behavior
    /// is preserved.
    #[test]
    fn off_and_fast_only_identical_under_exact_predictions(
        start_rate in 2.0f64..60.0,
        target_center in 5.0f64..25.0,
    ) {
        let board = BoardSpec::odroid_xu3();
        let target = PerfTarget::from_center(target_center, 0.1).unwrap();
        let perf = PerfEstimator::paper_default(board.base_freq);
        let mk = |mode: RatioLearning| {
            RuntimeManager::new(
                &board,
                target,
                perf,
                power(),
                8,
                HarsConfig {
                    ratio_learning: mode,
                    adapt_every: 1,
                    ..HarsConfig::default()
                },
            )
        };
        let mut off = mk(RatioLearning::Off);
        let mut fast = mk(RatioLearning::FastOnly);
        let mut rate = start_rate;
        for hb in 1..=30u64 {
            let before = off.state();
            let d_off = off.on_heartbeat(hb, Some(rate));
            let d_fast = fast.on_heartbeat(hb, Some(rate));
            prop_assert_eq!(&d_off, &d_fast, "decision streams diverged at hb {}", hb);
            if let Some(d) = d_off {
                // Model-following world: the observation equals the
                // estimator's own prediction, so the rate error is
                // exactly 1 and the nudge is the identity.
                rate = perf.estimate_rate(rate, 8, &before, &d.state);
            }
            prop_assert_eq!(fast.core().perf.r0(), 1.5);
            prop_assert_eq!(off.core().perf.r0(), 1.5);
        }
    }
}
