//! Property-based tests for the heartbeats framework.

use heartbeats::{HeartbeatMonitor, HeartbeatRecord, PerfTarget, RateWindow};
use proptest::prelude::*;

proptest! {
    /// The windowed rate of any monotone timestamp sequence is finite,
    /// non-negative, and bracketed by the fastest/slowest interval.
    #[test]
    fn window_rate_is_bracketed(
        intervals in proptest::collection::vec(1u64..1_000_000_000, 2..50),
        capacity in 2usize..20,
    ) {
        let mut w = RateWindow::new(capacity);
        let mut t = 0u64;
        for (i, dt) in intervals.iter().enumerate() {
            t += dt;
            w.push(HeartbeatRecord::new(i as u64, t));
        }
        let rate = w.rate().expect("≥2 distinct timestamps").heartbeats_per_sec();
        let fastest = 1e9 / *intervals.iter().min().unwrap() as f64;
        let slowest = 1e9 / *intervals.iter().max().unwrap() as f64;
        prop_assert!(rate <= fastest * (1.0 + 1e-9));
        prop_assert!(rate >= slowest * (1.0 - 1e-9));
    }

    /// Target bands classify every rate into exactly one class.
    #[test]
    fn classification_is_total_and_exclusive(
        min in 0.001f64..1_000.0,
        width in 0.001f64..100.0,
        rate in 0.0f64..10_000.0,
    ) {
        let t = PerfTarget::new(min, min + width).unwrap();
        let classes = [
            t.is_underperforming(rate),
            t.satisfied_by(rate),
            t.is_overperforming(rate),
        ];
        prop_assert_eq!(classes.iter().filter(|&&c| c).count(), 1);
        // needs_adaptation is consistent with the half-width trigger.
        let trig = (rate - t.avg()).abs() > t.half_width();
        prop_assert_eq!(t.needs_adaptation(rate), trig);
    }

    /// The monitor counts every emission, for any emission pattern.
    #[test]
    fn monitor_bookkeeping(intervals in proptest::collection::vec(0u64..10_000, 1..100)) {
        let mut m = HeartbeatMonitor::new(8);
        let mut t = 0u64;
        for dt in &intervals {
            t += dt;
            m.emit(t);
        }
        prop_assert_eq!(m.total_heartbeats(), intervals.len() as u64);
    }

    /// Normalized performance is monotone in the rate.
    #[test]
    fn normalized_perf_monotone(
        center in 0.1f64..1_000.0,
        r1 in 0.0f64..2_000.0,
        r2 in 0.0f64..2_000.0,
    ) {
        let t = PerfTarget::from_center(center, 0.1).unwrap();
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        prop_assert!(t.normalized_performance(lo) <= t.normalized_performance(hi) + 1e-12);
    }
}
