use std::collections::VecDeque;

use crate::{HeartbeatRate, HeartbeatRecord};

/// Sliding window over the most recent heartbeats, from which the current
/// heartbeat rate is computed.
///
/// The window holds up to `capacity` records; the *window rate* is the
/// number of intervals in the window divided by the time they span, which
/// smooths out per-heartbeat jitter the same way the Application
/// Heartbeats reference implementation does.
///
/// ```
/// use heartbeats::{HeartbeatRecord, RateWindow};
/// let mut w = RateWindow::new(4);
/// for i in 0..10u64 {
///     w.push(HeartbeatRecord::new(i, i * 100_000_000)); // 10 hb/s
/// }
/// assert!((w.rate().unwrap().heartbeats_per_sec() - 10.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct RateWindow {
    records: VecDeque<HeartbeatRecord>,
    capacity: usize,
}

impl RateWindow {
    /// Creates a window holding at most `capacity` heartbeats.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2`; a rate needs at least one interval.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "rate window needs capacity >= 2");
        Self {
            records: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Appends a heartbeat, evicting the oldest once full.
    pub fn push(&mut self, record: HeartbeatRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(record);
    }

    /// Number of heartbeats currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no heartbeats have been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Maximum number of heartbeats the window retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The rate over the current window: `(len - 1)` intervals divided by
    /// the spanned time. `None` until two heartbeats with distinct
    /// timestamps are present.
    pub fn rate(&self) -> Option<HeartbeatRate> {
        let first = self.records.front()?;
        let last = self.records.back()?;
        let span = last.timestamp_ns().checked_sub(first.timestamp_ns())?;
        HeartbeatRate::from_span(self.records.len() as u64 - 1, span)
    }

    /// Iterates over the retained heartbeats, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &HeartbeatRecord> {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beat(i: u64, t: u64) -> HeartbeatRecord {
        HeartbeatRecord::new(i, t)
    }

    #[test]
    fn empty_window_has_no_rate() {
        let w = RateWindow::new(4);
        assert!(w.rate().is_none());
        assert!(w.is_empty());
    }

    #[test]
    fn single_heartbeat_has_no_rate() {
        let mut w = RateWindow::new(4);
        w.push(beat(0, 100));
        assert!(w.rate().is_none());
    }

    #[test]
    fn two_heartbeats_give_rate() {
        let mut w = RateWindow::new(4);
        w.push(beat(0, 0));
        w.push(beat(1, 500_000_000)); // 0.5 s apart -> 2 hb/s
        let r = w.rate().unwrap();
        assert!((r.heartbeats_per_sec() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn window_evicts_oldest() {
        let mut w = RateWindow::new(3);
        // Slow beats first, then fast ones; once slow ones are evicted the
        // windowed rate reflects only the fast regime.
        w.push(beat(0, 0));
        w.push(beat(1, 1_000_000_000));
        w.push(beat(2, 1_100_000_000));
        w.push(beat(3, 1_200_000_000));
        w.push(beat(4, 1_300_000_000));
        assert_eq!(w.len(), 3);
        let r = w.rate().unwrap();
        assert!((r.heartbeats_per_sec() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn identical_timestamps_yield_no_rate() {
        let mut w = RateWindow::new(4);
        w.push(beat(0, 5));
        w.push(beat(1, 5));
        assert!(w.rate().is_none());
    }

    #[test]
    #[should_panic(expected = "capacity >= 2")]
    fn tiny_capacity_panics() {
        let _ = RateWindow::new(1);
    }
}
