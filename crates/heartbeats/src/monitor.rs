use crate::{HeartbeatRate, HeartbeatRecord, PerfTarget, RateWindow};

/// Monitors the heartbeats of one application: accepts emissions, tracks
/// the sliding-window rate, and classifies it against an optional
/// [`PerfTarget`].
///
/// This is the observation half of the self-adaptive loop. In HARS the
/// runtime manager polls [`HeartbeatMonitor::window_rate`] at each
/// adaptation period.
#[derive(Debug, Clone)]
pub struct HeartbeatMonitor {
    window: RateWindow,
    target: Option<PerfTarget>,
    total: u64,
    first_ns: Option<u64>,
    last_ns: Option<u64>,
}

impl HeartbeatMonitor {
    /// Creates a monitor with a rate window of `window` heartbeats and no
    /// target band.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2` (see [`RateWindow::new`]).
    pub fn new(window: usize) -> Self {
        Self {
            window: RateWindow::new(window),
            target: None,
            total: 0,
            first_ns: None,
            last_ns: None,
        }
    }

    /// Creates a monitor with a target band attached.
    pub fn with_target(target: PerfTarget, window: usize) -> Self {
        let mut m = Self::new(window);
        m.target = Some(target);
        m
    }

    /// Sets or replaces the target band.
    pub fn set_target(&mut self, target: PerfTarget) {
        self.target = Some(target);
    }

    /// The registered target band, if any.
    pub fn target(&self) -> Option<&PerfTarget> {
        self.target.as_ref()
    }

    /// Emits a heartbeat at `timestamp_ns`, assigning the next index.
    ///
    /// Returns the recorded heartbeat. Out-of-order timestamps are
    /// clamped forward to the previous timestamp (a real framework
    /// serializes emissions; under a virtual clock this cannot happen and
    /// is checked in debug builds).
    pub fn emit(&mut self, timestamp_ns: u64) -> HeartbeatRecord {
        let ts = match self.last_ns {
            Some(prev) => {
                debug_assert!(timestamp_ns >= prev, "heartbeat time went backwards");
                timestamp_ns.max(prev)
            }
            None => timestamp_ns,
        };
        let record = HeartbeatRecord::new(self.total, ts);
        self.window.push(record);
        self.total += 1;
        self.first_ns.get_or_insert(ts);
        self.last_ns = Some(ts);
        record
    }

    /// Total number of heartbeats ever emitted.
    pub fn total_heartbeats(&self) -> u64 {
        self.total
    }

    /// The sliding-window heartbeat rate (the paper's `hb.rate`).
    pub fn window_rate(&self) -> Option<HeartbeatRate> {
        self.window.rate()
    }

    /// The rate over the whole run (first to last heartbeat).
    pub fn global_rate(&self) -> Option<HeartbeatRate> {
        let first = self.first_ns?;
        let last = self.last_ns?;
        if self.total < 2 {
            return None;
        }
        HeartbeatRate::from_span(self.total - 1, last.checked_sub(first)?)
    }

    /// `true` when the window rate violates the target band (Algorithm 1
    /// line 7). `false` when no target or no rate is available yet.
    pub fn needs_adaptation(&self) -> bool {
        match (self.target, self.window_rate()) {
            (Some(t), Some(r)) => t.needs_adaptation(r.heartbeats_per_sec()),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_assigns_sequential_indices() {
        let mut m = HeartbeatMonitor::new(4);
        assert_eq!(m.emit(0).index(), 0);
        assert_eq!(m.emit(10).index(), 1);
        assert_eq!(m.emit(20).index(), 2);
        assert_eq!(m.total_heartbeats(), 3);
    }

    #[test]
    fn window_and_global_rates_agree_for_steady_beat() {
        let mut m = HeartbeatMonitor::new(8);
        for i in 0..20u64 {
            m.emit(i * 250_000_000); // 4 hb/s
        }
        let w = m.window_rate().unwrap().heartbeats_per_sec();
        let g = m.global_rate().unwrap().heartbeats_per_sec();
        assert!((w - 4.0).abs() < 1e-9);
        assert!((g - 4.0).abs() < 1e-9);
    }

    #[test]
    fn needs_adaptation_tracks_target() {
        let target = PerfTarget::new(3.5, 4.5).unwrap();
        let mut m = HeartbeatMonitor::with_target(target, 4);
        for i in 0..8u64 {
            m.emit(i * 250_000_000); // 4 hb/s, inside band
        }
        assert!(!m.needs_adaptation());
        // Slow down to 1 hb/s; window fills with slow intervals.
        let mut t = 8 * 250_000_000;
        for _ in 0..8u64 {
            t += 1_000_000_000;
            m.emit(t);
        }
        assert!(m.needs_adaptation());
    }
}
