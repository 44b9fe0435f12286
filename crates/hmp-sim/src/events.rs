//! The engine's event heap: a min-heap of component wake-ups.
//!
//! In event-heap mode the engine keeps a `(due_ns, component)` heap
//! over the *control* event sources — deferred actions, the GTS
//! scheduler tick, the power-sensor sample schedule, duty-cycle sleep
//! wake-ups and fault onsets — so finding the next control event is a
//! heap peek instead of a rescan of the action map and every thread.
//!
//! Entries are **scheduling hints, not authority**. The authoritative
//! state (the action `BTreeMap`, `next_tick_ns`, the sensor schedule,
//! each thread's `BlockReason::Sleep`) lives where it always did; a
//! popped entry is validated against it and silently dropped when
//! stale (lazy deletion). Components are never *removed* from the
//! heap on reschedule — a tick that fires pushes its successor and
//! leaves the old entry to die on its next peek — so the hot path
//! never rebuilds or searches the heap.
//!
//! Work-item **completions are deliberately not heap entries**. The
//! fixed-step reference recomputes each runnable thread's completion
//! delta `ceil(work_left · k / speed · 1e9)` from *current* state on
//! every step; a heap entry would have to store an absolute completion
//! instant computed once, and replaying `work_left -= dt·speed/k`
//! before re-deriving the remainder perturbs the final ulp of the
//! division — a ±1 ns drift in completion instants that shifts every
//! downstream heartbeat timestamp and breaks the engine's bit-identity
//! contract (`ScenarioOutcome::fingerprint`, the CI golden gate).
//! Instead the engine memoizes per-core speed vectors stamped with
//! `(run-queue epoch, frequency epoch)` — see `Engine::speed_cache` —
//! which removes the `speed_of` recomputation the per-step scan paid
//! for, while keeping the completion arithmetic identical to the
//! reference stepper.
//!
//! The heap is not consulted inside the engine's two fast-forward
//! loops. A fully-idle span and a busy span of pure GTS ticks are each
//! bounded up front by the earliest non-tick control event (action,
//! fault onset, sleep wake-up, sensor sample for busy spans, or the
//! deadline), read from the authoritative state; the loop then walks
//! tick boundaries without pushing an entry per tick and re-arms the
//! `Tick` hint once when the span ends.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which component a heap entry wakes. The discriminant order is part
/// of `Ord` but never observable: the engine only uses the *time* of
/// the earliest valid entry, and every component due at that instant
/// is processed in the engine's canonical fixed order regardless of
/// how same-instant entries tie-break in the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum EventKey {
    /// A deferred-action batch keyed at its due instant.
    Action,
    /// A GTS scheduler tick; valid while `due == next_tick_ns`.
    Tick,
    /// A power-sensor sample; valid while `due == next_sample_ns`.
    Sensor,
    /// A sleeping duty-cycle thread's wake-up; valid while the thread
    /// is still `Blocked(Sleep { until_ns == due })`.
    Sleep {
        /// Engine thread-table index.
        tid: usize,
    },
    /// A scheduled fault onset; valid while the fault plan's cursor
    /// still points at this instant (`FaultPlan::next_due() == due`).
    Fault,
}

/// Min-heap of `(due_ns, EventKey)` wake-ups with lazy deletion.
#[derive(Debug, Default)]
pub(crate) struct EventHeap {
    heap: BinaryHeap<Reverse<(u64, EventKey)>>,
}

impl EventHeap {
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a component wake-up at `due_ns`. Duplicates are fine:
    /// stale twins fail validation and are dropped on a later peek.
    pub fn push(&mut self, due_ns: u64, key: EventKey) {
        self.heap.push(Reverse((due_ns, key)));
    }

    /// The earliest entry, without validation.
    pub fn peek(&self) -> Option<(u64, EventKey)> {
        self.heap.peek().map(|Reverse(e)| *e)
    }

    /// Drops the earliest entry (caller found it stale).
    pub fn pop(&mut self) {
        self.heap.pop();
    }

    /// Entries currently queued (stale ones included) — test hook for
    /// the "no rebuilds, bounded growth" property.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut h = EventHeap::new();
        h.push(30, EventKey::Tick);
        h.push(10, EventKey::Sleep { tid: 3 });
        h.push(20, EventKey::Action);
        let mut seen = Vec::new();
        while let Some((t, _)) = h.peek() {
            seen.push(t);
            h.pop();
        }
        assert_eq!(seen, vec![10, 20, 30]);
    }

    #[test]
    fn duplicates_coexist() {
        let mut h = EventHeap::new();
        h.push(5, EventKey::Sensor);
        h.push(5, EventKey::Sensor);
        assert_eq!(h.len(), 2);
        assert_eq!(h.peek(), Some((5, EventKey::Sensor)));
    }
}
