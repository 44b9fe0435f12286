//! In-simulator scheduling: per-core run queues, thread placement, and
//! the Linux HMP Global Task Scheduling (GTS) model.

pub(crate) mod gts;

pub use gts::GTS_TICK_NS;

use crate::board::ClusterId;
use crate::cpuset::CoreId;
use crate::thread::ThreadState;

/// Per-core scheduler state.
#[derive(Debug, Clone)]
pub(crate) struct CoreState {
    /// The core's id.
    pub id: CoreId,
    /// Cluster membership (cached from the board).
    pub cluster: ClusterId,
    /// Engine thread-table indices of runnable threads placed here.
    pub runnable: Vec<usize>,
    /// Total time this core has been busy (ns).
    pub busy_ns: u64,
    /// Bumped on every mutation of `runnable` (membership or order).
    /// The engine's per-core speed caches are stamped with this epoch
    /// so they invalidate lazily, exactly when the queue changed.
    pub rq_epoch: u64,
}

impl CoreState {
    pub fn new(id: CoreId, cluster: ClusterId) -> Self {
        Self {
            id,
            cluster,
            runnable: Vec::new(),
            busy_ns: 0,
            rq_epoch: 0,
        }
    }

    /// Number of runnable threads sharing this core.
    pub fn nr_running(&self) -> usize {
        self.runnable.len()
    }
}

/// Places a runnable thread on the allowed core with the fewest runnable
/// threads (ties broken by lowest core id), preferring the thread's last
/// core when it is tied for least loaded — which minimizes migrations,
/// like a real scheduler's cache-affinity heuristic.
///
/// # Panics
///
/// Panics if the thread's affinity mask contains no valid core.
pub(crate) fn place_thread(tid: usize, threads: &mut [ThreadState], cores: &mut [CoreState]) {
    debug_assert!(threads[tid].is_runnable(), "placing a non-runnable thread");
    let affinity = threads[tid].affinity;
    let last = threads[tid].core;
    let mut best: Option<CoreId> = None;
    let mut best_load = usize::MAX;
    for core in cores.iter() {
        if !affinity.contains(core.id) {
            continue;
        }
        let load = core.nr_running();
        let better = load < best_load || (load == best_load && Some(core.id) == last);
        if better {
            best = Some(core.id);
            best_load = load;
        }
    }
    let target = best.expect("thread affinity mask has no core on this board");
    threads[tid].core = Some(target);
    cores[target.0].runnable.push(tid);
    cores[target.0].rq_epoch += 1;
}

/// Removes a thread from its core's run queue (e.g. when it blocks).
/// The thread keeps its `core` field as the "last core" hint.
pub(crate) fn dequeue_thread(tid: usize, threads: &[ThreadState], cores: &mut [CoreState]) {
    if let Some(core) = threads[tid].core {
        let rq = &mut cores[core.0].runnable;
        if let Some(pos) = rq.iter().position(|&t| t == tid) {
            rq.swap_remove(pos);
            cores[core.0].rq_epoch += 1;
        }
    }
}

/// Moves a runnable thread to a specific core.
pub(crate) fn migrate_thread(
    tid: usize,
    to: CoreId,
    threads: &mut [ThreadState],
    cores: &mut [CoreState],
) {
    dequeue_thread(tid, threads, cores);
    threads[tid].core = Some(to);
    if threads[tid].is_runnable() {
        cores[to.0].runnable.push(tid);
        cores[to.0].rq_epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpuset::CpuSet;
    use crate::thread::RunState;

    fn mk_cores(n_little: usize, n_big: usize) -> Vec<CoreState> {
        (0..n_little + n_big)
            .map(|i| {
                CoreState::new(
                    CoreId(i),
                    if i < n_little {
                        ClusterId::LITTLE
                    } else {
                        ClusterId::BIG
                    },
                )
            })
            .collect()
    }

    fn mk_thread(affinity: CpuSet) -> ThreadState {
        let mut t = ThreadState::new(0, 0, affinity);
        t.run = RunState::Runnable;
        t
    }

    #[test]
    fn placement_picks_least_loaded_core() {
        let mut cores = mk_cores(2, 2);
        let mut threads = vec![
            mk_thread(CpuSet::first_n(4)),
            mk_thread(CpuSet::first_n(4)),
            mk_thread(CpuSet::first_n(4)),
        ];
        place_thread(0, &mut threads, &mut cores);
        place_thread(1, &mut threads, &mut cores);
        place_thread(2, &mut threads, &mut cores);
        // Three threads over four empty cores: all distinct.
        let assigned: Vec<_> = threads.iter().map(|t| t.core.unwrap()).collect();
        assert_eq!(assigned.len(), 3);
        assert!(assigned.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn placement_respects_affinity() {
        let mut cores = mk_cores(2, 2);
        let mut threads = vec![mk_thread(CpuSet::single(CoreId(3)))];
        place_thread(0, &mut threads, &mut cores);
        assert_eq!(threads[0].core, Some(CoreId(3)));
        assert_eq!(cores[3].nr_running(), 1);
    }

    #[test]
    fn placement_prefers_last_core_on_tie() {
        let mut cores = mk_cores(2, 2);
        let mut threads = vec![mk_thread(CpuSet::first_n(4))];
        threads[0].core = Some(CoreId(2));
        place_thread(0, &mut threads, &mut cores);
        assert_eq!(threads[0].core, Some(CoreId(2)));
    }

    #[test]
    fn dequeue_keeps_last_core_hint() {
        let mut cores = mk_cores(1, 1);
        let mut threads = vec![mk_thread(CpuSet::first_n(2))];
        place_thread(0, &mut threads, &mut cores);
        let was = threads[0].core;
        threads[0].run = RunState::Blocked(crate::thread::BlockReason::Barrier);
        dequeue_thread(0, &threads, &mut cores);
        assert_eq!(threads[0].core, was);
        assert_eq!(cores[was.unwrap().0].nr_running(), 0);
    }

    #[test]
    fn migrate_moves_run_queue_entry() {
        let mut cores = mk_cores(2, 2);
        let mut threads = vec![mk_thread(CpuSet::first_n(4))];
        place_thread(0, &mut threads, &mut cores);
        migrate_thread(0, CoreId(3), &mut threads, &mut cores);
        assert_eq!(threads[0].core, Some(CoreId(3)));
        assert_eq!(cores[3].nr_running(), 1);
        assert_eq!(cores.iter().map(|c| c.nr_running()).sum::<usize>(), 1);
    }

    #[test]
    #[should_panic(expected = "no core")]
    fn empty_affinity_panics() {
        let mut cores = mk_cores(1, 1);
        let mut threads = vec![mk_thread(CpuSet::empty())];
        place_thread(0, &mut threads, &mut cores);
    }
}
