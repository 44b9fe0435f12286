//! The Linux HMP Global Task Scheduling (GTS) model.
//!
//! GTS (the "big.LITTLE MP" patch set in Linux 3.10, the kernel the paper
//! runs) tracks a load average per thread and migrates threads between
//! clusters with two thresholds:
//!
//! * **up-migration**: a thread on the little cluster whose load reaches
//!   80 % is moved to the big cluster;
//! * **down-migration**: a thread on the big cluster whose load falls
//!   below 30 % is moved to the little cluster.
//!
//! Within a cluster, a greedy balance pass evens out run-queue lengths.
//!
//! This reproduces the baseline behaviour the paper criticizes: for
//! CPU-bound multithreaded applications every thread's load saturates at
//! 1.0, so GTS packs all of them onto the big cluster and leaves the
//! little cores idle even when the big cluster is oversubscribed
//! (Section 4.1.1).

use std::ops::Range;

use crate::board::{BoardSpec, ClusterId};
use crate::cpuset::CoreId;
use crate::sched::{migrate_thread, CoreState};
use crate::thread::{RunState, ThreadState};

// The GTS tunables, fixed at the Linux 3.10 big.LITTLE MP defaults.

/// GTS scheduler tick period (load update + migration check), ns.
pub const GTS_TICK_NS: u64 = 4_000_000;
/// Load at or above which a thread migrates up one cluster.
const UP_THRESHOLD: f64 = 0.80;
/// Load below which a thread migrates down one cluster.
const DOWN_THRESHOLD: f64 = 0.30;
/// EWMA decay per tick: `load = decay·load + (1−decay)·frac`.
pub(crate) const LOAD_DECAY: f64 = 0.5;
/// Minimum run-queue length difference that triggers an in-cluster
/// balance migration.
const BALANCE_IMBALANCE: usize = 2;
/// Up-migration only targets a core whose run queue holds at most
/// this many threads — a loaded faster cluster stops attracting more
/// work (the patchset checks the destination's capacity).
const UP_MIGRATION_MAX_BUSY: usize = 1;
/// An idle core pulls a thread from any core whose run queue is at
/// least this long (cross-cluster idle balancing). At 3, a single
/// 8-thread app still packs onto the big cluster (2 threads/core), but
/// two such apps spill onto the little cores instead of leaving half
/// the board idle.
const IDLE_PULL_MIN_QUEUE: usize = 3;

const _: () = assert!(
    DOWN_THRESHOLD <= UP_THRESHOLD && 0.0 <= LOAD_DECAY && LOAD_DECAY < 1.0,
    "GTS thresholds inverted or load decay outside [0, 1)"
);

/// One scheduler tick: update the load average of every thread in the
/// `live` thread-id ranges from its runnable time since the previous
/// tick, then run the GTS migration and balance passes. Returns `true`
/// when any pass moved a thread.
///
/// The engine passes the ranges of the apps not yet done; a thread
/// outside them has finished and is never runnable again.
pub(crate) fn gts_tick(
    board: &BoardSpec,
    threads: &mut [ThreadState],
    cores: &mut [CoreState],
    live: &[Range<usize>],
) -> bool {
    update_loads(threads, live);
    let mut moved = migration_pass(board, threads, cores, live);
    for cluster in board.cluster_ids() {
        moved |= balance_cluster(cluster, threads, cores);
    }
    moved | idle_pull(threads, cores)
}

/// Updates the load EWMAs of the threads in the `live` ranges and
/// resets their per-tick counters. A finished thread is skipped, so
/// its load stays at its last value.
pub(crate) fn update_loads(threads: &mut [ThreadState], live: &[Range<usize>]) {
    for r in live {
        for t in &mut threads[r.clone()] {
            if t.run == RunState::Finished {
                continue;
            }
            let frac = (t.runnable_ns_since_tick as f64 / GTS_TICK_NS as f64).min(1.0);
            t.load = LOAD_DECAY * t.load + (1.0 - LOAD_DECAY) * frac;
            t.runnable_ns_since_tick = 0;
        }
    }
}

/// Up/down migration between clusters for threads whose affinity allows
/// it (HARS-pinned threads have singleton masks and are never touched —
/// the paper notes HARS threads do not migrate between adaptations).
///
/// On an N-cluster board a hot thread climbs one step toward the
/// next-faster cluster and a cold thread descends one step toward the
/// next-slower one, so the 2-cluster big.LITTLE behaviour is the
/// special case. Only threads in the `live` ranges are considered.
/// Returns `true` when it moved a thread.
fn migration_pass(
    board: &BoardSpec,
    threads: &mut [ThreadState],
    cores: &mut [CoreState],
    live: &[Range<usize>],
) -> bool {
    let mut moved = false;
    for tid in live.iter().flat_map(|r| r.clone()) {
        let Some(core) = threads[tid].core else {
            continue;
        };
        if !threads[tid].is_runnable() {
            continue;
        }
        let cluster = board.cluster_of(core);
        let (target_cluster, upward) = if threads[tid].load >= UP_THRESHOLD {
            match board.faster_cluster(cluster) {
                Some(c) => (c, true),
                None => continue,
            }
        } else if threads[tid].load < DOWN_THRESHOLD {
            match board.slower_cluster(cluster) {
                Some(c) => (c, false),
                None => continue,
            }
        } else {
            continue;
        };
        if let Some(dest) = least_loaded_core(target_cluster, &threads[tid], cores) {
            // A saturated faster cluster stops attracting up-migrations.
            if upward && cores[dest.0].nr_running() > UP_MIGRATION_MAX_BUSY {
                continue;
            }
            migrate_thread(tid, dest, threads, cores);
            moved = true;
        }
    }
    moved
}

/// The allowed core of `cluster` with the shortest run queue.
fn least_loaded_core(
    cluster: ClusterId,
    thread: &ThreadState,
    cores: &[CoreState],
) -> Option<CoreId> {
    cores
        .iter()
        .filter(|c| c.cluster == cluster && thread.affinity.contains(c.id))
        .min_by_key(|c| (c.nr_running(), c.id.0))
        .map(|c| c.id)
}

/// Greedy in-cluster balancing: move one thread from the most crowded
/// run queue to the least crowded as long as the imbalance threshold is
/// met. Bounded to the cluster's thread count so it always terminates.
/// Returns `true` when it moved a thread.
fn balance_cluster(
    cluster: ClusterId,
    threads: &mut [ThreadState],
    cores: &mut [CoreState],
) -> bool {
    let max_moves = cores
        .iter()
        .filter(|c| c.cluster == cluster)
        .map(|c| c.nr_running())
        .sum::<usize>();
    let mut moved = false;
    for _ in 0..max_moves {
        let Some((busiest, idlest)) = busiest_idlest(cluster, cores) else {
            break;
        };
        if cores[busiest.0].nr_running() < cores[idlest.0].nr_running() + BALANCE_IMBALANCE {
            break;
        }
        // Pick a movable thread (affinity must allow the destination).
        let candidate = cores[busiest.0]
            .runnable
            .iter()
            .copied()
            .find(|&tid| threads[tid].affinity.contains(idlest));
        match candidate {
            Some(tid) => migrate_thread(tid, idlest, threads, cores),
            None => break,
        }
        moved = true;
    }
    moved
}

/// Cross-cluster idle balancing: every idle core pulls one thread from
/// the longest run queue on the board once that queue reaches
/// [`IDLE_PULL_MIN_QUEUE`]. Returns `true` when it moved a thread.
fn idle_pull(threads: &mut [ThreadState], cores: &mut [CoreState]) -> bool {
    let mut moved = false;
    for idle_idx in 0..cores.len() {
        if cores[idle_idx].nr_running() > 0 {
            continue;
        }
        let idle_id = cores[idle_idx].id;
        let busiest = cores
            .iter()
            .filter(|c| c.nr_running() >= IDLE_PULL_MIN_QUEUE)
            .max_by_key(|c| (c.nr_running(), c.id.0))
            .map(|c| c.id);
        // A pull shortens a queue that reached the threshold and gives
        // an idle core one thread, so once no queue reaches it, none will
        // in this pass.
        let Some(src) = busiest else {
            break;
        };
        let candidate = cores[src.0]
            .runnable
            .iter()
            .copied()
            .find(|&tid| threads[tid].affinity.contains(idle_id));
        if let Some(tid) = candidate {
            migrate_thread(tid, idle_id, threads, cores);
            moved = true;
        }
    }
    moved
}

fn busiest_idlest(cluster: ClusterId, cores: &[CoreState]) -> Option<(CoreId, CoreId)> {
    let mut busiest: Option<&CoreState> = None;
    let mut idlest: Option<&CoreState> = None;
    for c in cores.iter().filter(|c| c.cluster == cluster) {
        if busiest.is_none_or(|b| c.nr_running() > b.nr_running()) {
            busiest = Some(c);
        }
        if idlest.is_none_or(|i| c.nr_running() < i.nr_running()) {
            idlest = Some(c);
        }
    }
    match (busiest, idlest) {
        (Some(b), Some(i)) if b.id != i.id => Some((b.id, i.id)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpuset::CpuSet;

    /// One tick over every thread.
    fn tick(board: &BoardSpec, threads: &mut [ThreadState], cores: &mut [CoreState]) -> bool {
        let all = 0..threads.len();
        gts_tick(board, threads, cores, std::slice::from_ref(&all))
    }

    fn setup(n_threads: usize) -> (BoardSpec, Vec<ThreadState>, Vec<CoreState>) {
        let board = BoardSpec::odroid_xu3();
        let cores: Vec<CoreState> = (0..board.n_cores())
            .map(|i| CoreState::new(CoreId(i), board.cluster_of(CoreId(i))))
            .collect();
        let threads: Vec<ThreadState> = (0..n_threads)
            .map(|_i| {
                let mut t = ThreadState::new(0, 0, board.all_cores());
                t.run = RunState::Runnable;
                t
            })
            .collect();
        (board, threads, cores)
    }

    #[test]
    fn load_ewma_converges_to_runnable_fraction() {
        let (_b, mut threads, _c) = setup(1);
        for _ in 0..32 {
            threads[0].runnable_ns_since_tick = GTS_TICK_NS; // fully busy
            update_loads(&mut threads, std::slice::from_ref(&(0..1)));
        }
        assert!((threads[0].load - 1.0).abs() < 1e-6);
        for _ in 0..32 {
            threads[0].runnable_ns_since_tick = GTS_TICK_NS / 4;
            update_loads(&mut threads, std::slice::from_ref(&(0..1)));
        }
        assert!((threads[0].load - 0.25).abs() < 1e-6);
    }

    #[test]
    fn busy_little_thread_migrates_up() {
        let (board, mut threads, mut cores) = setup(1);
        threads[0].core = Some(CoreId(0)); // little
        cores[0].runnable.push(0);
        // Fully busy across several ticks: load converges above the
        // up-migration threshold.
        for _ in 0..8 {
            threads[0].runnable_ns_since_tick = GTS_TICK_NS;
            tick(&board, &mut threads, &mut cores);
        }
        let dest = threads[0].core.unwrap();
        assert_eq!(board.cluster_of(dest), ClusterId::BIG);
    }

    #[test]
    fn idle_big_thread_migrates_down() {
        let (board, mut threads, mut cores) = setup(1);
        threads[0].core = Some(CoreId(5));
        cores[5].runnable.push(0);
        threads[0].load = 0.9;
        // Thread is idle from now on: runnable time 0 each tick.
        for _ in 0..8 {
            tick(&board, &mut threads, &mut cores);
        }
        let dest = threads[0].core.unwrap();
        assert_eq!(board.cluster_of(dest), ClusterId::LITTLE);
    }

    #[test]
    fn pinned_threads_never_migrate() {
        let (board, mut threads, mut cores) = setup(1);
        threads[0].affinity = CpuSet::single(CoreId(0));
        threads[0].core = Some(CoreId(0));
        cores[0].runnable.push(0);
        threads[0].load = 1.0;
        tick(&board, &mut threads, &mut cores);
        assert_eq!(threads[0].core, Some(CoreId(0)));
    }

    #[test]
    fn cpu_bound_threads_pack_onto_big_cluster() {
        // The paper's baseline pathology: 8 CPU-bound threads all end up
        // on the 4 big cores; little cores sit idle.
        let (board, mut threads, mut cores) = setup(8);
        for (tid, t) in threads.iter_mut().enumerate() {
            t.core = Some(CoreId(tid % 4)); // start on little
            cores[tid % 4].runnable.push(tid);
        }
        for _ in 0..16 {
            for t in threads.iter_mut() {
                t.runnable_ns_since_tick = GTS_TICK_NS;
            }
            tick(&board, &mut threads, &mut cores);
        }
        for t in &threads {
            assert_eq!(board.cluster_of(t.core.unwrap()), ClusterId::BIG);
        }
        // And the big run queues are balanced: 2 threads per big core.
        for c in cores.iter().filter(|c| c.cluster == ClusterId::BIG) {
            assert_eq!(c.nr_running(), 2);
        }
    }

    #[test]
    fn balance_evens_run_queues() {
        let (_board, mut threads, mut cores) = setup(4);
        // All four threads dumped on big core 4.
        for (tid, t) in threads.iter_mut().enumerate() {
            t.core = Some(CoreId(4));
            cores[4].runnable.push(tid);
            t.load = 0.9; // stay on big
        }
        balance_cluster(ClusterId::BIG, &mut threads, &mut cores);
        let counts: Vec<usize> = (4..8).map(|i| cores[i].nr_running()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 4);
        assert!(counts.iter().all(|&c| c == 1), "unbalanced: {counts:?}");
    }

    #[test]
    fn balance_respects_affinity() {
        let (_board, mut threads, mut cores) = setup(3);
        for (tid, t) in threads.iter_mut().enumerate() {
            t.affinity = CpuSet::single(CoreId(4));
            t.core = Some(CoreId(4));
            cores[4].runnable.push(tid);
        }
        balance_cluster(ClusterId::BIG, &mut threads, &mut cores);
        assert_eq!(cores[4].nr_running(), 3, "pinned threads must stay");
    }

    #[test]
    fn sixteen_threads_spread_across_both_clusters() {
        // Two 8-thread CPU-bound apps: the big cluster saturates at 2
        // threads/core and idle little cores pull the excess — the
        // multi-application baseline uses the whole board.
        let (board, mut threads, mut cores) = setup(16);
        for (tid, t) in threads.iter_mut().enumerate() {
            t.core = Some(CoreId(tid % 8));
            cores[tid % 8].runnable.push(tid);
        }
        for _ in 0..32 {
            for t in threads.iter_mut() {
                t.runnable_ns_since_tick = GTS_TICK_NS;
            }
            tick(&board, &mut threads, &mut cores);
        }
        let little_threads: usize = (0..4).map(|i| cores[i].nr_running()).sum();
        let big_threads: usize = (4..8).map(|i| cores[i].nr_running()).sum();
        assert_eq!(little_threads + big_threads, 16);
        assert!(
            little_threads >= 4,
            "little cluster must absorb spill ({little_threads} threads)"
        );
        assert!(
            big_threads >= 8,
            "big cluster stays primary ({big_threads})"
        );
    }

    #[test]
    fn idle_pull_respects_affinity() {
        let (_board, mut threads, mut cores) = setup(3);
        for (tid, t) in threads.iter_mut().enumerate() {
            t.affinity = CpuSet::single(CoreId(4));
            t.core = Some(CoreId(4));
            cores[4].runnable.push(tid);
        }
        idle_pull(&mut threads, &mut cores);
        assert_eq!(cores[4].nr_running(), 3, "pinned threads cannot be pulled");
    }
}
