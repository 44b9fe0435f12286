//! The Linux HMP Global Task Scheduling (GTS) model.
//!
//! GTS (the "big.LITTLE MP" patch set in Linux 3.10, the kernel the paper
//! runs) tracks a load average per thread and migrates threads between
//! clusters with two thresholds:
//!
//! * **up-migration**: a thread on the little cluster whose load reaches
//!   `up_threshold` is moved to the big cluster;
//! * **down-migration**: a thread on the big cluster whose load falls
//!   below `down_threshold` is moved to the little cluster.
//!
//! Within a cluster, a greedy balance pass evens out run-queue lengths.
//!
//! This reproduces the baseline behaviour the paper criticizes: for
//! CPU-bound multithreaded applications every thread's load saturates at
//! 1.0, so GTS packs all of them onto the big cluster and leaves the
//! little cores idle even when the big cluster is oversubscribed
//! (Section 4.1.1).

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::board::{BoardSpec, ClusterId};
use crate::cpuset::CoreId;
use crate::sched::{migrate_thread, CoreState};
use crate::thread::{RunState, ThreadState};

/// GTS tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GtsConfig {
    /// Scheduler tick period (load update + migration check), ns.
    pub tick_ns: u64,
    /// Load at or above which a little-cluster thread migrates up.
    pub up_threshold: f64,
    /// Load below which a big-cluster thread migrates down.
    pub down_threshold: f64,
    /// EWMA decay per tick: `load = decay·load + (1−decay)·frac`.
    pub load_decay: f64,
    /// Minimum run-queue length difference that triggers an in-cluster
    /// balance migration.
    pub balance_imbalance: usize,
    /// Up-migration only targets a big core whose run queue holds at
    /// most this many threads — a loaded big cluster stops attracting
    /// more work (the patchset checks the destination's capacity).
    pub up_migration_max_busy: usize,
    /// An idle core pulls a thread from any core whose run queue is at
    /// least this long (cross-cluster idle balancing; 0 disables).
    /// At the default 3, a single 8-thread app still packs onto the big
    /// cluster (2 threads/core), but two such apps spill onto the
    /// little cores instead of leaving half the board idle.
    pub idle_pull_min_queue: usize,
}

impl Default for GtsConfig {
    /// Values patterned on the Linux 3.10 big.LITTLE MP defaults
    /// (thresholds 80%/30%, ~4 ms scheduling period).
    fn default() -> Self {
        Self {
            tick_ns: 4_000_000,
            up_threshold: 0.80,
            down_threshold: 0.30,
            load_decay: 0.5,
            balance_imbalance: 2,
            up_migration_max_busy: 1,
            idle_pull_min_queue: 3,
        }
    }
}

impl GtsConfig {
    /// Validates threshold ordering and ranges.
    ///
    /// # Panics
    ///
    /// Panics when thresholds are outside `[0, 1]`, inverted, or the tick
    /// is zero — these are programmer errors in experiment setup.
    pub fn assert_valid(&self) {
        assert!(self.tick_ns > 0, "GTS tick must be positive");
        assert!(
            (0.0..=1.0).contains(&self.up_threshold) && (0.0..=1.0).contains(&self.down_threshold),
            "GTS thresholds must be fractions"
        );
        assert!(
            self.down_threshold <= self.up_threshold,
            "down threshold must not exceed up threshold"
        );
        assert!(
            (0.0..1.0).contains(&self.load_decay),
            "decay must be in [0,1)"
        );
    }
}

/// One scheduler tick: update the load average of every thread in the
/// `live` thread-id ranges from its runnable time since the previous
/// tick, then run the GTS migration and balance passes. Returns `true`
/// when any pass moved a thread.
///
/// The engine passes the ranges of the apps not yet done; a thread
/// outside them has finished and is never runnable again.
pub(crate) fn gts_tick(
    cfg: &GtsConfig,
    board: &BoardSpec,
    threads: &mut [ThreadState],
    cores: &mut [CoreState],
    live: &[Range<usize>],
) -> bool {
    update_loads(cfg, threads, live);
    let mut moved = migration_pass(cfg, board, threads, cores, live);
    for cluster in board.cluster_ids() {
        moved |= balance_cluster(cfg, cluster, threads, cores);
    }
    moved | idle_pull(cfg, threads, cores)
}

/// Updates the load EWMAs of the threads in the `live` ranges and
/// resets their per-tick counters. A finished thread is skipped, so
/// its load stays at its last value.
pub(crate) fn update_loads(cfg: &GtsConfig, threads: &mut [ThreadState], live: &[Range<usize>]) {
    for r in live {
        for t in &mut threads[r.clone()] {
            if t.run == RunState::Finished {
                continue;
            }
            let frac = (t.runnable_ns_since_tick as f64 / cfg.tick_ns as f64).min(1.0);
            t.load = cfg.load_decay * t.load + (1.0 - cfg.load_decay) * frac;
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
    cfg: &GtsConfig,
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
        let (target_cluster, upward) = if threads[tid].load >= cfg.up_threshold {
            match board.faster_cluster(cluster) {
                Some(c) => (c, true),
                None => continue,
            }
        } else if threads[tid].load < cfg.down_threshold {
            match board.slower_cluster(cluster) {
                Some(c) => (c, false),
                None => continue,
            }
        } else {
            continue;
        };
        if let Some(dest) = least_loaded_core(target_cluster, &threads[tid], cores) {
            // A saturated faster cluster stops attracting up-migrations.
            if upward && cores[dest.0].nr_running() > cfg.up_migration_max_busy {
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
    cfg: &GtsConfig,
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
        if cores[busiest.0].nr_running() < cores[idlest.0].nr_running() + cfg.balance_imbalance {
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
/// the longest run queue on the board once that queue reaches the
/// configured threshold. Returns `true` when it moved a thread.
fn idle_pull(cfg: &GtsConfig, threads: &mut [ThreadState], cores: &mut [CoreState]) -> bool {
    if cfg.idle_pull_min_queue == 0 {
        return false;
    }
    let mut moved = false;
    for idle_idx in 0..cores.len() {
        if cores[idle_idx].nr_running() > 0 {
            continue;
        }
        let idle_id = cores[idle_idx].id;
        let busiest = cores
            .iter()
            .filter(|c| c.nr_running() >= cfg.idle_pull_min_queue)
            .max_by_key(|c| (c.nr_running(), c.id.0))
            .map(|c| c.id);
        let Some(src) = busiest else {
            continue;
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
    fn tick(
        cfg: &GtsConfig,
        board: &BoardSpec,
        threads: &mut [ThreadState],
        cores: &mut [CoreState],
    ) -> bool {
        let all = 0..threads.len();
        gts_tick(cfg, board, threads, cores, std::slice::from_ref(&all))
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
    fn default_config_is_valid() {
        GtsConfig::default().assert_valid();
    }

    #[test]
    fn load_ewma_converges_to_runnable_fraction() {
        let cfg = GtsConfig::default();
        let (_b, mut threads, _c) = setup(1);
        for _ in 0..32 {
            threads[0].runnable_ns_since_tick = cfg.tick_ns; // fully busy
            update_loads(&cfg, &mut threads, std::slice::from_ref(&(0..1)));
        }
        assert!((threads[0].load - 1.0).abs() < 1e-6);
        for _ in 0..32 {
            threads[0].runnable_ns_since_tick = cfg.tick_ns / 4;
            update_loads(&cfg, &mut threads, std::slice::from_ref(&(0..1)));
        }
        assert!((threads[0].load - 0.25).abs() < 1e-6);
    }

    #[test]
    fn busy_little_thread_migrates_up() {
        let cfg = GtsConfig::default();
        let (board, mut threads, mut cores) = setup(1);
        threads[0].core = Some(CoreId(0)); // little
        cores[0].runnable.push(0);
        // Fully busy across several ticks: load converges above the
        // up-migration threshold.
        for _ in 0..8 {
            threads[0].runnable_ns_since_tick = cfg.tick_ns;
            tick(&cfg, &board, &mut threads, &mut cores);
        }
        let dest = threads[0].core.unwrap();
        assert_eq!(board.cluster_of(dest), ClusterId::BIG);
    }

    #[test]
    fn idle_big_thread_migrates_down() {
        let cfg = GtsConfig::default();
        let (board, mut threads, mut cores) = setup(1);
        threads[0].core = Some(CoreId(5));
        cores[5].runnable.push(0);
        threads[0].load = 0.9;
        // Thread is idle from now on: runnable time 0 each tick.
        for _ in 0..8 {
            tick(&cfg, &board, &mut threads, &mut cores);
        }
        let dest = threads[0].core.unwrap();
        assert_eq!(board.cluster_of(dest), ClusterId::LITTLE);
    }

    #[test]
    fn pinned_threads_never_migrate() {
        let cfg = GtsConfig::default();
        let (board, mut threads, mut cores) = setup(1);
        threads[0].affinity = CpuSet::single(CoreId(0));
        threads[0].core = Some(CoreId(0));
        cores[0].runnable.push(0);
        threads[0].load = 1.0;
        tick(&cfg, &board, &mut threads, &mut cores);
        assert_eq!(threads[0].core, Some(CoreId(0)));
    }

    #[test]
    fn cpu_bound_threads_pack_onto_big_cluster() {
        // The paper's baseline pathology: 8 CPU-bound threads all end up
        // on the 4 big cores; little cores sit idle.
        let cfg = GtsConfig::default();
        let (board, mut threads, mut cores) = setup(8);
        for (tid, t) in threads.iter_mut().enumerate() {
            t.core = Some(CoreId(tid % 4)); // start on little
            cores[tid % 4].runnable.push(tid);
        }
        for _ in 0..16 {
            for t in threads.iter_mut() {
                t.runnable_ns_since_tick = cfg.tick_ns;
            }
            tick(&cfg, &board, &mut threads, &mut cores);
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
        let cfg = GtsConfig::default();
        let (_board, mut threads, mut cores) = setup(4);
        // All four threads dumped on big core 4.
        for (tid, t) in threads.iter_mut().enumerate() {
            t.core = Some(CoreId(4));
            cores[4].runnable.push(tid);
            t.load = 0.9; // stay on big
        }
        balance_cluster(&cfg, ClusterId::BIG, &mut threads, &mut cores);
        let counts: Vec<usize> = (4..8).map(|i| cores[i].nr_running()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 4);
        assert!(counts.iter().all(|&c| c == 1), "unbalanced: {counts:?}");
    }

    #[test]
    fn balance_respects_affinity() {
        let cfg = GtsConfig::default();
        let (_board, mut threads, mut cores) = setup(3);
        for (tid, t) in threads.iter_mut().enumerate() {
            t.affinity = CpuSet::single(CoreId(4));
            t.core = Some(CoreId(4));
            cores[4].runnable.push(tid);
        }
        balance_cluster(&cfg, ClusterId::BIG, &mut threads, &mut cores);
        assert_eq!(cores[4].nr_running(), 3, "pinned threads must stay");
    }

    #[test]
    fn sixteen_threads_spread_across_both_clusters() {
        // Two 8-thread CPU-bound apps: the big cluster saturates at 2
        // threads/core and idle little cores pull the excess — the
        // multi-application baseline uses the whole board.
        let cfg = GtsConfig::default();
        let (board, mut threads, mut cores) = setup(16);
        for (tid, t) in threads.iter_mut().enumerate() {
            t.core = Some(CoreId(tid % 8));
            cores[tid % 8].runnable.push(tid);
        }
        for _ in 0..32 {
            for t in threads.iter_mut() {
                t.runnable_ns_since_tick = cfg.tick_ns;
            }
            tick(&cfg, &board, &mut threads, &mut cores);
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
        let cfg = GtsConfig::default();
        let (_board, mut threads, mut cores) = setup(3);
        for (tid, t) in threads.iter_mut().enumerate() {
            t.affinity = CpuSet::single(CoreId(4));
            t.core = Some(CoreId(4));
            cores[4].runnable.push(tid);
        }
        idle_pull(&cfg, &mut threads, &mut cores);
        assert_eq!(cores[4].nr_running(), 3, "pinned threads cannot be pulled");
    }

    #[test]
    #[should_panic(expected = "down threshold must not exceed")]
    fn inverted_thresholds_panic() {
        let cfg = GtsConfig {
            up_threshold: 0.2,
            down_threshold: 0.8,
            ..GtsConfig::default()
        };
        cfg.assert_valid();
    }
}
