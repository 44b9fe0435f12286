//! Resource partitioning — the core-allocation function of MP-HARS
//! (the paper's Algorithm 4, `GetAllocatableCoreSet`), generalized to
//! any number of clusters.
//!
//! Applications own disjoint core sets. When an app's target core count
//! changes, the allocator (1) releases just-decremented cores back to
//! the cluster free lists, (2) reuses every core the app already owns —
//! "it does not need to newly assign another core because it wants to
//! minimize the thread migration" — and (3) claims free cores for any
//! remaining need, lowest index first. The same three passes run per
//! cluster.

use hmp_sim::{ClusterId, CoreId};

use crate::app_data::AppData;
use crate::cluster_data::ClusterData;

/// The cores handed to an application, per cluster in cluster-index
/// order (what the chunk/interleaving schedulers consume).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AllocatedCores {
    /// `per_cluster[c]`: the app's cores on cluster `c`, ascending.
    pub per_cluster: Vec<Vec<CoreId>>,
}

impl AllocatedCores {
    /// The cores granted on `cluster`.
    pub fn cores(&self, cluster: ClusterId) -> &[CoreId] {
        &self.per_cluster[cluster.index()]
    }

    /// Total cores allocated.
    pub fn len(&self) -> usize {
        self.per_cluster.iter().map(|c| c.len()).sum()
    }

    /// `true` when nothing is allocated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Algorithm 4: computes the app's core set for its current per-cluster
/// `state` request, mutating the app's ownership bitmaps and the
/// clusters' free lists. `clusters` is indexed by cluster id.
///
/// The request is feasible when `requested ≤ owned + free` per cluster
/// (the search's `freeCoreCnt` constraint guarantees this); an
/// infeasible request is clamped to what is available.
///
/// # Panics
///
/// Panics when `clusters` does not match the app's cluster count.
pub fn get_allocatable_core_set(app: &mut AppData, clusters: &mut [ClusterData]) -> AllocatedCores {
    assert_eq!(
        clusters.len(),
        app.n_clusters(),
        "one ClusterData per cluster of the app"
    );
    let mut per_cluster = Vec::with_capacity(clusters.len());
    for (ci, cluster) in clusters.iter_mut().enumerate() {
        let c = ClusterId(ci);
        // Lines 4–19: release pending decrements back to the free list.
        release_decrement(&mut app.owned[ci], &mut app.dec[ci], cluster);
        // Lines 20–45: reuse owned cores, then claim free ones.
        let want = app.state.cores(c);
        per_cluster.push(allocate_cluster(&mut app.owned[ci], want, cluster));
    }
    AllocatedCores { per_cluster }
}

/// Releases up to `dec` owned cores to the cluster free list (the
/// paper releases the lowest-indexed owned cores first).
// Indexed loops mirror Algorithm 4's pseudocode line by line; the
// bitmap and free-list must be updated at the same index.
#[allow(clippy::needless_range_loop)]
fn release_decrement(owned: &mut [bool], dec: &mut usize, cluster: &mut ClusterData) {
    for i in 0..owned.len() {
        if *dec == 0 {
            break;
        }
        if owned[i] {
            owned[i] = false;
            cluster.free[i] = true;
            *dec -= 1;
        }
    }
    *dec = 0;
}

/// Reuses owned cores then claims free ones until `want` cores are held;
/// returns the held cores in index order.
#[allow(clippy::needless_range_loop)]
fn allocate_cluster(owned: &mut [bool], want: usize, cluster: &mut ClusterData) -> Vec<CoreId> {
    let mut out = Vec::with_capacity(want);
    // Pass 1: reuse already-owned cores (minimize migrations).
    for i in 0..owned.len() {
        if out.len() >= want {
            break;
        }
        if owned[i] {
            cluster.free[i] = false;
            out.push(cluster.core_id(i));
        }
    }
    // Owned cores beyond the want are excess — release them. (Reached
    // when the caller shrank the request without setting a decrement;
    // Algorithm 4 proper always decrements first.)
    for i in 0..owned.len() {
        if owned[i] && !out.contains(&cluster.core_id(i)) {
            owned[i] = false;
            cluster.free[i] = true;
        }
    }
    // Pass 2: claim free cores for the remainder.
    for i in 0..owned.len() {
        if out.len() >= want {
            break;
        }
        if cluster.free[i] && !owned[i] {
            cluster.free[i] = false;
            owned[i] = true;
            out.push(cluster.core_id(i));
        }
    }
    out.sort_unstable();
    debug_assert_eq!(out.len(), owned.iter().filter(|&&u| u).count());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hars_core::SystemState;
    use heartbeats::{AppId, PerfTarget};
    use hmp_sim::FreqKhz;

    const B: ClusterId = ClusterId::BIG;
    const L: ClusterId = ClusterId::LITTLE;

    fn clusters() -> Vec<ClusterData> {
        vec![
            ClusterData::new(ClusterId::LITTLE, 0, 4, FreqKhz::from_mhz(1_300)),
            ClusterData::new(ClusterId::BIG, 4, 4, FreqKhz::from_mhz(1_600)),
        ]
    }

    fn app(id: u64, cb: usize, cl: usize) -> AppData {
        let state = SystemState::new(&[
            (cl, FreqKhz::from_mhz(1_300)),
            (cb, FreqKhz::from_mhz(1_600)),
        ]);
        AppData::new(
            AppId(id),
            8,
            PerfTarget::new(9.0, 11.0).unwrap(),
            &[4, 4],
            state,
        )
    }

    fn ids(cores: &[CoreId]) -> Vec<usize> {
        cores.iter().map(|c| c.0).collect()
    }

    #[test]
    fn first_allocation_claims_lowest_free_cores() {
        let mut cl = clusters();
        let mut a = app(0, 2, 1);
        let got = get_allocatable_core_set(&mut a, &mut cl);
        assert_eq!(ids(got.cores(B)), vec![4, 5]);
        assert_eq!(ids(got.cores(L)), vec![0]);
        assert_eq!(cl[ClusterId::BIG.index()].free_count(), 2);
        assert_eq!(cl[ClusterId::LITTLE.index()].free_count(), 3);
        assert_eq!(a.owned(B), 2);
    }

    #[test]
    fn paper_example_second_app_gets_the_free_big_cores() {
        // "ApplicationA was assigned to bigcore0-1 and ApplicationB to
        // littlecore0-1. If ApplicationB wants to use the big core, it
        // cannot get bigcore0-1; instead it can get bigcore2-3."
        let mut cl = clusters();
        let mut a = app(0, 2, 0);
        let got_a = get_allocatable_core_set(&mut a, &mut cl);
        assert_eq!(ids(got_a.cores(B)), vec![4, 5]);
        let mut b = app(1, 0, 2);
        let got_b = get_allocatable_core_set(&mut b, &mut cl);
        assert_eq!(ids(got_b.cores(L)), vec![0, 1]);
        // B grows into the big cluster.
        b.state.set_cores(ClusterId::BIG, 2);
        let got_b2 = get_allocatable_core_set(&mut b, &mut cl);
        assert_eq!(
            ids(got_b2.cores(B)),
            vec![6, 7],
            "B gets the free big cores"
        );
        assert_eq!(ids(got_b2.cores(L)), vec![0, 1], "B keeps its littles");
        // No core owned twice.
        assert_eq!(a.owned(B) + b.owned(B), 4);
        assert_eq!(cl[ClusterId::BIG.index()].free_count(), 0);
    }

    #[test]
    fn shrink_via_decrement_releases_lowest_owned() {
        let mut cl = clusters();
        let mut a = app(0, 4, 0);
        let _ = get_allocatable_core_set(&mut a, &mut cl);
        assert_eq!(a.owned(B), 4);
        // Shrink 4 -> 2: set the decrement like Algorithm 3 does.
        a.state.set_cores(ClusterId::BIG, 2);
        a.dec[ClusterId::BIG.index()] = 2;
        let got = get_allocatable_core_set(&mut a, &mut cl);
        assert_eq!(got.cores(B).len(), 2);
        assert_eq!(a.owned(B), 2);
        assert_eq!(cl[ClusterId::BIG.index()].free_count(), 2);
        // Released cores are reusable by another app.
        let mut b = app(1, 2, 0);
        let got_b = get_allocatable_core_set(&mut b, &mut cl);
        assert_eq!(got_b.cores(B).len(), 2);
        assert_eq!(cl[ClusterId::BIG.index()].free_count(), 0);
    }

    #[test]
    fn regrow_reuses_kept_cores() {
        let mut cl = clusters();
        let mut a = app(0, 3, 0);
        let first = get_allocatable_core_set(&mut a, &mut cl);
        a.state.set_cores(ClusterId::BIG, 1);
        a.dec[ClusterId::BIG.index()] = 2;
        let shrunk = get_allocatable_core_set(&mut a, &mut cl);
        assert_eq!(shrunk.cores(B).len(), 1);
        // The kept core was one of the original three.
        assert!(first.cores(B).contains(&shrunk.cores(B)[0]));
        a.state.set_cores(ClusterId::BIG, 3);
        let regrown = get_allocatable_core_set(&mut a, &mut cl);
        assert!(
            regrown.cores(B).contains(&shrunk.cores(B)[0]),
            "still-owned core must be reused, not migrated"
        );
        assert_eq!(regrown.cores(B).len(), 3);
    }

    #[test]
    fn infeasible_request_clamps_to_available() {
        let mut cl = clusters();
        let mut a = app(0, 4, 4);
        let _ = get_allocatable_core_set(&mut a, &mut cl);
        let mut b = app(1, 2, 2);
        let got = get_allocatable_core_set(&mut b, &mut cl);
        assert!(got.is_empty(), "nothing free, nothing granted");
    }

    #[test]
    fn tri_cluster_allocation_partitions_every_cluster() {
        let board = hmp_sim::BoardSpec::dynamiq_1p_3m_4l();
        let mut cl = ClusterData::for_board(&board);
        let state = SystemState::new(&[
            (2, board.ladder(ClusterId(0)).max()),
            (1, board.ladder(ClusterId(1)).max()),
            (1, board.ladder(ClusterId(2)).max()),
        ]);
        let mut a = AppData::new(
            AppId(0),
            8,
            PerfTarget::new(9.0, 11.0).unwrap(),
            &[4, 3, 1],
            state,
        );
        let got = get_allocatable_core_set(&mut a, &mut cl);
        assert_eq!(ids(got.cores(ClusterId(0))), vec![0, 1]);
        assert_eq!(ids(got.cores(ClusterId(1))), vec![4]);
        assert_eq!(ids(got.cores(ClusterId(2))), vec![7]);
        assert_eq!(cl[0].free_count(), 2);
        assert_eq!(cl[1].free_count(), 2);
        assert_eq!(cl[2].free_count(), 0);
    }

    #[test]
    fn disjointness_under_random_like_churn() {
        // Deterministic churn of three apps growing and shrinking; the
        // invariant: no core ever owned by two apps, free list exact.
        let mut cl = clusters();
        let mut apps: Vec<AppData> = (0..3).map(|i| app(i, 0, 0)).collect();
        let requests = [
            (0usize, 2usize, 1usize),
            (1, 1, 2),
            (2, 1, 1),
            (0, 0, 3),
            (1, 3, 0),
            (2, 0, 0),
            (0, 2, 2),
            (1, 1, 1),
            (2, 2, 1),
        ];
        for &(idx, cb, cl_want) in &requests {
            let a = &mut apps[idx];
            if cb < a.state.cores(ClusterId::BIG) {
                a.dec[ClusterId::BIG.index()] = a.state.cores(ClusterId::BIG) - cb;
            }
            if cl_want < a.state.cores(ClusterId::LITTLE) {
                a.dec[ClusterId::LITTLE.index()] = a.state.cores(ClusterId::LITTLE) - cl_want;
            }
            a.state.set_cores(ClusterId::BIG, cb);
            a.state.set_cores(ClusterId::LITTLE, cl_want);
            let _ = get_allocatable_core_set(a, &mut cl);
            // Global invariants.
            for (ci, cluster) in cl.iter().enumerate() {
                for i in 0..4 {
                    let owners = apps.iter().filter(|x| x.owned[ci][i]).count();
                    assert!(owners <= 1, "cluster {ci} core {i} owned by {owners} apps");
                    assert_eq!(owners == 0, cluster.free[i], "free list out of sync");
                }
            }
        }
    }
}
