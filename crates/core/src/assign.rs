//! Thread assignment across clusters — the paper's Table 3.1,
//! generalized to N clusters.
//!
//! Given `T` threads and, per cluster, allocated cores and per-core
//! speed, the assignment minimizes the unit completion time
//! `t_f = max_c t_c` under the equal-work-per-thread assumption. For two
//! clusters this is exactly Table 3.1 (for `r ≥ 1`):
//!
//! | condition | `T_B` | `T_L` | `C_B,U` | `C_L,U` |
//! |---|---|---|---|---|
//! | `T ≤ C_B` | `T` | 0 | `T` | 0 |
//! | `C_B < T ≤ r·C_B` | `T` | 0 | `C_B` | 0 |
//! | `r·C_B < T ≤ r·C_B + C_L` | `⌊r·C_B⌋` | `T − T_B` | `C_B` | `T − T_B` |
//! | `r·C_B + C_L < T` | `⌈r·C_B/(r·C_B+C_L)·T⌉` | `T − T_B` | `C_B` | `C_L` |
//!
//! with the `r < 1` case the mirror image ("the results with r < 1 can
//! be similarly derived"). The N-cluster generalization is the same
//! waterfill run fastest cluster first: a cluster is loaded until
//! time-sharing it is no better than a dedicated core on the next-faster
//! remaining cluster (`⌊r_ij·C_i⌋` threads, `r_ij = S_i/S_j`), spill
//! flows downward, and once total demand exceeds the board's combined
//! slow-core-equivalent capacity every cluster saturates and threads
//! split in proportion to `S_c·C_c`.

use hmp_sim::{ClusterId, MAX_CLUSTERS};

/// The outcome of Table 3.1: per-cluster thread counts and *used* core
/// counts (used cores can be fewer than allocated). Stored inline; stays
/// `Copy` for the search hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThreadAssignment {
    n: u8,
    threads: [u16; MAX_CLUSTERS],
    used: [u16; MAX_CLUSTERS],
}

impl ThreadAssignment {
    /// An all-zero assignment over `n` clusters.
    pub fn empty(n: usize) -> Self {
        assert!(
            (1..=MAX_CLUSTERS).contains(&n),
            "1..={MAX_CLUSTERS} clusters"
        );
        Self {
            n: n as u8,
            threads: [0; MAX_CLUSTERS],
            used: [0; MAX_CLUSTERS],
        }
    }

    /// Number of clusters covered.
    pub fn n_clusters(&self) -> usize {
        self.n as usize
    }

    /// Threads placed on `cluster`.
    pub fn threads(&self, cluster: ClusterId) -> usize {
        self.threads[cluster.index()] as usize
    }

    /// Cores of `cluster` actually used.
    pub fn used(&self, cluster: ClusterId) -> usize {
        self.used[cluster.index()] as usize
    }

    /// Sets the thread and used-core count of `cluster`.
    pub fn set(&mut self, cluster: ClusterId, threads: usize, used: usize) {
        self.threads[cluster.index()] = u16::try_from(threads).expect("thread count fits u16");
        self.used[cluster.index()] = u16::try_from(used).expect("core count fits u16");
    }

    /// Total threads covered by the assignment.
    pub fn total_threads(&self) -> usize {
        self.threads[..self.n as usize]
            .iter()
            .map(|&t| t as usize)
            .sum()
    }
}

/// Per-cluster input of the assignment: allocated cores and the per-core
/// speed of the cluster under the candidate state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterCapacity {
    /// Cores allocated on the cluster.
    pub cores: usize,
    /// Per-core speed (any consistent unit; only ratios matter).
    pub speed: f64,
}

/// Computes the generalized Table 3.1 over any number of clusters.
///
/// `clusters` is indexed by cluster id; entries with zero cores receive
/// no threads.
///
/// # Panics
///
/// Panics if `threads == 0`, every core count is zero, or a speed is not
/// positive and finite — all programmer errors at call sites.
pub fn assign_threads_n(threads: usize, clusters: &[ClusterCapacity]) -> ThreadAssignment {
    assert!(threads > 0, "assignment needs at least one thread");
    assert!(
        !clusters.is_empty() && clusters.len() <= MAX_CLUSTERS,
        "1..={MAX_CLUSTERS} clusters"
    );
    assert!(
        clusters.iter().any(|c| c.cores > 0),
        "assignment needs at least one core"
    );
    assert!(
        clusters
            .iter()
            .all(|c| c.speed.is_finite() && c.speed > 0.0),
        "per-core speeds must be positive"
    );
    let (split_threads, used) = waterfill::<MAX_CLUSTERS>(threads, clusters);
    let mut out = ThreadAssignment::empty(clusters.len());
    for i in 0..clusters.len() {
        out.set(ClusterId(i), split_threads[i], used[i]);
    }
    debug_assert_eq!(out.total_threads(), threads);
    out
}

/// [`assign_threads_n`] without its argument checks (the caller
/// guarantees them), into thread and used-core arrays of
/// `N ≥ clusters.len()` entries, indexed by cluster.
pub(crate) fn waterfill<const N: usize>(
    threads: usize,
    clusters: &[ClusterCapacity],
) -> ([usize; N], [usize; N]) {
    let mut split_threads = [0usize; N];
    let mut used = [0usize; N];
    // Clusters with cores, fastest first; speed ties break toward the
    // higher cluster index (the paper's `r = 1` case keeps the big
    // cluster first). Kept in an inline array — the search hot path
    // runs one waterfill per candidate and must not allocate.
    let mut order_buf = [0usize; N];
    let mut order_len = 0usize;
    for (i, c) in clusters.iter().enumerate() {
        if c.cores > 0 {
            order_buf[order_len] = i;
            order_len += 1;
        }
    }
    let order = &mut order_buf[..order_len];
    // ≤ MAX_CLUSTERS elements: std's slice sort is an allocation-free
    // insertion sort at this size, and the comparator is a total order
    // (distinct indices break speed ties), so the permutation is the
    // unique sorted one regardless of algorithm.
    order.sort_by(|&a, &b| {
        clusters[b]
            .speed
            .partial_cmp(&clusters[a].speed)
            .expect("finite speeds")
            .then(b.cmp(&a))
    });
    let order: &[usize] = order;
    // Saturation check: total capacity in slowest-used-core equivalents
    // (for two clusters: `r·C_B + C_L`, the Row-4 boundary), keeping
    // each cluster's term by order position for the Row-4 split.
    let s_last = clusters[*order.last().expect("at least one used cluster")].speed;
    let mut cap = [0.0f64; N];
    let mut total_cap = 0.0f64;
    for (pos, &i) in order.iter().enumerate() {
        cap[pos] = (clusters[i].speed / s_last) * clusters[i].cores as f64;
        total_cap += cap[pos];
    }
    if threads as f64 > total_cap {
        // Row 4 generalized: every cluster saturates; split the threads
        // in proportion to cluster capacity `S_c·C_c`, rounding up
        // cluster by cluster (fastest first), remainder to the slowest.
        let mut remaining = threads;
        let mut remaining_cap = total_cap;
        for (pos, &i) in order.iter().enumerate() {
            let take = if pos + 1 == order.len() {
                remaining
            } else {
                (((cap[pos] / remaining_cap) * remaining as f64).ceil() as usize).min(remaining)
            };
            // With ≥3 clusters the fastest-first ceil rounding can leave
            // a later cluster fewer threads than cores; keep the
            // used ≤ threads invariant (on two clusters take ≥ cores
            // always holds here, so this still matches Table 3.1).
            split_threads[i] = take;
            used[i] = take.min(clusters[i].cores);
            remaining -= take;
            remaining_cap -= cap[pos];
        }
        return (split_threads, used);
    }
    // Waterfill fastest-first (Rows 1–3 generalized).
    let mut remaining = threads;
    let mut overflow_pos = None;
    for (pos, &i) in order.iter().enumerate() {
        if remaining == 0 {
            break;
        }
        let cores = clusters[i].cores;
        if remaining <= cores {
            // Row 1: every remaining thread gets its own core here.
            split_threads[i] = remaining;
            used[i] = remaining;
            remaining = 0;
            break;
        }
        let Some(&next) = order.get(pos + 1) else {
            // Last cluster: everything left lands here. Reached only
            // through floating-point edges of the saturation check;
            // the excess beyond the cores is clamped below.
            split_threads[i] = remaining;
            used[i] = cores;
            overflow_pos = Some(pos);
            remaining = 0;
            break;
        };
        let r = clusters[i].speed / clusters[next].speed;
        let cap = r * cores as f64;
        used[i] = cores;
        if remaining as f64 <= cap {
            // Row 2: time-sharing this cluster still beats a dedicated
            // core on the next-faster remaining cluster.
            split_threads[i] = remaining;
            remaining = 0;
            break;
        }
        // Row 3: load this cluster to its next-cluster-equivalent
        // capacity and spill the rest downward.
        let take = (cap.floor() as usize).min(remaining);
        split_threads[i] = take;
        remaining -= take;
    }
    debug_assert_eq!(remaining, 0, "waterfill must place every thread");
    // Floating-point edge at the Row-3 boundary (e.g. r computed as
    // 1.999…8 makes `cap + slow` round up to exactly `t`): spill that
    // overflowed the last cluster's dedicated cores is pushed back onto
    // the previous (faster, already time-shared) cluster — the mirror
    // of the 2-cluster clamp.
    if let Some(pos) = overflow_pos {
        let i = order[pos];
        let cores = clusters[i].cores;
        if split_threads[i] > cores && pos > 0 {
            let prev = order[pos - 1];
            split_threads[prev] += split_threads[i] - cores;
            used[prev] = clusters[prev].cores;
            split_threads[i] = cores;
        }
    }
    // A cluster is used iff it has threads.
    for (used, &t) in used.iter_mut().zip(&split_threads) {
        *used = (*used).min(t);
    }
    (split_threads, used)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's platform: r₀ = 1.5 at equal frequencies.
    const R: f64 = 1.5;
    const B: ClusterId = ClusterId::BIG;
    const L: ClusterId = ClusterId::LITTLE;

    /// Table 3.1 on `cb` big and `cl` little cores at ratio `r = S_B/S_L`.
    fn assign(threads: usize, cb: usize, cl: usize, r: f64) -> ThreadAssignment {
        let cluster = |cores, speed| ClusterCapacity { cores, speed };
        assign_threads_n(threads, &[cluster(cl, 1.0), cluster(cb, r)])
    }

    /// The expected `(T_B, T_L, C_B,U, C_L,U)` row.
    fn bl(tb: usize, tl: usize, ub: usize, ul: usize) -> ThreadAssignment {
        let mut a = ThreadAssignment::empty(2);
        a.set(L, tl, ul);
        a.set(B, tb, ub);
        a
    }

    #[test]
    fn row1_few_threads_all_big_dedicated() {
        let a = assign(3, 4, 4, R);
        assert_eq!(a, bl(3, 0, 3, 0));
    }

    #[test]
    fn row2_timeshare_big_up_to_r_cb() {
        // T = 6 ≤ 1.5·4 = 6: still all big, sharing 4 cores.
        let a = assign(6, 4, 4, R);
        assert_eq!(a, bl(6, 0, 4, 0));
    }

    #[test]
    fn row3_spill_to_little() {
        // T = 8 > 6, ≤ 6 + 4: T_B = ⌊6⌋ = 6, T_L = 2 on 2 little cores.
        let a = assign(8, 4, 4, R);
        assert_eq!(a, bl(6, 2, 4, 2));
    }

    #[test]
    fn row4_saturated_proportional_split() {
        // T = 16 > 6 + 4: T_B = ⌈6/10·16⌉ = ⌈9.6⌉ = 10.
        let a = assign(16, 4, 4, R);
        assert_eq!(a, bl(10, 6, 4, 4));
    }

    #[test]
    fn zero_big_cores_all_little() {
        let a = assign(8, 0, 4, R);
        assert_eq!(a.threads(B), 0);
        assert_eq!(a.threads(L), 8);
        assert_eq!(a.used(B), 0);
        assert_eq!(a.used(L), 4);
        // Fewer threads than cores: only the needed cores are used.
        let b = assign(2, 0, 4, R);
        assert_eq!(b.used(L), 2);
    }

    #[test]
    fn zero_little_cores_all_big() {
        let a = assign(8, 2, 0, R);
        assert_eq!(a.threads(B), 8);
        assert_eq!(a.used(B), 2);
        assert_eq!(a.used(L), 0);
    }

    #[test]
    fn r_below_one_mirrors_to_little_first() {
        // r = 0.8: little cores are effectively faster per core.
        let a = assign(3, 4, 4, 0.8);
        assert_eq!(a.threads(L), 3, "fast (little) side gets the threads");
        assert_eq!(a.threads(B), 0);
        assert_eq!(a.used(L), 3);
    }

    #[test]
    fn r_below_one_spill_regime() {
        // 1/r = 1.25, fast capacity = 5 slow-equivalents; T = 7 ≤ 5 + 4.
        let a = assign(7, 4, 4, 0.8);
        assert_eq!(a.threads(L), 5);
        assert_eq!(a.threads(B), 2);
        assert_eq!(a.used(L), 4);
        assert_eq!(a.used(B), 2);
    }

    #[test]
    fn float_boundary_regression() {
        // r = 1.999…8 once produced T_L = 5 on 4 little cores: the
        // row-3 condition `8 <= 2r + 4` held (the sum rounds to 8.0)
        // while ⌊2r⌋ = 3. The spill must be clamped to the slow side.
        let a = assign(8, 2, 4, 1.999_999_999_999_999_8);
        assert!(a.threads(L) <= 4, "{a:?}");
        assert!(a.used(L) <= 4);
        assert_eq!(a.total_threads(), 8);
    }

    #[test]
    fn threads_always_conserved() {
        for t in 1..=32 {
            for cb in 0..=4 {
                for cl in 0..=4 {
                    if cb + cl == 0 {
                        continue;
                    }
                    for r in [0.5, 0.9, 1.0, 1.3, 1.5, 2.4, 3.0] {
                        let a = assign(t, cb, cl, r);
                        assert_eq!(a.total_threads(), t, "t={t} cb={cb} cl={cl} r={r}");
                        assert!(a.used(B) <= cb);
                        assert!(a.used(L) <= cl);
                        assert!(a.used(B) <= a.threads(B));
                        assert!(a.used(L) <= a.threads(L));
                        // A cluster is used iff it has threads.
                        assert_eq!(a.used(B) == 0, a.threads(B) == 0);
                        assert_eq!(a.used(L) == 0, a.threads(L) == 0);
                    }
                }
            }
        }
    }

    #[test]
    fn higher_frequency_ratio_pulls_threads_to_big() {
        // Same T and cores, growing r: big share must not decrease.
        let mut prev = 0;
        for r in [1.0, 1.2, 1.5, 2.0, 3.0] {
            let a = assign(8, 4, 4, r);
            assert!(
                a.threads(B) >= prev,
                "big share shrank from {prev} at r={r}"
            );
            prev = a.threads(B);
        }
    }

    #[test]
    fn three_cluster_waterfall_fastest_first() {
        // little 4 cores @1.0, mid 3 @1.6, prime 1 @2.0: 2 threads fit
        // the two fastest dedicated slots (prime core + one mid core).
        let caps = [
            ClusterCapacity {
                cores: 4,
                speed: 1.0,
            },
            ClusterCapacity {
                cores: 3,
                speed: 1.6,
            },
            ClusterCapacity {
                cores: 1,
                speed: 2.0,
            },
        ];
        let a = assign_threads_n(2, &caps);
        assert_eq!(a.threads(ClusterId(2)), 1);
        assert_eq!(a.threads(ClusterId(1)), 1);
        assert_eq!(a.threads(ClusterId(0)), 0);
        assert_eq!(a.total_threads(), 2);
    }

    #[test]
    fn three_cluster_spill_reaches_little() {
        let caps = [
            ClusterCapacity {
                cores: 4,
                speed: 1.0,
            },
            ClusterCapacity {
                cores: 3,
                speed: 1.6,
            },
            ClusterCapacity {
                cores: 1,
                speed: 2.0,
            },
        ];
        // Prime capacity ⌊2.0/1.6·1⌋ = 1, mid ⌊1.6·3⌋ = 4 in
        // little-equivalents; 9 threads spill into dedicated littles.
        let a = assign_threads_n(9, &caps);
        assert_eq!(a.total_threads(), 9);
        assert!(a.threads(ClusterId(0)) >= 1, "{a:?}");
        assert!(a.used(ClusterId(0)) <= 4);
        assert_eq!(a.used(ClusterId(2)), 1);
    }

    #[test]
    fn three_cluster_saturation_splits_by_capacity() {
        let caps = [
            ClusterCapacity {
                cores: 4,
                speed: 1.0,
            },
            ClusterCapacity {
                cores: 3,
                speed: 1.6,
            },
            ClusterCapacity {
                cores: 1,
                speed: 2.0,
            },
        ];
        // Capacity = 2 + 4.8 + 4 = 10.8 little-equivalents; 20 threads
        // saturate everything.
        let a = assign_threads_n(20, &caps);
        assert_eq!(a.total_threads(), 20);
        for (i, cap) in caps.iter().enumerate() {
            assert_eq!(a.used(ClusterId(i)), cap.cores);
            assert!(a.threads(ClusterId(i)) > 0);
        }
        // Faster clusters get proportionally more per core.
        let per_core_prime = a.threads(ClusterId(2)) as f64 / 1.0;
        let per_core_little = a.threads(ClusterId(0)) as f64 / 4.0;
        assert!(per_core_prime >= per_core_little);
    }

    #[test]
    fn n_cluster_conservation_and_bounds() {
        let shapes = [
            vec![ClusterCapacity {
                cores: 2,
                speed: 1.0,
            }],
            vec![
                ClusterCapacity {
                    cores: 4,
                    speed: 1.0,
                },
                ClusterCapacity {
                    cores: 3,
                    speed: 1.3,
                },
                ClusterCapacity {
                    cores: 2,
                    speed: 1.9,
                },
            ],
            vec![
                ClusterCapacity {
                    cores: 1,
                    speed: 1.0,
                },
                ClusterCapacity {
                    cores: 1,
                    speed: 1.0,
                },
                ClusterCapacity {
                    cores: 1,
                    speed: 2.5,
                },
                ClusterCapacity {
                    cores: 5,
                    speed: 1.2,
                },
            ],
        ];
        for caps in &shapes {
            for t in 1..=24 {
                let a = assign_threads_n(t, caps);
                assert_eq!(a.total_threads(), t, "{caps:?} t={t}");
                for (i, c) in caps.iter().enumerate() {
                    let id = ClusterId(i);
                    assert!(a.used(id) <= c.cores, "{caps:?} t={t} {a:?}");
                    assert!(a.used(id) <= a.threads(id));
                    assert_eq!(a.used(id) == 0, a.threads(id) == 0);
                }
            }
        }
    }

    #[test]
    fn saturated_split_keeps_used_at_most_threads() {
        // Regression: with >=3 clusters the fastest-first ceil rounding
        // can leave a later cluster fewer threads than cores; `used`
        // must not exceed `threads` (the power model multiplies by
        // used cores).
        let caps = [
            ClusterCapacity {
                cores: 5,
                speed: 1.0,
            },
            ClusterCapacity {
                cores: 1,
                speed: 1.01,
            },
            ClusterCapacity {
                cores: 1,
                speed: 1.01,
            },
            ClusterCapacity {
                cores: 1,
                speed: 1.01,
            },
        ];
        let a = assign_threads_n(9, &caps);
        assert_eq!(a.total_threads(), 9);
        for (i, c) in caps.iter().enumerate() {
            let id = ClusterId(i);
            assert!(a.used(id) <= a.threads(id), "{a:?}");
            assert!(a.used(id) <= c.cores);
            assert_eq!(a.used(id) == 0, a.threads(id) == 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = assign(0, 4, 4, R);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = assign(4, 0, 0, R);
    }
}
