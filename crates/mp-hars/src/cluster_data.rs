//! Per-cluster data (the paper's Table 4.2): the free-core bitmap, the
//! frozen flag and the cluster's current frequency level — one record
//! per cluster of the board, however many there are.

use hmp_sim::{BoardSpec, ClusterId, CoreId, FreqKhz};

/// Table 4.2: shared cluster-level state of the resource partitioner.
#[derive(Debug, Clone)]
pub struct ClusterData {
    /// Which cluster this record describes.
    pub cluster: ClusterId,
    /// First board core id of this cluster (`bigStartIndex` for big).
    pub start_core: usize,
    /// `free[i]`: is core `i` of the cluster unowned?
    pub free: Vec<bool>,
    /// Frozen flag: a frozen cluster's frequency must not be decreased.
    pub frozen: bool,
    /// Current cluster frequency (`nfreq`).
    pub freq: FreqKhz,
}

impl ClusterData {
    /// A cluster with all `n` cores free at frequency `freq`.
    pub fn new(cluster: ClusterId, start_core: usize, n: usize, freq: FreqKhz) -> Self {
        Self {
            cluster,
            start_core,
            free: vec![true; n],
            frozen: false,
            freq,
        }
    }

    /// One record per cluster of `board`, every core free, frequencies
    /// at their ladder maxima (the boot state).
    pub fn for_board(board: &BoardSpec) -> Vec<ClusterData> {
        board
            .cluster_ids()
            .map(|c| {
                ClusterData::new(
                    c,
                    board.cluster_start(c).0,
                    board.cluster_size(c),
                    board.ladder(c).max(),
                )
            })
            .collect()
    }

    /// Number of free cores.
    pub fn free_count(&self) -> usize {
        self.free.iter().filter(|&&f| f).count()
    }

    /// Number of cores in the cluster.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// `true` when the cluster has no cores (never for real boards).
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }

    /// Board-level core id of cluster-local index `i`.
    pub fn core_id(&self, i: usize) -> CoreId {
        CoreId(self.start_core + i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmp_sim::BoardSpec;

    #[test]
    fn fresh_cluster_is_all_free() {
        let c = ClusterData::new(ClusterId::BIG, 4, 4, FreqKhz::from_mhz(1_600));
        assert_eq!(c.free_count(), 4);
        assert_eq!(c.len(), 4);
        assert!(!c.frozen);
        assert_eq!(c.core_id(0), CoreId(4));
        assert_eq!(c.core_id(3), CoreId(7));
    }

    #[test]
    fn free_count_tracks_bitmap() {
        let mut c = ClusterData::new(ClusterId::LITTLE, 0, 4, FreqKhz::from_mhz(1_300));
        c.free[1] = false;
        c.free[2] = false;
        assert_eq!(c.free_count(), 2);
        assert_eq!(c.core_id(1), CoreId(1));
    }

    #[test]
    fn for_board_covers_every_cluster() {
        let board = BoardSpec::dynamiq_1p_3m_4l();
        let clusters = ClusterData::for_board(&board);
        assert_eq!(clusters.len(), 3);
        assert_eq!(clusters[0].len(), 4);
        assert_eq!(clusters[1].start_core, 4);
        assert_eq!(clusters[2].start_core, 7);
        assert_eq!(clusters[2].freq, board.ladder(ClusterId(2)).max());
    }
}
