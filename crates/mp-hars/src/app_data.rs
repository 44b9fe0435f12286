//! Per-application data (the paper's Table 4.1).
//!
//! Every registered self-adaptive application carries its per-cluster
//! core-ownership bitmaps (the paper's `use_b_core[]` / `use_l_core[]`,
//! one bitmap per cluster here), its target, its latest observed
//! heartbeat rate, and the per-cluster freezing counts of the
//! interference-aware adaptation.

use heartbeats::{AppId, PerfTarget};
use hmp_sim::ClusterId;

use hars_core::ratio_learn::PendingPrediction;
use hars_core::SystemState;

/// Classification of an app's performance against its target band —
/// the rows of Table 4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PerfClass {
    /// Below `t.min`.
    Underperf,
    /// Inside the band.
    Achieve,
    /// Above `t.max`.
    Overperf,
}

impl PerfClass {
    /// Classifies a rate against a target.
    pub fn of(target: &PerfTarget, rate: f64) -> PerfClass {
        if target.is_underperforming(rate) {
            PerfClass::Underperf
        } else if target.is_overperforming(rate) {
            PerfClass::Overperf
        } else {
            PerfClass::Achieve
        }
    }
}

/// Table 4.1: the runtime manager's per-application record.
#[derive(Debug, Clone)]
pub struct AppData {
    /// The application's id.
    pub app: AppId,
    /// Thread count (the paper's benchmarks run with 8).
    pub threads: usize,
    /// The application's own performance target.
    pub target: PerfTarget,
    /// The app's view of its system state: owned core counts per
    /// cluster plus the shared cluster frequencies.
    pub state: SystemState,
    /// `owned[c][i]`: does the app own core `i` of cluster `c`?
    pub owned: Vec<Vec<bool>>,
    /// Pending core releases from the last shrink (`decBigCoreCnt` et
    /// al.), indexed by cluster.
    pub dec: Vec<usize>,
    /// Latest observed heartbeat rate (`heartbeat_rate`).
    pub last_rate: Option<f64>,
    /// Heartbeats to wait before each cluster's frequency is
    /// controllable again, indexed by cluster.
    pub freezing: Vec<u32>,
    /// `true` once the app has received its initial core allocation.
    pub allocated: bool,
    /// Ratio-learning bookkeeping: the rate prediction armed at this
    /// app's last state change, consumed (or dropped) at its first
    /// following adaptation period.
    pub pending_prediction: Option<PendingPrediction>,
}

impl AppData {
    /// A fresh record: no cores owned, counts zeroed. `cluster_sizes`
    /// gives the core count of each cluster, in cluster-index order.
    pub fn new(
        app: AppId,
        threads: usize,
        target: PerfTarget,
        cluster_sizes: &[usize],
        initial: SystemState,
    ) -> Self {
        assert_eq!(
            cluster_sizes.len(),
            initial.n_clusters(),
            "one size per cluster of the initial state"
        );
        Self {
            app,
            threads,
            target,
            state: initial,
            owned: cluster_sizes.iter().map(|&n| vec![false; n]).collect(),
            dec: vec![0; cluster_sizes.len()],
            last_rate: None,
            freezing: vec![0; cluster_sizes.len()],
            allocated: false,
            pending_prediction: None,
        }
    }

    /// Number of clusters tracked.
    pub fn n_clusters(&self) -> usize {
        self.owned.len()
    }

    /// Cores owned in `cluster`.
    pub fn owned(&self, cluster: ClusterId) -> usize {
        self.owned[cluster.index()].iter().filter(|&&u| u).count()
    }

    /// `true` when the app uses any core of `cluster` — i.e. shares that
    /// cluster's frequency with whoever else uses it.
    pub fn uses_cluster(&self, cluster: ClusterId) -> bool {
        self.owned(cluster) > 0
    }

    /// Current [`PerfClass`] from the last observed rate.
    pub fn perf_class(&self) -> Option<PerfClass> {
        self.last_rate.map(|r| PerfClass::of(&self.target, r))
    }

    /// Freezing count for `cluster`.
    pub fn freezing_cnt(&self, cluster: ClusterId) -> u32 {
        self.freezing[cluster.index()]
    }

    /// Sets the freezing count for `cluster` (after a frequency drop).
    pub fn set_freezing_cnt(&mut self, cluster: ClusterId, count: u32) {
        self.freezing[cluster.index()] = count;
    }

    /// Algorithm 3 lines 8–11: decrement every freezing count on a new
    /// heartbeat.
    pub fn tick_freezing_counts(&mut self) {
        for f in &mut self.freezing {
            *f = f.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmp_sim::FreqKhz;

    fn target() -> PerfTarget {
        PerfTarget::new(9.0, 11.0).unwrap()
    }

    fn initial() -> SystemState {
        SystemState::new(&[(0, FreqKhz::from_mhz(1_300)), (0, FreqKhz::from_mhz(1_600))])
    }

    fn data() -> AppData {
        AppData::new(AppId(0), 8, target(), &[4, 4], initial())
    }

    #[test]
    fn perf_classification() {
        let t = target();
        assert_eq!(PerfClass::of(&t, 5.0), PerfClass::Underperf);
        assert_eq!(PerfClass::of(&t, 10.0), PerfClass::Achieve);
        assert_eq!(PerfClass::of(&t, 9.0), PerfClass::Achieve);
        assert_eq!(PerfClass::of(&t, 11.5), PerfClass::Overperf);
    }

    #[test]
    fn fresh_record_owns_nothing() {
        let d = data();
        assert_eq!(d.owned(ClusterId::BIG), 0);
        assert_eq!(d.owned(ClusterId::LITTLE), 0);
        assert!(!d.uses_cluster(ClusterId::BIG));
        assert!(d.perf_class().is_none());
        assert!(!d.allocated);
    }

    #[test]
    fn ownership_counting() {
        let mut d = data();
        d.owned[ClusterId::BIG.index()][0] = true;
        d.owned[ClusterId::BIG.index()][3] = true;
        d.owned[ClusterId::LITTLE.index()][2] = true;
        assert_eq!(d.owned(ClusterId::BIG), 2);
        assert_eq!(d.owned(ClusterId::LITTLE), 1);
        assert!(d.uses_cluster(ClusterId::BIG));
    }

    #[test]
    fn freezing_count_lifecycle() {
        let mut d = data();
        d.set_freezing_cnt(ClusterId::BIG, 2);
        assert_eq!(d.freezing_cnt(ClusterId::BIG), 2);
        d.tick_freezing_counts();
        assert_eq!(d.freezing_cnt(ClusterId::BIG), 1);
        d.tick_freezing_counts();
        d.tick_freezing_counts(); // saturates at zero
        assert_eq!(d.freezing_cnt(ClusterId::BIG), 0);
        assert_eq!(d.freezing_cnt(ClusterId::LITTLE), 0);
    }

    #[test]
    fn perf_class_tracks_last_rate() {
        let mut d = data();
        d.last_rate = Some(20.0);
        assert_eq!(d.perf_class(), Some(PerfClass::Overperf));
        d.last_rate = Some(3.0);
        assert_eq!(d.perf_class(), Some(PerfClass::Underperf));
    }

    #[test]
    fn tri_cluster_record() {
        let state = SystemState::new(&[
            (0, FreqKhz::from_mhz(1_400)),
            (0, FreqKhz::from_mhz(2_000)),
            (0, FreqKhz::from_mhz(2_600)),
        ]);
        let mut d = AppData::new(AppId(1), 8, target(), &[4, 3, 1], state);
        assert_eq!(d.n_clusters(), 3);
        d.owned[1][2] = true;
        assert!(d.uses_cluster(ClusterId(1)));
        assert_eq!(d.owned(ClusterId(1)), 1);
        d.set_freezing_cnt(ClusterId(2), 5);
        d.tick_freezing_counts();
        assert_eq!(d.freezing_cnt(ClusterId(2)), 4);
    }
}
