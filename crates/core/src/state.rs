//! System states and the explorable state space.
//!
//! A HARS *system state* is the tuple the runtime controls: per cluster,
//! the number of cores allocated to the application and the cluster's
//! DVFS frequency. The paper fixes this to the big.LITTLE 4-tuple
//! `(C_B, C_L, f_B, f_L)`; here the state is a per-cluster vector of
//! `(cores, freq)` pairs, so the same runtime drives 2-cluster
//! big.LITTLE parts, DynamIQ tri-cluster SoCs and x86 hybrids. The
//! search of Algorithm 2 walks this space in *index* coordinates (core
//! counts step by one core, frequencies by one ladder level), with the
//! Manhattan distance over all `2N` dimensions bounding exploration.
//!
//! States are stored inline (capacity [`MAX_CLUSTERS`]) and stay `Copy`:
//! the search evaluates hundreds of candidates per adaptation and must
//! not allocate.

use hmp_sim::{BoardSpec, ClusterId, FreqKhz, FreqLadder, MAX_CLUSTERS};

/// One configurable system state: per-cluster `(cores, frequency)`.
///
/// Unused trailing slots are zeroed so derived equality and hashing see
/// only the live clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SystemState {
    n: u8,
    cores: [u16; MAX_CLUSTERS],
    freqs: [FreqKhz; MAX_CLUSTERS],
}

impl SystemState {
    /// Builds a state from per-cluster `(cores, freq)` pairs, in
    /// cluster-index order.
    ///
    /// # Panics
    ///
    /// Panics when there are zero or more than [`MAX_CLUSTERS`]
    /// clusters.
    pub fn new(per_cluster: &[(usize, FreqKhz)]) -> Self {
        assert!(
            !per_cluster.is_empty() && per_cluster.len() <= MAX_CLUSTERS,
            "1..={MAX_CLUSTERS} clusters"
        );
        let mut s = Self {
            n: per_cluster.len() as u8,
            cores: [0; MAX_CLUSTERS],
            freqs: [FreqKhz::default(); MAX_CLUSTERS],
        };
        for (i, &(c, f)) in per_cluster.iter().enumerate() {
            s.cores[i] = u16::try_from(c).expect("core count fits u16");
            s.freqs[i] = f;
        }
        s
    }

    /// Number of clusters the state describes.
    pub fn n_clusters(&self) -> usize {
        self.n as usize
    }

    /// Cores allocated on `cluster`.
    pub fn cores(&self, cluster: ClusterId) -> usize {
        debug_assert!(cluster.index() < self.n as usize);
        self.cores[cluster.index()] as usize
    }

    /// Frequency of `cluster`.
    pub fn freq(&self, cluster: ClusterId) -> FreqKhz {
        debug_assert!(cluster.index() < self.n as usize);
        self.freqs[cluster.index()]
    }

    /// Replaces the core count of `cluster`.
    pub fn set_cores(&mut self, cluster: ClusterId, cores: usize) {
        debug_assert!(cluster.index() < self.n as usize);
        self.cores[cluster.index()] = u16::try_from(cores).expect("core count fits u16");
    }

    /// Replaces the frequency of `cluster`.
    pub fn set_freq(&mut self, cluster: ClusterId, freq: FreqKhz) {
        debug_assert!(cluster.index() < self.n as usize);
        self.freqs[cluster.index()] = freq;
    }

    /// Total cores allocated.
    pub fn total_cores(&self) -> usize {
        self.cores[..self.n as usize]
            .iter()
            .map(|&c| c as usize)
            .sum()
    }

    /// Iterates over `(cluster, cores, freq)` in cluster-index order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (ClusterId, usize, FreqKhz)> + '_ {
        (0..self.n as usize).map(|i| (ClusterId(i), self.cores[i] as usize, self.freqs[i]))
    }
}

impl std::fmt::Display for SystemState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.n == 2 {
            // The paper's big.LITTLE notation.
            let (big, little) = (ClusterId::BIG, ClusterId::LITTLE);
            write!(
                f,
                "{}B@{} + {}L@{}",
                self.cores(big),
                self.freq(big),
                self.cores(little),
                self.freq(little)
            )
        } else {
            let mut first = true;
            for (c, cores, freq) in self.iter() {
                if !first {
                    write!(f, " + ")?;
                }
                write!(f, "{cores}x{c}@{freq}")?;
                first = false;
            }
            Ok(())
        }
    }
}

/// The inverse of `Display`: `"{C_B}B@{f_B} + {C_L}L@{f_L}"` for two
/// clusters, `"{cores}xcluster{i}@{freq}"` terms in cluster order
/// otherwise, with frequencies as `"{n} MHz"` or `"{n} kHz"`.
impl std::str::FromStr for SystemState {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let invalid = || format!("invalid system state {s:?}");
        let terms: Vec<&str> = s.split(" + ").collect();
        if terms.len() > MAX_CLUSTERS {
            return Err(invalid());
        }
        let mut per = Vec::with_capacity(terms.len());
        for (i, term) in terms.iter().enumerate() {
            let (head, freq) = term.split_once('@').ok_or_else(invalid)?;
            let cores = match terms.len() {
                2 => head.strip_suffix(["B", "L"][i]),
                _ => head.strip_suffix(format!("xcluster{i}").as_str()),
            };
            let cores: u16 = cores.and_then(|c| c.parse().ok()).ok_or_else(invalid)?;
            let khz = if let Some(mhz) = freq.strip_suffix(" MHz") {
                mhz.parse::<u32>().ok().and_then(|m| m.checked_mul(1_000))
            } else {
                freq.strip_suffix(" kHz").and_then(|k| k.parse().ok())
            };
            per.push((cores as usize, FreqKhz::new(khz.ok_or_else(invalid)?)));
        }
        if per.len() == 2 {
            // The paper's notation lists big (cluster 1) first.
            per.swap(0, 1);
        }
        Ok(Self::new(&per))
    }
}

/// A state in index coordinates: per cluster, the core count (already an
/// index) and the ladder-level index — the `2N`-dimensional space
/// Algorithm 2's sweep walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateIndex {
    n: u8,
    /// Core counts, indexed by cluster.
    cores: [i32; MAX_CLUSTERS],
    /// Ladder-level indices, indexed by cluster.
    levels: [i32; MAX_CLUSTERS],
}

/// Hashes only the live clusters: trailing slots are always zero (the
/// constructor zeroes them and the setters only touch live indices),
/// so equal values still hash equally, and the search hot path — one
/// cache probe per candidate — does not churn through
/// `2 × MAX_CLUSTERS` dead words per lookup.
impl std::hash::Hash for StateIndex {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let n = self.n as usize;
        self.n.hash(state);
        self.cores[..n].hash(state);
        self.levels[..n].hash(state);
    }
}

impl StateIndex {
    /// Builds index coordinates from per-cluster `(cores, level)`.
    ///
    /// # Panics
    ///
    /// Panics when there are zero or more than [`MAX_CLUSTERS`]
    /// clusters.
    pub fn new(per_cluster: &[(i64, i64)]) -> Self {
        assert!(
            !per_cluster.is_empty() && per_cluster.len() <= MAX_CLUSTERS,
            "1..={MAX_CLUSTERS} clusters"
        );
        let mut idx = Self {
            n: per_cluster.len() as u8,
            cores: [0; MAX_CLUSTERS],
            levels: [0; MAX_CLUSTERS],
        };
        for (i, &(c, l)) in per_cluster.iter().enumerate() {
            idx.cores[i] = c as i32;
            idx.levels[i] = l as i32;
        }
        idx
    }

    /// Number of clusters.
    pub fn n_clusters(&self) -> usize {
        self.n as usize
    }

    /// Core count of `cluster`.
    pub fn cores(&self, cluster: ClusterId) -> i64 {
        self.cores[cluster.index()] as i64
    }

    /// Ladder level of `cluster`.
    pub fn level(&self, cluster: ClusterId) -> i64 {
        self.levels[cluster.index()] as i64
    }

    /// Replaces the core count of `cluster`.
    pub fn set_cores(&mut self, cluster: ClusterId, cores: i64) {
        self.cores[cluster.index()] = cores as i32;
    }

    /// Replaces the ladder level of `cluster`.
    pub fn set_level(&mut self, cluster: ClusterId, level: i64) {
        self.levels[cluster.index()] = level as i32;
    }

    /// Manhattan distance to `other` over all `2N` dimensions (the
    /// paper's `getDistance`, generalized).
    pub fn manhattan(&self, other: &StateIndex) -> i64 {
        debug_assert_eq!(self.n, other.n, "indices from the same space");
        let n = self.n as usize;
        let mut d = 0i64;
        for i in 0..n {
            d += (self.cores[i] as i64 - other.cores[i] as i64).abs();
            d += (self.levels[i] as i64 - other.levels[i] as i64).abs();
        }
        d
    }
}

/// The bounds of the explorable space for one board: per cluster, the
/// maximum core count and the DVFS ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct StateSpace {
    max_cores: Vec<usize>,
    ladders: Vec<FreqLadder>,
    base_freq: FreqKhz,
}

impl StateSpace {
    /// Builds the space from a board description.
    pub fn from_board(board: &BoardSpec) -> Self {
        Self {
            max_cores: board.cluster_ids().map(|c| board.cluster_size(c)).collect(),
            ladders: board
                .cluster_ids()
                .map(|c| board.ladder(c).clone())
                .collect(),
            base_freq: board.base_freq,
        }
    }

    /// Number of clusters.
    pub fn n_clusters(&self) -> usize {
        self.max_cores.len()
    }

    /// All cluster ids, in index order.
    pub fn cluster_ids(&self) -> impl DoubleEndedIterator<Item = ClusterId> + Clone {
        (0..self.max_cores.len()).map(ClusterId)
    }

    /// Maximum cores of `cluster`.
    pub fn max_cores(&self, cluster: ClusterId) -> usize {
        self.max_cores[cluster.index()]
    }

    /// The DVFS ladder of `cluster`.
    pub fn ladder(&self, cluster: ClusterId) -> &FreqLadder {
        &self.ladders[cluster.index()]
    }

    /// The baseline frequency `f0`.
    pub fn base_freq(&self) -> FreqKhz {
        self.base_freq
    }

    /// The state every Linux box boots into: all cores, maximum
    /// frequencies (the paper's baseline).
    pub fn max_state(&self) -> SystemState {
        let per: Vec<(usize, FreqKhz)> = (0..self.n_clusters())
            .map(|i| (self.max_cores[i], self.ladders[i].max()))
            .collect();
        SystemState::new(&per)
    }

    /// `true` when `state` is a valid operating point: at least one core
    /// in total, per-cluster counts within bounds, frequencies on their
    /// ladders.
    pub fn contains(&self, state: &SystemState) -> bool {
        state.n_clusters() == self.n_clusters()
            && state.total_cores() >= 1
            && state.iter().all(|(c, cores, freq)| {
                cores <= self.max_cores[c.index()] && self.ladders[c.index()].contains(freq)
            })
    }

    /// Converts a state to index coordinates.
    ///
    /// Returns `None` when a frequency is not on its ladder.
    pub fn index_of(&self, state: &SystemState) -> Option<StateIndex> {
        debug_assert_eq!(state.n_clusters(), self.n_clusters());
        let mut per = [(0i64, 0i64); MAX_CLUSTERS];
        for (c, cores, freq) in state.iter() {
            let level = self.ladders[c.index()].index_of(freq)?;
            per[c.index()] = (cores as i64, level as i64);
        }
        Some(StateIndex::new(&per[..self.n_clusters()]))
    }

    /// Converts index coordinates back to a state.
    ///
    /// Returns `None` for out-of-bounds indices (including the all-zero
    /// core allocation).
    pub fn state_at(&self, idx: &StateIndex) -> Option<SystemState> {
        debug_assert_eq!(idx.n_clusters(), self.n_clusters());
        let mut per = [(0usize, FreqKhz::default()); MAX_CLUSTERS];
        let mut total = 0usize;
        for c in self.cluster_ids() {
            let cores = idx.cores(c);
            let level = idx.level(c);
            if cores < 0 || level < 0 || cores as usize > self.max_cores[c.index()] {
                return None;
            }
            let freq = self.ladders[c.index()].level(level as usize)?;
            per[c.index()] = (cores as usize, freq);
            total += cores as usize;
        }
        if total == 0 {
            return None;
        }
        Some(SystemState::new(&per[..self.n_clusters()]))
    }

    /// Iterates over every valid state (the static-optimal sweep), in
    /// the paper's order: core counts sweep highest cluster index first,
    /// then frequency levels highest cluster index first — on a
    /// big.LITTLE board exactly the `(C_B, C_L, f_B, f_L)` nesting of
    /// the original 4-loop sweep.
    pub fn iter_all(&self) -> StateIter<'_> {
        let n = self.n_clusters();
        // Dimension order: cores of cluster N-1..0, then levels of
        // cluster N-1..0; the last dimension varies fastest.
        let mut dims = Vec::with_capacity(2 * n);
        for i in (0..n).rev() {
            dims.push(self.max_cores[i] as i64);
        }
        for i in (0..n).rev() {
            dims.push(self.ladders[i].len() as i64 - 1);
        }
        StateIter {
            space: self,
            cursor: vec![0; 2 * n],
            max: dims,
            done: false,
        }
    }

    /// Total number of valid states: `(Π (C_c + 1) − 1) · Π L_c` (for
    /// the ODROID-XU3: `(5·5−1)·9·6 = 1296`).
    pub fn len(&self) -> usize {
        let core_combos: usize = self.max_cores.iter().map(|&m| m + 1).product();
        let freq_combos: usize = self.ladders.iter().map(|l| l.len()).product();
        (core_combos - 1) * freq_combos
    }

    /// `false`: a space always has at least the single-core states.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Iterator over every valid state of a [`StateSpace`].
#[derive(Debug, Clone)]
pub struct StateIter<'a> {
    space: &'a StateSpace,
    /// Odometer over the `2N` dimensions (inclusive upper bounds in
    /// `max`), highest-index-cluster cores first, levels after.
    cursor: Vec<i64>,
    max: Vec<i64>,
    done: bool,
}

impl StateIter<'_> {
    fn current_state(&self) -> Option<SystemState> {
        let n = self.space.n_clusters();
        let mut per = [(0i64, 0i64); MAX_CLUSTERS];
        for (pos, i) in (0..n).rev().enumerate() {
            per[i].0 = self.cursor[pos];
            per[i].1 = self.cursor[n + pos];
        }
        let idx = StateIndex::new(&per[..n]);
        self.space.state_at(&idx)
    }

    fn step(&mut self) {
        for d in (0..self.cursor.len()).rev() {
            if self.cursor[d] < self.max[d] {
                self.cursor[d] += 1;
                return;
            }
            self.cursor[d] = 0;
        }
        self.done = true;
    }
}

impl Iterator for StateIter<'_> {
    type Item = SystemState;

    fn next(&mut self) -> Option<SystemState> {
        while !self.done {
            let state = self.current_state();
            self.step();
            if state.is_some() {
                return state;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> StateSpace {
        StateSpace::from_board(&BoardSpec::odroid_xu3())
    }

    fn st(cb: usize, cl: usize, fb_mhz: u32, fl_mhz: u32) -> SystemState {
        SystemState::new(&[
            (cl, FreqKhz::from_mhz(fl_mhz)),
            (cb, FreqKhz::from_mhz(fb_mhz)),
        ])
    }

    #[test]
    fn xu3_space_size() {
        let s = space();
        assert_eq!(s.len(), 24 * 9 * 6);
        assert_eq!(s.iter_all().count(), s.len());
    }

    #[test]
    fn tri_cluster_space_size() {
        let s = StateSpace::from_board(&BoardSpec::dynamiq_1p_3m_4l());
        // (5·4·2 − 1) core combos × 5·7·10 frequency combos.
        assert_eq!(s.len(), 39 * 5 * 7 * 10);
        assert_eq!(s.iter_all().count(), s.len());
    }

    #[test]
    fn contains_validates_everything() {
        let s = space();
        assert!(s.contains(&st(4, 4, 1600, 1300)));
        assert!(s.contains(&st(0, 1, 800, 800)));
        assert!(!s.contains(&st(0, 0, 800, 800)), "zero cores");
        assert!(!s.contains(&st(5, 0, 800, 800)), "too many big");
        assert!(!s.contains(&st(1, 1, 850, 800)), "off-ladder freq");
        assert!(!s.contains(&st(1, 1, 800, 1400)), "little over max");
    }

    #[test]
    fn index_roundtrip() {
        let s = space();
        for state in s.iter_all() {
            let idx = s.index_of(&state).unwrap();
            assert_eq!(s.state_at(&idx), Some(state));
        }
    }

    #[test]
    fn tri_cluster_index_roundtrip() {
        let s = StateSpace::from_board(&BoardSpec::dynamiq_1p_3m_4l());
        for state in s.iter_all().step_by(17) {
            let idx = s.index_of(&state).unwrap();
            assert_eq!(s.state_at(&idx), Some(state));
        }
    }

    #[test]
    fn manhattan_distance() {
        let s = space();
        let a = s.index_of(&st(4, 4, 1600, 1300)).unwrap();
        let b = s.index_of(&st(3, 4, 1500, 1300)).unwrap();
        assert_eq!(a.manhattan(&b), 2);
        assert_eq!(a.manhattan(&a), 0);
        let c = s.index_of(&st(0, 1, 800, 800)).unwrap();
        // |4-0| + |4-1| + |8-0| + |5-0| = 20
        assert_eq!(a.manhattan(&c), 20);
    }

    #[test]
    fn state_at_rejects_out_of_bounds() {
        let s = space();
        // (cores, level) per cluster, little first.
        assert!(s.state_at(&StateIndex::new(&[(2, 0), (-1, 0)])).is_none());
        assert!(s.state_at(&StateIndex::new(&[(0, 0), (0, 0)])).is_none());
        assert!(s.state_at(&StateIndex::new(&[(1, 0), (1, 9)])).is_none());
    }

    #[test]
    fn max_state_is_baseline() {
        let s = space();
        let m = s.max_state();
        assert_eq!(m, st(4, 4, 1600, 1300));
        assert!(s.contains(&m));
    }

    #[test]
    fn display_is_readable() {
        let txt = st(2, 3, 1000, 900).to_string();
        assert!(txt.contains("2B"));
        assert!(txt.contains("3L"));
        // N-cluster display falls back to the generic form.
        let tri = SystemState::new(&[
            (4, FreqKhz::from_mhz(600)),
            (2, FreqKhz::from_mhz(800)),
            (1, FreqKhz::from_mhz(2_600)),
        ]);
        assert!(tri.to_string().contains("cluster2"));
    }

    #[test]
    fn display_round_trips_through_from_str() {
        let xu3 = space();
        let tri = StateSpace::from_board(&BoardSpec::dynamiq_1p_3m_4l());
        let odd = [
            SystemState::new(&[(3, FreqKhz::new(1_450_500))]),
            SystemState::new(&[
                (4, FreqKhz::from_mhz(600)),
                (0, FreqKhz::from_mhz(800)),
                (1, FreqKhz::new(999)),
                (2, FreqKhz::from_mhz(2_600)),
            ]),
        ];
        let states = xu3.iter_all().step_by(7).chain(tri.iter_all().step_by(97));
        for state in states.chain(odd) {
            assert_eq!(state.to_string().parse::<SystemState>(), Ok(state));
        }
        for bad in [
            "",
            "2B@1000 MHz",
            "2L@1000 MHz + 2B@1000 MHz",
            "1xcluster1@600 MHz",
            "1xcluster0@600 GHz",
            "70000xcluster0@600 MHz",
            "1xcluster0@5000000 MHz",
        ] {
            assert!(bad.parse::<SystemState>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn accessors_and_setters() {
        let mut s = st(2, 3, 1000, 900);
        assert_eq!(s.cores(ClusterId::BIG), 2);
        assert_eq!(s.cores(ClusterId::LITTLE), 3);
        assert_eq!(s.total_cores(), 5);
        s.set_cores(ClusterId::BIG, 4);
        s.set_freq(ClusterId::LITTLE, FreqKhz::from_mhz(800));
        assert_eq!(s.cores(ClusterId::BIG), 4);
        assert_eq!(s.freq(ClusterId::LITTLE), FreqKhz::from_mhz(800));
    }

    #[test]
    fn equality_ignores_unused_slots() {
        let a = st(1, 2, 900, 800);
        let b = st(1, 2, 900, 800);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }
}
