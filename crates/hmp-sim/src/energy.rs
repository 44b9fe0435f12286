//! Per-cluster energy integration.
//!
//! The engine integrates every event interval (within which the
//! busy-core set and frequencies are constant) at the true cluster
//! powers of that interval, so the integral is exact, independent of
//! sensor sampling. It reads the powers from per-cluster rows computed
//! when a frequency changes and hands them to
//! [`EnergyMeter::accumulate_powers`]; a run of equal intervals (the
//! whole ticks of a busy span, pinned or not, or of a quiescent idle
//! span) goes to [`EnergyMeter::accumulate_repeated`], which makes the
//! same additions as one call per interval.

use crate::board::ClusterId;
use crate::clock::ns_to_secs;

/// Exact integrator of cluster energy over simulated time.
#[derive(Debug, Clone, Default)]
pub struct EnergyMeter {
    /// Joules consumed per cluster (indexed by cluster).
    joules: Vec<f64>,
    /// Busy core-seconds per cluster (∫ busy_cores dt).
    busy_core_secs: Vec<f64>,
    /// Total integrated time in seconds.
    elapsed_secs: f64,
}

impl EnergyMeter {
    /// A meter with all accumulators at zero.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_clusters(&mut self, n: usize) {
        if self.joules.len() < n {
            self.joules.resize(n, 0.0);
            self.busy_core_secs.resize(n, 0.0);
        }
    }

    /// Integrates `dt_ns` at per-cluster `powers` (W, indexed by
    /// cluster), with `busy[c]` cores busy on cluster `c` (an empty
    /// `busy` adds no busy time): one `joules[i] += p·dt` and
    /// `busy_core_secs[i] += busy[i]·dt` per cluster, then
    /// `elapsed_secs += dt`. An interval of no time adds nothing.
    ///
    /// Skipping the busy adds of an idle span is exact: the
    /// accumulators are never `-0.0` (they start at `+0.0` and only
    /// ever gain non-negative terms), so adding `+0.0` is a no-op.
    pub(crate) fn accumulate_powers(&mut self, powers: &[f64], busy: &[f64], dt_ns: u64) {
        let dt = ns_to_secs(dt_ns);
        if dt <= 0.0 {
            return;
        }
        self.ensure_clusters(powers.len());
        for (i, &p) in powers.iter().enumerate() {
            self.joules[i] += p * dt;
        }
        for (i, &b) in busy.iter().enumerate() {
            self.busy_core_secs[i] += b * dt;
        }
        self.elapsed_secs += dt;
    }

    /// Integrates `m` consecutive intervals of `dt_ns` at the same
    /// `powers` and `busy` counts: bit-equal to `m` calls of
    /// [`EnergyMeter::accumulate_powers`]. Each accumulator gets the
    /// same `m` additions of the same term, in the same order, with the
    /// term computed once and the running sum held in a register; the
    /// accumulators are independent, so taking them one after another
    /// changes no bit.
    pub(crate) fn accumulate_repeated(&mut self, powers: &[f64], busy: &[f64], dt_ns: u64, m: u64) {
        let dt = ns_to_secs(dt_ns);
        if dt <= 0.0 || m == 0 {
            return;
        }
        self.ensure_clusters(powers.len());
        let add_m_times = |acc: &mut f64, term: f64| {
            let mut sum = *acc;
            for _ in 0..m {
                sum += term;
            }
            *acc = sum;
        };
        for (acc, &p) in self.joules.iter_mut().zip(powers) {
            add_m_times(acc, p * dt);
        }
        for (acc, &b) in self.busy_core_secs.iter_mut().zip(busy) {
            add_m_times(acc, b * dt);
        }
        add_m_times(&mut self.elapsed_secs, dt);
    }

    /// Energy consumed by `cluster` so far (J).
    pub fn cluster_joules(&self, cluster: ClusterId) -> f64 {
        self.joules.get(cluster.index()).copied().unwrap_or(0.0)
    }

    /// Total board energy so far (J).
    pub fn total_joules(&self) -> f64 {
        self.joules.iter().sum()
    }

    /// Busy core-seconds accumulated on `cluster`.
    pub fn busy_core_secs(&self, cluster: ClusterId) -> f64 {
        self.busy_core_secs
            .get(cluster.index())
            .copied()
            .unwrap_or(0.0)
    }

    /// Time integrated so far (s).
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_secs
    }

    /// Average board power over the integrated interval (W), or 0 before
    /// any time has passed.
    pub fn average_power(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.total_joules() / self.elapsed_secs
        } else {
            0.0
        }
    }

    /// Average power of one cluster (W).
    pub fn average_cluster_power(&self, cluster: ClusterId) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.cluster_joules(cluster) / self.elapsed_secs
        } else {
            0.0
        }
    }

    /// Snapshot of the meter for differential measurements: subtracting
    /// two snapshots gives the energy of the interval between them.
    pub fn snapshot(&self) -> EnergySnapshot {
        EnergySnapshot {
            joules: self.total_joules(),
            elapsed_secs: self.elapsed_secs,
        }
    }
}

/// A point-in-time copy of an [`EnergyMeter`]'s totals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergySnapshot {
    joules: f64,
    elapsed_secs: f64,
}

impl EnergySnapshot {
    /// Energy and time elapsed since `earlier`. Returns
    /// `(joules, seconds)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is actually later.
    pub fn since(&self, earlier: &EnergySnapshot) -> (f64, f64) {
        let j = self.joules - earlier.joules;
        let t = self.elapsed_secs - earlier.elapsed_secs;
        debug_assert!(j >= -1e-9 && t >= -1e-12, "snapshots out of order");
        (j.max(0.0), t.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::{BoardSpec, ClusterId as C};
    use crate::clock::NS_PER_SEC;
    use crate::freq::FreqKhz;
    use crate::power::cluster_power;

    fn xu3() -> BoardSpec {
        BoardSpec::odroid_xu3()
    }

    /// The general path: the true powers at `freqs` with `busy` cores
    /// busy, computed afresh for this one interval.
    fn accumulate(m: &mut EnergyMeter, b: &BoardSpec, freqs: &[FreqKhz], busy: &[f64], dt: u64) {
        let powers: Vec<f64> = b
            .cluster_ids()
            .map(|c| {
                let i = c.index();
                cluster_power(b, c, freqs[i], busy[i], b.cluster_size(c))
            })
            .collect();
        m.accumulate_powers(&powers, busy, dt);
    }

    fn max_freqs(b: &BoardSpec) -> Vec<FreqKhz> {
        b.cluster_ids().map(|c| b.ladder(c).max()).collect()
    }

    #[test]
    fn energy_equals_power_times_time() {
        let b = xu3();
        let mut m = EnergyMeter::new();
        let freqs = max_freqs(&b);
        accumulate(&mut m, &b, &freqs, &[4.0, 4.0], 2 * NS_PER_SEC);
        let p = crate::power::board_power(&b, &freqs, &[4.0, 4.0]);
        assert!((m.total_joules() - 2.0 * p).abs() < 1e-9);
        assert!((m.average_power() - p).abs() < 1e-9);
        assert!((m.elapsed_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_interval_is_noop() {
        let b = xu3();
        let mut m = EnergyMeter::new();
        accumulate(&mut m, &b, &max_freqs(&b), &[1.0, 1.0], 0);
        assert_eq!(m.total_joules(), 0.0);
        assert_eq!(m.average_power(), 0.0);
    }

    #[test]
    fn busy_core_seconds_accumulate() {
        let b = xu3();
        let mut m = EnergyMeter::new();
        accumulate(&mut m, &b, &max_freqs(&b), &[2.0, 3.0], NS_PER_SEC);
        accumulate(&mut m, &b, &max_freqs(&b), &[1.0, 0.0], NS_PER_SEC);
        assert!((m.busy_core_secs(C::LITTLE) - 3.0).abs() < 1e-9);
        assert!((m.busy_core_secs(C::BIG) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn snapshots_give_interval_energy() {
        let b = xu3();
        let mut m = EnergyMeter::new();
        let freqs = max_freqs(&b);
        accumulate(&mut m, &b, &freqs, &[4.0, 4.0], NS_PER_SEC);
        let s1 = m.snapshot();
        accumulate(&mut m, &b, &freqs, &[0.0, 0.0], NS_PER_SEC);
        let s2 = m.snapshot();
        let (j, t) = s2.since(&s1);
        let p_idle = crate::power::board_power(&b, &freqs, &[0.0, 0.0]);
        assert!((j - p_idle).abs() < 1e-9);
        assert!((t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn idle_accumulate_is_bit_equal_to_the_general_path() {
        let b = xu3();
        let freqs = max_freqs(&b);
        let powers: Vec<f64> = b
            .cluster_ids()
            .map(|c| cluster_power(&b, c, freqs[c.index()], 0.0, b.cluster_size(c)))
            .collect();
        let mut general = EnergyMeter::new();
        let mut idle = EnergyMeter::new();
        // Mixed busy/idle prefix so the accumulators are mid-stream.
        accumulate(&mut general, &b, &freqs, &[3.0, 1.0], 7_123_456);
        accumulate(&mut idle, &b, &freqs, &[3.0, 1.0], 7_123_456);
        for dt in [1_u64, 4_000_000, 263_808_000, 999] {
            accumulate(&mut general, &b, &freqs, &[0.0, 0.0], dt);
            idle.accumulate_powers(&powers, &[], dt);
        }
        for c in b.cluster_ids() {
            assert_eq!(
                general.cluster_joules(c).to_bits(),
                idle.cluster_joules(c).to_bits(),
                "idle path must replay the exact fp ops"
            );
            assert_eq!(
                general.busy_core_secs(c).to_bits(),
                idle.busy_core_secs(c).to_bits(),
                "skipping the += 0.0 adds must be an exact no-op"
            );
        }
        assert_eq!(
            general.elapsed_secs().to_bits(),
            idle.elapsed_secs().to_bits()
        );
    }

    #[test]
    fn hoisted_powers_are_bit_equal_to_the_general_path_when_busy() {
        for b in [xu3(), BoardSpec::dynamiq_1p_3m_4l()] {
            let freqs: Vec<FreqKhz> = b.cluster_ids().map(|c| b.ladder(c).min()).collect();
            let busy: Vec<f64> = b
                .cluster_ids()
                .map(|c| b.cluster_size(c).div_ceil(2) as f64)
                .collect();
            let powers: Vec<f64> = b
                .cluster_ids()
                .map(|c| {
                    let i = c.index();
                    cluster_power(&b, c, freqs[i], busy[i], b.cluster_size(c))
                })
                .collect();
            let mut general = EnergyMeter::new();
            let mut hoisted = EnergyMeter::new();
            // A different busy set first, so the accumulators are
            // mid-stream when the hoisted span starts.
            let other: Vec<f64> = b.cluster_ids().map(|_| 1.0).collect();
            accumulate(&mut general, &b, &max_freqs(&b), &other, 7_123_456);
            accumulate(&mut hoisted, &b, &max_freqs(&b), &other, 7_123_456);
            for dt in [4_000_000_u64, 4_000_000, 1, 263_808_000, 0, 999] {
                accumulate(&mut general, &b, &freqs, &busy, dt);
                hoisted.accumulate_powers(&powers, &busy, dt);
            }
            for c in b.cluster_ids() {
                assert_eq!(
                    general.cluster_joules(c).to_bits(),
                    hoisted.cluster_joules(c).to_bits(),
                    "hoisted powers must replay the exact fp ops"
                );
                assert_eq!(
                    general.busy_core_secs(c).to_bits(),
                    hoisted.busy_core_secs(c).to_bits()
                );
            }
            assert_eq!(
                general.elapsed_secs().to_bits(),
                hoisted.elapsed_secs().to_bits()
            );
        }
    }

    #[test]
    fn repeated_accumulate_is_bit_equal_to_repeated_calls() {
        for b in [xu3(), BoardSpec::dynamiq_1p_3m_4l()] {
            let freqs: Vec<FreqKhz> = b.cluster_ids().map(|c| b.ladder(c).min()).collect();
            let busy: Vec<f64> = b
                .cluster_ids()
                .map(|c| b.cluster_size(c).div_ceil(2) as f64)
                .collect();
            let powers: Vec<f64> = b
                .cluster_ids()
                .map(|c| {
                    let i = c.index();
                    cluster_power(&b, c, freqs[i], busy[i], b.cluster_size(c))
                })
                .collect();
            // With busy counts (a busy span) and without (an idle
            // span, whose busy adds are skipped).
            for busy in [&busy[..], &[]] {
                for m in [0_u64, 1, 2, 37] {
                    for dt in [4_000_000_u64, 263_808_001, 0] {
                        let mut calls = EnergyMeter::new();
                        let mut repeated = EnergyMeter::new();
                        // Mid-stream accumulators, so every addition rounds.
                        let other: Vec<f64> = b.cluster_ids().map(|_| 1.0).collect();
                        accumulate(&mut calls, &b, &max_freqs(&b), &other, 7_123_457);
                        accumulate(&mut repeated, &b, &max_freqs(&b), &other, 7_123_457);
                        for _ in 0..m {
                            calls.accumulate_powers(&powers, busy, dt);
                        }
                        repeated.accumulate_repeated(&powers, busy, dt, m);
                        for c in b.cluster_ids() {
                            assert_eq!(
                                calls.cluster_joules(c).to_bits(),
                                repeated.cluster_joules(c).to_bits(),
                                "m = {m}, dt = {dt}: joules"
                            );
                            assert_eq!(
                                calls.busy_core_secs(c).to_bits(),
                                repeated.busy_core_secs(c).to_bits(),
                                "m = {m}, dt = {dt}: busy core-seconds"
                            );
                        }
                        assert_eq!(
                            calls.elapsed_secs().to_bits(),
                            repeated.elapsed_secs().to_bits(),
                            "m = {m}, dt = {dt}: elapsed"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lower_frequency_costs_less_energy_for_same_time() {
        let b = xu3();
        let mut hi = EnergyMeter::new();
        let mut lo = EnergyMeter::new();
        let min_freqs: Vec<FreqKhz> = b.cluster_ids().map(|c| b.ladder(c).min()).collect();
        accumulate(&mut hi, &b, &max_freqs(&b), &[4.0, 4.0], NS_PER_SEC);
        accumulate(&mut lo, &b, &min_freqs, &[4.0, 4.0], NS_PER_SEC);
        assert!(lo.total_joules() < hi.total_joules());
    }

    #[test]
    fn tri_cluster_meter_tracks_three_clusters() {
        let b = BoardSpec::dynamiq_1p_3m_4l();
        let mut m = EnergyMeter::new();
        let freqs = max_freqs(&b);
        accumulate(&mut m, &b, &freqs, &[1.0, 2.0, 1.0], NS_PER_SEC);
        assert!(m.cluster_joules(C(0)) > 0.0);
        assert!(m.cluster_joules(C(2)) > 0.0);
        assert!((m.busy_core_secs(C(1)) - 2.0).abs() < 1e-12);
        let sum: f64 = b.cluster_ids().map(|c| m.cluster_joules(c)).sum();
        assert!((sum - m.total_joules()).abs() < 1e-12);
    }
}
