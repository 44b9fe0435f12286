//! Frequency levels and per-cluster DVFS ladders.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A CPU frequency in kilohertz.
///
/// Newtype so frequencies cannot be confused with other integers; the
/// kHz base matches the Linux cpufreq sysfs interface HARS drives.
///
/// ```
/// use hmp_sim::FreqKhz;
/// let f = FreqKhz::from_mhz(1_600);
/// assert_eq!(f.khz(), 1_600_000);
/// assert!((f.ghz() - 1.6).abs() < 1e-12);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct FreqKhz(u32);

impl FreqKhz {
    /// Creates a frequency from a raw kHz value.
    pub fn new(khz: u32) -> Self {
        Self(khz)
    }

    /// Creates a frequency from megahertz.
    pub fn from_mhz(mhz: u32) -> Self {
        Self(mhz * 1_000)
    }

    /// The frequency in kilohertz.
    pub fn khz(&self) -> u32 {
        self.0
    }

    /// The frequency in gigahertz.
    pub fn ghz(&self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Ratio of this frequency to `base` — the `f / f0` factor in the
    /// paper's performance model.
    pub fn ratio_to(&self, base: FreqKhz) -> f64 {
        debug_assert!(base.0 > 0);
        self.0 as f64 / base.0 as f64
    }
}

impl fmt::Display for FreqKhz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1_000) {
            write!(f, "{} MHz", self.0 / 1_000)
        } else {
            write!(f, "{} kHz", self.0)
        }
    }
}

/// An ordered list of the discrete frequency levels (DVFS operating
/// points) a cluster supports, lowest first.
///
/// ```
/// use hmp_sim::{FreqKhz, FreqLadder};
/// let ladder = FreqLadder::from_mhz_range(800, 1_600, 100);
/// assert_eq!(ladder.len(), 9);
/// assert_eq!(ladder.level(0), Some(FreqKhz::from_mhz(800)));
/// assert_eq!(ladder.max(), FreqKhz::from_mhz(1_600));
/// assert_eq!(ladder.index_of(FreqKhz::from_mhz(1_200)), Some(4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FreqLadder {
    levels: Vec<FreqKhz>,
}

impl FreqLadder {
    /// Builds a ladder from explicit levels; sorts and deduplicates.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty or contains a zero frequency.
    pub fn new(mut levels: Vec<FreqKhz>) -> Self {
        assert!(!levels.is_empty(), "frequency ladder must not be empty");
        assert!(
            levels.iter().all(|f| f.khz() > 0),
            "frequency levels must be positive"
        );
        levels.sort_unstable();
        levels.dedup();
        Self { levels }
    }

    /// Builds a ladder of evenly spaced MHz levels, `lo..=hi` inclusive
    /// with the given `step` (all in MHz) — e.g. the Exynos 5422 big
    /// cluster is `from_mhz_range(800, 1600, 100)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`, `step == 0`, or `lo == 0`.
    pub fn from_mhz_range(lo: u32, hi: u32, step: u32) -> Self {
        assert!(lo > 0 && step > 0 && lo <= hi, "invalid MHz range");
        let levels = (lo..=hi)
            .step_by(step as usize)
            .map(FreqKhz::from_mhz)
            .collect();
        Self::new(levels)
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// `false` always (an empty ladder cannot be constructed); provided
    /// for API completeness.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// The level at `index` (0 = lowest).
    pub fn level(&self, index: usize) -> Option<FreqKhz> {
        self.levels.get(index).copied()
    }

    /// The lowest frequency.
    pub fn min(&self) -> FreqKhz {
        self.levels[0]
    }

    /// The highest frequency.
    pub fn max(&self) -> FreqKhz {
        *self.levels.last().expect("ladder is never empty")
    }

    /// The index of `freq` on this ladder, or `None` if it is not an
    /// operating point.
    pub fn index_of(&self, freq: FreqKhz) -> Option<usize> {
        self.levels.binary_search(&freq).ok()
    }

    /// `true` when `freq` is a valid operating point.
    pub fn contains(&self, freq: FreqKhz) -> bool {
        self.index_of(freq).is_some()
    }

    /// The closest operating point at or below `freq` (clamps to the
    /// minimum level below the ladder).
    pub fn floor(&self, freq: FreqKhz) -> FreqKhz {
        match self.levels.binary_search(&freq) {
            Ok(i) => self.levels[i],
            Err(0) => self.levels[0],
            Err(i) => self.levels[i - 1],
        }
    }

    /// Iterates over the levels, lowest first.
    pub fn iter(&self) -> impl Iterator<Item = FreqKhz> + '_ {
        self.levels.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mhz_range_matches_paper_clusters() {
        // Exynos 5422: big 0.8-1.6 GHz, little 0.8-1.3 GHz, 100 MHz steps.
        let big = FreqLadder::from_mhz_range(800, 1600, 100);
        let little = FreqLadder::from_mhz_range(800, 1300, 100);
        assert_eq!(big.len(), 9);
        assert_eq!(little.len(), 6);
        assert_eq!(big.max(), FreqKhz::from_mhz(1600));
        assert_eq!(little.max(), FreqKhz::from_mhz(1300));
    }

    #[test]
    fn new_sorts_and_dedups() {
        let l = FreqLadder::new(vec![
            FreqKhz::from_mhz(1000),
            FreqKhz::from_mhz(800),
            FreqKhz::from_mhz(1000),
        ]);
        assert_eq!(l.len(), 2);
        assert_eq!(l.min(), FreqKhz::from_mhz(800));
    }

    #[test]
    fn index_and_contains() {
        let l = FreqLadder::from_mhz_range(800, 1200, 200);
        assert_eq!(l.index_of(FreqKhz::from_mhz(1000)), Some(1));
        assert!(!l.contains(FreqKhz::from_mhz(900)));
    }

    #[test]
    fn floor_clamps() {
        let l = FreqLadder::from_mhz_range(800, 1200, 200);
        assert_eq!(l.floor(FreqKhz::from_mhz(900)), FreqKhz::from_mhz(800));
        assert_eq!(l.floor(FreqKhz::from_mhz(700)), FreqKhz::from_mhz(800));
        assert_eq!(l.floor(FreqKhz::from_mhz(5000)), FreqKhz::from_mhz(1200));
    }

    #[test]
    fn ratio_to_base() {
        let f = FreqKhz::from_mhz(1500);
        assert!((f.ratio_to(FreqKhz::from_mhz(1000)) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn display_formats_mhz() {
        assert_eq!(FreqKhz::from_mhz(1400).to_string(), "1400 MHz");
        assert_eq!(FreqKhz::new(1234).to_string(), "1234 kHz");
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_ladder_panics() {
        let _ = FreqLadder::new(vec![]);
    }
}
