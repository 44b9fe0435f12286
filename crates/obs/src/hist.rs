//! Fixed-bucket log2 histograms with order-free, bit-stable merges.
//!
//! The metrics engine needs percentiles that survive fleet-scale
//! reduction: shard-level histograms merged in *any* order must equal
//! the histogram of the concatenated stream, bit for bit. Floating
//! point cannot give that (summation order leaks into the low bits),
//! so the histogram is purely integral: values are bucketed into a
//! log2 ladder with 16 linear sub-buckets per octave (HdrHistogram's
//! layout at 4 bits of precision — relative bucket error ≤ 1/16), and
//! a merge is an element-wise `u64` add. Addition commutes and
//! associates exactly, so merges are order-free by construction and
//! the merge-law proptests in `tests/merge_laws.rs` hold bit-level.
//!
//! Percentiles are *bucket-exact*: `percentile(p)` returns the upper
//! bound of the bucket holding the rank-⌈p·n/100⌉ observation — a
//! deterministic function of the bucket counts, identical no matter
//! how the counts were assembled.

/// Values `0..LINEAR_CUTOFF` get their own exact bucket.
const LINEAR_CUTOFF: u64 = 16;
/// Sub-buckets per octave above the linear range (4 bits of mantissa).
const SUBS: usize = 16;
/// Octave groups: bit lengths 5..=64 map to groups 1..=60.
const GROUPS: usize = 61;
/// Total bucket count (index 0..16 linear, then 16 per group).
pub const BUCKETS: usize = SUBS * GROUPS;

/// A log2 histogram over `u64` values (typically nanoseconds or
/// micro-units of a score), mergeable bit-stably in any order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    /// Per-bucket observation counts.
    counts: Vec<u64>,
    /// Total observations recorded.
    total: u64,
    /// Saturating sum of recorded values (mean reporting only).
    sum: u64,
    /// Maximum value recorded (exact, not bucket-rounded).
    max: u64,
    /// Non-finite `f64` inputs skipped by [`Log2Histogram::record_f64_micros`].
    nonfinite: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
            nonfinite: 0,
        }
    }

    /// The bucket index for `v`.
    fn index(v: u64) -> usize {
        if v < LINEAR_CUTOFF {
            return v as usize;
        }
        // Bit length b means 2^(b-1) <= v < 2^b; the 4 bits below the
        // leading one pick the linear sub-bucket within the octave.
        let b = 64 - v.leading_zeros() as usize; // 5..=64
        let sub = ((v >> (b - 5)) & 0xF) as usize;
        (b - 4) * SUBS + sub
    }

    /// The largest value bucket `idx` covers.
    fn upper_bound(idx: usize) -> u64 {
        if idx < LINEAR_CUTOFF as usize {
            return idx as u64;
        }
        let b = idx / SUBS + 4; // bit length, 5..=64
        let sub = (idx % SUBS) as u64;
        let width = 1u64 << (b - 5);
        (1u64 << (b - 1)) + sub * width + (width - 1)
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Records a finite `f64` quantized to micro-units (`v * 1e6`,
    /// clamped to `[0, u64::MAX]`); non-finite inputs are counted in
    /// a side counter instead of a bucket.
    pub fn record_f64_micros(&mut self, v: f64) {
        if !v.is_finite() {
            self.nonfinite += 1;
            return;
        }
        let micros = if v <= 0.0 { 0 } else { (v * 1e6) as u64 };
        self.record(micros);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The exact maximum recorded value (0 for an empty histogram).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Integer mean of recorded values (0 for an empty histogram).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.total).unwrap_or(0)
    }

    /// Non-finite inputs skipped by [`Log2Histogram::record_f64_micros`].
    pub fn nonfinite(&self) -> u64 {
        self.nonfinite
    }

    /// The upper bound of the bucket holding the rank-⌈p·n/100⌉
    /// observation (`p` in 1..=100), or `None` when empty. Pure
    /// integer arithmetic — identical for any merge order that
    /// produced the same counts.
    pub fn percentile(&self, p: u64) -> Option<u64> {
        assert!((1..=100).contains(&p), "percentile must be in 1..=100");
        if self.total == 0 {
            return None;
        }
        let rank = (self.total * p).div_ceil(100).max(1);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(Self::upper_bound(idx));
            }
        }
        unreachable!("total matches the bucket sum");
    }

    /// p50 (bucket upper bound), or 0 when empty.
    pub fn p50(&self) -> u64 {
        self.percentile(50).unwrap_or(0)
    }

    /// p95 (bucket upper bound), or 0 when empty.
    pub fn p95(&self) -> u64 {
        self.percentile(95).unwrap_or(0)
    }

    /// p99 (bucket upper bound), or 0 when empty.
    pub fn p99(&self) -> u64 {
        self.percentile(99).unwrap_or(0)
    }

    /// Absorbs another histogram: element-wise integer adds, so the
    /// result is independent of merge order and grouping (commutative
    /// *and* associative, bit for bit).
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        self.nonfinite += other.nonfinite;
    }

    /// One-line rendering: `n=.. p50=.. p95=.. p99=.. max=.. mean=..`
    /// (or `empty`). Deterministic — byte-identity checks compare it.
    pub fn render(&self) -> String {
        if self.total == 0 {
            return "empty".to_string();
        }
        format!(
            "n={} p50={} p95={} p99={} max={} mean={}",
            self.total,
            self.p50(),
            self.p95(),
            self.p99(),
            self.max,
            self.mean()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_bucket_exactly() {
        let mut h = Log2Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        for p in [1, 50, 100] {
            let got = h.percentile(p).unwrap();
            assert!(got < 16, "linear range stays exact: p{p} -> {got}");
        }
        assert_eq!(h.percentile(100), Some(15));
        assert_eq!(h.max(), 15);
    }

    #[test]
    fn bucket_bounds_cover_the_domain_in_order() {
        let mut prev_upper = None;
        for idx in 0..BUCKETS {
            let upper = Log2Histogram::upper_bound(idx);
            if let Some(p) = prev_upper {
                assert!(upper > p, "bounds strictly increase at {idx}");
            }
            prev_upper = Some(upper);
            // The upper bound itself must map back into the bucket.
            assert_eq!(Log2Histogram::index(upper), idx, "idx {idx}");
        }
        assert_eq!(Log2Histogram::upper_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn relative_bucket_error_is_bounded() {
        for v in [100u64, 1_000, 1_000_000, 123_456_789, u64::MAX / 3] {
            let ub = Log2Histogram::upper_bound(Log2Histogram::index(v));
            assert!(ub >= v);
            // Upper bound overshoots by at most one sub-bucket width
            // (1/16 of the octave ≈ 12.5% of the value's lower bound).
            assert!((ub - v) as f64 <= v as f64 / 8.0, "{v} -> {ub}");
        }
    }

    #[test]
    fn percentiles_are_monotone_and_rank_correct() {
        let mut h = Log2Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let (p50, p95, p99) = (h.p50(), h.p95(), h.p99());
        assert!(p50 <= p95 && p95 <= p99);
        // Rank semantics: ~half the mass at or below the p50 bucket.
        assert!((500..=575).contains(&p50), "p50 bucket ≈ rank 500: {p50}");
        assert!(p95 >= 950, "{p95}");
    }

    #[test]
    fn merge_equals_concatenation() {
        let mut all = Log2Histogram::new();
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        for v in 0..500u64 {
            let v = v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20;
            all.record(v);
            if v % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, all);
        assert_eq!(ba, all);
        assert_eq!(ab.render(), all.render());
    }

    #[test]
    fn nonfinite_scores_are_counted_not_bucketed() {
        let mut h = Log2Histogram::new();
        h.record_f64_micros(f64::INFINITY);
        h.record_f64_micros(f64::NAN);
        h.record_f64_micros(0.5);
        h.record_f64_micros(-3.0); // clamps to 0
        assert_eq!(h.nonfinite(), 2);
        assert_eq!(h.count(), 2);
        assert_eq!(
            h.percentile(100),
            Some(Log2Histogram::upper_bound(Log2Histogram::index(500_000),))
        );
    }
}
