//! Direct Manhattan distance-ball enumeration over the `2N` sweep
//! dimensions — the candidate generator behind
//! [`ExhaustiveSweep`](super::ExhaustiveSweep) — plus the shared
//! single-index-step neighbor walk [`BeamSearch`](super::BeamSearch)'s
//! ring expansion uses.
//!
//! The legacy sweep drove a plain box odometer over all
//! `(m + n + 1)^(2N)` per-dimension offset combinations and discarded,
//! at the innermost level, every vector whose Manhattan norm exceeded
//! the distance cap `d`. On a 4-cluster board with the paper's
//! `(4, 4, 7)` bounds that is ~43M odometer steps for ~94k in-cap
//! candidates — ~99% of the decision's wall time spent stepping
//! through offsets that were never going to be evaluated.
//!
//! [`BallDims::walk`] generates **only** the in-cap vectors: a
//! depth-first walk over the dimensions that threads the remaining
//! distance budget through the recursion, so each dimension's offset
//! range is clamped to `[-budget, +budget]` (intersected with the
//! per-dimension bounds) before it is entered. Every interior node of
//! the walk extends to at least one emitted vector (offset `0` is
//! always feasible), so the total work is `O(candidates · 2N)` —
//! proportional to the candidate count, not the box volume. The
//! emission order is exactly the legacy odometer's lexicographic order
//! (dimension 0 outermost, offsets ascending from the lower bound), so
//! tie-breaking — first-visited wins — and therefore the chosen state
//! are bit-identical to the pre-refactor sweep, which the
//! `ball_enumerator_matches_legacy_odometer` proptest pins down.

use hmp_sim::{ClusterId, MAX_CLUSTERS};

use crate::state::StateIndex;

/// Per-dimension offset bounds of one bounded neighborhood, in the
/// sweep's dimension order (cores of cluster `N-1..0`, then ladder
/// levels of cluster `N-1..0`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BallDims {
    /// Inclusive per-dimension lower offset bounds (≤ 0).
    lo: [i64; 2 * MAX_CLUSTERS],
    /// Inclusive per-dimension upper offset bounds (≥ lo − 1).
    hi: [i64; 2 * MAX_CLUSTERS],
    dims: usize,
}

impl BallDims {
    /// Bounds for `dims` dimensions, initialized empty (`lo = 0`,
    /// `hi = -1`: no feasible offsets until set).
    pub(crate) fn new(dims: usize) -> Self {
        debug_assert!(dims <= 2 * MAX_CLUSTERS);
        Self {
            lo: [0; 2 * MAX_CLUSTERS],
            hi: [-1; 2 * MAX_CLUSTERS],
            dims,
        }
    }

    /// Sets dimension `pos`'s feasible offset interval.
    pub(crate) fn set(&mut self, pos: usize, lo: i64, hi: i64) {
        self.lo[pos] = lo;
        self.hi[pos] = hi;
    }

    /// Walks every offset vector within the per-dimension bounds and
    /// Manhattan distance `d`, in the legacy odometer's lexicographic
    /// order, telling `visitor` each coordinate as it changes. Returns
    /// `(nodes, completed)`: the number of interior walk steps taken
    /// (the "iterations ≈ candidates" instrumentation the
    /// `decision_perf` bench reports) and whether the walk ran to
    /// completion.
    pub(crate) fn walk<V: BallVisitor>(&self, d: i64, visitor: &mut V) -> (u64, bool) {
        debug_assert!(d >= 0);
        let mut nodes = 0u64;
        let completed = self.descend(0, d, visitor, &mut nodes);
        (nodes, completed)
    }

    /// Depth-first walk: assign dimension `pos` every offset the
    /// remaining `budget` allows, recurse. Returns `false` when the
    /// visitor aborted.
    fn descend<V: BallVisitor>(
        &self,
        pos: usize,
        budget: i64,
        visitor: &mut V,
        nodes: &mut u64,
    ) -> bool {
        if pos == self.dims {
            return visitor.leaf(budget);
        }
        *nodes += 1;
        let lo = self.lo[pos].max(-budget);
        let hi = self.hi[pos].min(budget);
        for o in lo..=hi {
            visitor.set(pos, o);
            if !self.descend(pos + 1, budget - o.abs(), visitor, nodes) {
                return false;
            }
        }
        true
    }
}

/// What a [`BallDims::walk`] reports as it moves; the defaults ignore
/// it (`()` walks only to count nodes).
pub(crate) trait BallVisitor {
    /// Dimension `pos` now holds `offset`.
    fn set(&mut self, _pos: usize, _offset: i64) {}

    /// The dimensions hold an in-cap vector leaving `unspent` of the
    /// distance budget (`d` only at the centre). Returns `false` to
    /// abort the walk (the anytime budget's early exit).
    fn leaf(&mut self, _unspent: i64) -> bool {
        true
    }
}

impl BallVisitor for () {}

/// The `4N` single index steps from `idx`, in [`BeamSearch`]'s
/// (and the sweep's) dimension order — cluster `N-1..0`, and per
/// cluster cores `+1`, cores `-1`, level `+1`, level `-1` — shared by
/// the beam's ring expansion so its deterministic tie handling stays
/// byte-for-byte what it was before the enumerator refactor. `visit`
/// receives the stepped index; bounds checking stays with the caller
/// (the board's valid intervals differ per use).
///
/// [`BeamSearch`]: super::BeamSearch
pub(crate) fn for_each_unit_step(
    n: usize,
    idx: &StateIndex,
    visit: &mut dyn FnMut(ClusterId, bool, StateIndex),
) {
    for i in (0..n).rev() {
        let c = ClusterId(i);
        for (is_level, step) in [(false, 1i64), (false, -1), (true, 1), (true, -1)] {
            let mut nidx = *idx;
            if is_level {
                nidx.set_level(c, idx.level(c) + step);
            } else {
                nidx.set_cores(c, idx.cores(c) + step);
            }
            visit(c, is_level, nidx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records the walk's offset vectors, stopping after `limit` leaves.
    struct Collect {
        offset: [i64; 2 * MAX_CLUSTERS],
        dims: usize,
        d: i64,
        out: Vec<Vec<i64>>,
        limit: usize,
    }

    impl Collect {
        fn new(dims: &BallDims, d: i64, limit: usize) -> Self {
            Self {
                offset: [0; 2 * MAX_CLUSTERS],
                dims: dims.dims,
                d,
                out: Vec::new(),
                limit,
            }
        }
    }

    impl BallVisitor for Collect {
        fn set(&mut self, pos: usize, offset: i64) {
            self.offset[pos] = offset;
        }

        fn leaf(&mut self, unspent: i64) -> bool {
            let offset = &self.offset[..self.dims];
            let spent: i64 = offset.iter().map(|o| o.abs()).sum();
            assert_eq!(unspent, self.d - spent, "{offset:?}");
            self.out.push(offset.to_vec());
            self.out.len() < self.limit
        }
    }

    /// Collects the walk as offset vectors.
    fn collect(dims: &BallDims, d: i64) -> (Vec<Vec<i64>>, u64) {
        let mut visitor = Collect::new(dims, d, usize::MAX);
        let (nodes, completed) = dims.walk(d, &mut visitor);
        assert!(completed);
        (visitor.out, nodes)
    }

    /// The reference box odometer the enumerator replaces.
    fn box_filter(dims: &BallDims, d: i64) -> Vec<Vec<i64>> {
        let n = dims.dims;
        let mut out = Vec::new();
        let mut cursor: Vec<i64> = (0..n).map(|p| dims.lo[p]).collect();
        if (0..n).any(|p| dims.lo[p] > dims.hi[p]) {
            return out;
        }
        'odometer: loop {
            if cursor.iter().map(|o| o.abs()).sum::<i64>() <= d {
                out.push(cursor.clone());
            }
            for p in (0..n).rev() {
                if cursor[p] < dims.hi[p] {
                    cursor[p] += 1;
                    continue 'odometer;
                }
                cursor[p] = dims.lo[p];
            }
            break;
        }
        out
    }

    #[test]
    fn matches_box_odometer_order_and_set() {
        let mut dims = BallDims::new(4);
        dims.set(0, -2, 3);
        dims.set(1, -4, 0);
        dims.set(2, 0, 5);
        dims.set(3, -1, 1);
        for d in [0, 1, 3, 7, 20] {
            let (ball, nodes) = collect(&dims, d);
            let boxed = box_filter(&dims, d);
            assert_eq!(ball, boxed, "d={d}");
            // Work is proportional to emissions, not box volume: every
            // interior node extends to ≥ 1 leaf.
            assert!(
                nodes <= (ball.len() as u64 + 1) * 4,
                "d={d}: {nodes} nodes for {} leaves",
                ball.len()
            );
        }
    }

    #[test]
    fn empty_dimension_yields_nothing() {
        let mut dims = BallDims::new(2);
        dims.set(0, 0, 2);
        // dimension 1 left empty (lo 0, hi -1)
        let (ball, _) = collect(&dims, 5);
        assert!(ball.is_empty());
    }

    #[test]
    fn early_abort_stops_the_walk() {
        let mut dims = BallDims::new(2);
        dims.set(0, -2, 2);
        dims.set(1, -2, 2);
        let mut visitor = Collect::new(&dims, 4, 3);
        let (_, completed) = dims.walk(4, &mut visitor);
        assert!(!completed);
        assert_eq!(visitor.out.len(), 3);
    }

    #[test]
    fn unit_steps_cover_all_4n_neighbors_in_beam_order() {
        let idx = StateIndex::new(&[(2, 1), (0, 3)]);
        let mut steps = Vec::new();
        for_each_unit_step(2, &idx, &mut |_, _, nidx| steps.push(nidx));
        assert_eq!(steps.len(), 8);
        // Cluster 1 first: cores +1/-1 then levels +1/-1.
        assert_eq!(steps[0].cores(ClusterId(1)), 1);
        assert_eq!(steps[1].cores(ClusterId(1)), -1);
        assert_eq!(steps[2].level(ClusterId(1)), 4);
        assert_eq!(steps[3].level(ClusterId(1)), 2);
        assert_eq!(steps[4].cores(ClusterId(0)), 3);
        assert_eq!(steps[7].level(ClusterId(0)), 0);
        // Every step is Manhattan distance 1 from the center.
        for s in &steps {
            assert_eq!(s.manhattan(&idx), 1);
        }
    }
}
