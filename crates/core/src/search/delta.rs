//! Delta evaluation of search candidates: the per-period
//! [`PartialEvaluator`] that factors [`super::evaluate_state`] into
//! memoized per-cluster partial terms and recombines them per
//! candidate, bit-for-bit equal to the full evaluator (pinned by the
//! `delta_evaluation_matches_full_evaluation_bitwise` proptest).
//!
//! Why the full evaluator is wasteful on the search hot path:
//!
//! * the **current state's barrier time** `t_f(current)` — the
//!   numerator of the rate prediction — is invariant across the whole
//!   search, yet `estimate_rate` recomputed it (including a full
//!   waterfill) for every candidate;
//! * the candidate's **thread assignment** was computed twice per
//!   candidate (once inside `estimate_rate`, once for the power
//!   model's used-core counts);
//! * the per-cluster **speeds** and **power coefficients** are pure
//!   functions of `(cluster, ladder level)` — a few dozen values per
//!   board — but were re-derived per candidate through `FreqKhz`
//!   ratio arithmetic and linear ladder scans
//!   (`FreqLadder::floor`/`index_of`).
//!
//! The partial evaluator hoists the first and memoizes the last two as
//! per-cluster tables at search start; per candidate only the genuinely
//! state-coupled work remains — one waterfill over the cached
//! per-cluster `(cores, speed)` capacities, the per-cluster unit-time
//! terms, and the per-cluster power terms summed in the paper's order.
//! Every arithmetic expression is kept operation-for-operation
//! identical to the slow path, so the produced [`CandidateEval`] (and
//! therefore every ranking decision downstream) is bit-identical.
//!
//! Candidates inside one ring share their parent's coordinates in all
//! but one dimension; the table lookups make the untouched clusters'
//! partial terms (speed, coefficients) free, and the distinct-state
//! memoization in [`EvalCache`](super::EvalCache) already absorbs
//! re-visited states entirely.

use heartbeats::PerfTarget;
use hmp_sim::{ClusterId, MAX_CLUSTERS};

use crate::assign::{assign_threads_n, ClusterCapacity};
use crate::metrics::normalized_performance;
use crate::perf_est::cluster_time;
use crate::power_est::LinearCoeff;
use crate::state::StateIndex;

use super::strategy::SearchContext;
use super::CandidateEval;

/// The per-period factored evaluator. Built once per search from the
/// [`SearchContext`]; self-contained (owns its tables) so the
/// [`EvalCache`](super::EvalCache) can hold it across the strategy's
/// borrows of the context.
#[derive(Debug, Clone)]
pub(crate) struct PartialEvaluator {
    n: usize,
    threads: usize,
    observed_rate: f64,
    target: PerfTarget,
    /// `t_f(current)`: the search-invariant numerator of the rate
    /// prediction, computed once with the exact slow-path expression.
    tf_current: f64,
    /// Per-cluster, per-ladder-level absolute per-core speed
    /// (`r_c · f_c/f₀`) — the performance estimator's partial term.
    speed: Vec<Vec<f64>>,
    /// Per-cluster, per-ladder-level power-model coefficients — the
    /// power estimator's partial term, resolved through the same
    /// `PowerEstimator::coeff` lookup the slow path uses.
    coeff: Vec<Vec<LinearCoeff>>,
}

impl PartialEvaluator {
    /// Precomputes the period-invariant and per-cluster partial terms.
    pub(crate) fn new(ctx: &SearchContext<'_>) -> Self {
        let n = ctx.space.n_clusters();
        let tf_current = ctx.perf.unit_times(ctx.threads, ctx.current).t_finish;
        let mut speed = Vec::with_capacity(n);
        let mut coeff = Vec::with_capacity(n);
        for c in ctx.space.cluster_ids() {
            let ladder = ctx.space.ladder(c);
            let ratio = ctx.perf.ratio_of(c);
            let base = ctx.perf.base_freq();
            let mut s = Vec::with_capacity(ladder.len());
            let mut k = Vec::with_capacity(ladder.len());
            for l in 0..ladder.len() {
                let freq = ladder.level(l).expect("level in range");
                // Exactly `PerfEstimator::speeds`' per-cluster term.
                s.push(ratio * freq.ratio_to(base));
                k.push(ctx.power.coeff(c, freq));
            }
            speed.push(s);
            coeff.push(k);
        }
        Self {
            n,
            threads: ctx.threads,
            observed_rate: ctx.observed_rate,
            target: *ctx.target,
            tf_current,
            speed,
            coeff,
        }
    }

    /// Evaluates one candidate by recombining the memoized partial
    /// terms — bit-identical to
    /// [`evaluate_state`](super::evaluate_state) on the same inputs.
    pub(crate) fn evaluate(&self, idx: &StateIndex) -> CandidateEval {
        let n = self.n;
        debug_assert_eq!(idx.n_clusters(), n);
        // Per-cluster absolute speeds and capacities from the tables.
        let mut abs = [0.0f64; MAX_CLUSTERS];
        let mut caps = [ClusterCapacity {
            cores: 0,
            speed: 1.0,
        }; MAX_CLUSTERS];
        let mut total_cores = 0usize;
        for (i, a) in abs.iter_mut().enumerate().take(n) {
            let c = ClusterId(i);
            *a = self.speed[i][idx.level(c) as usize];
            total_cores += idx.cores(c) as usize;
        }
        if total_cores == 0 {
            // `estimate_rate`'s degenerate-candidate guard (search
            // candidates always have a core; kept for exact parity).
            return CandidateEval {
                est_rate: 0.0,
                est_watts: 0.0,
                perf_per_watt: 0.0,
                satisfies: 0.0 >= self.target.min(),
            };
        }
        // The generalized Table 3.1 waterfill over reference-relative
        // speeds, exactly as `PerfEstimator::assignment` builds them.
        let s0 = abs[0];
        for i in 0..n {
            caps[i] = ClusterCapacity {
                cores: idx.cores(ClusterId(i)) as usize,
                speed: if i == 0 { 1.0 } else { abs[i] / s0 },
            };
        }
        let assignment = assign_threads_n(self.threads, &caps[..n]);
        // Per-cluster unit times and the barrier, in `UnitTimes::new`'s
        // fold order.
        let t = self.threads as f64;
        let mut times = [0.0f64; MAX_CLUSTERS];
        let mut tf = 0.0f64;
        for i in 0..n {
            let c = ClusterId(i);
            times[i] = cluster_time(assignment.threads(c), assignment.used(c), t, abs[i]);
            tf = tf.max(times[i]);
        }
        // Rate prediction against the hoisted current barrier time.
        let est_rate = if tf <= 0.0 {
            0.0
        } else {
            self.observed_rate * self.tf_current / tf
        };
        // Power: per-cluster linear terms summed highest cluster first
        // (the paper's `P_B + P_L` order), utilizations as
        // `UnitTimes::util` computes them.
        let mut est_watts = 0.0f64;
        for i in (0..n).rev() {
            let c = ClusterId(i);
            let util = if tf > 0.0 { times[i] / tf } else { 0.0 };
            est_watts +=
                self.coeff[i][idx.level(c) as usize].watts(assignment.used(c) as f64 * util);
        }
        let perf_per_watt = if est_watts > 0.0 {
            normalized_performance(&self.target, est_rate) / est_watts
        } else {
            0.0
        };
        CandidateEval {
            est_rate,
            est_watts,
            perf_per_watt,
            satisfies: est_rate >= self.target.min(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{evaluate_state, SearchConstraints};
    use super::*;
    use crate::perf_est::PerfEstimator;
    use crate::power_est::PowerEstimator;
    use crate::state::{StateSpace, SystemState};
    use hmp_sim::{BoardSpec, ClusterPowerModel, ClusterSpec, FreqKhz, FreqLadder};
    use proptest::prelude::*;

    /// Every state of two very different boards evaluates bit-identically
    /// through the partial evaluator (the proptest in
    /// `tests/search_delta.rs` randomizes boards and contexts on top).
    #[test]
    fn partial_evaluator_matches_full_evaluator_exhaustively() {
        for board in [BoardSpec::odroid_xu3(), BoardSpec::dynamiq_1p_3m_4l()] {
            let space = StateSpace::from_board(&board);
            let perf = PerfEstimator::from_board(&board);
            let power = PowerEstimator::synthetic_for_board(&board);
            let target = heartbeats::PerfTarget::new(9.0, 11.0).unwrap();
            let constraints = SearchConstraints::unrestricted(&space);
            let current = space.max_state();
            for threads in [1usize, 6, 13] {
                let ctx = SearchContext {
                    space: &space,
                    current: &current,
                    observed_rate: 17.25,
                    threads,
                    target: &target,
                    constraints: &constraints,
                    perf: &perf,
                    power: &power,
                    tabu: &[],
                    eval_limit: None,
                };
                let pe = PartialEvaluator::new(&ctx);
                for state in space.iter_all().step_by(7) {
                    let idx = space.index_of(&state).unwrap();
                    let fast = pe.evaluate(&idx);
                    let slow =
                        evaluate_state(&state, 17.25, threads, &current, &target, &perf, &power);
                    assert_eq!(fast.est_rate.to_bits(), slow.est_rate.to_bits(), "{state}");
                    assert_eq!(
                        fast.est_watts.to_bits(),
                        slow.est_watts.to_bits(),
                        "{state}"
                    );
                    assert_eq!(
                        fast.perf_per_watt.to_bits(),
                        slow.perf_per_watt.to_bits(),
                        "{state}"
                    );
                    assert_eq!(fast.satisfies, slow.satisfies, "{state}");
                }
            }
        }
    }

    fn random_board(shape: &[(usize, usize, u32, u32)]) -> BoardSpec {
        let clusters: Vec<ClusterSpec> = shape
            .iter()
            .enumerate()
            .map(|(i, &(cores, levels, step_mhz, ratio_tenths))| {
                let lo = 400 + 100 * i as u32;
                let hi = lo + (levels as u32 - 1) * step_mhz;
                ClusterSpec::new(
                    format!("c{i}"),
                    cores,
                    FreqLadder::from_mhz_range(lo, hi, step_mhz),
                    ClusterPowerModel {
                        kappa: 0.2,
                        sigma: 0.05,
                        upsilon: 0.02,
                        chi: 0.02,
                        volt_lo: 0.9,
                        volt_hi: 1.1,
                    },
                    1.0 + ratio_tenths as f64 / 10.0,
                )
            })
            .collect();
        BoardSpec {
            name: "random".to_string(),
            base_freq: FreqKhz::from_mhz(400),
            units_per_sec: 1_000.0,
            sensor_period_ns: 100_000_000,
            clusters,
        }
    }

    /// The 5-cluster case (the full space is too large to sweep in a
    /// proptest case): sampled states of the server preset, three
    /// contexts.
    #[test]
    fn partial_evaluator_matches_full_evaluator_on_the_5_cluster_server() {
        let board = BoardSpec::server_5c_48core();
        let space = StateSpace::from_board(&board);
        let perf = PerfEstimator::from_board(&board);
        let power = PowerEstimator::synthetic_for_board(&board);
        let target = heartbeats::PerfTarget::new(9.0, 11.0).unwrap();
        let constraints = SearchConstraints::unrestricted(&space);
        let current = space.max_state();
        let ctx = SearchContext {
            space: &space,
            current: &current,
            observed_rate: 23.0,
            threads: 16,
            target: &target,
            constraints: &constraints,
            perf: &perf,
            power: &power,
            tabu: &[],
            eval_limit: None,
        };
        let pe = PartialEvaluator::new(&ctx);
        // A pseudo-random walk over the index space (deterministic).
        let mut pick = 0x9E37_79B9u64;
        for _ in 0..500 {
            let per: Vec<(usize, hmp_sim::FreqKhz)> = space
                .cluster_ids()
                .map(|c| {
                    pick = pick.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let cores = (pick >> 33) as usize % (space.max_cores(c) + 1);
                    pick = pick.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let level = (pick >> 33) as usize % space.ladder(c).len();
                    (cores, space.ladder(c).level(level).unwrap())
                })
                .collect();
            let mut state = SystemState::new(&per);
            if state.total_cores() == 0 {
                state.set_cores(hmp_sim::ClusterId(0), 1);
            }
            let idx = space.index_of(&state).unwrap();
            let fast = pe.evaluate(&idx);
            let slow = evaluate_state(&state, 23.0, 16, &current, &target, &perf, &power);
            assert_eq!(fast.est_rate.to_bits(), slow.est_rate.to_bits(), "{state}");
            assert_eq!(
                fast.est_watts.to_bits(),
                slow.est_watts.to_bits(),
                "{state}"
            );
            assert_eq!(
                fast.perf_per_watt.to_bits(),
                slow.perf_per_watt.to_bits(),
                "{state}"
            );
        }
    }

    proptest! {
        /// Random boards (up to 4 clusters — the full-space sweep per
        /// case must stay CI-sized; 5 clusters are spot-checked
        /// deterministically above), random contexts, every state of
        /// the space (subsampled on big boards): the factored
        /// evaluator equals the full evaluator bit for bit.
        #[test]
        fn delta_evaluation_matches_full_evaluation_bitwise(
            shape in proptest::collection::vec((1usize..=4, 2usize..=5, 1u32..=3, 0u32..=12), 1..5),
            cur_pick in 0usize..997,
            rate in 0.5f64..80.0,
            center in 1.0f64..40.0,
            threads in 1usize..12,
        ) {
            let shape: Vec<(usize, usize, u32, u32)> = shape
                .into_iter()
                .map(|(c, l, s, r)| (c, l, s * 100, r))
                .collect();
            let board = random_board(&shape);
            let space = StateSpace::from_board(&board);
            let perf = PerfEstimator::from_board(&board);
            let power = PowerEstimator::synthetic_for_board(&board);
            let target = heartbeats::PerfTarget::from_center(center, 0.1).unwrap();
            let constraints = SearchConstraints::unrestricted(&space);
            let states: Vec<SystemState> = space.iter_all().collect();
            let current = states[cur_pick % states.len()];
            let ctx = SearchContext {
                space: &space,
                current: &current,
                observed_rate: rate,
                threads,
                target: &target,
                constraints: &constraints,
                perf: &perf,
                power: &power,
                tabu: &[],
                eval_limit: None,
            };
            let pe = PartialEvaluator::new(&ctx);
            let step = (states.len() / 400).max(1);
            for state in states.iter().step_by(step) {
                let idx = space.index_of(state).unwrap();
                let fast = pe.evaluate(&idx);
                let slow =
                    evaluate_state(state, rate, threads, &current, &target, &perf, &power);
                prop_assert_eq!(fast.est_rate.to_bits(), slow.est_rate.to_bits());
                prop_assert_eq!(fast.est_watts.to_bits(), slow.est_watts.to_bits());
                prop_assert_eq!(fast.perf_per_watt.to_bits(), slow.perf_per_watt.to_bits());
                prop_assert_eq!(fast.satisfies, slow.satisfies);
            }
        }
    }
}
