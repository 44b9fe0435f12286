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
//! The partial evaluator hoists the first (as `observed_rate ·
//! t_f(current)`, with `1/T`) and memoizes the last two as per-cluster
//! tables at search start; per candidate only the genuinely
//! state-coupled work remains — one waterfill over the cached
//! per-cluster `(cores, speed)` capacities, the per-cluster unit-time
//! terms, and the per-cluster power terms summed in the paper's order.
//! Every arithmetic expression is kept operation-for-operation
//! identical to the slow path, so the produced [`CandidateEval`] (and
//! therefore every ranking decision downstream) is bit-identical.
//! Given an incumbent, the evaluator stops after the rate when
//! Algorithm 2's order already rejects the candidate.
//!
//! Candidates inside one ring share their parent's coordinates in all
//! but one dimension; the table lookups make the untouched clusters'
//! partial terms (speed, coefficients) free, and the distinct-state
//! memoization in [`EvalCache`](super::EvalCache) already absorbs
//! re-visited states entirely.

use heartbeats::PerfTarget;
use hmp_sim::{ClusterId, MAX_CLUSTERS};

use crate::assign::{waterfill, ClusterCapacity};
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
    /// `1/T`: each thread's share of the unit of work.
    per_thread_work: f64,
    /// `observed_rate · t_f(current)`: the search-invariant numerator
    /// of the rate prediction, with the exact slow-path `t_f`.
    rate_x_tf_current: f64,
    target: PerfTarget,
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
    /// Panics where `assign_threads_n` would, so that the per-candidate
    /// waterfill can skip its argument checks.
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
        // Every relative speed `abs[i] / abs[0]` a candidate forms lies
        // between a speed's quotients by cluster 0's extremes.
        let lo0 = speed[0].iter().copied().fold(f64::INFINITY, f64::min);
        let hi0 = speed[0].iter().copied().fold(0.0, f64::max);
        let ok = speed
            .iter()
            .flatten()
            .all(|s| s / hi0 > 0.0 && (s / lo0).is_finite());
        assert!(ok, "per-core speeds must be positive");
        Self {
            n,
            threads: ctx.threads,
            per_thread_work: 1.0 / ctx.threads as f64,
            rate_x_tf_current: ctx.observed_rate * tf_current,
            target: *ctx.target,
            speed,
            coeff,
        }
    }

    /// Evaluates one candidate by recombining the memoized partial
    /// terms — bit-identical to
    /// [`evaluate_state`](super::evaluate_state) on the same inputs.
    /// Given the incumbent `best`, returns the evaluation only when it
    /// is [`better_than`](CandidateEval::better_than) `best`.
    pub(crate) fn evaluate(
        &self,
        idx: &StateIndex,
        best: Option<&CandidateEval>,
    ) -> Option<CandidateEval> {
        // Per-candidate arrays sized to the board: zeroing and walking
        // `MAX_CLUSTERS`-wide ones costs more than the arithmetic.
        match self.n {
            1 => self.ranked::<1>(idx, best),
            2 => self.ranked::<2>(idx, best),
            3 => self.ranked::<3>(idx, best),
            4 => self.ranked::<4>(idx, best),
            5 => self.ranked::<5>(idx, best),
            _ => self.ranked::<MAX_CLUSTERS>(idx, best),
        }
    }

    /// [`PartialEvaluator::evaluate`] with arrays of `N ≥ n` entries.
    fn ranked<const N: usize>(
        &self,
        idx: &StateIndex,
        best: Option<&CandidateEval>,
    ) -> Option<CandidateEval> {
        let n = self.n;
        debug_assert_eq!(idx.n_clusters(), n);
        // Per-cluster absolute speeds and capacities from the tables.
        let mut abs = [0.0f64; N];
        let mut caps = [ClusterCapacity {
            cores: 0,
            speed: 1.0,
        }; N];
        let mut total_cores = 0usize;
        for (i, a) in abs.iter_mut().enumerate().take(n) {
            let c = ClusterId(i);
            *a = self.speed[i][idx.level(c) as usize];
            total_cores += idx.cores(c) as usize;
        }
        if total_cores == 0 {
            // `estimate_rate`'s degenerate-candidate guard (search
            // candidates always have a core; kept for exact parity).
            let eval = CandidateEval {
                est_rate: 0.0,
                est_watts: 0.0,
                perf_per_watt: 0.0,
                satisfies: 0.0 >= self.target.min(),
            };
            return best.is_none_or(|b| eval.better_than(b)).then_some(eval);
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
        let (threads, used) = waterfill::<N>(self.threads, &caps[..n]);
        // Per-cluster unit times and the barrier, in `UnitTimes::new`'s
        // fold order.
        let mut times = [0.0f64; N];
        let mut tf = 0.0f64;
        for i in 0..n {
            times[i] = cluster_time(threads[i], used[i], self.per_thread_work, abs[i]);
            tf = tf.max(times[i]);
        }
        // Rate prediction against the hoisted current barrier time.
        let est_rate = if tf <= 0.0 {
            0.0
        } else {
            self.rate_x_tf_current / tf
        };
        let satisfies = est_rate >= self.target.min();
        // Algorithm 2's order settles a miss on its rate alone: it loses
        // to an incumbent that meets the target and to any missing
        // incumbent at least as fast. No power model needed.
        if best.is_some_and(|b| !satisfies && (b.satisfies || est_rate <= b.est_rate)) {
            return None;
        }
        // Power: per-cluster linear terms summed highest cluster first
        // (the paper's `P_B + P_L` order), utilizations as
        // `UnitTimes::util` computes them.
        let mut est_watts = 0.0f64;
        for i in (0..n).rev() {
            let c = ClusterId(i);
            let util = if tf > 0.0 { times[i] / tf } else { 0.0 };
            est_watts += self.coeff[i][idx.level(c) as usize].watts(used[i] as f64 * util);
        }
        let perf_per_watt = if est_watts > 0.0 {
            normalized_performance(&self.target, est_rate) / est_watts
        } else {
            0.0
        };
        let eval = CandidateEval {
            est_rate,
            est_watts,
            perf_per_watt,
            satisfies,
        };
        best.is_none_or(|b| eval.better_than(b)).then_some(eval)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{evaluate_state, EvalCache, SearchConstraints};
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
                    let fast = pe.evaluate(&idx, None).unwrap();
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

    /// Sampled states of `board` (a pseudo-random, deterministic walk
    /// over the index space) evaluate bit-identically through the
    /// partial evaluator.
    fn check_sampled_states(board: &BoardSpec) {
        let space = StateSpace::from_board(board);
        let perf = PerfEstimator::from_board(board);
        let power = PowerEstimator::synthetic_for_board(board);
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
            let fast = pe.evaluate(&idx, None).unwrap();
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
            assert_eq!(fast.satisfies, slow.satisfies, "{state}");
        }
    }

    /// The 5-cluster case (the full space is too large to sweep in a
    /// proptest case): sampled states of the server preset.
    #[test]
    fn partial_evaluator_matches_full_evaluator_on_the_5_cluster_server() {
        check_sampled_states(&BoardSpec::server_5c_48core());
    }

    /// Past five clusters the evaluator's arrays are `MAX_CLUSTERS`
    /// wide: sampled states of a 7-cluster board.
    #[test]
    fn partial_evaluator_matches_full_evaluator_past_five_clusters() {
        let shape = [
            (2, 3, 100, 0),
            (1, 4, 200, 3),
            (3, 2, 300, 5),
            (2, 5, 100, 7),
        ];
        let shape: Vec<_> = shape.iter().cycle().take(7).copied().collect();
        check_sampled_states(&random_board(&shape));
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
                let fast = pe.evaluate(&idx, None).unwrap();
                let slow =
                    evaluate_state(state, rate, threads, &current, &target, &perf, &power);
                prop_assert_eq!(fast.est_rate.to_bits(), slow.est_rate.to_bits());
                prop_assert_eq!(fast.est_watts.to_bits(), slow.est_watts.to_bits());
                prop_assert_eq!(fast.perf_per_watt.to_bits(), slow.perf_per_watt.to_bits());
                prop_assert_eq!(fast.satisfies, slow.satisfies);
            }
        }

        /// Random boards and contexts, against incumbents that meet the
        /// target, miss it, or equal the candidate (its own verdict, and
        /// the same values with the other satisfaction flag):
        /// `evaluate_if_better` is `Some` exactly when the full
        /// evaluation is `better_than` the incumbent, and then equals
        /// the full evaluation bit for bit.
        #[test]
        fn ranked_evaluation_matches_ranking_the_full_evaluation(
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
            let mut cache = EvalCache::new();
            let idxs: Vec<StateIndex> = states
                .iter()
                .step_by((states.len() / 200).max(1))
                .map(|s| space.index_of(s).unwrap())
                .collect();
            let others: Vec<CandidateEval> = idxs
                .iter()
                .step_by((idxs.len() / 12).max(1))
                .map(|idx| ctx.evaluate(idx, &mut cache))
                .collect();
            for idx in &idxs {
                let full = ctx.evaluate(idx, &mut cache);
                let twin = CandidateEval {
                    satisfies: !full.satisfies,
                    ..full
                };
                for best in others.iter().chain([&full, &twin]) {
                    match ctx.evaluate_if_better(idx, &mut cache, best) {
                        Some(e) => {
                            prop_assert!(full.better_than(best));
                            prop_assert_eq!(e.est_rate.to_bits(), full.est_rate.to_bits());
                            prop_assert_eq!(e.est_watts.to_bits(), full.est_watts.to_bits());
                            prop_assert_eq!(e.perf_per_watt.to_bits(), full.perf_per_watt.to_bits());
                            prop_assert_eq!(e.satisfies, full.satisfies);
                        }
                        None => prop_assert!(!full.better_than(best)),
                    }
                }
            }
        }
    }
}
