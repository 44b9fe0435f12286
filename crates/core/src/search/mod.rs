//! The search subsystem of HARS — the decision layer that picks the
//! next system state each adaptation period.
//!
//! What used to be a single hardcoded function (Algorithm 2,
//! `GetNextSysState`) is now a family of pluggable
//! [`SearchStrategy`] implementations sharing one evaluation and
//! ranking core:
//!
//! * [`ExhaustiveSweep`] — the paper's `(m, n, d)`-bounded search over
//!   all `2N` index dimensions, decision-for-decision identical to the
//!   pre-refactor code (and, transitively, to the original 2-cluster
//!   implementation — both equivalences are proptested). Since the
//!   decision-loop performance overhaul it enumerates the Manhattan
//!   distance ball *directly* (see the `ball` module) instead of
//!   sweeping the `(m+n+1)^(2N)` bounding box and discarding ~99% of
//!   the odometer steps: work is proportional to the in-cap candidate
//!   count, which makes the exhaustive policy tractable on 4- and even
//!   5-cluster boards;
//! * [`BeamSearch`] — best-`k` Manhattan-ring expansion, bounding work
//!   to `O(k·d·N)` evaluations on many-cluster boards where even the
//!   candidate count explodes;
//! * [`GreedyFrontier`] — single-step coordinate descent until no
//!   neighbor improves, the large-N generalization of HARS-I.
//!
//! Every strategy is anytime: it checks [`SearchContext::eval_limit`]
//! before each evaluation and, once the limit is spent, yields the
//! best-so-far incumbent with [`SearchStats::truncated`] set. The
//! managers set the limit from the config's decision budget,
//! `budget_ns / cost_per_state_ns` evaluations.
//!
//! Candidate evaluation itself is factored: the per-period
//! [`EvalCache`] owns a delta evaluator (the `delta` module) that
//! hoists the search-invariant current-state barrier time and memoizes
//! the per-cluster, per-ladder-level speed and power partial terms,
//! recombining them per candidate — bit-for-bit equal to
//! [`evaluate_state`] (proptested) at a fraction of its cost.
//!
//! Candidates are ranked by a satisfaction-first ordering shared by all
//! strategies:
//!
//! 1. a state whose *estimated* rate reaches `t.min` beats any state
//!    that does not;
//! 2. among satisfying states, higher normalized-performance/power wins;
//! 3. among non-satisfying states, higher estimated performance wins
//!    (get as close to the target as possible).
//!
//! The current state participates in the comparison
//! (`getBetterState(cs, ns)`), so no strategy ever moves to a state its
//! own estimators consider worse. Tabu and aspiration (Section 3.1.4's
//! local-optimum escape) are applied identically across strategies.
//! Every strategy evaluates through a per-period [`EvalCache`] keyed by
//! [`StateIndex`](crate::state::StateIndex) and reports its cost as
//! [`SearchStats`].
//!
//! The exhaustive sweep visits dimensions in the paper's order — core
//! counts from the highest cluster index down, then ladder levels from
//! the highest cluster index down — so on a big.LITTLE board it
//! reproduces the original `(C_B, C_L, k_B, k_L)` nested loops
//! candidate for candidate.

mod ball;
mod beam;
mod delta;
mod exhaustive;
mod frontier;
mod strategy;

pub use beam::BeamSearch;
pub use exhaustive::{count_enumeration_nodes, count_sweep_candidates, ExhaustiveSweep};
pub use frontier::GreedyFrontier;
pub use strategy::{
    BestTracker, EvalCache, SearchContext, SearchStats, SearchStrategy, SearchStrategyFactory,
};

use heartbeats::PerfTarget;
use hmp_sim::{ClusterId, MAX_CLUSTERS};
use serde::{Deserialize, Serialize};

use crate::metrics::normalized_performance;
use crate::perf_est::PerfEstimator;
use crate::power_est::PowerEstimator;
use crate::state::{StateSpace, SystemState};

/// The `(m, n, d)` exploration bounds of Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchParams {
    /// Steps explored below the current value in each dimension.
    pub m: i64,
    /// Steps explored above.
    pub n: i64,
    /// Manhattan-distance cap over all `2N` dimensions.
    pub d: i64,
}

impl SearchParams {
    /// Creates bounds, validating `m, n ≥ 0` and `d > 0`.
    ///
    /// # Panics
    ///
    /// Panics on invalid bounds (the paper requires `m ≥ 0`, `n ≥ 0`,
    /// `d > 0`).
    pub fn new(m: i64, n: i64, d: i64) -> Self {
        assert!(m >= 0 && n >= 0 && d > 0, "need m,n >= 0 and d > 0");
        Self { m, n, d }
    }

    /// The exhaustive HARS-E bounds: `m = n = 4`, `d = 7`.
    pub fn exhaustive() -> Self {
        Self::new(4, 4, 7)
    }

    /// The incremental HARS-I bounds for an *under-performing* app:
    /// `m = 0, n = 1, d = 1` (grow only).
    pub fn incremental_grow() -> Self {
        Self::new(0, 1, 1)
    }

    /// The incremental HARS-I bounds for an *over-performing* app:
    /// `m = 1, n = 0, d = 1` (shrink only).
    pub fn incremental_shrink() -> Self {
        Self::new(1, 0, 1)
    }
}

/// How a cluster's frequency may be changed during a search — MP-HARS's
/// interference-aware restriction (single-app HARS uses
/// [`FreqChange::Any`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FreqChange {
    /// Frequency fully controllable.
    #[default]
    Any,
    /// Only increases allowed (another app shares the cluster and the
    /// conservative model forbids decreases, or the cluster is frozen).
    IncreaseOnly,
    /// Frequency must stay as it is.
    Fixed,
}

impl FreqChange {
    /// `true` when stepping from ladder index `from` to `to` is allowed.
    pub fn allows(&self, from: i64, to: i64) -> bool {
        match self {
            FreqChange::Any => true,
            FreqChange::IncreaseOnly => to >= from,
            FreqChange::Fixed => to == from,
        }
    }
}

/// Search-time constraints: MP-HARS restricts core growth to free cores
/// and freq changes to controllable clusters, per cluster. The
/// single-app defaults allow the whole space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchConstraints {
    n: u8,
    /// Upper bound on candidate core count, indexed by cluster.
    max_cores: [u16; MAX_CLUSTERS],
    /// Allowed frequency movement, indexed by cluster.
    freq: [FreqChange; MAX_CLUSTERS],
}

impl SearchConstraints {
    /// No constraints beyond the state space itself.
    pub fn unrestricted(space: &StateSpace) -> Self {
        let mut c = Self {
            n: space.n_clusters() as u8,
            max_cores: [0; MAX_CLUSTERS],
            freq: [FreqChange::Any; MAX_CLUSTERS],
        };
        for cluster in space.cluster_ids() {
            c.max_cores[cluster.index()] =
                u16::try_from(space.max_cores(cluster)).expect("core count fits u16");
        }
        c
    }

    /// Number of clusters constrained.
    pub fn n_clusters(&self) -> usize {
        self.n as usize
    }

    /// Upper bound on candidate core count for `cluster`.
    pub fn max_cores(&self, cluster: ClusterId) -> usize {
        self.max_cores[cluster.index()] as usize
    }

    /// Sets the core-count bound of `cluster` (current + free, in
    /// MP-HARS).
    pub fn set_max_cores(&mut self, cluster: ClusterId, max: usize) {
        self.max_cores[cluster.index()] = u16::try_from(max).expect("core count fits u16");
    }

    /// Allowed frequency movement of `cluster`.
    pub fn freq_change(&self, cluster: ClusterId) -> FreqChange {
        self.freq[cluster.index()]
    }

    /// Sets the allowed frequency movement of `cluster`.
    pub fn set_freq_change(&mut self, cluster: ClusterId, change: FreqChange) {
        self.freq[cluster.index()] = change;
    }
}

/// The estimators' verdict about one state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CandidateEval {
    /// Estimated heartbeat rate.
    pub est_rate: f64,
    /// Estimated power (W).
    pub est_watts: f64,
    /// Normalized performance / watt (`pp` in Algorithm 2).
    pub perf_per_watt: f64,
    /// Whether the estimated rate reaches `t.min`.
    pub satisfies: bool,
}

impl CandidateEval {
    /// Algorithm 2's ordering: satisfying beats non-satisfying; among
    /// satisfying, higher perf/watt; among non-satisfying, higher
    /// estimated rate.
    pub fn better_than(&self, other: &CandidateEval) -> bool {
        match (self.satisfies, other.satisfies) {
            (true, false) => true,
            (false, true) => false,
            (true, true) => self.perf_per_watt > other.perf_per_watt,
            (false, false) => self.est_rate > other.est_rate,
        }
    }

    /// Total order for beam-frontier sorting: better states first, ties
    /// kept in visit order by the caller's stable sort.
    pub fn cmp_better_first(&self, other: &CandidateEval) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        if self.better_than(other) {
            Ordering::Less
        } else if other.better_than(self) {
            Ordering::Greater
        } else {
            Ordering::Equal
        }
    }
}

/// The search result.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// The chosen next state (possibly the current one).
    pub state: SystemState,
    /// The estimators' evaluation of the chosen state.
    pub eval: CandidateEval,
    /// Cost accounting: candidates considered, distinct evaluations
    /// (drives the runtime-overhead model and Figure 5.3(b)) and
    /// incumbent changes.
    pub stats: SearchStats,
}

/// Evaluates one state with both estimators.
pub fn evaluate_state(
    state: &SystemState,
    observed_rate: f64,
    threads: usize,
    current: &SystemState,
    target: &PerfTarget,
    perf: &PerfEstimator,
    power: &PowerEstimator,
) -> CandidateEval {
    let est_rate = perf.estimate_rate(observed_rate, threads, current, state);
    let assignment = perf.assignment(threads, state);
    let times = perf.unit_times_for(threads, state, &assignment);
    let est_watts = power.estimate(state, &assignment, &times);
    let pp = if est_watts > 0.0 {
        normalized_performance(target, est_rate) / est_watts
    } else {
        0.0
    };
    CandidateEval {
        est_rate,
        est_watts,
        perf_per_watt: pp,
        satisfies: est_rate >= target.min(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power_est::LinearCoeff;
    use hmp_sim::{BoardSpec, FreqKhz, FreqLadder};

    fn space() -> StateSpace {
        StateSpace::from_board(&BoardSpec::odroid_xu3())
    }

    fn perf() -> PerfEstimator {
        PerfEstimator::paper_default(FreqKhz::from_mhz(1_000))
    }

    /// A rough but monotone power model for tests: α grows with level.
    fn power() -> PowerEstimator {
        let little_ladder = FreqLadder::from_mhz_range(800, 1_300, 100);
        let big_ladder = FreqLadder::from_mhz_range(800, 1_600, 100);
        let little = (0..little_ladder.len())
            .map(|i| LinearCoeff {
                alpha: 0.10 + 0.015 * i as f64,
                beta: 0.10,
            })
            .collect();
        let big = (0..big_ladder.len())
            .map(|i| LinearCoeff {
                alpha: 0.45 + 0.11 * i as f64,
                beta: 0.55,
            })
            .collect();
        PowerEstimator::from_clusters(vec![(little_ladder, little), (big_ladder, big)])
    }

    fn st(cb: usize, cl: usize, fb: u32, fl: u32) -> SystemState {
        SystemState::new(&[(cl, FreqKhz::from_mhz(fl)), (cb, FreqKhz::from_mhz(fb))])
    }

    /// One decision's context for 8 threads, without a tabu list or
    /// an evaluation limit.
    fn ctx<'a>(
        space: &'a StateSpace,
        current: &'a SystemState,
        observed_rate: f64,
        target: &'a PerfTarget,
        constraints: &'a SearchConstraints,
        perf: &'a PerfEstimator,
        power: &'a PowerEstimator,
    ) -> SearchContext<'a> {
        SearchContext {
            space,
            current,
            observed_rate,
            threads: 8,
            target,
            constraints,
            perf,
            power,
            tabu: &[],
            eval_limit: None,
        }
    }

    fn run(cur: SystemState, rate: f64, target: PerfTarget, params: SearchParams) -> SearchOutcome {
        let sp = space();
        let c = SearchConstraints::unrestricted(&sp);
        let (perf, power) = (perf(), power());
        ExhaustiveSweep::new(params).next_state(&ctx(&sp, &cur, rate, &target, &c, &perf, &power))
    }

    #[test]
    fn overperforming_app_shrinks() {
        // Running flat out at 30 hb/s against a 10±1 target: HARS-I's
        // shrink step must pick a smaller/slower state.
        let cur = st(4, 4, 1600, 1300);
        let target = PerfTarget::new(9.0, 11.0).unwrap();
        let out = run(cur, 30.0, target, SearchParams::incremental_shrink());
        assert_ne!(out.state, cur, "must move off the max state");
        let sp = space();
        let d = sp
            .index_of(&out.state)
            .unwrap()
            .manhattan(&sp.index_of(&cur).unwrap());
        assert_eq!(d, 1, "incremental step is distance 1");
    }

    #[test]
    fn underperforming_app_grows() {
        let cur = st(1, 0, 800, 800);
        let target = PerfTarget::new(9.0, 11.0).unwrap();
        let out = run(cur, 2.0, target, SearchParams::incremental_grow());
        assert_ne!(out.state, cur);
        // The grown state must promise more performance.
        assert!(out.eval.est_rate > 2.0);
    }

    #[test]
    fn exhaustive_search_respects_distance_cap() {
        let cur = st(4, 4, 1600, 1300);
        let target = PerfTarget::new(9.0, 11.0).unwrap();
        let out = run(cur, 30.0, target, SearchParams::exhaustive());
        let sp = space();
        let d = sp
            .index_of(&out.state)
            .unwrap()
            .manhattan(&sp.index_of(&cur).unwrap());
        assert!(d <= 7, "distance {d} exceeds cap");
        // Exhaustive explores far more states than incremental.
        let inc = run(cur, 30.0, target, SearchParams::incremental_shrink());
        assert!(out.stats.explored > 10 * inc.stats.explored);
    }

    #[test]
    fn satisfying_state_beats_higher_pp_unsatisfying() {
        // Paper: "although a certain state has the highest perf/watt, if
        // it cannot satisfy the target, another state ... that achieves
        // the target performance can be selected."
        let cur = st(2, 2, 1000, 1000);
        // Current rate exactly at the target: candidates that shrink
        // would fall below t.min even if their pp is better.
        let target = PerfTarget::new(9.5, 10.5).unwrap();
        let out = run(cur, 10.0, target, SearchParams::exhaustive());
        assert!(
            out.eval.satisfies,
            "search must keep the target satisfied; chose {} at {:.2} hb/s",
            out.state, out.eval.est_rate
        );
    }

    #[test]
    fn stays_put_when_current_is_best() {
        // A state already at the target with everything slower violating
        // it: the search should return the current state (getBetterState).
        let cur = st(0, 1, 800, 800);
        let rate = 10.0;
        let target = PerfTarget::new(9.9, 10.1).unwrap();
        let out = run(cur, rate, target, SearchParams::incremental_shrink());
        assert_eq!(out.state, cur);
    }

    #[test]
    fn constraints_bound_core_growth() {
        let sp = space();
        let cur = st(1, 1, 1000, 1000);
        let target = PerfTarget::new(90.0, 110.0).unwrap(); // unreachable
        let mut c = SearchConstraints::unrestricted(&sp);
        c.set_max_cores(hmp_sim::ClusterId::BIG, 1); // no free big cores
        let (perf, power) = (perf(), power());
        let out = ExhaustiveSweep::new(SearchParams::exhaustive())
            .next_state(&ctx(&sp, &cur, 1.0, &target, &c, &perf, &power));
        let big_cores = out.state.cores(hmp_sim::ClusterId::BIG);
        assert!(big_cores <= 1, "grew past the free-core bound");
    }

    #[test]
    fn freq_change_restrictions() {
        assert!(FreqChange::Any.allows(3, 0));
        assert!(FreqChange::IncreaseOnly.allows(3, 3));
        assert!(FreqChange::IncreaseOnly.allows(3, 5));
        assert!(!FreqChange::IncreaseOnly.allows(3, 2));
        assert!(FreqChange::Fixed.allows(3, 3));
        assert!(!FreqChange::Fixed.allows(3, 4));

        let sp = space();
        let cur = st(4, 4, 1600, 1300);
        let target = PerfTarget::new(9.0, 11.0).unwrap();
        let mut c = SearchConstraints::unrestricted(&sp);
        c.set_freq_change(hmp_sim::ClusterId::BIG, FreqChange::Fixed);
        c.set_freq_change(hmp_sim::ClusterId::LITTLE, FreqChange::Fixed);
        let (perf, power) = (perf(), power());
        let out = ExhaustiveSweep::new(SearchParams::exhaustive())
            .next_state(&ctx(&sp, &cur, 30.0, &target, &c, &perf, &power));
        for c in [hmp_sim::ClusterId::BIG, hmp_sim::ClusterId::LITTLE] {
            assert_eq!(out.state.freq(c), cur.freq(c));
        }
    }

    #[test]
    fn explored_count_scales_with_bounds() {
        let cur = st(2, 2, 1200, 1000);
        let target = PerfTarget::new(9.0, 11.0).unwrap();
        let mut prev = 0;
        for d in [1, 3, 5, 7, 9] {
            let out = run(cur, 10.0, target, SearchParams::new(4, 4, d));
            assert!(
                out.stats.explored > prev,
                "d={d} explored {} (prev {prev})",
                out.stats.explored
            );
            prev = out.stats.explored;
        }
    }

    #[test]
    fn exhaustive_evaluates_each_candidate_once() {
        // The sweep visits distinct states, so the cache never fires:
        // evaluated == explored (the invariant the overhead model's
        // backward compatibility rests on).
        let cur = st(2, 2, 1200, 1000);
        let target = PerfTarget::new(9.0, 11.0).unwrap();
        let out = run(cur, 10.0, target, SearchParams::exhaustive());
        assert_eq!(out.stats.evaluated, out.stats.explored);
        assert!(out.stats.best_rank_changes >= 1);
    }

    #[test]
    #[should_panic(expected = "d > 0")]
    fn invalid_params_panic() {
        let _ = SearchParams::new(1, 1, 0);
    }

    #[test]
    fn tabu_list_redirects_the_search() {
        let sp = space();
        let cur = st(4, 4, 1600, 1300);
        let target = PerfTarget::new(9.0, 11.0).unwrap();
        let c = SearchConstraints::unrestricted(&sp);
        let (perf, power) = (perf(), power());
        let sweep = ExhaustiveSweep::new(SearchParams::exhaustive());
        let free_ctx = ctx(&sp, &cur, 30.0, &target, &c, &perf, &power);
        let free = sweep.next_state(&free_ctx);
        assert_ne!(free.state, cur);
        // Forbid the free search's favourite: the tabu run must land
        // somewhere else (or stay put).
        let tabu = [free.state];
        let redirected = sweep.next_state(&SearchContext {
            tabu: &tabu,
            ..free_ctx
        });
        assert_ne!(redirected.state, free.state, "tabu state must be avoided");
    }

    #[test]
    fn tri_cluster_search_stays_in_bounds() {
        let board = BoardSpec::dynamiq_1p_3m_4l();
        let sp = StateSpace::from_board(&board);
        let c = SearchConstraints::unrestricted(&sp);
        let perf = PerfEstimator::from_board(&board);
        let power = {
            let clusters = board
                .cluster_ids()
                .map(|cl| {
                    let ladder = board.ladder(cl).clone();
                    let table: Vec<LinearCoeff> = (0..ladder.len())
                        .map(|i| LinearCoeff {
                            alpha: 0.1 * (cl.index() + 1) as f64 + 0.02 * i as f64,
                            beta: 0.1,
                        })
                        .collect();
                    (ladder, table)
                })
                .collect();
            PowerEstimator::from_clusters(clusters)
        };
        let cur = sp.max_state();
        let target = PerfTarget::new(9.0, 11.0).unwrap();
        let out = ExhaustiveSweep::new(SearchParams::exhaustive())
            .next_state(&ctx(&sp, &cur, 30.0, &target, &c, &perf, &power));
        // 6-dimensional sweep: the result stays on the board.
        assert!(sp.contains(&out.state));
        let d = sp
            .index_of(&out.state)
            .unwrap()
            .manhattan(&sp.index_of(&cur).unwrap());
        assert!(d <= 7);
        assert_ne!(out.state, cur, "over-performance must shrink something");
        assert!(out.stats.explored > 100, "6-D neighborhood is large");
    }
}
