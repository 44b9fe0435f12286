//! The pluggable strategy layer of the search subsystem: the
//! [`SearchStrategy`] trait every decision policy implements, the
//! [`SearchContext`] bundle the managers hand to it, the per-period
//! [`EvalCache`] memoizing [`super::evaluate_state`] by [`StateIndex`],
//! and the shared incumbent tracker (the tabu/aspiration rules over
//! Algorithm 2's satisfaction-first ordering,
//! [`CandidateEval::better_than`]).
//!
//! Strategies differ only in *which* states they enumerate; how a
//! candidate is evaluated, ranked against the incumbent, and gated by
//! tabu is identical across them — that is what makes
//! [`ExhaustiveSweep`](super::ExhaustiveSweep) with the same bounds a
//! drop-in, bit-identical replacement for the legacy free functions,
//! and what future policies (EAS-style energy models, exact small-N
//! DP) plug into.

use std::collections::HashMap;

use heartbeats::PerfTarget;
use serde::{Deserialize, Serialize};

use crate::perf_est::PerfEstimator;
use crate::power_est::PowerEstimator;
use crate::state::{StateIndex, StateSpace, SystemState};

use super::delta::PartialEvaluator;
use super::{CandidateEval, SearchConstraints, SearchOutcome};

/// Cost accounting of one search (or, summed, of a whole run): how many
/// candidates the strategy *considered*, how many distinct states the
/// estimators actually *evaluated* (cache misses — the unit the
/// runtime-overhead model charges), how often the incumbent best
/// changed (a convergence diagnostic: a beam whose best never changes
/// after ring 1 is over-provisioned), the modeled decision time, and
/// whether an anytime budget cut the search short.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SearchStats {
    /// Candidate states considered, including the current state and
    /// cache hits.
    pub explored: usize,
    /// Distinct states evaluated by the estimators (cache misses).
    pub evaluated: usize,
    /// Times the incumbent best candidate was replaced.
    pub best_rank_changes: usize,
    /// Modeled decision time (ns), charged on the sim clock as
    /// `evaluated × cost_per_state_ns` by the managers — monotonic and
    /// deterministic, so overhead reporting reads it directly instead
    /// of re-deriving it from `evaluated` and a config knob.
    /// (`serde(default)`: stats serialized before this field existed
    /// deserialize with 0.)
    #[serde(default)]
    pub wall_ns: u64,
    /// Enumeration nodes walked to *produce* the candidates — the
    /// distance-ball tree nodes (or sweep lattice points) visited,
    /// including interior nodes that never became candidates. A
    /// measured count, reported in telemetry and by the benchmarks;
    /// `wall_ns` does not charge it. (`serde(default)` for stats
    /// serialized before this field existed.)
    #[serde(default)]
    pub nodes: u64,
    /// `true` when the evaluation limit
    /// ([`SearchContext::eval_limit`]) stopped the search before it ran
    /// to completion and the outcome is the best-so-far incumbent. ORs
    /// across merges: a run-level total reports whether *any* decision
    /// was truncated.
    #[serde(default)]
    pub truncated: bool,
}

impl SearchStats {
    /// Accumulates another search's stats (run-level totals).
    pub fn merge(&mut self, other: SearchStats) {
        self.explored += other.explored;
        self.evaluated += other.evaluated;
        self.best_rank_changes += other.best_rank_changes;
        self.wall_ns += other.wall_ns;
        self.nodes += other.nodes;
        self.truncated |= other.truncated;
    }
}

/// Everything a [`SearchStrategy`] needs to make one decision — the
/// managers build one per adaptation period.
#[derive(Debug, Clone, Copy)]
pub struct SearchContext<'a> {
    /// The board's explorable state space.
    pub space: &'a StateSpace,
    /// The state currently applied (the search center and incumbent).
    pub current: &'a SystemState,
    /// The observed heartbeat rate driving the estimates.
    pub observed_rate: f64,
    /// The application's thread count.
    pub threads: usize,
    /// The target band.
    pub target: &'a PerfTarget,
    /// Per-cluster core/frequency restrictions (MP-HARS partitioning).
    pub constraints: &'a SearchConstraints,
    /// The performance estimator.
    pub perf: &'a PerfEstimator,
    /// The power estimator.
    pub power: &'a PowerEstimator,
    /// Recently visited states to avoid (empty disables tabu).
    pub tabu: &'a [SystemState],
    /// Anytime evaluation limit (`None` = unlimited): strategies check
    /// it *before* each estimator evaluation and stop with
    /// [`SearchStats::truncated`] set once `evaluated` reaches it.
    /// [`DecisionCore::decide`](crate::manager::DecisionCore::decide)
    /// sets it from the config's decision budget
    /// ([`RuntimeConfig::eval_limit`](crate::config::RuntimeConfig::eval_limit)),
    /// for the policy's strategy and an installed factory's alike.
    pub eval_limit: Option<usize>,
}

impl SearchContext<'_> {
    /// Evaluates the state at `idx` through the per-period cache. The
    /// estimator verdict is a pure function of the state, so cache hits
    /// are free. Cache misses go through the period's
    /// `PartialEvaluator` — the factored, table-driven equivalent of
    /// [`evaluate_state`], bit-identical by construction (and by
    /// proptest).
    ///
    /// [`evaluate_state`]: super::evaluate_state
    pub fn evaluate(&self, idx: &StateIndex, cache: &mut EvalCache) -> CandidateEval {
        if let Some(&eval) = cache.map.get(idx) {
            cache.hits += 1;
            return eval;
        }
        let eval = self.partial(cache).evaluate(idx, None);
        let eval = eval.expect("an evaluation without an incumbent is kept");
        cache.map.insert(*idx, eval);
        eval
    }

    /// [`SearchContext::evaluate`] when the result is
    /// [`better_than`](CandidateEval::better_than) `best`, else `None`;
    /// a candidate that misses the target is ranked before the power
    /// model runs. Skips the memoization map, for strategies that visit
    /// each state once (the exhaustive sweep), and still counts toward
    /// [`EvalCache::evaluated`].
    pub fn evaluate_if_better(
        &self,
        idx: &StateIndex,
        cache: &mut EvalCache,
        best: &CandidateEval,
    ) -> Option<CandidateEval> {
        cache.uncached += 1;
        self.partial(cache).evaluate(idx, Some(best))
    }

    /// The period's `PartialEvaluator`, built at the first evaluation.
    fn partial<'c>(&self, cache: &'c mut EvalCache) -> &'c PartialEvaluator {
        cache
            .partial
            .get_or_insert_with(|| PartialEvaluator::new(self))
    }

    /// `true` once the anytime evaluation limit is exhausted — checked
    /// by every strategy before it evaluates another candidate, so a
    /// budgeted search never exceeds its allowance by more than the
    /// mandatory current-state evaluation.
    pub fn out_of_budget(&self, cache: &EvalCache) -> bool {
        self.eval_limit
            .is_some_and(|limit| cache.evaluated() >= limit)
    }

    /// [`SearchContext::out_of_budget`] for a *specific* next
    /// candidate: a state already in the cache is a free hit under the
    /// overhead model (no charge), so an exhausted budget only stops
    /// the search when the candidate would actually be evaluated.
    /// Used by the frontier, whose descent deliberately revisits
    /// coordinate lines.
    pub fn out_of_budget_for(&self, idx: &StateIndex, cache: &EvalCache) -> bool {
        self.out_of_budget(cache) && !cache.map.contains_key(idx)
    }
}

/// The search containers' build hasher ([`crate::fnv`]: deterministic,
/// zero-state, far cheaper per probe than the default SipHash for the
/// small integer keys of the per-period containers).
pub(crate) type FnvBuild = crate::fnv::FnvBuildHasher;

/// A per-adaptation-period memoization cache for candidate
/// evaluations, keyed by [`StateIndex`]. Beam rings and greedy-frontier
/// walks re-derive the same neighbors along different paths; the
/// estimator verdict is identical, so only the first visit pays for
/// it. The cache also owns the period's `PartialEvaluator` — the
/// hoisted current-state barrier time and the per-cluster speed/power
/// partial-term tables delta evaluation recombines per candidate.
#[derive(Debug, Default)]
pub struct EvalCache {
    /// The estimator verdict per visited state.
    map: HashMap<StateIndex, CandidateEval, FnvBuild>,
    hits: usize,
    /// Evaluations taken through the map-free path
    /// ([`SearchContext::evaluate_if_better`]).
    uncached: usize,
    /// The period's factored evaluator, built lazily at the first miss.
    partial: Option<PartialEvaluator>,
}

impl EvalCache {
    /// A fresh cache (one per decision).
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct states evaluated so far (cache misses plus map-free
    /// evaluations).
    pub fn evaluated(&self) -> usize {
        self.map.len() + self.uncached
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> usize {
        self.hits
    }
}

/// The shared incumbent tracker: holds the best admitted state, applies
/// the tabu/aspiration rules identically across strategies, and counts
/// rank changes. Public so out-of-crate [`SearchStrategy`] impls rank,
/// tabu-gate and aspire exactly like the shipped ones.
#[derive(Debug)]
pub struct BestTracker<'a> {
    tabu: &'a [SystemState],
    best_state: SystemState,
    best: CandidateEval,
    rank_changes: usize,
}

impl<'a> BestTracker<'a> {
    /// Starts with the current state as incumbent (`getBetterState`:
    /// the search never moves to a state its estimators rank worse).
    pub fn new(current: SystemState, current_eval: CandidateEval, tabu: &'a [SystemState]) -> Self {
        Self {
            tabu,
            best_state: current,
            best: current_eval,
            rank_changes: 0,
        }
    }

    /// Whether moving to `cand` is permitted by the tabu list: either
    /// it is not tabu, or it aspires — a target-satisfying candidate
    /// strictly dominating the best seen so far (the classic aspiration
    /// criterion, >5% better perf/watt).
    pub fn admits(&self, cand: &SystemState, eval: &CandidateEval) -> bool {
        if !self.tabu.contains(cand) {
            return true;
        }
        eval.satisfies && self.best.satisfies && eval.perf_per_watt > self.best.perf_per_watt * 1.05
    }

    /// The incumbent's evaluation.
    pub fn best(&self) -> &CandidateEval {
        &self.best
    }

    /// Offers a candidate; returns `true` when it became the new best.
    pub fn offer(&mut self, cand: SystemState, eval: CandidateEval) -> bool {
        if self.admits(&cand, &eval) && eval.better_than(&self.best) {
            self.best_state = cand;
            self.best = eval;
            self.rank_changes += 1;
            return true;
        }
        false
    }

    /// Finalizes into a [`SearchOutcome`].
    pub fn finish(self, explored: usize, evaluated: usize) -> SearchOutcome {
        SearchOutcome {
            state: self.best_state,
            eval: self.best,
            stats: SearchStats {
                explored,
                evaluated,
                best_rank_changes: self.rank_changes,
                ..SearchStats::default()
            },
        }
    }
}

/// A decision-search policy: enumerate some subset of the state space
/// around the current state and return the best admitted candidate (or
/// the current state). This is the extension point new policies plug
/// into; the three shipped implementations are
/// [`ExhaustiveSweep`](super::ExhaustiveSweep) (Algorithm 2's bounded
/// sweep), [`BeamSearch`](super::BeamSearch) (best-k ring expansion)
/// and [`GreedyFrontier`](super::GreedyFrontier) (coordinate descent).
///
/// Out-of-crate implementations get the full ranking core: evaluate
/// candidates through [`SearchContext::evaluate`] (or
/// [`SearchContext::evaluate_if_better`]) and track the incumbent with
/// [`BestTracker`] so tabu, aspiration and the satisfaction-first
/// ordering behave exactly like the shipped strategies. Plug one into a
/// running manager with a [`SearchStrategyFactory`]
/// (`RuntimeManager::set_search_strategy_factory` /
/// `MpHarsManager::set_search_strategy_factory`). Both managers run it
/// through one shared step,
/// [`DecisionCore::decide`](crate::manager::DecisionCore::decide).
pub trait SearchStrategy {
    /// Short display name ("exhaustive", "beam(8,7)", ...).
    fn name(&self) -> &'static str;

    /// Runs the search, additionally reporting every first-visited
    /// candidate (excluding the current state) to `observer` — the hook
    /// the candidate-for-candidate equivalence tests use.
    fn next_state_observed(
        &self,
        ctx: &SearchContext<'_>,
        observer: &mut dyn FnMut(SystemState),
    ) -> SearchOutcome;

    /// Runs the search.
    fn next_state(&self, ctx: &SearchContext<'_>) -> SearchOutcome {
        self.next_state_observed(ctx, &mut |_| {})
    }
}

/// Where a decision's strategy comes from. The configured
/// [`SearchPolicy`](crate::policy::SearchPolicy) is the managers'
/// default factory. An out-of-crate policy is installed with
/// `set_search_strategy_factory`; the managers' shared
/// [`DecisionCore`](crate::manager::DecisionCore) then consults it
/// *instead of* the policy at every decision, with the manager's
/// current over/under-performance verdict and the live
/// [`RuntimeConfig`](crate::config::RuntimeConfig)'s
/// `cost_per_state_ns`. Either way the config's decision budget
/// reaches the strategy as [`SearchContext::eval_limit`].
///
/// `Send + Sync` because managers are `Send`-shareable across scenario
/// shards; `Debug` because the core derives it. The factory itself
/// must be deterministic (same inputs → same strategy) or scenario
/// fingerprint stability is forfeit.
pub trait SearchStrategyFactory: std::fmt::Debug + Send + Sync {
    /// Builds the strategy for one decision.
    fn strategy_for(&self, overperforming: bool, cost_per_state_ns: u64)
        -> Box<dyn SearchStrategy>;
}

/// A boxed strategy is a strategy, so wrappers generic over
/// `S: SearchStrategy` accept what a factory returns.
impl<S: SearchStrategy + ?Sized> SearchStrategy for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn next_state_observed(
        &self,
        ctx: &SearchContext<'_>,
        observer: &mut dyn FnMut(SystemState),
    ) -> SearchOutcome {
        (**self).next_state_observed(ctx, observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(satisfies: bool, pp: f64, rate: f64) -> CandidateEval {
        CandidateEval {
            est_rate: rate,
            est_watts: 1.0,
            perf_per_watt: pp,
            satisfies,
        }
    }

    fn state(cores: usize) -> SystemState {
        SystemState::new(&[(cores, hmp_sim::FreqKhz::from_mhz(1_000))])
    }

    #[test]
    fn ranking_matches_algorithm_2() {
        let sat_low = eval(true, 1.0, 5.0);
        let sat_high = eval(true, 2.0, 4.0);
        let unsat_fast = eval(false, 9.0, 8.0);
        let unsat_slow = eval(false, 9.0, 7.0);
        assert!(sat_low.better_than(&unsat_fast));
        assert!(sat_high.better_than(&sat_low));
        assert!(unsat_fast.better_than(&unsat_slow));
        assert!(!unsat_fast.better_than(&sat_low));
    }

    #[test]
    fn aspiration_admits_only_dominating_satisfying_tabu_states() {
        let current = state(1);
        let tabu_state = state(2);
        let tabu = [tabu_state];
        let incumbent = eval(true, 1.0, 10.0);
        let tracker = BestTracker::new(current, incumbent, &tabu);
        // 4% better: under the 5% aspiration bar -> rejected.
        let close = eval(true, 1.04, 10.0);
        assert!(!tracker.admits(&tabu_state, &close));
        // 6% better and satisfying -> aspires.
        let dominating = eval(true, 1.06, 10.0);
        assert!(tracker.admits(&tabu_state, &dominating));
        // Non-satisfying never aspires.
        let unsat = eval(false, 99.0, 99.0);
        assert!(!tracker.admits(&tabu_state, &unsat));
        // Non-tabu states are always admissible.
        assert!(tracker.admits(&state(3), &close));
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = SearchStats {
            explored: 3,
            evaluated: 2,
            best_rank_changes: 1,
            wall_ns: 6_000,
            nodes: 4,
            truncated: false,
        };
        a.merge(SearchStats {
            explored: 10,
            evaluated: 5,
            best_rank_changes: 0,
            wall_ns: 15_000,
            nodes: 11,
            truncated: true,
        });
        assert_eq!(
            a,
            SearchStats {
                explored: 13,
                evaluated: 7,
                best_rank_changes: 1,
                wall_ns: 21_000,
                nodes: 15,
                truncated: true,
            }
        );
        // A later untruncated decision must not clear the run-level flag.
        a.merge(SearchStats::default());
        assert!(a.truncated);
    }
}
