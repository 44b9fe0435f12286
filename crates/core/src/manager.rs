//! The HARS runtime manager — Algorithm 1 (`HARSMain`) — and the
//! [`DecisionCore`] it shares with the multi-app MP-HARS manager.
//!
//! The manager consumes the application's heartbeat stream. At every
//! adaptation period it compares the windowed heartbeat rate against the
//! target band; on a violation it invokes the search function and emits
//! a [`Decision`] — the new system state plus the per-thread affinity
//! plan — which the driver applies to the platform after the decision's
//! modeled CPU cost.
//!
//! MP-HARS runs the same loop per application. The steps both managers
//! take — applying a config delta, charging heartbeats, learning from a
//! rate prediction, running and pricing a search, counting an
//! adaptation — are written once, in [`DecisionCore`]; each manager
//! keeps only its own policy.

use heartbeats::PerfTarget;
use hmp_sim::{BoardSpec, CpuSet};

use std::collections::VecDeque;
use std::sync::Arc;

use crate::config::{ConfigDelta, ConfigVersion, RejectReason, RuntimeConfig};
use crate::perf_est::PerfEstimator;
use crate::policy::{HarsVariant, SearchPolicy};
use crate::power_est::PowerEstimator;
use crate::predictor::Predictor;
use crate::ratio_learn::{PendingPrediction, RatioLearner, RatioLearning};
use crate::sched::{default_core_allocation, plan_affinities, SchedulerKind};
use crate::search::{
    SearchConstraints, SearchContext, SearchOutcome, SearchStats, SearchStrategyFactory,
};
use crate::state::{StateSpace, SystemState};

/// Tunables of one runtime-manager instance.
#[derive(Debug, Clone)]
pub struct HarsConfig {
    /// Search policy (incremental / exhaustive bounds).
    pub policy: SearchPolicy,
    /// Thread scheduler used to realize assignments.
    pub scheduler: SchedulerKind,
    /// Adaptation period: check the target every this many heartbeats.
    pub adapt_every: u64,
    /// Modeled CPU cost per candidate state evaluated (ns) — drives the
    /// runtime-overhead results of Figure 5.3(b).
    pub cost_per_state_ns: u64,
    /// Fixed CPU cost per heartbeat observation (ns).
    pub cost_per_heartbeat_ns: u64,
    /// Starting system state (`None` = the board's maximum state, i.e.
    /// the baseline configuration).
    pub initial_state: Option<SystemState>,
    /// Online refinement of the assumed per-cluster ratios:
    /// [`RatioLearning::Off`] (default) keeps the configured ratios,
    /// [`RatioLearning::FastOnly`] reproduces the legacy scalar `r₀`
    /// nudge (the paper's Section 5.1.2 future-work fix for
    /// blackscholes), and [`RatioLearning::PerCluster`] runs the
    /// per-cluster damped regression of
    /// [`crate::ratio_learn::RatioLearner`].
    pub ratio_learning: RatioLearning,
    /// Workload predictor: the paper's last-value default or the
    /// Section 3.1.4 Kalman-filter extension.
    pub predictor: Predictor,
    /// Tabu-list length for the Section 3.1.4 local-optimum escape
    /// (0 disables tabu search).
    pub tabu_len: usize,
}

impl Default for HarsConfig {
    fn default() -> Self {
        Self {
            policy: SearchPolicy::exhaustive_default(),
            scheduler: SchedulerKind::Chunk,
            adapt_every: 10,
            cost_per_state_ns: 3_000,
            cost_per_heartbeat_ns: 500,
            initial_state: None,
            ratio_learning: RatioLearning::Off,
            predictor: Predictor::LastValue,
            tabu_len: 0,
        }
    }
}

impl HarsConfig {
    /// Builds a config from a named variant preset.
    pub fn from_variant(v: HarsVariant) -> Self {
        Self {
            policy: v.policy,
            scheduler: v.scheduler,
            ..Self::default()
        }
    }

    /// The hot-reloadable half of this config — the manager's version-0
    /// [`RuntimeConfig`] snapshot. The rest (scheduler, adaptation
    /// period, initial state, predictor, tabu length) is
    /// construction-time identity and stays fixed for the manager's
    /// lifetime.
    pub fn runtime(&self) -> RuntimeConfig {
        RuntimeConfig {
            policy: self.policy.clone(),
            budget_ns: None,
            cost_per_state_ns: self.cost_per_state_ns,
            ratio_learning: self.ratio_learning,
        }
    }
}

/// The decision machinery HARS and MP-HARS share: the board, the
/// estimators and the ratio learner, the versioned [`RuntimeConfig`]
/// snapshot and the strategy hook, and the decision accounting. Each
/// manager owns one and adds only its own policy.
///
/// The snapshot, its version and the learner change together, through
/// [`DecisionCore::apply`] only, so they are private, as is what only
/// the core reads; the managers use the rest directly.
#[derive(Debug, Clone)]
pub struct DecisionCore {
    /// The managed board.
    pub board: BoardSpec,
    /// The board's state space.
    pub space: StateSpace,
    /// The performance estimator. Its assumed per-cluster ratios change
    /// only under ratio learning: [`RatioLearning::PerCluster`] refines
    /// every non-reference cluster, [`RatioLearning::FastOnly`] only the
    /// fastest (the paper's `r₀`).
    pub perf: PerfEstimator,
    /// Construction-time identity: the thread scheduler.
    pub scheduler: SchedulerKind,
    /// Out-of-crate strategy override, consulted instead of the
    /// snapshot's policy. A code-level hook outside the versioned
    /// config: setting it bumps no version, and determinism is the
    /// factory's responsibility.
    pub strategy_factory: Option<Arc<dyn SearchStrategyFactory>>,
    /// Total modeled manager CPU time (ns).
    pub busy_ns: u64,
    /// State changes made.
    pub adaptations: u64,
    /// Cumulative search cost over all searches run.
    pub search_stats: SearchStats,
    /// Construction-time identity: the adaptation period (heartbeats).
    adapt_every: u64,
    /// Construction-time identity: fixed cost per heartbeat (ns).
    cost_per_heartbeat_ns: u64,
    /// The power estimator.
    power: PowerEstimator,
    /// The hot-reloadable config snapshot.
    runtime: RuntimeConfig,
    /// The snapshot's version: 0 at construction, +1 per accepted delta.
    version: ConfigVersion,
    /// The per-cluster online ratio learner.
    learner: RatioLearner,
}

impl DecisionCore {
    /// A core for `board` holding `runtime` as its version-0 snapshot.
    pub fn new(
        board: &BoardSpec,
        perf: PerfEstimator,
        power: PowerEstimator,
        scheduler: SchedulerKind,
        adapt_every: u64,
        cost_per_heartbeat_ns: u64,
        runtime: RuntimeConfig,
    ) -> Self {
        Self {
            board: board.clone(),
            space: StateSpace::from_board(board),
            learner: RatioLearner::new(runtime.ratio_learning, &perf),
            perf,
            scheduler,
            strategy_factory: None,
            busy_ns: 0,
            adaptations: 0,
            search_stats: SearchStats::default(),
            adapt_every,
            cost_per_heartbeat_ns,
            power,
            runtime,
            version: ConfigVersion::default(),
        }
    }

    /// The current hot-reloadable config snapshot.
    pub fn runtime_config(&self) -> &RuntimeConfig {
        &self.runtime
    }

    /// The current config version (0 until the first accepted delta).
    pub fn config_version(&self) -> ConfigVersion {
        self.version
    }

    /// The ratio learner and its prediction-error diagnostics.
    pub fn learner(&self) -> &RatioLearner {
        &self.learner
    }

    /// Applies a config delta — the hot-reload step both managers'
    /// `apply_config` share. All-or-nothing: the delta is validated in
    /// full first, and a rejection changes nothing (the
    /// reconfigure-determinism proptests pin this). On acceptance the
    /// snapshot is swapped and the version bumps; a ratio-learning mode
    /// change rebuilds the learner from the estimator's current ratios.
    /// Returns whether it did, so the manager drops the pending
    /// predictions armed under the old regime.
    ///
    /// # Errors
    ///
    /// Reason-coded — see [`RejectReason`].
    pub fn apply(&mut self, delta: &ConfigDelta) -> Result<bool, RejectReason> {
        let next = self.runtime.apply(delta)?;
        let rebuilt = next.ratio_learning != self.runtime.ratio_learning;
        if rebuilt {
            self.learner = RatioLearner::new(next.ratio_learning, &self.perf);
        }
        self.runtime = next;
        self.version = self.version.next();
        Ok(rebuilt)
    }

    /// Charges one heartbeat observation and reports whether
    /// `hb_index` is an adaptation period (`isAdaptPeriod(hb.index)`:
    /// every `adapt_every`-th heartbeat, skipping index 0, where no rate
    /// window exists yet).
    pub fn heartbeat(&mut self, hb_index: u64) -> bool {
        self.busy_ns += self.cost_per_heartbeat_ns;
        hb_index > 0 && hb_index.is_multiple_of(self.adapt_every)
    }

    /// Learns from `pending`, the rate prediction armed at the last
    /// state change, against the `rate` observed at the first
    /// adaptation period after it.
    pub fn learn(&mut self, pending: Option<PendingPrediction>, rate: f64) {
        if let Some(p) = pending {
            self.learner.observe(&p, rate, &mut self.perf);
        }
    }

    /// One search from `current` (Algorithm 1 line 8, Algorithm 3 line
    /// 20). The installed factory, else the configured policy, supplies
    /// the strategy, and the config's decision budget sets its
    /// evaluation limit. The search is priced per estimator evaluation
    /// (cache hits are free). The charge is stamped on the stats as
    /// `wall_ns` once, and every downstream consumer — `busy_ns`, the
    /// decision's apply latency, run-level totals — reads it from
    /// there.
    ///
    /// `None` when the search keeps `current`. Otherwise the adaptation
    /// is counted and returned with its armed rate prediction (`None`
    /// with learning off).
    pub fn decide(
        &mut self,
        current: &SystemState,
        rate: f64,
        threads: usize,
        target: &PerfTarget,
        constraints: &SearchConstraints,
        tabu: &[SystemState],
    ) -> Option<(SearchOutcome, Option<PendingPrediction>)> {
        let cost = self.runtime.cost_per_state_ns;
        let factory = self
            .strategy_factory
            .as_deref()
            .unwrap_or(&self.runtime.policy);
        let strategy = factory.strategy_for(rate > target.avg(), cost);
        let ctx = SearchContext {
            space: &self.space,
            current,
            observed_rate: rate,
            threads,
            target,
            constraints,
            perf: &self.perf,
            power: &self.power,
            tabu,
            eval_limit: self.runtime.eval_limit(),
        };
        let mut outcome = strategy.next_state(&ctx);
        outcome.stats.wall_ns = outcome.stats.evaluated as u64 * cost;
        self.search_stats.merge(outcome.stats);
        self.busy_ns += outcome.stats.wall_ns;
        if outcome.state == *current {
            return None;
        }
        self.adaptations += 1;
        let pending = (self.runtime.ratio_learning != RatioLearning::Off).then(|| {
            let old_a = self.perf.assignment(threads, current);
            let new_a = self.perf.assignment(threads, &outcome.state);
            PendingPrediction::from_assignments(outcome.eval.est_rate, &old_a, &new_a)
        });
        Some((outcome, pending))
    }
}

/// A state change the driver must apply: cluster frequencies (inside
/// `state`) and one affinity mask per thread.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// The next system state.
    pub state: SystemState,
    /// Per-thread singleton affinity masks, indexed by thread id.
    pub affinities: Vec<CpuSet>,
    /// Modeled CPU time this decision cost (apply after this latency).
    pub overhead_ns: u64,
    /// Search cost accounting (explored / evaluated / rank changes) of
    /// the decision.
    pub stats: SearchStats,
}

/// Algorithm 1's per-application runtime manager.
#[derive(Debug, Clone)]
pub struct RuntimeManager {
    /// The shared decision machinery (board, estimators, config
    /// snapshot, learner, accounting).
    core: DecisionCore,
    target: PerfTarget,
    threads: usize,
    state: SystemState,
    searches: u64,
    /// Ratio-learning bookkeeping: the rate predicted for the current
    /// state when it was chosen, plus the per-cluster thread shares of
    /// the new state and of the state it replaced. Consumed — or
    /// dropped — at the first adaptation period after the change.
    pending_prediction: Option<PendingPrediction>,
    /// Workload predictor state.
    predictor: Predictor,
    /// Construction-time identity: the tabu-list length.
    tabu_len: usize,
    /// Recently visited states (newest last), at most `tabu_len`.
    tabu: VecDeque<SystemState>,
}

impl RuntimeManager {
    /// Creates a manager for an application with `threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or a configured initial state is not in
    /// the board's state space.
    pub fn new(
        board: &BoardSpec,
        target: PerfTarget,
        perf: PerfEstimator,
        power: PowerEstimator,
        threads: usize,
        cfg: HarsConfig,
    ) -> Self {
        assert!(threads > 0, "manager needs at least one thread");
        let core = DecisionCore::new(
            board,
            perf,
            power,
            cfg.scheduler,
            cfg.adapt_every,
            cfg.cost_per_heartbeat_ns,
            cfg.runtime(),
        );
        let state = cfg.initial_state.unwrap_or_else(|| core.space.max_state());
        assert!(
            core.space.contains(&state),
            "initial state {state} outside the board's space"
        );
        Self {
            core,
            target,
            threads,
            state,
            searches: 0,
            pending_prediction: None,
            predictor: cfg.predictor,
            tabu_len: cfg.tabu_len,
            tabu: VecDeque::new(),
        }
    }

    /// The shared decision machinery: the config snapshot and version,
    /// the estimators and their assumed ratios, the learner's
    /// prediction-error diagnostics.
    pub fn core(&self) -> &DecisionCore {
        &self.core
    }

    /// The current system state the manager believes is applied.
    pub fn state(&self) -> SystemState {
        self.state
    }

    /// Applies a validated config delta to the *running* manager — the
    /// hot-reload hook (see [`DecisionCore::apply`]). A ratio-learning
    /// mode change also drops the pending prediction.
    ///
    /// # Errors
    ///
    /// Reason-coded — see [`RejectReason`].
    pub fn apply_config(&mut self, delta: &ConfigDelta) -> Result<ConfigVersion, RejectReason> {
        if self.core.apply(delta)? {
            self.pending_prediction = None;
        }
        Ok(self.core.config_version())
    }

    /// Installs an out-of-crate
    /// [`SearchStrategy`](crate::search::SearchStrategy) source: every
    /// subsequent decision consults `factory` instead of resolving the
    /// configured policy (see [`DecisionCore::strategy_factory`]).
    pub fn set_search_strategy_factory(&mut self, factory: Arc<dyn SearchStrategyFactory>) {
        self.core.strategy_factory = Some(factory);
    }

    /// Removes the strategy factory, returning decisions to the
    /// configured [`SearchPolicy`].
    pub fn clear_search_strategy_factory(&mut self) {
        self.core.strategy_factory = None;
    }

    /// The target band.
    pub fn target(&self) -> &PerfTarget {
        &self.target
    }

    /// Replaces the target band at runtime — the Application Heartbeats
    /// framework lets applications change their goals mid-run; the
    /// manager reacts at its next adaptation period. The predictor is
    /// reset so the next decision uses fresh observations, and any
    /// pending ratio-learning prediction is dropped: it was made
    /// against the pre-retarget workload regime, and matching it
    /// against a post-retarget observation would corrupt the learned
    /// ratios.
    pub fn set_target(&mut self, target: PerfTarget) {
        self.target = target;
        self.predictor.on_state_change();
        self.pending_prediction = None;
    }

    /// Total modeled manager CPU time (ns).
    pub fn busy_ns(&self) -> u64 {
        self.core.busy_ns
    }

    /// Number of state changes made.
    pub fn adaptations(&self) -> u64 {
        self.core.adaptations
    }

    /// Number of searches run (including ones that kept the state).
    pub fn searches(&self) -> u64 {
        self.searches
    }

    /// Cumulative search cost over all searches run so far.
    pub fn search_stats(&self) -> SearchStats {
        self.core.search_stats
    }

    /// The decision that applies the initial state — the driver calls
    /// this once before the run (`setSysStateAndScheduleThreads(state)`
    /// ahead of Algorithm 1's loop).
    pub fn initial_decision(&mut self) -> Decision {
        self.decision_for(self.state, SearchStats::default())
    }

    /// Algorithm 1, lines 5–9: one heartbeat observation.
    ///
    /// Returns a [`Decision`] when the system state must change. The
    /// manager's modeled CPU time accrues even when no change results;
    /// read it via [`RuntimeManager::busy_ns`].
    pub fn on_heartbeat(&mut self, hb_index: u64, rate: Option<f64>) -> Option<Decision> {
        if !self.core.heartbeat(hb_index) {
            return None;
        }
        // A pending prediction is only comparable against the *first*
        // adaptation-period observation after its state change. Take it
        // unconditionally: if this period has no rate, the pair is
        // dropped rather than left to be matched against an observation
        // many periods (and workload phases) later.
        let pending = self.pending_prediction.take();
        // Extension: the predictor (last-value by default) filters the
        // observation the manager acts on.
        let rate = self.predictor.observe(rate?);
        self.core.learn(pending, rate);
        // Line 7: |hb.rate − t.avg| > (t.max − t.min)/2.
        if !self.target.needs_adaptation(rate) {
            return None;
        }
        let constraints = SearchConstraints::unrestricted(&self.core.space);
        self.searches += 1;
        let (outcome, pending) = self.core.decide(
            &self.state,
            rate,
            self.threads,
            &self.target,
            &constraints,
            self.tabu.make_contiguous(),
        )?;
        self.pending_prediction = pending;
        self.tabu.push_back(self.state);
        if self.tabu.len() > self.tabu_len {
            self.tabu.pop_front();
        }
        self.predictor.on_state_change();
        self.state = outcome.state;
        Some(self.decision_for(outcome.state, outcome.stats))
    }

    /// Builds the decision realizing `state` with the configured
    /// scheduler, applied after the search's modeled `wall_ns`.
    fn decision_for(&self, state: SystemState, stats: SearchStats) -> Decision {
        let assignment = self.core.perf.assignment(self.threads, &state);
        let cores = default_core_allocation(&self.core.board, &assignment);
        let affinities = plan_affinities(self.core.scheduler, &assignment, &cores);
        Decision {
            state,
            affinities,
            overhead_ns: stats.wall_ns,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power_est::LinearCoeff;
    use hmp_sim::{ClusterId, FreqKhz, FreqLadder};

    /// The golden contract behind `ci/golden_quick.sha256`: the default
    /// config charges the paper's modeled 3 000 ns per evaluated state.
    /// Only a config delta sets the calibrated cost.
    #[test]
    fn default_config_charges_modeled_3000_ns_per_state() {
        let default = HarsConfig::default();
        assert_eq!(default.cost_per_state_ns, 3_000);
    }

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

    fn manager(cfg: HarsConfig) -> RuntimeManager {
        let board = BoardSpec::odroid_xu3();
        let target = PerfTarget::new(9.0, 11.0).unwrap();
        let perf = PerfEstimator::paper_default(FreqKhz::from_mhz(1_000));
        RuntimeManager::new(&board, target, perf, power(), 8, cfg)
    }

    #[test]
    fn initial_decision_pins_every_thread() {
        let mut m = manager(HarsConfig::default());
        let d = m.initial_decision();
        assert_eq!(d.affinities.len(), 8);
        assert!(d.affinities.iter().all(|a| a.len() == 1));
        assert_eq!(d.state, m.state());
    }

    #[test]
    fn no_adaptation_off_period() {
        let mut m = manager(HarsConfig::default());
        // Index 7 is not a multiple of adapt_every (10).
        assert!(m.on_heartbeat(7, Some(30.0)).is_none());
        assert_eq!(m.searches(), 0);
    }

    #[test]
    fn no_adaptation_inside_band() {
        let mut m = manager(HarsConfig::default());
        assert!(m.on_heartbeat(10, Some(10.0)).is_none());
        assert_eq!(m.searches(), 0);
    }

    #[test]
    fn overperformance_triggers_shrink() {
        let mut m = manager(HarsConfig {
            policy: SearchPolicy::Incremental,
            ..HarsConfig::default()
        });
        let before = m.state();
        let d = m.on_heartbeat(10, Some(30.0)).expect("must adapt");
        assert_ne!(d.state, before);
        assert!(
            d.state.total_cores() < before.total_cores()
                || d.state.freq(ClusterId::BIG) < before.freq(ClusterId::BIG)
                || d.state.freq(ClusterId::LITTLE) < before.freq(ClusterId::LITTLE),
            "shrink step should reduce something: {} -> {}",
            before,
            d.state
        );
        assert_eq!(m.adaptations(), 1);
    }

    #[test]
    fn missing_rate_skips_adaptation() {
        let mut m = manager(HarsConfig::default());
        assert!(m.on_heartbeat(10, None).is_none());
    }

    #[test]
    fn overhead_accrues_with_exploration() {
        let mut m = manager(HarsConfig::default());
        let d = m.on_heartbeat(10, Some(30.0)).expect("must adapt");
        assert!(d.stats.explored > 1);
        assert_eq!(
            d.overhead_ns,
            d.stats.evaluated as u64 * m.core().runtime_config().cost_per_state_ns,
            "the search is charged per evaluation"
        );
        assert_eq!(
            d.stats.wall_ns, d.overhead_ns,
            "the decision latency is read from the stamped wall_ns"
        );
        assert_eq!(m.search_stats().wall_ns, d.overhead_ns);
        assert!(m.busy_ns() >= d.overhead_ns);
        assert!(d.stats.nodes > 0, "the sweep must report its walk nodes");
        assert_eq!(m.search_stats().nodes, d.stats.nodes);
    }

    #[test]
    fn repeated_shrinks_settle_near_target() {
        // Feed the manager a consistent model-following feedback loop:
        // claim the observed rate is whatever the estimator predicted.
        let mut m = manager(HarsConfig::default());
        let mut rate = 40.0;
        let mut hb = 10;
        for _ in 0..40 {
            let before = m.state();
            if let Some(_d) = m.on_heartbeat(hb, Some(rate)) {
                // Perfect world: observation follows the estimate.
                let perf = PerfEstimator::paper_default(FreqKhz::from_mhz(1_000));
                rate = perf.estimate_rate(rate, 8, &before, &m.state());
            }
            hb += 10;
        }
        assert!(
            m.target().satisfied_by(rate) || (rate - m.target().avg()).abs() < 2.0,
            "settled rate {rate} not near target"
        );
        // And the settled state is cheap: not the max state.
        let settled = m.state();
        assert!(
            settled.total_cores() < 8 || settled.freq(ClusterId::BIG) < FreqKhz::from_mhz(1_600)
        );
    }

    #[test]
    fn ratio_learning_moves_r0_toward_truth() {
        let mut m = manager(HarsConfig {
            ratio_learning: RatioLearning::FastOnly,
            adapt_every: 1,
            ..HarsConfig::default()
        });
        // Pretend the app is blackscholes-like: whenever HARS predicts a
        // mixed-state speedup assuming r0 = 1.5, reality delivers less.
        let mut hb = 1;
        for _ in 0..30 {
            let predicted = m
                .on_heartbeat(hb, Some(6.0))
                .map(|d| (d.state, m.core().perf.r0()));
            let _ = predicted;
            hb += 1;
            // Observed rate always disappointing relative to predictions.
            let _ = m.on_heartbeat(hb, Some(5.0));
            hb += 1;
        }
        assert!(
            m.core().perf.r0() <= 1.5,
            "r0 {} should not grow when reality disappoints",
            m.core().perf.r0()
        );
    }

    /// The paired driver of the two stale-state regression tests: a
    /// decision at hb 1 arms a pending prediction; the *control* run
    /// then observes a wildly disappointing rate and must move r₀.
    /// Both regressions reuse the same sequence with an intervening
    /// event that must *prevent* the move.
    fn learning_manager() -> RuntimeManager {
        manager(HarsConfig {
            ratio_learning: RatioLearning::FastOnly,
            adapt_every: 1,
            ..HarsConfig::default()
        })
    }

    #[test]
    fn stale_prediction_control_does_move_r0() {
        let mut m = learning_manager();
        assert!(m.on_heartbeat(1, Some(30.0)).is_some(), "must adapt");
        let _ = m.on_heartbeat(2, Some(1.0));
        assert_ne!(
            m.core().perf.r0(),
            1.5,
            "control: consuming the prediction must move r0"
        );
    }

    #[test]
    fn retarget_drops_pending_prediction() {
        // Regression: set_target reset the predictor but left the
        // pending prediction armed, so a pre-retarget prediction was
        // consumed against a post-retarget observation.
        let mut m = learning_manager();
        assert!(m.on_heartbeat(1, Some(30.0)).is_some(), "must adapt");
        m.set_target(PerfTarget::new(0.5, 1.5).unwrap());
        let _ = m.on_heartbeat(2, Some(1.0));
        assert_eq!(
            m.core().perf.r0(),
            1.5,
            "the pre-retarget prediction must not be learned from"
        );
    }

    #[test]
    fn unconsumed_prediction_dropped_at_first_adapt_period() {
        // Regression: an adaptation period with no rate returned early
        // without consuming the pending prediction, so it could be
        // matched against an observation many periods later.
        let mut m = learning_manager();
        assert!(m.on_heartbeat(1, Some(30.0)).is_some(), "must adapt");
        assert!(m.on_heartbeat(2, None).is_none(), "no rate: no decision");
        let _ = m.on_heartbeat(3, Some(1.0));
        assert_eq!(
            m.core().perf.r0(),
            1.5,
            "a prediction skipped at its first adaptation period is stale"
        );
    }

    #[test]
    fn off_mode_reports_no_prediction_error() {
        let mut m = manager(HarsConfig {
            adapt_every: 1,
            ..HarsConfig::default()
        });
        let _ = m.on_heartbeat(1, Some(30.0));
        let _ = m.on_heartbeat(2, Some(5.0));
        assert_eq!(m.core().learner().mean_recent_error(), None);
        assert_eq!(m.core().perf.ratio_of(hmp_sim::ClusterId::BIG), 1.5);
        assert_eq!(m.core().perf.ratio_of(hmp_sim::ClusterId::LITTLE), 1.0);
    }

    #[test]
    fn learning_manager_tracks_prediction_error() {
        let mut m = learning_manager();
        assert!(m.on_heartbeat(1, Some(30.0)).is_some());
        let _ = m.on_heartbeat(2, Some(5.0));
        assert!(
            m.core().learner().mean_recent_error().is_some(),
            "a consumed prediction must be reflected in the diagnostic"
        );
    }

    #[test]
    fn retargeting_takes_effect_at_next_period() {
        let mut m = manager(HarsConfig::default());
        // In-band at 10 hb/s: no adaptation.
        assert!(m.on_heartbeat(10, Some(10.0)).is_none());
        // Raise the goal to 20 ± 2: the same 10 hb/s now under-performs.
        m.set_target(PerfTarget::new(18.0, 22.0).unwrap());
        let d = m.on_heartbeat(20, Some(10.0));
        // Already at the max state, so the search may keep it — but the
        // manager must have *searched* (goal violation recognized).
        assert!(m.searches() >= 1, "retarget must trigger a search");
        let _ = d;
    }

    #[test]
    fn tabu_prevents_immediate_backtracking() {
        let mut m = manager(HarsConfig {
            tabu_len: 4,
            adapt_every: 1,
            ..HarsConfig::default()
        });
        let first = m.state();
        let d1 = m.on_heartbeat(1, Some(30.0)).expect("adapts");
        // Under-performance would normally pull it straight back up; the
        // tabu list forbids returning to the max state immediately.
        if let Some(d2) = m.on_heartbeat(2, Some(1.0)) {
            assert_ne!(d2.state, first, "tabu must block the backtrack");
        }
        let _ = d1;
    }

    #[test]
    fn kalman_predictor_dampens_single_outliers() {
        use crate::predictor::Predictor;
        let mut plain = manager(HarsConfig {
            adapt_every: 1,
            ..HarsConfig::default()
        });
        let mut filtered = manager(HarsConfig {
            adapt_every: 1,
            predictor: Predictor::kalman(),
            ..HarsConfig::default()
        });
        // Steady in-band rates, then one wild outlier.
        for hb in 1..10u64 {
            assert!(plain.on_heartbeat(hb, Some(10.0)).is_none());
            assert!(filtered.on_heartbeat(hb, Some(10.0)).is_none());
        }
        // A moderate outlier: far enough outside the band that the raw
        // manager reacts, small enough that the filter absorbs it.
        let plain_reacts = plain.on_heartbeat(10, Some(14.0)).is_some();
        let filtered_reacts = filtered.on_heartbeat(10, Some(14.0)).is_some();
        assert!(plain_reacts, "last-value manager chases the outlier");
        assert!(!filtered_reacts, "kalman manager smooths the outlier away");
    }

    #[test]
    fn apply_config_bumps_version_and_retunes_the_hot_path() {
        use crate::config::ConfigDelta;
        let mut m = manager(HarsConfig::default());
        assert_eq!(m.core().config_version(), ConfigVersion(0));
        let v = m
            .apply_config(
                &ConfigDelta::none()
                    .with_policy(SearchPolicy::Incremental)
                    .with_cost_per_state_ns(10),
            )
            .expect("valid delta");
        assert_eq!(v, ConfigVersion(1));
        assert_eq!(m.core().runtime_config().cost_per_state_ns, 10);
        // The next decision runs under the new snapshot: incremental
        // shrink explores a distance-1 neighborhood at 10 ns/state.
        let d = m.on_heartbeat(10, Some(30.0)).expect("adapts");
        assert!(d.stats.explored < 20, "incremental, not exhaustive");
        assert_eq!(d.overhead_ns, d.stats.evaluated as u64 * 10);
    }

    #[test]
    fn rejected_delta_leaves_the_manager_bit_identical() {
        use crate::config::{ConfigDelta, RejectReason};
        let mut m = manager(HarsConfig::default());
        let before = m.clone();
        assert_eq!(
            m.apply_config(&ConfigDelta::none()),
            Err(RejectReason::EmptyDelta)
        );
        assert_eq!(
            m.apply_config(
                &ConfigDelta::none()
                    .with_cost_per_state_ns(10)
                    .with_budget_ns(0)
            ),
            Err(RejectReason::ZeroBudget)
        );
        assert_eq!(m.core().config_version(), ConfigVersion(0));
        assert_eq!(m.core().runtime_config(), before.core().runtime_config());
        // Decisions after the rejections match the untouched clone's.
        let mut before = before;
        assert_eq!(
            m.on_heartbeat(10, Some(30.0)),
            before.on_heartbeat(10, Some(30.0))
        );
    }

    #[test]
    fn ratio_learning_switch_drops_pending_predictions() {
        use crate::config::ConfigDelta;
        // Same shape as retarget_drops_pending_prediction: arm a
        // prediction, reconfigure, and check r0 is not corrupted.
        let mut m = learning_manager();
        assert!(m.on_heartbeat(1, Some(30.0)).is_some(), "must adapt");
        m.apply_config(&ConfigDelta::none().with_ratio_learning(RatioLearning::PerCluster))
            .expect("valid delta");
        let _ = m.on_heartbeat(2, Some(1.0));
        assert_eq!(
            m.core().perf.r0(),
            1.5,
            "a prediction armed under the old learning regime must be dropped"
        );
    }

    #[test]
    fn strategy_factory_overrides_the_configured_policy() {
        use crate::search::{BestTracker, EvalCache, SearchStrategy};

        /// A degenerate external strategy: never moves.
        #[derive(Debug)]
        struct StayPut;
        impl SearchStrategy for StayPut {
            fn name(&self) -> &'static str {
                "stay-put"
            }
            fn next_state_observed(
                &self,
                ctx: &SearchContext<'_>,
                _observer: &mut dyn FnMut(SystemState),
            ) -> SearchOutcome {
                let mut cache = EvalCache::new();
                let idx = ctx.space.index_of(ctx.current).expect("valid state");
                let eval = ctx.evaluate(&idx, &mut cache);
                BestTracker::new(*ctx.current, eval, ctx.tabu).finish(1, cache.evaluated())
            }
        }
        #[derive(Debug)]
        struct StayPutFactory;
        impl SearchStrategyFactory for StayPutFactory {
            fn strategy_for(&self, _over: bool, _cps: u64) -> Box<dyn SearchStrategy> {
                Box::new(StayPut)
            }
        }

        let mut m = manager(HarsConfig::default());
        m.set_search_strategy_factory(Arc::new(StayPutFactory));
        // Grossly over-performing, but the external strategy holds.
        assert!(m.on_heartbeat(10, Some(30.0)).is_none());
        assert_eq!(m.searches(), 1, "the external strategy did run");
        m.clear_search_strategy_factory();
        assert!(m.on_heartbeat(20, Some(30.0)).is_some(), "policy restored");
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let board = BoardSpec::odroid_xu3();
        let target = PerfTarget::new(1.0, 2.0).unwrap();
        let perf = PerfEstimator::paper_default(FreqKhz::from_mhz(1_000));
        let _ = RuntimeManager::new(&board, target, perf, power(), 0, HarsConfig::default());
    }
}
