//! The MP-HARS runtime manager — Algorithm 3 (`IterateNodes`),
//! generalized to N clusters.
//!
//! One manager supervises every registered application. Each application
//! keeps its own HARS-style adaptation loop (same estimators, same
//! search — the [`DecisionCore`] single-app HARS uses too), but:
//!
//! * candidate core counts are capped by the per-cluster **free-core**
//!   counts (resource partitioning: apps never take each other's cores);
//! * cluster **frequency decreases** are gated by the interference-aware
//!   rules: only allowed when every co-located application over-performs
//!   and the cluster is not frozen; every decrease freezes the cluster
//!   by arming freezing counts on the affected applications.

use heartbeats::{AppId, PerfTarget};
use hmp_sim::{BoardSpec, ClusterId, CpuSet, FreqKhz};
use serde::{Deserialize, Serialize};

use std::sync::Arc;

use hars_core::config::{ConfigDelta, ConfigVersion, RejectReason, RuntimeConfig};
use hars_core::policy::SearchPolicy;
use hars_core::ratio_learn::RatioLearning;
use hars_core::sched::plan_affinities;
use hars_core::search::{FreqChange, SearchConstraints, SearchStats, SearchStrategyFactory};
use hars_core::{DecisionCore, PerfEstimator, PowerEstimator, SchedulerKind, SystemState};

use crate::app_data::{AppData, PerfClass};
use crate::cluster_data::ClusterData;
use crate::freeze::combine_others;
use crate::partition::{get_allocatable_core_set, AllocatedCores};

/// MP-HARS tunables.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MpHarsConfig {
    /// Per-app search policy (MP-HARS-I: incremental; MP-HARS-E:
    /// exhaustive `m=4,n=4,d=7`).
    pub policy: SearchPolicy,
    /// Per-app adaptation period (heartbeats).
    pub adapt_every: u64,
    /// Freezing-count value armed when a cluster frequency decreases
    /// ("number of heartbeats to wait ... to collect the performance
    /// data of the new system state").
    pub freeze_heartbeats: u32,
    /// Modeled CPU cost per candidate state evaluated (ns).
    pub cost_per_state_ns: u64,
    /// Modeled CPU cost per heartbeat observation (ns).
    pub cost_per_heartbeat_ns: u64,
    /// Online refinement of the shared estimator's assumed per-cluster
    /// ratios, fed by every app's consumed rate predictions.
    pub ratio_learning: RatioLearning,
}

impl Default for MpHarsConfig {
    fn default() -> Self {
        Self {
            policy: SearchPolicy::exhaustive_default(),
            adapt_every: 10,
            freeze_heartbeats: 10,
            cost_per_state_ns: 3_000,
            cost_per_heartbeat_ns: 500,
            ratio_learning: RatioLearning::Off,
        }
    }
}

impl MpHarsConfig {
    /// The hot-reloadable half of this config — the manager's version-0
    /// [`RuntimeConfig`] snapshot. The rest (adaptation period, freeze
    /// count) is construction-time identity.
    pub fn runtime(&self) -> RuntimeConfig {
        RuntimeConfig {
            policy: self.policy.clone(),
            budget_ns: None,
            cost_per_state_ns: self.cost_per_state_ns,
            ratio_learning: self.ratio_learning,
        }
    }
}

/// The paper's MP-HARS-I: incremental search with distance 1.
pub fn mp_hars_i() -> MpHarsConfig {
    MpHarsConfig {
        policy: SearchPolicy::Incremental,
        ..MpHarsConfig::default()
    }
}

/// The paper's MP-HARS-E: exhaustive search (`m=4, n=4, d=7`).
pub fn mp_hars_e() -> MpHarsConfig {
    MpHarsConfig {
        policy: SearchPolicy::exhaustive_default(),
        ..MpHarsConfig::default()
    }
}

/// A state change for one application: its new thread pinning plus the
/// (shared) cluster frequencies.
#[derive(Debug, Clone, PartialEq)]
pub struct MpDecision {
    /// The application this decision re-pins.
    pub app: AppId,
    /// Per-thread affinity masks.
    pub affinities: Vec<CpuSet>,
    /// Cluster frequencies after this decision, indexed by cluster.
    pub freqs: Vec<FreqKhz>,
    /// Modeled decision latency (ns).
    pub overhead_ns: u64,
    /// Search cost accounting of the decision.
    pub stats: SearchStats,
}

/// How a quarantined cluster is constrained in the manager's search
/// space (the runtime's reaction to an injected cluster fault).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineMode {
    /// Thermal cap: the cluster's shared frequency is pinned at the
    /// DVFS floor; apps keep (and may still claim) its cores.
    Cap,
    /// Offline: frequency pinned *and* the cluster is evicted from the
    /// search space — searches must propose zero cores there, so owned
    /// cores drain back to the free list at each app's next adaptation.
    Offline,
}

impl QuarantineMode {
    /// The stable discriminator telemetry leads with.
    pub fn name(self) -> &'static str {
        match self {
            QuarantineMode::Cap => "cap",
            QuarantineMode::Offline => "offline",
        }
    }
}

/// The multi-application runtime manager.
#[derive(Debug, Clone)]
pub struct MpHarsManager {
    /// The decision machinery shared with single-app HARS. Its
    /// estimator and ratio learner are shared by every app: each app's
    /// consumed predictions refine the one estimator.
    core: DecisionCore,
    /// Construction-time identity: freezing-count value armed on
    /// decreases.
    freeze_heartbeats: u32,
    apps: Vec<AppData>,
    /// Per-cluster partitioning state, indexed by cluster.
    clusters: Vec<ClusterData>,
    /// Per-cluster quarantine state (fault-plane reaction), indexed by
    /// cluster; `None` everywhere in fault-free runs.
    quarantine: Vec<Option<QuarantineMode>>,
}

impl MpHarsManager {
    /// Creates a manager for `board`; clusters start at maximum
    /// frequency with every core free.
    pub fn new(
        board: &BoardSpec,
        perf: PerfEstimator,
        power: PowerEstimator,
        cfg: MpHarsConfig,
    ) -> Self {
        Self {
            core: DecisionCore::new(
                board,
                perf,
                power,
                SchedulerKind::Chunk,
                cfg.adapt_every,
                cfg.cost_per_heartbeat_ns,
                cfg.runtime(),
            ),
            freeze_heartbeats: cfg.freeze_heartbeats,
            apps: Vec::new(),
            clusters: ClusterData::for_board(board),
            quarantine: vec![None; board.n_clusters()],
        }
    }

    /// The shared decision machinery: the config snapshot and version,
    /// the shared estimator and its assumed ratios, the learner's
    /// prediction-error diagnostics.
    pub fn core(&self) -> &DecisionCore {
        &self.core
    }

    /// Registers an application. It owns no cores until its first
    /// heartbeat triggers the initial allocation.
    pub fn register_app(&mut self, app: AppId, threads: usize, target: PerfTarget) {
        let per: Vec<(usize, FreqKhz)> = self.clusters.iter().map(|c| (0, c.freq)).collect();
        let initial = SystemState::new(&per);
        let sizes: Vec<usize> = self.clusters.iter().map(|c| c.len()).collect();
        self.apps
            .push(AppData::new(app, threads, target, &sizes, initial));
    }

    /// Removes an application, returning its cores to the free lists.
    ///
    /// Departure hygiene: the frozen flags are recomputed from the
    /// remaining applications' freezing counts — if the departing app
    /// was the only one holding a cluster frozen, the flag is released
    /// immediately instead of leaking until the next heartbeat's
    /// refresh (where it would wrongly gate another app's adaptation).
    pub fn unregister_app(&mut self, app: AppId) {
        if let Some(pos) = self.apps.iter().position(|a| a.app == app) {
            let data = self.apps.remove(pos);
            for (ci, owned) in data.owned.iter().enumerate() {
                for (i, used) in owned.iter().enumerate() {
                    if *used {
                        self.clusters[ci].free[i] = true;
                    }
                }
            }
            self.refresh_frozen_flags();
        }
    }

    /// Applies a validated config delta to the *running* manager — the
    /// hot-reload hook (see [`DecisionCore::apply`]). A ratio-learning
    /// mode change drops every app's pending prediction.
    ///
    /// # Errors
    ///
    /// Reason-coded — see [`RejectReason`].
    pub fn apply_config(&mut self, delta: &ConfigDelta) -> Result<ConfigVersion, RejectReason> {
        if self.core.apply(delta)? {
            for a in &mut self.apps {
                a.pending_prediction = None;
            }
        }
        Ok(self.core.config_version())
    }

    /// Installs an out-of-crate strategy source consulted for every
    /// app's decisions instead of the configured policy (see
    /// [`DecisionCore::strategy_factory`]).
    pub fn set_search_strategy_factory(&mut self, factory: Arc<dyn SearchStrategyFactory>) {
        self.core.strategy_factory = Some(factory);
    }

    /// Removes the strategy factory, returning decisions to the
    /// configured [`SearchPolicy`].
    pub fn clear_search_strategy_factory(&mut self) {
        self.core.strategy_factory = None;
    }

    /// Total modeled manager CPU time (ns).
    pub fn busy_ns(&self) -> u64 {
        self.core.busy_ns
    }

    /// State changes applied across all applications.
    pub fn adaptations(&self) -> u64 {
        self.core.adaptations
    }

    /// Cumulative search cost across all applications' searches.
    pub fn search_stats(&self) -> SearchStats {
        self.core.search_stats
    }

    /// One application's current state view, if registered.
    pub fn app_state(&self, app: AppId) -> Option<SystemState> {
        self.apps.iter().find(|a| a.app == app).map(|a| {
            let mut s = a.state;
            for c in self.core.board.cluster_ids() {
                s.set_freq(c, self.clusters[c.index()].freq);
            }
            s
        })
    }

    /// The shared frequency of `cluster`.
    pub fn cluster_freq(&self, cluster: ClusterId) -> FreqKhz {
        self.clusters[cluster.index()].freq
    }

    /// Whether `cluster` is currently frozen.
    pub fn cluster_frozen(&self, cluster: ClusterId) -> bool {
        self.clusters[cluster.index()].frozen
    }

    /// Read access to the per-cluster partitioning records (tests and
    /// diagnostics).
    pub fn clusters(&self) -> &[ClusterData] {
        &self.clusters
    }

    /// Read access to the per-application records (tests and
    /// diagnostics).
    pub fn apps(&self) -> &[AppData] {
        &self.apps
    }

    /// Quarantines `cluster` (fault-plane reaction): its shared
    /// frequency is pinned at the DVFS floor and — under
    /// [`QuarantineMode::Offline`] — searches must vacate it, so owned
    /// cores drain back at each app's next adaptation. Re-quarantining
    /// an already-quarantined cluster upgrades/downgrades the mode in
    /// place. Unfreezes the cluster first: a freeze gate must never
    /// outrank a fault reaction.
    pub fn set_cluster_quarantine(&mut self, cluster: ClusterId, mode: QuarantineMode) {
        self.unfreeze(cluster);
        let floor = self.core.board.ladder(cluster).min();
        self.clusters[cluster.index()].freq = floor;
        // Every app's view of the shared frequency, and any pending
        // rate prediction armed against the old frequency, are stale.
        for a in &mut self.apps {
            a.state.set_freq(cluster, floor);
            if a.uses_cluster(cluster) {
                a.pending_prediction = None;
            }
        }
        self.quarantine[cluster.index()] = Some(mode);
    }

    /// Lifts a cluster's quarantine: searches may grow onto it and move
    /// its frequency again from the next adaptation on. A no-op for
    /// unquarantined clusters.
    pub fn clear_cluster_quarantine(&mut self, cluster: ClusterId) {
        self.quarantine[cluster.index()] = None;
    }

    /// The cluster's active quarantine mode, `None` when healthy.
    pub fn cluster_quarantine(&self, cluster: ClusterId) -> Option<QuarantineMode> {
        self.quarantine[cluster.index()]
    }

    /// Algorithm 3 for one incoming heartbeat of `app`.
    pub fn on_heartbeat(
        &mut self,
        app: AppId,
        hb_index: u64,
        rate: Option<f64>,
    ) -> Option<MpDecision> {
        let adapt_period = self.core.heartbeat(hb_index);
        let ai = self.apps.iter().position(|a| a.app == app)?;
        // Lines 7–11: tick this app's freezing counts.
        self.apps[ai].tick_freezing_counts();
        if let Some(r) = rate {
            self.apps[ai].last_rate = Some(r);
        }
        // Lines 12–15: refresh the per-cluster frozen flags.
        self.refresh_frozen_flags();
        // Fault-plane reaction outranks the adaptation period: an app
        // still holding cores on an offline-quarantined cluster is
        // evacuated now, not at its next scheduled adaptation.
        if self.apps[ai].allocated {
            if let Some(d) = self.evacuation_decision(ai) {
                return Some(d);
            }
        }
        // Line 16: adaptation period?
        if !adapt_period {
            // The initial allocation happens at the very first heartbeat.
            if hb_index == 0 && !self.apps[ai].allocated {
                return self.initial_allocation(ai);
            }
            return None;
        }
        if !self.apps[ai].allocated {
            return self.initial_allocation(ai);
        }
        // This app's pending prediction is only comparable against its
        // first adaptation-period observation after the state change:
        // take it now so a rate-less period drops it instead of leaving
        // it to pair with a much later observation.
        let pending = self.apps[ai].pending_prediction.take();
        let rate = rate?;
        self.core.learn(pending, rate);
        // Line 17: target check.
        if !self.apps[ai].target.needs_adaptation(rate) {
            return None;
        }
        // An under-performer unfreezes the clusters it depends on ("the
        // frozen state can be unfreezed ... if the system performance
        // needs to be increased").
        if PerfClass::of(&self.apps[ai].target, rate) == PerfClass::Underperf {
            for cluster in self.core.board.cluster_ids() {
                if self.apps[ai].uses_cluster(cluster) {
                    self.unfreeze(cluster);
                }
            }
        }
        // Lines 18–19: free cores and controllable clusters.
        let constraints = self.constraints_for(ai);
        // Refresh the app's view of the shared frequencies.
        for c in self.core.board.cluster_ids() {
            let freq = self.clusters[c.index()].freq;
            self.apps[ai].state.set_freq(c, freq);
        }
        // Line 20: the HARS search, bounded by the constraints.
        let app = &self.apps[ai];
        let (outcome, pending) = self.core.decide(
            &app.state,
            rate,
            app.threads,
            &app.target,
            &constraints,
            &[],
        )?;
        self.apps[ai].pending_prediction = pending;
        // Lines 21–26: allocate cores, apply frequencies, arm freezes.
        Some(self.apply_state(ai, outcome.state, outcome.stats))
    }

    /// Initial fair-share allocation at an app's first heartbeat: claim
    /// up to `cluster_size / live_apps` cores per cluster from the free
    /// lists (at least one core somewhere), never more cores in total
    /// than the app has threads — surplus is trimmed slowest-cluster
    /// first, so an 8-thread tenant on a 32-core board claims the 8
    /// fastest free cores instead of hogging every free list (cores its
    /// waterfill would leave idle anyway, starving later arrivals).
    fn initial_allocation(&mut self, ai: usize) -> Option<MpDecision> {
        let napps = self.apps.len().max(1);
        let threads = self.apps[ai].threads;
        let mut wants: Vec<usize> = self
            .clusters
            .iter()
            .enumerate()
            .map(|(ci, c)| {
                if self.quarantine[ci] == Some(QuarantineMode::Offline) {
                    0
                } else {
                    (c.len() / napps).min(c.free_count()).min(threads)
                }
            })
            .collect();
        let mut surplus = wants.iter().sum::<usize>().saturating_sub(threads);
        for w in wants.iter_mut() {
            let cut = surplus.min(*w);
            *w -= cut;
            surplus -= cut;
        }
        if wants.iter().sum::<usize>() == 0 {
            // Everything is owned: fall back to one free core anywhere,
            // fastest cluster first (GTS would have packed there too).
            match (0..self.clusters.len()).rev().find(|&ci| {
                self.quarantine[ci] != Some(QuarantineMode::Offline)
                    && self.clusters[ci].free_count() > 0
            }) {
                Some(ci) => wants[ci] = 1,
                // Truly nothing free: the app stays GTS-scheduled and
                // unallocated, so every following adaptation period
                // retries the claim and the next departure lets it in.
                None => return None,
            }
        }
        let per: Vec<(usize, FreqKhz)> = wants
            .iter()
            .zip(&self.clusters)
            .map(|(&w, c)| (w, c.freq))
            .collect();
        let state = SystemState::new(&per);
        self.apps[ai].allocated = true;
        Some(self.apply_state(ai, state, SearchStats::default()))
    }

    /// The explicit drain off offline-quarantined clusters: vacate
    /// their cores and recover the lost width from free cores on
    /// healthy clusters, fastest first. Bypasses the search — the
    /// distance-ball sweep is centered on the current state and cannot
    /// reach a "shed this whole cluster" target in one adaptation, and
    /// a fault reaction must not wait for several. `None` when the app
    /// holds nothing on an offline cluster (the fault-free hot path).
    fn evacuation_decision(&mut self, ai: usize) -> Option<MpDecision> {
        let offline = |ci: usize| -> bool { self.quarantine[ci] == Some(QuarantineMode::Offline) };
        let holds = (0..self.clusters.len())
            .any(|ci| offline(ci) && self.apps[ai].owned(ClusterId(ci)) > 0);
        if !holds {
            return None;
        }
        let threads = self.apps[ai].threads;
        let mut cores: Vec<usize> = (0..self.clusters.len())
            .map(|ci| {
                if offline(ci) {
                    0
                } else {
                    self.apps[ai].owned(ClusterId(ci))
                }
            })
            .collect();
        let mut have: usize = cores.iter().sum();
        for ci in (0..self.clusters.len()).rev() {
            if offline(ci) {
                continue;
            }
            let grab = self.clusters[ci]
                .free_count()
                .min(threads.saturating_sub(have));
            cores[ci] += grab;
            have += grab;
        }
        if have == 0 {
            // Nowhere to go: keep the bookkeeping and retry at the next
            // heartbeat (a departure frees cores). The engine has
            // already physically evacuated the app's threads.
            return None;
        }
        let per: Vec<(usize, FreqKhz)> = cores
            .iter()
            .zip(&self.clusters)
            .map(|(&w, c)| (w, c.freq))
            .collect();
        let state = SystemState::new(&per);
        self.core.adaptations += 1;
        Some(self.apply_state(ai, state, SearchStats::default()))
    }

    /// The search constraints for app `ai` (Algorithm 3 lines 18–19).
    fn constraints_for(&self, ai: usize) -> SearchConstraints {
        let app = &self.apps[ai];
        let mut constraints = SearchConstraints::unrestricted(&self.core.space);
        for c in self.core.board.cluster_ids() {
            // A quarantined cluster's frequency is pinned at the floor;
            // an offline one is additionally evicted from the search
            // space, so the search must propose states that vacate it.
            match self.quarantine[c.index()] {
                Some(QuarantineMode::Offline) => {
                    constraints.set_max_cores(c, 0);
                    constraints.set_freq_change(c, FreqChange::Fixed);
                    continue;
                }
                Some(QuarantineMode::Cap) => {
                    constraints.set_max_cores(
                        c,
                        app.state.cores(c) + self.clusters[c.index()].free_count(),
                    );
                    constraints.set_freq_change(c, FreqChange::Fixed);
                    continue;
                }
                None => {}
            }
            constraints.set_max_cores(
                c,
                app.state.cores(c) + self.clusters[c.index()].free_count(),
            );
            constraints.set_freq_change(c, self.freq_change_for(ai, c));
        }
        constraints
    }

    /// Interference-aware frequency gating for one cluster, derived from
    /// Table 4.3: a decrease needs a unanimous over-performing domain
    /// and an unfrozen cluster; increases are always allowed.
    fn freq_change_for(&self, ai: usize, cluster: ClusterId) -> FreqChange {
        if self.cluster_frozen(cluster) {
            return FreqChange::IncreaseOnly;
        }
        let sharers: Vec<Option<PerfClass>> = self
            .apps
            .iter()
            .enumerate()
            .filter(|(i, a)| *i != ai && a.allocated && a.uses_cluster(cluster))
            .map(|(_, a)| a.perf_class())
            .collect();
        match combine_others(sharers) {
            None | Some(PerfClass::Overperf) => FreqChange::Any,
            _ => FreqChange::IncreaseOnly,
        }
    }

    fn refresh_frozen_flags(&mut self) {
        for ci in 0..self.clusters.len() {
            self.clusters[ci].frozen = self.apps.iter().any(|a| a.freezing_cnt(ClusterId(ci)) > 0);
        }
    }

    fn unfreeze(&mut self, cluster: ClusterId) {
        for a in &mut self.apps {
            a.set_freezing_cnt(cluster, 0);
        }
        self.clusters[cluster.index()].frozen = false;
    }

    /// Applies a chosen state: partitions cores (Algorithm 4), updates
    /// the shared frequencies, arms freezing counts on decreases
    /// (Algorithm 3 lines 23–26), and plans the app's thread pinning,
    /// applied after the search's modeled `wall_ns`.
    fn apply_state(&mut self, ai: usize, new_state: SystemState, stats: SearchStats) -> MpDecision {
        // Pending decrements for the allocator.
        {
            let app = &mut self.apps[ai];
            for c in (0..app.n_clusters()).map(ClusterId) {
                let owned = app.owned(c);
                if new_state.cores(c) < owned {
                    app.dec[c.index()] = owned - new_state.cores(c);
                }
            }
            app.state = new_state;
        }
        let alloc: AllocatedCores =
            get_allocatable_core_set(&mut self.apps[ai], &mut self.clusters);
        // Clamp to what was actually granted (never differs when the
        // constraints were honored).
        for c in self.core.board.cluster_ids() {
            let granted = alloc.cores(c).len();
            self.apps[ai].state.set_cores(c, granted);
        }
        // Frequency changes are cluster-wide; walk clusters highest
        // index (fastest) first, like the paper's big-then-little order.
        for c in self.core.board.cluster_ids().rev() {
            let new_freq = new_state.freq(c);
            let cur = self.cluster_freq(c);
            if new_freq == cur {
                continue;
            }
            let decreased = new_freq < cur;
            self.clusters[c.index()].freq = new_freq;
            // A cluster-wide frequency change invalidates every *other*
            // app's pending rate prediction on that cluster: their
            // predictions assumed the old shared frequency, and
            // consuming them would misattribute the frequency effect
            // to ratio error. The deciding app's own prediction is
            // armed against the new frequencies and stays valid.
            for (i, a) in self.apps.iter_mut().enumerate() {
                if i != ai && a.uses_cluster(c) {
                    a.pending_prediction = None;
                }
            }
            if decreased {
                // Arm freezing counts on every app using the cluster,
                // and always on the deciding app — the freeze exists to
                // wait for *its* post-change measurements, even when
                // its new state vacated the cluster it slowed down.
                // The frozen flag mirrors the armed counts exactly
                // (`freeze_heartbeats == 0` means nobody waits), so a
                // departure or drain can never leave a stale gate.
                let freeze = self.freeze_heartbeats;
                let mut armed = false;
                for (i, a) in self.apps.iter_mut().enumerate() {
                    if i == ai || a.uses_cluster(c) {
                        a.set_freezing_cnt(c, freeze);
                        armed |= freeze > 0;
                    }
                }
                self.clusters[c.index()].frozen = armed;
            }
        }
        let app = &self.apps[ai];
        let assignment = self.core.perf.assignment(app.threads, &app.state);
        let affinities = plan_affinities(self.core.scheduler, &assignment, &alloc.per_cluster);
        MpDecision {
            app: app.app,
            affinities,
            freqs: self.clusters.iter().map(|c| c.freq).collect(),
            overhead_ns: stats.wall_ns,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hars_core::power_est::LinearCoeff;
    use hmp_sim::FreqLadder;

    const B: ClusterId = ClusterId::BIG;
    const L: ClusterId = ClusterId::LITTLE;

    /// The golden contract behind `ci/golden_quick.sha256`: default
    /// presets keep the modeled overhead costs — calibrated
    /// coefficients are an explicit opt-in delta, never the default.
    #[test]
    fn calibrated_preset_is_opt_in_and_default_matches_goldens() {
        for base in [MpHarsConfig::default(), mp_hars_i(), mp_hars_e()] {
            assert_eq!(base.cost_per_state_ns, 3_000);
        }
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

    fn manager(cfg: MpHarsConfig) -> MpHarsManager {
        let board = BoardSpec::odroid_xu3();
        let perf = PerfEstimator::paper_default(board.base_freq);
        MpHarsManager::new(&board, perf, power(), cfg)
    }

    fn target(lo: f64, hi: f64) -> PerfTarget {
        PerfTarget::new(lo, hi).unwrap()
    }

    #[test]
    fn first_heartbeat_triggers_fair_initial_allocation() {
        let mut m = manager(mp_hars_e());
        m.register_app(AppId(0), 8, target(9.0, 11.0));
        m.register_app(AppId(1), 8, target(9.0, 11.0));
        let d0 = m.on_heartbeat(AppId(0), 0, None).expect("initial alloc");
        assert_eq!(d0.affinities.len(), 8);
        let s0 = m.app_state(AppId(0)).unwrap();
        assert_eq!((s0.cores(B), s0.cores(L)), (2, 2), "fair half share");
        let d1 = m.on_heartbeat(AppId(1), 0, None).expect("initial alloc");
        assert_eq!(d1.affinities.len(), 8);
        let s1 = m.app_state(AppId(1)).unwrap();
        assert_eq!((s1.cores(B), s1.cores(L)), (2, 2));
    }

    #[test]
    fn apps_never_share_cores() {
        let mut m = manager(mp_hars_e());
        m.register_app(AppId(0), 8, target(9.0, 11.0));
        m.register_app(AppId(1), 8, target(9.0, 11.0));
        let _ = m.on_heartbeat(AppId(0), 0, None);
        let _ = m.on_heartbeat(AppId(1), 0, None);
        // Drive both through many adaptations with oscillating rates.
        for step in 1..60u64 {
            let r0 = if step % 2 == 0 { 30.0 } else { 4.0 };
            let r1 = if step % 3 == 0 { 25.0 } else { 6.0 };
            let _ = m.on_heartbeat(AppId(0), step * 10, Some(r0));
            let _ = m.on_heartbeat(AppId(1), step * 10, Some(r1));
            // Invariant: core ownership disjoint, free lists consistent.
            for ci in 0..2 {
                for i in 0..4 {
                    let owners: usize = m.apps.iter().map(|a| usize::from(a.owned[ci][i])).sum();
                    assert!(owners <= 1, "cluster {ci} core {i} shared at step {step}");
                    assert_eq!(owners == 0, m.clusters[ci].free[i]);
                }
            }
        }
    }

    #[test]
    fn freq_decrease_freezes_cluster_until_counts_drain() {
        let mut m = manager(MpHarsConfig {
            freeze_heartbeats: 3,
            ..mp_hars_e()
        });
        m.register_app(AppId(0), 8, target(9.0, 11.0));
        let _ = m.on_heartbeat(AppId(0), 0, None);
        // Over-performing: the search will shrink, likely dropping freqs.
        let mut decision = None;
        for step in 1..20u64 {
            decision = m.on_heartbeat(AppId(0), step * 10, Some(40.0));
            if decision.is_some() {
                break;
            }
        }
        let d = decision.expect("over-performing app must adapt");
        let board = BoardSpec::odroid_xu3();
        let dropped_big = d.freqs[B.index()] < board.ladder(ClusterId::BIG).max();
        let dropped_little = d.freqs[L.index()] < board.ladder(ClusterId::LITTLE).max();
        if dropped_big {
            assert!(m.cluster_frozen(ClusterId::BIG));
        }
        if dropped_little {
            assert!(m.cluster_frozen(ClusterId::LITTLE));
        }
        assert!(dropped_big || dropped_little || d.affinities.len() == 8);
    }

    #[test]
    fn shared_cluster_blocks_decrease_when_other_underperforms() {
        let mut m = manager(mp_hars_e());
        m.register_app(AppId(0), 8, target(9.0, 11.0));
        m.register_app(AppId(1), 8, target(9.0, 11.0));
        let _ = m.on_heartbeat(AppId(0), 0, None);
        let _ = m.on_heartbeat(AppId(1), 0, None);
        // App 1 under-performs and both share both clusters (2B+2L each).
        let _ = m.on_heartbeat(AppId(1), 10, Some(2.0));
        // Now app 0 over-performs; it may not decrease shared freqs.
        let fb_before = m.cluster_freq(ClusterId::BIG);
        let fl_before = m.cluster_freq(ClusterId::LITTLE);
        if let Some(d) = m.on_heartbeat(AppId(0), 10, Some(40.0)) {
            assert!(
                d.freqs[B.index()] >= fb_before,
                "big freq decreased under interference"
            );
            assert!(
                d.freqs[L.index()] >= fl_before,
                "little freq decreased under interference"
            );
        }
    }

    #[test]
    fn quarantine_pins_freq_and_offline_drains_cluster() {
        let mut m = manager(mp_hars_e());
        m.register_app(AppId(0), 8, target(9.0, 11.0));
        let _ = m.on_heartbeat(AppId(0), 0, None);
        let s = m.app_state(AppId(0)).unwrap();
        assert!(s.cores(B) > 0, "initial alloc claims big cores");
        let board = BoardSpec::odroid_xu3();
        let floor = board.ladder(ClusterId::BIG).min();

        // Cap: frequency pinned at the floor, cores stay claimable.
        m.set_cluster_quarantine(ClusterId::BIG, QuarantineMode::Cap);
        assert_eq!(
            m.cluster_quarantine(ClusterId::BIG),
            Some(QuarantineMode::Cap)
        );
        assert_eq!(m.cluster_freq(ClusterId::BIG), floor);
        for step in 1..30u64 {
            if let Some(d) = m.on_heartbeat(AppId(0), step * 10, Some(2.0)) {
                assert_eq!(d.freqs[B.index()], floor, "capped freq must stay pinned");
            }
        }

        // Offline: searches must vacate the cluster.
        m.set_cluster_quarantine(ClusterId::BIG, QuarantineMode::Offline);
        for step in 30..60u64 {
            let _ = m.on_heartbeat(AppId(0), step * 10, Some(2.0));
        }
        let s = m.app_state(AppId(0)).unwrap();
        assert_eq!(s.cores(B), 0, "offline cluster must drain");
        assert_eq!(m.cluster_freq(ClusterId::BIG), floor);

        // Restore: the cluster is claimable and movable again.
        m.clear_cluster_quarantine(ClusterId::BIG);
        assert_eq!(m.cluster_quarantine(ClusterId::BIG), None);
        let mut regrew = false;
        for step in 60..120u64 {
            let _ = m.on_heartbeat(AppId(0), step * 10, Some(2.0));
            let s = m.app_state(AppId(0)).unwrap();
            if s.cores(B) > 0 || m.cluster_freq(ClusterId::BIG) > floor {
                regrew = true;
                break;
            }
        }
        assert!(regrew, "restored cluster must re-enter the search space");
    }

    #[test]
    fn initial_allocation_skips_offline_clusters() {
        let mut m = manager(mp_hars_e());
        m.set_cluster_quarantine(ClusterId::BIG, QuarantineMode::Offline);
        m.register_app(AppId(0), 8, target(9.0, 11.0));
        let _ = m.on_heartbeat(AppId(0), 0, None).expect("initial alloc");
        let s = m.app_state(AppId(0)).unwrap();
        assert_eq!(s.cores(B), 0, "offline cluster must not be claimed");
        assert!(s.cores(L) > 0);
    }

    #[test]
    fn unregister_frees_cores() {
        let mut m = manager(mp_hars_e());
        m.register_app(AppId(0), 8, target(9.0, 11.0));
        let _ = m.on_heartbeat(AppId(0), 0, None);
        assert!(m.clusters[0].free_count() < 4 || m.clusters[1].free_count() < 4);
        m.unregister_app(AppId(0));
        assert_eq!(m.clusters[0].free_count(), 4);
        assert_eq!(m.clusters[1].free_count(), 4);
        assert!(m.app_state(AppId(0)).is_none());
    }

    #[test]
    fn initial_allocation_never_exceeds_thread_count() {
        // On a 4-cluster 32-core board an 8-thread sole tenant used to
        // claim cluster_size/1 = 8 cores in EVERY cluster (32 total),
        // hogging the free lists; the trim keeps the 8 fastest cores.
        let board = BoardSpec::server_4c_32core();
        let perf = PerfEstimator::from_board(&board);
        let power = PowerEstimator::synthetic_for_board(&board);
        let mut m = MpHarsManager::new(&board, perf, power, mp_hars_e());
        m.register_app(AppId(0), 8, target(9.0, 11.0));
        let _ = m.on_heartbeat(AppId(0), 0, None).expect("initial alloc");
        let s = m.app_state(AppId(0)).unwrap();
        assert_eq!(s.total_cores(), 8, "claim is capped at the thread count");
        // Fastest clusters keep their share; the trim eats the slowest:
        // the full 4-core prime tier plus 4 perf cores survive.
        assert_eq!(s.cores(ClusterId(3)), 4, "prime tier kept");
        assert_eq!(s.cores(ClusterId(2)), 4, "perf tier keeps the rest");
        assert_eq!(s.cores(ClusterId(0)), 0, "slowest cluster trimmed");
        // A second tenant still finds free cores on every cluster.
        m.register_app(AppId(1), 8, target(9.0, 11.0));
        let _ = m.on_heartbeat(AppId(1), 0, None).expect("initial alloc");
        let s1 = m.app_state(AppId(1)).unwrap();
        assert_eq!(s1.total_cores(), 8);
    }

    #[test]
    fn default_config_keeps_overflow_gts_scheduled() {
        let mut m = manager(mp_hars_e());
        m.register_app(AppId(0), 8, target(9.0, 11.0));
        m.register_app(AppId(1), 8, target(9.0, 11.0));
        let _ = m.on_heartbeat(AppId(0), 0, None);
        let _ = m.on_heartbeat(AppId(1), 0, None);
        m.register_app(AppId(2), 8, target(9.0, 11.0));
        assert!(
            m.on_heartbeat(AppId(2), 0, None).is_none(),
            "paper behavior: no decision, threads roam under GTS"
        );
        assert!(!m.apps()[2].allocated);
    }

    #[test]
    fn apply_config_retunes_a_live_mp_manager() {
        let mut m = manager(mp_hars_e());
        m.register_app(AppId(0), 8, target(9.0, 11.0));
        let _ = m.on_heartbeat(AppId(0), 0, None);
        assert_eq!(m.core().config_version(), ConfigVersion(0));
        let v = m
            .apply_config(&ConfigDelta::none().with_policy(SearchPolicy::Incremental))
            .expect("valid delta");
        assert_eq!(v, ConfigVersion(1));
        let d = m.on_heartbeat(AppId(0), 10, Some(40.0)).expect("adapts");
        assert!(d.stats.explored < 20, "incremental after the hot swap");
    }

    #[test]
    fn rejected_delta_leaves_the_mp_manager_bit_identical() {
        let mut m = manager(mp_hars_e());
        m.register_app(AppId(0), 8, target(9.0, 11.0));
        let _ = m.on_heartbeat(AppId(0), 0, None);
        let before = m.clone();
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
        let mut before = before;
        assert_eq!(
            m.on_heartbeat(AppId(0), 10, Some(40.0)),
            before.on_heartbeat(AppId(0), 10, Some(40.0))
        );
    }

    #[test]
    fn learning_switch_drops_every_apps_pending_prediction() {
        let mut m = manager(MpHarsConfig {
            ratio_learning: RatioLearning::PerCluster,
            ..mp_hars_e()
        });
        m.register_app(AppId(0), 8, target(9.0, 11.0));
        let _ = m.on_heartbeat(AppId(0), 0, None);
        let _ = m.on_heartbeat(AppId(0), 10, Some(12.0));
        assert!(m.apps()[0].pending_prediction.is_some(), "armed");
        m.apply_config(&ConfigDelta::none().with_ratio_learning(RatioLearning::Off))
            .expect("valid delta");
        assert!(
            m.apps()[0].pending_prediction.is_none(),
            "regime change must drop armed predictions"
        );
    }

    #[test]
    fn unknown_app_heartbeat_is_ignored() {
        let mut m = manager(mp_hars_e());
        assert!(m.on_heartbeat(AppId(7), 0, Some(1.0)).is_none());
    }

    #[test]
    fn growth_limited_to_free_cores() {
        let mut m = manager(mp_hars_e());
        m.register_app(AppId(0), 8, target(9.0, 11.0));
        m.register_app(AppId(1), 8, target(9.0, 11.0));
        let _ = m.on_heartbeat(AppId(0), 0, None);
        let _ = m.on_heartbeat(AppId(1), 0, None);
        // Starve app 0 hard: it wants to grow but only free cores are
        // available (none: 2+2 each, 0 free).
        let _ = m.on_heartbeat(AppId(0), 10, Some(1.0));
        let s0 = m.app_state(AppId(0)).unwrap();
        assert!(s0.cores(B) <= 2 && s0.cores(L) <= 2, "stole cores: {s0}");
    }

    #[test]
    fn ratio_learning_refines_shared_estimator_within_clamps() {
        let mut off = manager(mp_hars_e());
        let mut learning = manager(MpHarsConfig {
            ratio_learning: RatioLearning::PerCluster,
            adapt_every: 1,
            ..mp_hars_e()
        });
        for m in [&mut off, &mut learning] {
            m.register_app(AppId(0), 8, target(9.0, 11.0));
            let _ = m.on_heartbeat(AppId(0), 0, None);
            // Oscillating rates force repeated adaptations, so armed
            // predictions get consumed against surprising observations.
            for step in 1..120u64 {
                let r = if step % 2 == 0 { 40.0 } else { 2.0 };
                let _ = m.on_heartbeat(AppId(0), step, Some(r));
            }
        }
        assert_eq!(
            off.core().perf.ratio_of(ClusterId::BIG),
            1.5,
            "Off never learns"
        );
        assert_eq!(off.core().learner().mean_recent_error(), None);
        let big = learning.core().perf.ratio_of(ClusterId::BIG);
        assert!(big.is_finite() && big > 0.0);
        // Default clamps around the nominal 1.5: [0.5, 4.5].
        assert!((0.5..=4.5).contains(&big), "big ratio {big} escaped clamps");
        assert_eq!(
            learning.core().perf.ratio_of(ClusterId::LITTLE),
            1.0,
            "the reference cluster is never learned"
        );
        assert!(learning.core().learner().mean_recent_error().is_some());
    }

    #[test]
    fn cross_app_freq_change_drops_other_apps_pending_predictions() {
        // Regression: app A arms a rate prediction at its adaptation;
        // before A consumes it, app B's adaptation changes a shared
        // cluster frequency. A's prediction assumed the old frequency —
        // it must be dropped, or the frequency effect is learned as
        // ratio error.
        let mut m = manager(MpHarsConfig {
            ratio_learning: RatioLearning::PerCluster,
            // No freezing: A's own shrink must not block B's
            // frequency decrease one heartbeat later.
            freeze_heartbeats: 0,
            ..mp_hars_e()
        });
        m.register_app(AppId(0), 8, target(9.0, 11.0));
        m.register_app(AppId(1), 8, target(9.0, 11.0));
        let _ = m.on_heartbeat(AppId(0), 0, None);
        let _ = m.on_heartbeat(AppId(1), 0, None);
        // A over-performs mildly and adapts, arming its prediction
        // while leaving the shared frequencies room to drop further.
        let da = m.on_heartbeat(AppId(0), 10, Some(12.0));
        assert!(da.is_some(), "A must adapt");
        assert!(
            m.apps()[0].pending_prediction.is_some(),
            "A's adaptation must arm a prediction"
        );
        // B over-performs too (and A's last rate is over-performing, so
        // Table 4.3 allows a shared-frequency decrease).
        let freqs_before: Vec<FreqKhz> = m.clusters().iter().map(|c| c.freq).collect();
        let db = m.on_heartbeat(AppId(1), 10, Some(40.0)).expect("B adapts");
        let changed: Vec<usize> = (0..freqs_before.len())
            .filter(|&ci| db.freqs[ci] != freqs_before[ci])
            .collect();
        assert!(
            changed
                .iter()
                .any(|&ci| m.apps()[0].uses_cluster(ClusterId(ci))),
            "scenario must change a frequency A depends on (got {changed:?})"
        );
        assert!(
            m.apps()[0].pending_prediction.is_none(),
            "A's stale prediction must be dropped by B's frequency change"
        );
        // B's own prediction was armed against the new frequencies and
        // must survive its own apply_state.
        assert!(m.apps()[1].pending_prediction.is_some());
    }

    #[test]
    fn tri_cluster_manager_partitions_three_ways() {
        let board = BoardSpec::dynamiq_1p_3m_4l();
        let perf = PerfEstimator::from_board(&board);
        let power = PowerEstimator::from_clusters(
            board
                .cluster_ids()
                .map(|c| {
                    let ladder = board.ladder(c).clone();
                    let table: Vec<LinearCoeff> = (0..ladder.len())
                        .map(|i| LinearCoeff {
                            alpha: 0.1 * (c.index() + 1) as f64 + 0.02 * i as f64,
                            beta: 0.1,
                        })
                        .collect();
                    (ladder, table)
                })
                .collect(),
        );
        let mut m = MpHarsManager::new(&board, perf, power, mp_hars_e());
        m.register_app(AppId(0), 4, target(9.0, 11.0));
        m.register_app(AppId(1), 4, target(9.0, 11.0));
        let d0 = m.on_heartbeat(AppId(0), 0, None).expect("initial alloc");
        let d1 = m.on_heartbeat(AppId(1), 0, None).expect("initial alloc");
        assert_eq!(d0.freqs.len(), 3);
        assert_eq!(d1.freqs.len(), 3);
        // Drive a few adaptations and keep the disjointness invariant.
        for step in 1..30u64 {
            let r0 = if step % 2 == 0 { 30.0 } else { 4.0 };
            let _ = m.on_heartbeat(AppId(0), step * 10, Some(r0));
            let _ = m.on_heartbeat(AppId(1), step * 10, Some(12.0 - r0 / 10.0));
            for ci in 0..3 {
                for i in 0..m.clusters[ci].len() {
                    let owners: usize = m.apps.iter().map(|a| usize::from(a.owned[ci][i])).sum();
                    assert!(owners <= 1);
                    assert_eq!(owners == 0, m.clusters[ci].free[i]);
                }
            }
        }
    }
}
