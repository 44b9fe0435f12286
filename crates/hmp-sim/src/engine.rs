//! The simulation engine: an exact discrete-event executor for
//! multithreaded applications on an N-cluster heterogeneous board.
//!
//! Between events the set of runnable threads per core is constant, so
//! CPU shares, power draw and completion times are all closed-form; the
//! engine advances directly to the earliest next event (work-item
//! completion, scheduler tick, sensor sample, deferred action, sleep
//! wake-up or deadline) with no quantization error.

use std::collections::{BTreeMap, VecDeque};

use heartbeats::{AppId, HeartbeatMonitor, HeartbeatRegistry, PerfTarget};

use crate::app::{AppState, ModelState};
use crate::board::{BoardSpec, ClusterId, MAX_CLUSTERS};
use crate::clock::{completes_within, completion_ns, ns_to_secs};
use crate::cpuset::{CoreId, CpuSet};
use crate::energy::EnergyMeter;
use crate::error::SimError;
use crate::events::{EventHeap, EventKey};
use crate::fault::{FaultKind, FaultNotice, FaultPlan};
use crate::freq::FreqKhz;
use crate::power::cluster_power;
use crate::sched::gts::{gts_tick, update_loads};
use crate::sched::{dequeue_thread, place_thread, CoreState, GtsConfig};
use crate::sensor::PowerSensor;
use crate::spec::{AppSpec, ParallelismModel};
use crate::thread::{BlockReason, RunState, ThreadState};
use crate::trace::{TraceEvent, TraceLog};

/// Work remaining below this many units counts as complete.
const WORK_EPS: f64 = 1e-9;

/// How the engine finds its next event (see [`Engine`]'s time-
/// advancement methods). Both modes produce bit-identical simulation
/// timelines — the equivalence proptests in
/// `tests/event_equivalence.rs` pin it — so `FixedStep` exists as the
/// reference stepper the event-heap hot path is verified against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Discrete-event scheduling (the default): control events
    /// (actions, ticks, sensor samples, sleep wake-ups) come from a
    /// lazily-invalidated min-heap, per-core thread speeds are
    /// memoized under run-queue/frequency epochs, fully-idle spans
    /// are fast-forwarded boundary-by-boundary at O(1) cost per
    /// boundary instead of O(threads × cores) per step, and busy spans
    /// of pure GTS ticks (no completion, action, sample, fault or
    /// wake-up in between) are replayed tick by tick in one loop —
    /// with a tick reduced to its load update while every runnable
    /// thread is pinned to its core, as HARS and MP-HARS pin them.
    EventHeap,
    /// The pre-heap reference stepper: every step rescans the action
    /// map, every thread and every run queue for the next event, and
    /// every tick runs the full GTS migration, balance and idle-pull
    /// passes.
    FixedStep,
}

/// Engine-wide configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// GTS scheduler parameters.
    pub gts: GtsConfig,
    /// Relative power-sensor noise (σ of a multiplicative Gaussian).
    pub sensor_noise: f64,
    /// Seed for all engine randomness (sensor noise).
    pub seed: u64,
    /// Heartbeat rate-window length (heartbeats).
    pub hb_window: usize,
    /// Event-loop implementation (default [`ExecMode::EventHeap`]).
    pub exec: ExecMode,
    /// In [`ExecMode::EventHeap`], count power-sensor samples that
    /// fall inside fully-idle spans instead of materializing them
    /// (default `true`). Energy accounting is unaffected (the meter is
    /// exact and independent of the sensor); only the stored noisy
    /// sample stream thins out — [`crate::PowerSensor::total_samples`]
    /// still reports every scheduled instant. Disable when the sample
    /// *values* matter, as the calibration microbenchmark does.
    pub coalesce_idle_sensor: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            gts: GtsConfig::default(),
            sensor_noise: 0.01,
            seed: 0x4841_5253, // "HARS"
            hb_window: 20,
            exec: ExecMode::EventHeap,
            coalesce_idle_sensor: true,
        }
    }
}

/// A deferred state-change request, applied when the virtual clock
/// reaches its scheduled time. This is how runtime managers model their
/// own decision latency.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Set a cluster's DVFS frequency.
    SetClusterFreq {
        /// Target cluster.
        cluster: ClusterId,
        /// New operating point (must be on the cluster's ladder).
        freq: FreqKhz,
    },
    /// Set one thread's affinity mask (`sched_setaffinity`).
    SetThreadAffinity {
        /// Owning application.
        app: AppId,
        /// Thread index within the application.
        thread: usize,
        /// New mask (must be non-empty and on-board).
        affinity: CpuSet,
    },
}

/// A heartbeat that occurred during simulation, returned to the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatEvent {
    /// Emitting application.
    pub app: AppId,
    /// Heartbeat index (0-based).
    pub index: u64,
    /// Emission time (ns).
    pub time_ns: u64,
}

/// The heterogeneous-board simulation engine (see the crate-level docs
/// for the execution model).
#[derive(Debug)]
pub struct Engine {
    board: BoardSpec,
    cfg: EngineConfig,
    now_ns: u64,
    /// Per-cluster DVFS operating points, indexed by cluster.
    freqs: Vec<FreqKhz>,
    cores: Vec<CoreState>,
    threads: Vec<ThreadState>,
    apps: Vec<AppState>,
    registry: HeartbeatRegistry,
    energy: EnergyMeter,
    sensor: PowerSensor,
    next_tick_ns: u64,
    actions: BTreeMap<u64, Vec<Action>>,
    events: VecDeque<HeartbeatEvent>,
    /// Pipeline threads' current item ids (parallel to `threads`).
    cur_items: Vec<Option<u64>>,
    /// Optional event trace (disabled by default).
    trace: TraceLog,
    /// Control-event wake-up heap ([`ExecMode::EventHeap`] only; see
    /// `crate::events` for the lazy-deletion protocol).
    event_heap: EventHeap,
    /// Per-cluster frequency-change epochs (stamp for `speed_cache`).
    freq_epochs: Vec<u64>,
    /// Per-core memoized thread speeds, parallel to each core's run
    /// queue; valid while the `(rq_epoch, freq_epoch)` stamps match.
    speed_cache: Vec<SpeedCache>,
    /// Installed fault schedule (empty and inert by default; see
    /// [`Engine::install_faults`]).
    faults: FaultPlan,
    /// Applied faults not yet drained by the driving runtime.
    fault_notices: Vec<FaultNotice>,
    /// Board-death instant, once a [`FaultKind::BoardFail`] applied.
    failed_at: Option<u64>,
    /// Per-cluster thermal-cap expiry (0 = unquarantined), indexed by
    /// cluster. While `now < expiry`, frequency requests clamp to the
    /// cluster's ladder floor.
    quarantined_until: Vec<u64>,
    /// Sensor dropout-window end (0 = none).
    sensor_dropout_until: u64,
    /// Sensor stuck-at-window end (0 = none).
    sensor_stuck_until: u64,
    /// Heartbeat stall-window end (0 = none).
    hb_stall_until: u64,
    /// Heartbeats whose emission was swallowed by a stall window.
    stalled_heartbeats: u64,
    /// GTS ticks applied inside [`Engine::tick_fast_forward`] spans.
    ticks_fast_forwarded: u64,
}

/// Memoized per-core thread speeds (parallel to the core's run queue),
/// stamped with the epochs they were computed under.
#[derive(Debug, Clone, Default)]
struct SpeedCache {
    rq_epoch: u64,
    freq_epoch: u64,
    speeds: Vec<f64>,
}

impl Engine {
    /// Creates an engine for `board` with the given configuration.
    ///
    /// Clusters start at their **maximum** frequencies (the Linux
    /// performance governor state the paper's baseline runs under).
    pub fn new(board: BoardSpec, cfg: EngineConfig) -> Self {
        cfg.gts.assert_valid();
        board.assert_valid();
        let cores = (0..board.n_cores())
            .map(|i| CoreState::new(CoreId(i), board.cluster_of(CoreId(i))))
            .collect();
        let freqs: Vec<FreqKhz> = board.cluster_ids().map(|c| board.ladder(c).max()).collect();
        let sensor = PowerSensor::new(board.sensor_period_ns, cfg.sensor_noise, cfg.seed);
        let next_tick_ns = cfg.gts.tick_ns;
        let registry = HeartbeatRegistry::new(cfg.hb_window);
        let n_clusters = board.n_clusters();
        let n_cores = board.n_cores();
        let mut engine = Self {
            board,
            cfg,
            now_ns: 0,
            freqs,
            cores,
            threads: Vec::new(),
            apps: Vec::new(),
            registry,
            energy: EnergyMeter::new(),
            sensor,
            next_tick_ns,
            actions: BTreeMap::new(),
            events: VecDeque::new(),
            cur_items: Vec::new(),
            trace: TraceLog::disabled(),
            event_heap: EventHeap::new(),
            freq_epochs: vec![0; n_clusters],
            speed_cache: vec![SpeedCache::default(); n_cores],
            faults: FaultPlan::empty(),
            fault_notices: Vec::new(),
            failed_at: None,
            quarantined_until: vec![0; n_clusters],
            sensor_dropout_until: 0,
            sensor_stuck_until: 0,
            hb_stall_until: 0,
            stalled_heartbeats: 0,
            ticks_fast_forwarded: 0,
        };
        let first_tick = engine.next_tick_ns;
        let first_sample = engine.sensor.next_sample_ns();
        engine.push_event(first_tick, EventKey::Tick);
        engine.push_event(first_sample, EventKey::Sensor);
        engine
    }

    /// Queues a control-event wake-up hint (event-heap mode only; the
    /// fixed-step reference never consults the heap, so feeding it
    /// would only grow memory).
    fn push_event(&mut self, due_ns: u64, key: EventKey) {
        if self.cfg.exec == ExecMode::EventHeap {
            self.event_heap.push(due_ns, key);
        }
    }

    /// Enables event tracing, retaining up to `capacity` events (see
    /// [`TraceLog`]). Call before running; tracing an already-running
    /// engine only captures events from this point on.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = TraceLog::enabled(capacity);
    }

    /// The event trace (empty unless [`Engine::enable_trace`] was called).
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// The board this engine simulates.
    pub fn board(&self) -> &BoardSpec {
        &self.board
    }

    /// Current virtual time (ns).
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Current frequency of `cluster`.
    pub fn cluster_freq(&self, cluster: ClusterId) -> FreqKhz {
        self.freqs[cluster.index()]
    }

    /// Current frequencies of every cluster, indexed by cluster.
    pub fn cluster_freqs(&self) -> &[FreqKhz] {
        &self.freqs
    }

    /// The exact energy meter.
    pub fn energy(&self) -> &EnergyMeter {
        &self.energy
    }

    /// The sampling power sensor.
    pub fn sensor(&self) -> &PowerSensor {
        &self.sensor
    }

    /// Total busy time of one core (ns).
    pub fn core_busy_ns(&self, core: CoreId) -> u64 {
        self.cores[core.0].busy_ns
    }

    /// GTS ticks the event-heap engine replayed inside busy
    /// fast-forward spans (always 0 under [`ExecMode::FixedStep`]).
    /// Reporting only, like [`PowerSensor::coalesced_samples`]: the
    /// simulated timeline is identical either way, so the count sits
    /// outside every fingerprint.
    pub fn ticks_fast_forwarded(&self) -> u64 {
        self.ticks_fast_forwarded
    }

    // ------------------------------------------------------------------
    // Application management
    // ------------------------------------------------------------------

    /// Instantiates an application. Its threads start immediately with
    /// affinity over all cores (default Linux behaviour).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidSpec`] when `spec` fails validation.
    pub fn add_app(&mut self, spec: AppSpec) -> Result<AppId, SimError> {
        spec.validate()?;
        let hb_id = self.registry.register(None);
        debug_assert_eq!(hb_id.0 as usize, self.apps.len(), "app ids track app order");
        let app_idx = self.apps.len();
        let mut app = AppState::new(spec.clone(), hb_id);
        let all = self.board.all_cores();
        for local in 0..spec.threads {
            let tid = self.threads.len();
            let stage = spec.stage_of_thread(local);
            self.threads.push(ThreadState::new(app_idx, stage, all));
            self.cur_items.push(None);
            app.threads.push(tid);
        }
        self.apps.push(app);
        self.start_app(app_idx);
        Ok(hb_id)
    }

    /// Sets the performance target the app's monitor classifies against.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownApp`] for an unregistered id.
    pub fn set_perf_target(&mut self, app: AppId, target: PerfTarget) -> Result<(), SimError> {
        self.registry
            .monitor_mut(app)
            .map_err(|_| SimError::UnknownApp(app.0))?
            .set_target(target);
        Ok(())
    }

    /// The heartbeat monitor of `app`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownApp`] for an unregistered id.
    pub fn monitor(&self, app: AppId) -> Result<&HeartbeatMonitor, SimError> {
        self.registry
            .monitor(app)
            .map_err(|_| SimError::UnknownApp(app.0))
    }

    /// `true` once `app` has emitted its configured heartbeat budget.
    pub fn app_done(&self, app: AppId) -> bool {
        self.app_ref(app).map(|a| a.done).unwrap_or(false)
    }

    /// `true` when every application is done.
    pub fn all_done(&self) -> bool {
        !self.apps.is_empty() && self.apps.iter().all(|a| a.done)
    }

    /// Heartbeats emitted by `app` so far.
    pub fn app_heartbeats(&self, app: AppId) -> u64 {
        self.app_ref(app).map(|a| a.heartbeats).unwrap_or(0)
    }

    /// Completed units (data-parallel) or items (pipeline).
    pub fn app_units_done(&self, app: AppId) -> u64 {
        self.app_ref(app).map(|a| a.units_done).unwrap_or(0)
    }

    /// Number of threads of `app`.
    pub fn app_threads(&self, app: AppId) -> usize {
        self.app_ref(app).map(|a| a.threads.len()).unwrap_or(0)
    }

    /// The core a thread currently sits on (its last core while blocked).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownApp`] / [`SimError::UnknownThread`].
    pub fn thread_core(&self, app: AppId, thread: usize) -> Result<Option<CoreId>, SimError> {
        Ok(self.threads[self.thread_id(app, thread)?].core)
    }

    /// A thread's current GTS load estimate.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownApp`] / [`SimError::UnknownThread`].
    pub fn thread_load(&self, app: AppId, thread: usize) -> Result<f64, SimError> {
        Ok(self.threads[self.thread_id(app, thread)?].load)
    }

    fn app_ref(&self, app: AppId) -> Option<&AppState> {
        self.apps.get(app.0 as usize)
    }

    fn thread_id(&self, app: AppId, thread: usize) -> Result<usize, SimError> {
        let a = self.app_ref(app).ok_or(SimError::UnknownApp(app.0))?;
        a.threads
            .get(thread)
            .copied()
            .ok_or(SimError::UnknownThread { app: app.0, thread })
    }

    // ------------------------------------------------------------------
    // Control surface (what HARS drives)
    // ------------------------------------------------------------------

    /// Immediately sets a cluster frequency.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidFrequency`] when `freq` is not an
    /// operating point of the cluster's ladder.
    pub fn set_cluster_freq(&mut self, cluster: ClusterId, freq: FreqKhz) -> Result<(), SimError> {
        if !self.board.ladder(cluster).contains(freq) {
            return Err(SimError::InvalidFrequency {
                freq,
                cluster: self.board.cluster_name(cluster).to_string(),
            });
        }
        let freq = self.clamp_quarantined(cluster, freq);
        let from = self.freqs[cluster.index()];
        if from != freq {
            self.trace.record(TraceEvent::FreqChange {
                time_ns: self.now_ns,
                cluster,
                from,
                to: freq,
            });
            self.freq_epochs[cluster.index()] += 1;
        }
        self.freqs[cluster.index()] = freq;
        Ok(())
    }

    /// Immediately sets one thread's affinity mask, migrating it if its
    /// current core is no longer allowed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyCpuSet`], [`SimError::CoreOutOfRange`],
    /// [`SimError::UnknownApp`] or [`SimError::UnknownThread`].
    pub fn set_thread_affinity(
        &mut self,
        app: AppId,
        thread: usize,
        affinity: CpuSet,
    ) -> Result<(), SimError> {
        self.validate_cpuset(affinity)?;
        let tid = self.thread_id(app, thread)?;
        self.threads[tid].affinity = affinity;
        let needs_move = self.threads[tid]
            .core
            .map(|c| !affinity.contains(c))
            .unwrap_or(false);
        if needs_move {
            if self.threads[tid].is_runnable() {
                dequeue_thread(tid, &self.threads, &mut self.cores);
                self.threads[tid].core = None;
                place_thread(tid, &mut self.threads, &mut self.cores);
            } else {
                self.threads[tid].core = None; // re-placed at wake-up
            }
        }
        Ok(())
    }

    /// Schedules `action` to apply when the clock reaches `at_ns`
    /// (clamped to "now" if already past). Used by runtime managers to
    /// model their decision latency.
    ///
    /// # Errors
    ///
    /// Validates the action's arguments immediately (same errors as the
    /// direct setters) so a rejected action is reported at schedule time.
    pub fn schedule_action(&mut self, at_ns: u64, action: Action) -> Result<(), SimError> {
        match &action {
            Action::SetClusterFreq { cluster, freq } => {
                if !self.board.ladder(*cluster).contains(*freq) {
                    return Err(SimError::InvalidFrequency {
                        freq: *freq,
                        cluster: self.board.cluster_name(*cluster).to_string(),
                    });
                }
            }
            Action::SetThreadAffinity {
                app,
                thread,
                affinity,
            } => {
                self.validate_cpuset(*affinity)?;
                self.thread_id(*app, *thread)?;
            }
        }
        let due = at_ns.max(self.now_ns);
        self.actions.entry(due).or_default().push(action);
        self.push_event(due, EventKey::Action);
        Ok(())
    }

    fn validate_cpuset(&self, set: CpuSet) -> Result<(), SimError> {
        if set.is_empty() {
            return Err(SimError::EmptyCpuSet);
        }
        if let Some(worst) = set.iter().max_by_key(|c| c.0) {
            if worst.0 >= self.board.n_cores() {
                return Err(SimError::CoreOutOfRange {
                    core: worst,
                    ncores: self.board.n_cores(),
                });
            }
        }
        Ok(())
    }

    fn apply_action(&mut self, action: Action) {
        match action {
            Action::SetClusterFreq { cluster, freq } => {
                // Validated at schedule time.
                let freq = self.clamp_quarantined(cluster, freq);
                let from = self.freqs[cluster.index()];
                if from != freq {
                    self.trace.record(TraceEvent::FreqChange {
                        time_ns: self.now_ns,
                        cluster,
                        from,
                        to: freq,
                    });
                    self.freq_epochs[cluster.index()] += 1;
                }
                self.freqs[cluster.index()] = freq;
            }
            Action::SetThreadAffinity {
                app,
                thread,
                affinity,
            } => {
                // Validated at schedule time; the thread cannot vanish.
                let _ = self.set_thread_affinity(app, thread, affinity);
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault plane (see crate::fault)
    // ------------------------------------------------------------------

    /// Installs a fault schedule. Onsets become first-class engine
    /// events: both executor modes stop exactly at each onset instant
    /// and apply the fault in the engine's canonical due-event order.
    /// Call before running; an empty plan is a no-op.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        for at_ns in plan.onsets() {
            self.push_event(at_ns, EventKey::Fault);
        }
        self.faults = plan;
    }

    /// The instant a [`FaultKind::BoardFail`] was applied, if any.
    pub fn board_failed(&self) -> Option<u64> {
        self.failed_at
    }

    /// `true` while `cluster` is thermally quarantined (frequency
    /// clamped to its ladder floor).
    pub fn cluster_quarantined(&self, cluster: ClusterId) -> bool {
        self.now_ns < self.quarantined_until[cluster.index()]
    }

    /// `true` while an injected sensor fault (dropout or stuck-at)
    /// window is active.
    pub fn sensor_faulted(&self) -> bool {
        self.now_ns < self.sensor_dropout_until || self.now_ns < self.sensor_stuck_until
    }

    /// `true` while a heartbeat-stall window is active (emissions do
    /// not reach the monitors).
    pub fn heartbeats_stalled(&self) -> bool {
        self.now_ns < self.hb_stall_until
    }

    /// Heartbeats whose emission a stall window swallowed.
    pub fn stalled_heartbeats(&self) -> u64 {
        self.stalled_heartbeats
    }

    /// Drains the applied-fault notices accumulated since the last
    /// drain, oldest first, so the driving runtime can react and
    /// telemeter them.
    pub fn drain_fault_notices(&mut self) -> Vec<FaultNotice> {
        std::mem::take(&mut self.fault_notices)
    }

    /// The ladder floor a quarantined cluster is capped to.
    fn ladder_floor(&self, cluster: ClusterId) -> FreqKhz {
        self.board.ladder(cluster).min()
    }

    /// While a cluster is quarantined, frequency requests clamp to its
    /// floor (a firmware thermal governor outranks the runtime).
    fn clamp_quarantined(&self, cluster: ClusterId, freq: FreqKhz) -> FreqKhz {
        if self.now_ns < self.quarantined_until[cluster.index()] {
            self.ladder_floor(cluster).min(freq)
        } else {
            freq
        }
    }

    /// Applies one due fault (called from [`Engine::process_due`] so
    /// both executor modes apply it at the identical instant and in the
    /// identical order relative to other same-instant events).
    fn apply_fault(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::BoardFail => {
                if self.failed_at.is_none() {
                    self.failed_at = Some(self.now_ns);
                    // Every thread stops for good; apps stay not-done
                    // so their budgets read as incomplete.
                    for tid in 0..self.threads.len() {
                        dequeue_thread(tid, &self.threads, &mut self.cores);
                        self.threads[tid].run = RunState::Finished;
                        self.threads[tid].work_left = 0.0;
                    }
                }
            }
            FaultKind::ClusterCap { cluster, until_ns }
            | FaultKind::ClusterOffline { cluster, until_ns } => {
                let i = cluster.index();
                self.quarantined_until[i] = self.quarantined_until[i].max(until_ns);
                let floor = self.ladder_floor(cluster);
                if self.freqs[i] != floor {
                    // Validated by construction: the floor is on the
                    // ladder.
                    let _ = self.set_cluster_freq(cluster, floor);
                }
                if matches!(kind, FaultKind::ClusterOffline { .. }) {
                    self.evacuate_cluster(cluster);
                }
            }
            FaultKind::SensorDropout { until_ns } => {
                self.sensor_dropout_until = self.sensor_dropout_until.max(until_ns);
            }
            FaultKind::SensorStuck { until_ns } => {
                self.sensor_stuck_until = self.sensor_stuck_until.max(until_ns);
            }
            FaultKind::HeartbeatStall { until_ns } => {
                self.hb_stall_until = self.hb_stall_until.max(until_ns);
            }
        }
        self.fault_notices.push(FaultNotice {
            t_ns: self.now_ns,
            kind,
        });
    }

    /// Masks an offline cluster's cores out of every thread's affinity
    /// (threads with nowhere else to go keep their mask — a
    /// single-cluster board cannot evacuate).
    fn evacuate_cluster(&mut self, cluster: ClusterId) {
        let offline: CpuSet = self
            .board
            .all_cores()
            .iter()
            .filter(|&c| self.board.cluster_of(c) == cluster)
            .collect();
        let fallback: CpuSet = self
            .board
            .all_cores()
            .iter()
            .filter(|&c| self.board.cluster_of(c) != cluster)
            .collect();
        if fallback.is_empty() {
            return;
        }
        for tid in 0..self.threads.len() {
            let cur = self.threads[tid].affinity;
            let masked = cur.difference(offline);
            let new = if masked.is_empty() { fallback } else { masked };
            if new == cur {
                continue;
            }
            self.threads[tid].affinity = new;
            let needs_move = self.threads[tid]
                .core
                .map(|c| !new.contains(c))
                .unwrap_or(false);
            if needs_move {
                if self.threads[tid].is_runnable() {
                    dequeue_thread(tid, &self.threads, &mut self.cores);
                    self.threads[tid].core = None;
                    place_thread(tid, &mut self.threads, &mut self.cores);
                } else {
                    self.threads[tid].core = None; // re-placed at wake-up
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Time advancement
    // ------------------------------------------------------------------

    /// Runs until the next heartbeat from any application, or until
    /// `deadline_ns`. Returns `None` at the deadline or when every
    /// application has finished.
    pub fn next_heartbeat(&mut self, deadline_ns: u64) -> Option<HeartbeatEvent> {
        loop {
            if let Some(e) = self.events.pop_front() {
                return Some(e);
            }
            if self.now_ns >= deadline_ns || self.all_done() {
                return None;
            }
            self.step(deadline_ns);
        }
    }

    /// Runs the clock to exactly `deadline_ns`, buffering heartbeats for
    /// later [`Engine::next_heartbeat`] calls / [`Engine::drain_heartbeats`].
    pub fn run_until(&mut self, deadline_ns: u64) {
        while self.now_ns < deadline_ns {
            self.step(deadline_ns);
        }
        self.process_due();
    }

    /// Like [`Engine::run_until`] but stops as soon as every application
    /// has finished its heartbeat budget — so energy/time accounting
    /// covers only the active run, without diluting average power with
    /// idle tail time.
    pub fn run_while_active(&mut self, deadline_ns: u64) {
        while self.now_ns < deadline_ns && !self.all_done() {
            self.step(deadline_ns);
        }
        self.process_due();
    }

    /// Removes and returns all buffered heartbeat events.
    pub fn drain_heartbeats(&mut self) -> Vec<HeartbeatEvent> {
        self.events.drain(..).collect()
    }

    /// One engine step: process everything due now, then advance to the
    /// next event (bounded by `deadline_ns`).
    fn step(&mut self, deadline_ns: u64) {
        self.process_due();
        if self.now_ns >= deadline_ns {
            return;
        }
        match self.cfg.exec {
            ExecMode::FixedStep => {
                let dt = self.next_event_dt(deadline_ns);
                if dt > 0 {
                    self.advance(dt);
                }
            }
            ExecMode::EventHeap => {
                if self.cores.iter().all(|c| c.runnable.is_empty()) {
                    // Zero runnable threads: jump the whole lull.
                    self.idle_fast_forward(deadline_ns);
                } else {
                    let dt = self.next_event_dt_heap(deadline_ns);
                    if self.now_ns + dt == self.next_tick_ns {
                        self.tick_fast_forward(dt, deadline_ns);
                    } else if dt > 0 {
                        self.advance(dt);
                    }
                }
            }
        }
        self.process_due();
    }

    /// True per-thread execution speed in work-units/sec on its current
    /// core at current frequencies (1.0 "seconds/sec" for time-based
    /// duty-cycle threads).
    ///
    /// The application's [`crate::SpeedProfile::big_little_ratio`] is
    /// its true per-core ratio on the board's *fastest* cluster; a
    /// middle cluster's ratio is interpolated between 1.0 and that
    /// value in proportion to the board's nominal ratios, so on a
    /// two-cluster board this reduces exactly to the paper's
    /// `R(Little) = 1, R(Big) = big_little_ratio`.
    fn speed_of(&self, tid: usize) -> f64 {
        let t = &self.threads[tid];
        if t.time_based {
            return 1.0;
        }
        let core = t.core.expect("runnable thread must be placed");
        let cluster = self.board.cluster_of(core);
        let f = self.freqs[cluster.index()];
        let profile = self.apps[t.app].spec.speed;
        let nominal = self.board.perf_ratio(cluster);
        let rmax = self.board.max_perf_ratio();
        let ratio = if nominal <= 1.0 {
            1.0
        } else if nominal >= rmax {
            profile.big_little_ratio
        } else {
            1.0 + (profile.big_little_ratio - 1.0) * (nominal - 1.0) / (rmax - 1.0)
        };
        let fr = f.ratio_to(self.board.base_freq);
        self.board.units_per_sec
            * ratio
            * (profile.mem_bound_frac + (1.0 - profile.mem_bound_frac) * fr)
    }

    /// Time (ns) until the earliest next event, all future event times
    /// being strictly after `now` (guaranteed by `process_due`).
    ///
    /// This is the [`ExecMode::FixedStep`] reference: a full rescan of
    /// the action map, every thread's sleep state and every run queue
    /// on every step. [`Engine::next_event_dt_heap`] must return the
    /// identical value from the heap + speed caches.
    fn next_event_dt(&self, deadline_ns: u64) -> u64 {
        let mut next = deadline_ns
            .min(self.next_tick_ns)
            .min(self.sensor.next_sample_ns());
        if let Some(t) = self.faults.next_due() {
            next = next.min(t);
        }
        if let Some((&t, _)) = self.actions.first_key_value() {
            next = next.min(t);
        }
        for t in &self.threads {
            if let RunState::Blocked(BlockReason::Sleep { until_ns }) = t.run {
                next = next.min(until_ns);
            }
        }
        let mut dt = next.saturating_sub(self.now_ns);
        for core in &self.cores {
            let k = core.nr_running();
            if k == 0 {
                continue;
            }
            for &tid in &core.runnable {
                let speed = self.speed_of(tid);
                let secs = self.threads[tid].work_left * k as f64 / speed;
                dt = dt.min(completion_ns(secs));
            }
        }
        dt
    }

    /// Event-heap variant of [`Engine::next_event_dt`]: the earliest
    /// control event comes from one validated heap peek, and per-core
    /// completion deltas reuse the epoch-stamped speed caches instead
    /// of recomputing `speed_of` per thread per step. The completion
    /// arithmetic is the reference expression verbatim (same memoized
    /// speed bits, same [`completion_ns`] rounding), so both modes
    /// step to identical instants.
    fn next_event_dt_heap(&mut self, deadline_ns: u64) -> u64 {
        let mut next = deadline_ns;
        if let Some(due) = self.peek_control_due() {
            next = next.min(due);
        }
        let mut dt = next.saturating_sub(self.now_ns);
        for ci in 0..self.cores.len() {
            let k = self.cores[ci].nr_running();
            if k == 0 {
                continue;
            }
            self.refresh_speed_cache(ci);
            for i in 0..k {
                let tid = self.cores[ci].runnable[i];
                let speed = self.speed_cache[ci].speeds[i];
                let secs = self.threads[tid].work_left * k as f64 / speed;
                dt = dt.min(completion_ns(secs));
            }
        }
        dt
    }

    /// The due time of the earliest still-valid control event, lazily
    /// dropping stale heap entries (superseded tick/sensor schedules,
    /// fired actions, woken or finished sleepers).
    fn peek_control_due(&mut self) -> Option<u64> {
        loop {
            let (due, key) = self.event_heap.peek()?;
            let valid = match key {
                EventKey::Action => self.actions.contains_key(&due),
                EventKey::Tick => due == self.next_tick_ns,
                EventKey::Sensor => due == self.sensor.next_sample_ns(),
                EventKey::Sleep { tid } => matches!(
                    self.threads.get(tid).map(|t| t.run),
                    Some(RunState::Blocked(BlockReason::Sleep { until_ns })) if until_ns == due
                ),
                EventKey::Fault => self.faults.next_due() == Some(due),
            };
            if valid {
                return Some(due);
            }
            self.event_heap.pop();
        }
    }

    /// Rebuilds one core's memoized speed vector iff its run queue or
    /// its cluster's frequency changed since the last computation.
    fn refresh_speed_cache(&mut self, ci: usize) {
        let rq_epoch = self.cores[ci].rq_epoch;
        let freq_epoch = self.freq_epochs[self.cores[ci].cluster.index()];
        let cache = &self.speed_cache[ci];
        if cache.rq_epoch == rq_epoch && cache.freq_epoch == freq_epoch {
            return;
        }
        let mut speeds = std::mem::take(&mut self.speed_cache[ci].speeds);
        speeds.clear();
        for i in 0..self.cores[ci].runnable.len() {
            let tid = self.cores[ci].runnable[i];
            speeds.push(self.speed_of(tid));
        }
        let cache = &mut self.speed_cache[ci];
        cache.speeds = speeds;
        cache.rq_epoch = rq_epoch;
        cache.freq_epoch = freq_epoch;
    }

    /// Fast-forwards a fully-idle span: with zero runnable threads the
    /// only state that evolves is the tick/sensor schedules and the
    /// energy clock, so the engine jumps boundary-to-boundary at a few
    /// arithmetic ops each — no run-queue scans, no allocations — until
    /// the first instant thread state can change again (a deferred
    /// action, a sleep wake-up, or the caller's deadline).
    ///
    /// Bit-identity: the boundary sequence (every tick and sensor
    /// instant) and its energy-integration op sequence are exactly the
    /// reference stepper's; the span's constant idle powers are
    /// hoisted ([`EnergyMeter::accumulate_idle`]). The span stops *at*
    /// the stopper instant without processing it, so `process_due`
    /// handles that instant in the engine's canonical event order.
    fn idle_fast_forward(&mut self, deadline_ns: u64) {
        let stop = self.next_wakeup_ns(deadline_ns);
        let n = self.board.n_clusters();
        let mut powers = [0.0f64; MAX_CLUSTERS];
        for cluster in self.board.cluster_ids() {
            let i = cluster.index();
            powers[i] = cluster_power(
                &self.board,
                cluster,
                self.freqs[i],
                0.0,
                self.board.cluster_size(cluster),
            );
        }
        // A quiescent GTS tick reduces to `update_loads` (nothing to
        // migrate, balance or pull with every run queue empty), and
        // once every load EWMA has decayed to exactly 0.0 with no
        // runnable time pending, `update_loads` itself is a no-op —
        // from then on a tick is a pure schedule advance.
        let mut loads_live = !self
            .threads
            .iter()
            .all(|t| t.load == 0.0 && t.runnable_ns_since_tick == 0);
        loop {
            let next = stop
                .min(self.next_tick_ns)
                .min(self.sensor.next_sample_ns());
            self.energy
                .accumulate_idle(&powers[..n], next - self.now_ns);
            self.now_ns = next;
            if next == stop {
                break;
            }
            if self.next_tick_ns <= self.now_ns {
                if loads_live {
                    update_loads(&self.cfg.gts, &mut self.threads);
                    loads_live = !self.threads.iter().all(|t| t.load == 0.0);
                }
                self.next_tick_ns += self.cfg.gts.tick_ns;
            }
            if self.sensor.next_sample_ns() <= self.now_ns {
                if self.now_ns < self.sensor_dropout_until {
                    self.sensor.drop_sample();
                } else if self.now_ns < self.sensor_stuck_until {
                    let now = self.now_ns;
                    self.sensor.stuck_sample(now, n);
                } else if self.cfg.coalesce_idle_sensor {
                    self.sensor.skip_sample();
                } else {
                    // Idle truth equals the hoisted powers bit-for-bit
                    // (same `cluster_power` arguments), so the sample
                    // stream matches the reference stepper's exactly.
                    let now = self.now_ns;
                    self.sensor.sample(now, &powers[..n]);
                }
            }
        }
        // Re-arm heap hints for the schedules the span advanced past.
        let tick = self.next_tick_ns;
        let sample = self.sensor.next_sample_ns();
        self.push_event(tick, EventKey::Tick);
        self.push_event(sample, EventKey::Sensor);
    }

    /// The first instant a fault onset, deferred action or sleep
    /// wake-up is due, capped at `deadline_ns`: where both fast-forward
    /// loops hand the clock back to `process_due`.
    fn next_wakeup_ns(&self, deadline_ns: u64) -> u64 {
        let mut stop = deadline_ns;
        if let Some(t) = self.faults.next_due() {
            stop = stop.min(t);
        }
        if let Some((&t, _)) = self.actions.first_key_value() {
            stop = stop.min(t);
        }
        for t in &self.threads {
            if let RunState::Blocked(BlockReason::Sleep { until_ns }) = t.run {
                stop = stop.min(until_ns);
            }
        }
        stop
    }

    /// Fast-forwards a busy span of pure GTS ticks. A step whose next
    /// event is the tick, `dt_ns` away, calls this in place of
    /// `advance(dt_ns)`: it integrates to the tick, applies it, and
    /// repeats tick after tick until a work-item completion, action,
    /// sensor sample, fault onset, sleep wake-up or the deadline is due
    /// by the next tick, or a tick moves a thread.
    ///
    /// Bit-identity: each boundary is one reference step. The
    /// integration is `advance`'s arithmetic with the span's constant
    /// busy counts, cluster powers ([`EnergyMeter::accumulate_powers`])
    /// and speed caches hoisted. A thread left with
    /// `work_left <= WORK_EPS` at a tick ends the span before that tick
    /// (`process_due` completes work before ticking), and the span goes
    /// on past a tick only when `next_event_dt_heap`'s per-thread
    /// [`completion_ns`] test (in its exact predicate form,
    /// [`completes_within`]) puts every completion beyond the next one.
    ///
    /// Pinned ticks: while every runnable thread's affinity is exactly
    /// its current core, the migration pass finds no allowed core on
    /// another cluster and the balance and idle-pull passes find no
    /// thread allowed on another core, so a tick is `update_loads`
    /// alone. Otherwise the full tick runs, and one that moves a thread
    /// ends the span (its run queues and powers change).
    fn tick_fast_forward(&mut self, dt_ns: u64, deadline_ns: u64) {
        let stop = self
            .next_wakeup_ns(deadline_ns)
            .min(self.sensor.next_sample_ns());
        let tick_ns = self.cfg.gts.tick_ns;
        let n = self.board.n_clusters();
        let mut busy = [0.0f64; MAX_CLUSTERS];
        let mut pinned = true;
        for ci in 0..self.cores.len() {
            if self.cores[ci].nr_running() == 0 {
                continue;
            }
            self.refresh_speed_cache(ci);
            let core = &self.cores[ci];
            busy[core.cluster.index()] += 1.0;
            let only_here = CpuSet::single(core.id);
            pinned &= core
                .runnable
                .iter()
                .all(|&tid| self.threads[tid].affinity == only_here);
        }
        let mut powers = [0.0f64; MAX_CLUSTERS];
        for cluster in self.board.cluster_ids() {
            let i = cluster.index();
            powers[i] = cluster_power(
                &self.board,
                cluster,
                self.freqs[i],
                busy[i],
                self.board.cluster_size(cluster),
            );
        }
        let mut dt_ns = dt_ns;
        loop {
            for core in &mut self.cores {
                if core.nr_running() > 0 {
                    core.busy_ns += dt_ns;
                }
            }
            self.energy
                .accumulate_powers(&powers[..n], &busy[..n], dt_ns);
            let dt_secs = ns_to_secs(dt_ns);
            // The same pass decides what follows: a work item complete
            // at this instant, or one completing within the next period.
            let (mut finishing, mut completes) = (false, false);
            for ci in 0..self.cores.len() {
                let k = self.cores[ci].nr_running();
                if k == 0 {
                    continue;
                }
                let share = 1.0 / k as f64;
                for i in 0..k {
                    let tid = self.cores[ci].runnable[i];
                    let speed = self.speed_cache[ci].speeds[i];
                    let done = dt_secs * share * speed;
                    let t = &mut self.threads[tid];
                    t.work_left = (t.work_left - done).max(0.0);
                    t.runnable_ns_since_tick = t.runnable_ns_since_tick.saturating_add(dt_ns);
                    finishing |= t.work_left <= WORK_EPS;
                    completes |= completes_within(t.work_left * k as f64 / speed, tick_ns);
                }
            }
            self.now_ns += dt_ns;
            if finishing || self.now_ns >= stop {
                break; // `process_due` handles this instant in canonical order
            }
            let moved = if pinned {
                update_loads(&self.cfg.gts, &mut self.threads);
                false
            } else {
                self.gts_tick_traced()
            };
            self.ticks_fast_forwarded += 1;
            self.next_tick_ns += tick_ns;
            if moved || completes || self.next_tick_ns > stop {
                break;
            }
            dt_ns = tick_ns;
        }
        let tick = self.next_tick_ns;
        self.push_event(tick, EventKey::Tick);
    }

    /// Advances the clock by `dt_ns`, integrating energy, busy time,
    /// load-tracking counters and work progress.
    fn advance(&mut self, dt_ns: u64) {
        let n = self.board.n_clusters();
        let mut busy = [0.0f64; MAX_CLUSTERS];
        for core in &mut self.cores {
            if core.nr_running() > 0 {
                busy[core.cluster.index()] += 1.0;
                core.busy_ns += dt_ns;
            }
        }
        self.energy
            .accumulate(&self.board, &self.freqs, &busy[..n], dt_ns);
        let dt_secs = ns_to_secs(dt_ns);
        let use_cache = self.cfg.exec == ExecMode::EventHeap;
        for ci in 0..self.cores.len() {
            let k = self.cores[ci].nr_running();
            if k == 0 {
                continue;
            }
            let share = 1.0 / k as f64;
            if use_cache {
                self.refresh_speed_cache(ci);
            }
            // Indexed iteration: the body only touches thread state
            // (never the run queues), so no clone is needed to satisfy
            // aliasing — this loop allocates nothing.
            for i in 0..k {
                let tid = self.cores[ci].runnable[i];
                let speed = if use_cache {
                    self.speed_cache[ci].speeds[i]
                } else {
                    self.speed_of(tid)
                };
                let done = dt_secs * share * speed;
                let t = &mut self.threads[tid];
                t.work_left = (t.work_left - done).max(0.0);
                t.runnable_ns_since_tick = t.runnable_ns_since_tick.saturating_add(dt_ns);
            }
        }
        self.now_ns += dt_ns;
    }

    /// Processes every event due at the current instant, repeating until
    /// a fixed point (completions can cascade through queues/barriers).
    fn process_due(&mut self) {
        loop {
            let mut progressed = false;
            // Fault onsets first: a fault is platform authority and
            // overrides whatever same-instant control events would do.
            while let Some(f) = self.faults.pop_due(self.now_ns) {
                self.apply_fault(f.kind);
                progressed = true;
            }
            // Deferred actions.
            while let Some((&t, _)) = self.actions.first_key_value() {
                if t > self.now_ns {
                    break;
                }
                let (_, acts) = self.actions.pop_first().expect("checked non-empty");
                for a in acts {
                    self.apply_action(a);
                }
                progressed = true;
            }
            // Sleep wake-ups.
            for tid in 0..self.threads.len() {
                if let RunState::Blocked(BlockReason::Sleep { until_ns }) = self.threads[tid].run {
                    if until_ns <= self.now_ns {
                        self.wake_duty_thread(tid);
                        progressed = true;
                    }
                }
            }
            // Work-item completions.
            for tid in 0..self.threads.len() {
                if self.threads[tid].is_runnable() && self.threads[tid].work_left <= WORK_EPS {
                    self.on_work_complete(tid);
                    progressed = true;
                }
            }
            // Scheduler tick.
            if self.next_tick_ns <= self.now_ns {
                self.gts_tick_traced();
                self.next_tick_ns += self.cfg.gts.tick_ns;
                let tick = self.next_tick_ns;
                self.push_event(tick, EventKey::Tick);
                progressed = true;
            }
            // Sensor sample (dropout and stuck-at windows intercept).
            if self.sensor.next_sample_ns() <= self.now_ns {
                if self.now_ns < self.sensor_dropout_until {
                    self.sensor.drop_sample();
                } else if self.now_ns < self.sensor_stuck_until {
                    let now = self.now_ns;
                    let n = self.board.n_clusters();
                    self.sensor.stuck_sample(now, n);
                } else {
                    let truth = self.instant_power();
                    self.sensor
                        .sample(self.now_ns, &truth[..self.board.n_clusters()]);
                }
                let sample = self.sensor.next_sample_ns();
                self.push_event(sample, EventKey::Sensor);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }

    /// Runs one GTS tick at the current instant, recording each
    /// migration in the trace when tracing is on. Returns `true` when
    /// the tick moved a thread; the caller advances the tick schedule.
    fn gts_tick_traced(&mut self) -> bool {
        let before: Vec<Option<CoreId>> = if self.trace.is_enabled() {
            self.threads.iter().map(|t| t.core).collect()
        } else {
            Vec::new()
        };
        let moved = gts_tick(
            &self.cfg.gts,
            &self.board,
            &mut self.threads,
            &mut self.cores,
        );
        for (tid, prev) in before.iter().enumerate() {
            let now_core = self.threads[tid].core;
            if let Some(to) = now_core {
                if *prev != now_core {
                    let t = &self.threads[tid];
                    let local = self.apps[t.app]
                        .threads
                        .iter()
                        .position(|&x| x == tid)
                        .unwrap_or(0);
                    self.trace.record(TraceEvent::Migration {
                        time_ns: self.now_ns,
                        app: self.apps[t.app].hb_id.0,
                        thread: local,
                        from: *prev,
                        to,
                    });
                }
            }
        }
        moved
    }

    /// Instantaneous true per-cluster power (W) — what the sensor
    /// reads, indexed by cluster.
    fn instant_power(&self) -> [f64; MAX_CLUSTERS] {
        let mut busy = [0.0f64; MAX_CLUSTERS];
        for core in &self.cores {
            if core.nr_running() > 0 {
                busy[core.cluster.index()] += 1.0;
            }
        }
        let mut watts = [0.0f64; MAX_CLUSTERS];
        for cluster in self.board.cluster_ids() {
            let i = cluster.index();
            watts[i] = cluster_power(
                &self.board,
                cluster,
                self.freqs[i],
                busy[i],
                self.board.cluster_size(cluster),
            );
        }
        watts
    }

    // ------------------------------------------------------------------
    // Application state machines
    // ------------------------------------------------------------------

    /// Launches an app's threads according to its parallelism model.
    fn start_app(&mut self, app_idx: usize) {
        let n_threads = self.apps[app_idx].threads.len();
        match self.apps[app_idx].spec.model {
            ParallelismModel::DataParallel => {
                if self.apps[app_idx].spec.startup_work > 0.0 {
                    // Single-threaded startup: thread 0 runs, others wait.
                    let t0 = self.apps[app_idx].threads[0];
                    self.threads[t0].work_left = self.apps[app_idx].spec.startup_work;
                    self.make_runnable(t0);
                    for i in 1..n_threads {
                        let tid = self.apps[app_idx].threads[i];
                        self.threads[tid].run = RunState::Blocked(BlockReason::Startup);
                    }
                } else {
                    self.start_unit(app_idx);
                }
            }
            ParallelismModel::Pipeline { .. } => {
                for i in 0..n_threads {
                    let tid = self.apps[app_idx].threads[i];
                    self.pipeline_fetch(tid);
                }
            }
            ParallelismModel::DutyCycle { duty, period_ns } => {
                for i in 0..n_threads {
                    let tid = self.apps[app_idx].threads[i];
                    self.threads[tid].time_based = true;
                    if duty > 0.0 {
                        self.threads[tid].work_left = duty * ns_to_secs(period_ns);
                        self.make_runnable(tid);
                    } else {
                        let until_ns = self.now_ns + period_ns;
                        self.threads[tid].run = RunState::Blocked(BlockReason::Sleep { until_ns });
                        self.push_event(until_ns, EventKey::Sleep { tid });
                    }
                }
            }
        }
    }

    /// Starts the next data-parallel unit: the single-threaded serial
    /// section first (when the spec has one), then the parallel phase.
    fn start_unit(&mut self, app_idx: usize) {
        let unit = match &self.apps[app_idx].model {
            ModelState::DataParallel { unit, .. } => *unit,
            _ => unreachable!("start_unit on non-data-parallel app"),
        };
        if self.apps[app_idx].spec.serial_frac > 0.0 {
            if let ModelState::DataParallel { in_serial, .. } = &mut self.apps[app_idx].model {
                *in_serial = true;
            }
            let serial = self.apps[app_idx].serial_work(unit);
            let t0 = self.apps[app_idx].threads[0];
            self.threads[t0].work_left = serial;
            self.make_runnable(t0);
            for i in 1..self.apps[app_idx].threads.len() {
                let tid = self.apps[app_idx].threads[i];
                if self.threads[tid].is_runnable() {
                    self.block_thread(tid, BlockReason::SerialWait);
                } else {
                    self.threads[tid].run = RunState::Blocked(BlockReason::SerialWait);
                }
            }
        } else {
            self.start_parallel_phase(app_idx, unit);
        }
    }

    /// Launches the parallel section of a unit: every thread gets an
    /// equal chunk of the parallel work and becomes runnable.
    fn start_parallel_phase(&mut self, app_idx: usize, unit: u64) {
        let chunk = self.apps[app_idx].chunk_work(unit);
        for i in 0..self.apps[app_idx].threads.len() {
            let tid = self.apps[app_idx].threads[i];
            self.threads[tid].work_left = chunk;
            self.make_runnable(tid);
        }
    }

    fn make_runnable(&mut self, tid: usize) {
        if !self.threads[tid].is_runnable() {
            self.threads[tid].run = RunState::Runnable;
            place_thread(tid, &mut self.threads, &mut self.cores);
        }
    }

    fn block_thread(&mut self, tid: usize, reason: BlockReason) {
        dequeue_thread(tid, &self.threads, &mut self.cores);
        self.threads[tid].run = RunState::Blocked(reason);
    }

    /// Emits a heartbeat for an app and buffers the event. During a
    /// [`FaultKind::HeartbeatStall`] window the emission never reaches
    /// the monitors (observed window rates go stale), but the app's own
    /// budget and the engine-to-driver event stream still advance — a
    /// wedged telemetry daemon does not pause the application.
    fn emit_heartbeat(&mut self, app_idx: usize) {
        let hb_id = self.apps[app_idx].hb_id;
        let index = self.apps[app_idx].heartbeats;
        self.apps[app_idx].heartbeats += 1;
        if self.now_ns < self.hb_stall_until {
            self.stalled_heartbeats += 1;
        } else {
            self.registry
                .emit(hb_id, self.now_ns)
                .expect("engine-registered app");
        }
        self.events.push_back(HeartbeatEvent {
            app: hb_id,
            index,
            time_ns: self.now_ns,
        });
        self.trace.record(TraceEvent::Heartbeat {
            time_ns: self.now_ns,
            app: hb_id.0,
            index,
        });
        if let Some(max) = self.apps[app_idx].spec.max_heartbeats {
            if self.apps[app_idx].heartbeats >= max {
                self.finish_app(app_idx);
            }
        }
    }

    /// Terminates an app: all threads stop consuming CPU.
    fn finish_app(&mut self, app_idx: usize) {
        self.apps[app_idx].done = true;
        for i in 0..self.apps[app_idx].threads.len() {
            let tid = self.apps[app_idx].threads[i];
            dequeue_thread(tid, &self.threads, &mut self.cores);
            self.threads[tid].run = RunState::Finished;
            self.threads[tid].work_left = 0.0;
        }
    }

    /// Dispatch for a thread that exhausted its current work item.
    fn on_work_complete(&mut self, tid: usize) {
        let app_idx = self.threads[tid].app;
        if self.apps[app_idx].done {
            self.block_thread(tid, BlockReason::Startup);
            return;
        }
        match self.apps[app_idx].spec.model {
            ParallelismModel::DataParallel => self.data_parallel_complete(tid, app_idx),
            ParallelismModel::Pipeline { .. } => self.pipeline_complete(tid, app_idx),
            ParallelismModel::DutyCycle { duty, period_ns } => {
                if duty >= 1.0 {
                    self.threads[tid].work_left = ns_to_secs(period_ns);
                } else {
                    let idle = ((1.0 - duty) * period_ns as f64) as u64;
                    let until_ns = self.now_ns + idle.max(1);
                    self.block_thread(tid, BlockReason::Sleep { until_ns });
                    self.push_event(until_ns, EventKey::Sleep { tid });
                }
            }
        }
    }

    fn wake_duty_thread(&mut self, tid: usize) {
        let app_idx = self.threads[tid].app;
        if let ParallelismModel::DutyCycle { duty, period_ns } = self.apps[app_idx].spec.model {
            if duty > 0.0 {
                self.threads[tid].work_left = duty * ns_to_secs(period_ns);
                self.make_runnable(tid);
            } else {
                let until_ns = self.now_ns + period_ns;
                self.threads[tid].run = RunState::Blocked(BlockReason::Sleep { until_ns });
                self.push_event(until_ns, EventKey::Sleep { tid });
            }
        }
    }

    /// Barrier arrival for data-parallel apps (and startup completion).
    fn data_parallel_complete(&mut self, tid: usize, app_idx: usize) {
        let n_threads = self.apps[app_idx].threads.len();
        let (arrived_now, startup_finished, serial_finished, unit_now) =
            match &mut self.apps[app_idx].model {
                ModelState::DataParallel {
                    arrived,
                    in_startup,
                    in_serial,
                    unit,
                } => {
                    if *in_startup {
                        *in_startup = false;
                        (0, true, false, *unit)
                    } else if *in_serial {
                        *in_serial = false;
                        (0, false, true, *unit)
                    } else {
                        *arrived += 1;
                        (*arrived, false, false, *unit)
                    }
                }
                _ => unreachable!("data-parallel app with wrong model state"),
            };
        if startup_finished {
            // The startup thread finished parsing input; launch unit 0.
            self.start_unit(app_idx);
            return;
        }
        if serial_finished {
            // Thread 0 completed the unit's serial section.
            self.start_parallel_phase(app_idx, unit_now);
            return;
        }
        self.block_thread(tid, BlockReason::Barrier);
        if arrived_now == n_threads {
            // Unit complete: heartbeat bookkeeping, then the next unit.
            let units_done = {
                let app = &mut self.apps[app_idx];
                app.units_done += 1;
                match &mut app.model {
                    ModelState::DataParallel { unit, arrived, .. } => {
                        *arrived = 0;
                        *unit += 1;
                    }
                    _ => unreachable!(),
                }
                app.units_done
            };
            if self.apps[app_idx].heartbeat_due(units_done) {
                self.emit_heartbeat(app_idx);
            }
            if !self.apps[app_idx].done {
                self.start_unit(app_idx);
            }
        }
    }

    // ------------------------------------------------------------------
    // Pipeline mechanics
    // ------------------------------------------------------------------

    fn queue_capacity(&self, app_idx: usize) -> usize {
        match &self.apps[app_idx].spec.model {
            ParallelismModel::Pipeline { queue_capacity, .. } => *queue_capacity,
            _ => 0,
        }
    }

    fn n_stages(&self, app_idx: usize) -> usize {
        self.apps[app_idx].spec.n_stages()
    }

    /// A pipeline thread finished the work of its current item.
    fn pipeline_complete(&mut self, tid: usize, app_idx: usize) {
        let stage = self.threads[tid].stage;
        let last_stage = self.n_stages(app_idx) - 1;
        let item = self.cur_items[tid]
            .take()
            .expect("pipeline thread had an item");
        if stage == last_stage {
            let completed = {
                let app = &mut self.apps[app_idx];
                app.units_done += 1;
                match &mut app.model {
                    ModelState::Pipeline {
                        completed_items, ..
                    } => {
                        *completed_items += 1;
                        *completed_items
                    }
                    _ => unreachable!("pipeline app with wrong model state"),
                }
            };
            if self.apps[app_idx].heartbeat_due(completed) {
                self.emit_heartbeat(app_idx);
            }
            if !self.apps[app_idx].done {
                self.pipeline_fetch(tid);
            }
        } else {
            self.pipeline_push(tid, app_idx, stage, item);
        }
    }

    /// Pushes `item` into the queue downstream of `stage`, blocking the
    /// thread on back-pressure.
    fn pipeline_push(&mut self, tid: usize, app_idx: usize, stage: usize, item: u64) {
        let cap = self.queue_capacity(app_idx);
        let full = match &self.apps[app_idx].model {
            ModelState::Pipeline { queues, .. } => queues[stage].len() >= cap,
            _ => unreachable!(),
        };
        if full {
            self.threads[tid].held_item = Some(item);
            self.block_thread(tid, BlockReason::PushWait { queue: stage });
        } else {
            if let ModelState::Pipeline { queues, .. } = &mut self.apps[app_idx].model {
                queues[stage].push_back(item);
            }
            self.wake_one_popper(app_idx, stage);
            self.pipeline_fetch(tid);
        }
    }

    /// Gets the thread its next item: generated fresh for the source
    /// stage, popped from upstream otherwise; blocks when starved.
    fn pipeline_fetch(&mut self, tid: usize) {
        let app_idx = self.threads[tid].app;
        let stage = self.threads[tid].stage;
        if stage == 0 {
            let item = match &mut self.apps[app_idx].model {
                ModelState::Pipeline { next_item, .. } => {
                    let i = *next_item;
                    *next_item += 1;
                    i
                }
                _ => unreachable!(),
            };
            self.start_item(tid, app_idx, item);
        } else {
            let popped = match &mut self.apps[app_idx].model {
                ModelState::Pipeline { queues, .. } => queues[stage - 1].pop_front(),
                _ => unreachable!(),
            };
            match popped {
                Some(item) => {
                    self.wake_one_pusher(app_idx, stage - 1);
                    self.start_item(tid, app_idx, item);
                }
                None => self.block_thread(tid, BlockReason::PopWait { queue: stage - 1 }),
            }
        }
    }

    /// Assigns `item` to a thread and makes it runnable.
    fn start_item(&mut self, tid: usize, app_idx: usize, item: u64) {
        let stage = self.threads[tid].stage;
        self.cur_items[tid] = Some(item);
        self.threads[tid].work_left = self.apps[app_idx].stage_work(item, stage);
        self.make_runnable(tid);
    }

    /// Hands a freshly pushed item to one starving downstream thread.
    fn wake_one_popper(&mut self, app_idx: usize, queue: usize) {
        let waiter = self.apps[app_idx].threads.iter().copied().find(|&tid| {
            matches!(
                self.threads[tid].run,
                RunState::Blocked(BlockReason::PopWait { queue: q }) if q == queue
            )
        });
        if let Some(tid) = waiter {
            let popped = match &mut self.apps[app_idx].model {
                ModelState::Pipeline { queues, .. } => queues[queue].pop_front(),
                _ => unreachable!(),
            };
            if let Some(item) = popped {
                self.wake_one_pusher(app_idx, queue);
                self.start_item(tid, app_idx, item);
            }
        }
    }

    /// A pop freed queue space: completes one blocked pusher's push.
    fn wake_one_pusher(&mut self, app_idx: usize, queue: usize) {
        let waiter = self.apps[app_idx].threads.iter().copied().find(|&tid| {
            matches!(
                self.threads[tid].run,
                RunState::Blocked(BlockReason::PushWait { queue: q }) if q == queue
            )
        });
        if let Some(tid) = waiter {
            let item = self.threads[tid]
                .held_item
                .take()
                .expect("pusher holds an item");
            if let ModelState::Pipeline { queues, .. } = &mut self.apps[app_idx].model {
                queues[queue].push_back(item);
            }
            self.pipeline_fetch(tid);
        }
    }
}
