//! The open-system scenario driver: interleaves stochastic tenant
//! arrivals with the engine clock, drives admission control, registers
//! admitted tenants with the runtime manager mid-run, releases
//! departures, and aggregates a [`ScenarioOutcome`].
//!
//! The arrival loop needs no scheduling machinery of its own: it asks
//! the engine for the next heartbeat *before the next arrival instant*
//! (`next_heartbeat(deadline)`) and otherwise `run_until`s the arrival
//! — both of which step the engine from event to event, so the idle
//! gap between the last departure and the next arrival is
//! fast-forwarded instead of stepped through tick by tick.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use heartbeats::{AppId, PerfTarget};
use hmp_sim::{BoardSpec, ClusterId, Engine, EngineConfig, FaultKind, FaultPlan, SimError};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use workloads::Benchmark;

use hars_core::metrics::normalized_performance;
use hars_core::policy::SearchPolicy;
use hars_core::power_est::PowerEstimator;
use hars_core::search::SearchStats;
use hars_core::{NullSink, PerfEstimator, RejectReason, TelemetryEvent, TelemetrySink};
use mp_hars::driver::apply_mp_decision;
use mp_hars::{MpHarsConfig, MpHarsManager, QuarantineMode};

use crate::admission::{AdmissionDecision, AdmissionPolicy, LoadEstimate};
use crate::arrival::ArrivalProcess;
use crate::events::{ScenarioEvent, TimedEvent};
use crate::outcome::{ScenarioOutcome, TenantOutcome};
use crate::template::{TemplateSet, TenantSpec};

/// A complete open-system scenario description: who arrives, when, for
/// how long, under which seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// The tenant blueprints arrivals are drawn from.
    pub templates: TemplateSet,
    /// Scenario horizon (ns): arrivals beyond it never happen; tenants
    /// still running at the horizon are cut off and reported
    /// incomplete.
    pub horizon_ns: u64,
    /// Master seed: arrival instants, template draws and per-tenant
    /// jitter all derive from it deterministically.
    pub seed: u64,
    /// Heartbeat budget of the isolated calibration run used to resolve
    /// each benchmark's solo rate (targets are fractions of it).
    pub solo_budget: u64,
    /// SLO guard band: the runtime manager is registered with a target
    /// scaled up by `1 + target_guard`, while satisfaction is still
    /// scored against the tenant's unscaled band. The manager's
    /// satisfaction-first ranking deliberately picks the *cheapest*
    /// state whose estimated rate clears the minimum, which parks
    /// tenants at `min + ε` — where estimator bias and rate-window
    /// noise flip heartbeats across the line. A few percent of guard
    /// converts those marginal misses into margin, at a small energy
    /// cost. Zero (the default) hands the manager the tenant's own
    /// band.
    pub target_guard: f64,
    /// Timestamped control-plane actions (reconfigures, admission
    /// swaps, guard changes) interleaved with the arrivals. Fired in
    /// `at_ns` order (stable for ties) at the first runtime
    /// interaction at or after their instant, before any arrival
    /// sharing it; events at or beyond the horizon never fire.
    #[serde(default)]
    pub events: Vec<TimedEvent>,
}

impl ScenarioSpec {
    /// A spec with the default 60-heartbeat solo calibration budget.
    pub fn new(
        arrivals: ArrivalProcess,
        templates: TemplateSet,
        horizon_ns: u64,
        seed: u64,
    ) -> Self {
        Self {
            arrivals,
            templates,
            horizon_ns,
            seed,
            solo_budget: 60,
            target_guard: 0.0,
            events: Vec::new(),
        }
    }

    /// Adds one control-plane event (builder-style).
    pub fn with_event(mut self, at_ns: u64, event: ScenarioEvent) -> Self {
        self.events.push(TimedEvent::new(at_ns, event));
        self
    }

    /// Everything but the arrival process, templates and seed, with no
    /// fault plan: the config that drives this spec through
    /// [`run_shard`] together with [`Self::tenant_schedule`], for
    /// callers that bring their own cache or sink.
    pub fn shard_config(&self) -> ShardConfig {
        ShardConfig {
            horizon_ns: self.horizon_ns,
            solo_budget: self.solo_budget,
            target_guard: self.target_guard,
            events: self.events.clone(),
            faults: FaultPlan::empty(),
        }
    }

    /// Materializes the scenario's full tenant schedule: ascending
    /// `(arrival_ns, tenant)` pairs, bit-reproducible for a given spec.
    pub fn tenant_schedule(&self) -> Vec<(u64, TenantSpec)> {
        let times = self.arrivals.schedule(self.horizon_ns, self.seed);
        // Separate stream for template draws so adding a template never
        // perturbs the arrival instants.
        let mut draw_rng = StdRng::seed_from_u64(self.seed ^ 0x7465_6d70_6c61_7465); // "template"
        times
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let template = self.templates.draw(&mut draw_rng);
                let tenant_seed = self
                    .seed
                    .wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                (t, template.instantiate(tenant_seed))
            })
            .collect()
    }
}

/// Which runtime serves the scenario.
// One runtime per scenario run: the size difference between variants is
// irrelevant (never stored in bulk) — same shape as `MpVersion`.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ScenarioRuntime {
    /// Stock GTS at the maximum state: no manager, no targets enforced.
    Gts,
    /// MP-HARS with the given configuration and estimators.
    MpHars {
        /// Manager configuration (use [`mp_hars::mp_hars_i`] /
        /// [`mp_hars::mp_hars_e`] for the paper's variants).
        cfg: MpHarsConfig,
        /// Shared performance estimator.
        perf: PerfEstimator,
        /// Shared power estimator.
        power: PowerEstimator,
    },
}

impl ScenarioRuntime {
    /// MP-HARS with board-nominal estimators and the synthetic monotone
    /// power model ([`PowerEstimator::synthetic_for_board`]: a linear
    /// model scaled by each cluster's nominal ratio, good enough to
    /// rank candidate states without a per-board calibration run) —
    /// the zero-setup configuration the churn bench uses.
    pub fn mp_hars(board: &BoardSpec, cfg: MpHarsConfig) -> Self {
        ScenarioRuntime::MpHars {
            cfg,
            perf: PerfEstimator::from_board(board),
            power: PowerEstimator::synthetic_for_board(board),
        }
    }

    /// Display label for report tables.
    pub fn label(&self) -> &'static str {
        match self {
            ScenarioRuntime::Gts => "GTS",
            ScenarioRuntime::MpHars { cfg, .. } => match cfg.policy {
                SearchPolicy::Incremental => "MP-HARS-I",
                SearchPolicy::Exhaustive(_) => "MP-HARS-E",
                SearchPolicy::Beam { .. } | SearchPolicy::AdaptiveBeam { .. } => "MP-HARS-B",
                SearchPolicy::Frontier => "MP-HARS-F",
            },
        }
    }
}

/// A solo-rate calibration cache key:
/// `(environment fingerprint, benchmark, threads, solo budget)`.
type SoloKey = (u64, Benchmark, usize, u64);

/// The solo-rate calibration cache, shareable by any number of
/// scenario runs — one after another (a bench sweeping many scenarios
/// over one board) or at once (fleet shards on a worker pool).
///
/// Resolving a tenant's target requires its benchmark's *solo* rate —
/// an isolated simulation at the maximum state. The solo rate is a
/// pure function of the calibration environment (board + engine
/// config), the benchmark, its thread count and the heartbeat budget,
/// so runs sharing one cache pay for each calibration exactly once.
/// Keys are `(environment fingerprint, benchmark, threads, solo
/// budget)` where the environment fingerprint is an FNV-1a hash of the
/// board's and the *canonicalized* engine config's full debug
/// representations — any board or config difference changes the key,
/// so sharing a cache across boards is safe. (Canonicalized: the
/// engine noise seed is normalized away, because calibration always
/// runs in the canonical reference environment with the default
/// seed.) Outcomes are bit-identical with or without a shared cache:
/// the cached value *is* the value the isolated run would produce.
///
/// Lookups are single-flight. The first lookup of a key runs the
/// calibration without holding the map lock, and concurrent lookups of
/// that key wait for it and count as hits, so [`Self::misses`] equals
/// the number of unique keys whatever the thread count or timing. A
/// calibration that panics leaves its key empty, and the next lookup —
/// a waiter or a later caller — calibrates it afresh.
#[derive(Debug, Default)]
pub struct SharedSoloRateCache {
    /// One cell per key, created by the key's first lookup and filled
    /// by its calibration.
    cells: Mutex<HashMap<SoloKey, Arc<OnceLock<f64>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SharedSoloRateCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Calibration results currently cached.
    pub fn len(&self) -> usize {
        self.cells
            .lock()
            .values()
            .filter(|c| c.get().is_some())
            .count()
    }

    /// `true` when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache so far, waits on a running
    /// calibration included.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that ran a calibration so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// `key`'s rate and whether the cache served it: a stored rate, the
    /// rate a concurrent lookup is calibrating (after waiting for it),
    /// or else `calibrate()`'s result, stored for every later lookup.
    fn get_or_calibrate(&self, key: SoloKey, calibrate: impl FnOnce() -> f64) -> (f64, bool) {
        let cell = Arc::clone(self.cells.lock().entry(key).or_default());
        let mut hit = true;
        let rate = *cell.get_or_init(|| {
            hit = false;
            self.misses.fetch_add(1, Ordering::Relaxed);
            calibrate()
        });
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        (rate, hit)
    }
}

/// The FNV-1a fingerprint of one calibration environment.
fn environment_fingerprint(board: &BoardSpec, engine_cfg: &EngineConfig) -> u64 {
    let mut h = crate::outcome::Fnv1a::new();
    h.write_bytes(format!("{board:?}").as_bytes());
    h.write_bytes(format!("{:?}", calibration_config(engine_cfg)).as_bytes());
    h.finish()
}

/// The canonical calibration environment for `engine_cfg`: the same
/// config with the engine noise seed normalized to the default.
///
/// A solo calibration is a *reference measurement* — the benchmark's
/// isolated rate at the maximum state — and the heartbeat rate it
/// resolves is independent of the sensor-noise stream (noise perturbs
/// stored power samples, never the work schedule). Normalizing the
/// seed makes that explicit in the cache key: fleet shards that differ
/// only in their per-shard engine seed (the SplitMix64 seed-split)
/// share one calibration per `(board, benchmark, threads, budget)`
/// instead of recalibrating per shard, which is where the fleet-scale
/// wall-clock win comes from.
fn calibration_config(engine_cfg: &EngineConfig) -> EngineConfig {
    EngineConfig {
        seed: EngineConfig::default().seed,
        ..engine_cfg.clone()
    }
}

/// One solo calibration: `bench` alone on `board` at the maximum state
/// (GTS, performance governor) for `budget` heartbeats, in the
/// canonical reference environment (default engine seed) so shards
/// with different noise seeds resolve — and can share — the same
/// value. The workload seed is fixed: the solo reference is per
/// benchmark, not per tenant.
fn calibrate(
    board: &BoardSpec,
    engine_cfg: &EngineConfig,
    bench: Benchmark,
    threads: usize,
    budget: u64,
) -> f64 {
    let mut engine = Engine::new(board.clone(), calibration_config(engine_cfg));
    let app = engine
        .add_app(bench.spec_with_budget(threads, 0xCAFE, budget))
        .expect("preset spec validates");
    engine.run_while_active(u64::MAX);
    engine
        .monitor(app)
        .ok()
        .and_then(|m| m.global_rate())
        .map(|r| r.heartbeats_per_sec())
        .unwrap_or(1.0)
}

/// The solo-rate cache a scenario run reads and fills. A one-variant
/// wrapper around a [`SharedSoloRateCache`] borrow, kept so that
/// existing [`run_shard`] callers compile unchanged.
#[derive(Debug)]
pub enum SoloCacheHandle<'a> {
    /// A cache any number of runs may share, concurrently or not.
    Shared(&'a SharedSoloRateCache),
}

/// Runs one open-system scenario to completion (or the horizon) with a
/// fresh calibration cache and no telemetry, and returns the
/// aggregated outcome.
///
/// To share a cache across scenarios, stream telemetry or fold
/// metrics, call [`run_shard`] or [`run_shard_with_metrics`] with
/// [`ScenarioSpec::tenant_schedule`] and [`ScenarioSpec::shard_config`]:
/// the outcome is the same.
///
/// # Errors
///
/// Propagates [`SimError`] from engine interaction (invalid tenant
/// specs, malformed decisions).
pub fn run_scenario(
    board: &BoardSpec,
    engine_cfg: &EngineConfig,
    spec: &ScenarioSpec,
    admission: &mut dyn AdmissionPolicy,
    runtime: ScenarioRuntime,
) -> Result<ScenarioOutcome, SimError> {
    run_shard(
        board,
        engine_cfg,
        &spec.tenant_schedule(),
        &spec.shard_config(),
        admission,
        runtime,
        SoloCacheHandle::Shared(&SharedSoloRateCache::new()),
        &mut NullSink,
    )
}

/// The per-shard scenario parameters [`run_shard`] takes alongside an
/// explicit tenant schedule — everything a [`ScenarioSpec`] carries
/// *except* the arrival process, templates and seed (a shard's tenants
/// are decided upstream, e.g. by a fleet placement tier).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardConfig {
    /// Scenario horizon (ns) — same semantics as
    /// [`ScenarioSpec::horizon_ns`].
    pub horizon_ns: u64,
    /// Solo calibration heartbeat budget
    /// ([`ScenarioSpec::solo_budget`]).
    pub solo_budget: u64,
    /// SLO guard band ([`ScenarioSpec::target_guard`]).
    pub target_guard: f64,
    /// Control-plane events ([`ScenarioSpec::events`]).
    #[serde(default)]
    pub events: Vec<TimedEvent>,
    /// The shard's deterministic fault plan, injected into the serving
    /// engine (never into calibration engines). Empty, it leaves the run
    /// bit-identical to a run without the fault plane.
    #[serde(default)]
    pub faults: FaultPlan,
}

/// Runs one scenario *shard*: an explicit, pre-materialized tenant
/// schedule (ascending `(arrival_ns, tenant)` pairs, e.g. one board's
/// slice of a fleet placement) against one board, calibrating through
/// `solo_cache` and streaming [`TelemetryEvent`]s into `sink` as the
/// run unfolds: admission verdicts, per-decision search cost stamped
/// with the manager's config version, per-tenant satisfaction
/// transitions, config accept/reject diagnostics and per-cluster power
/// at reconfigure instants and at the end. The sink is observe-only —
/// with [`NullSink`] the run is bit-identical to a sink-less one.
///
/// [`run_scenario`] is this with the spec's own schedule and config
/// ([`ScenarioSpec::tenant_schedule`], [`ScenarioSpec::shard_config`]),
/// a fresh cache and a [`NullSink`].
///
/// # Errors
///
/// Propagates [`SimError`] from engine interaction (invalid tenant
/// specs, malformed decisions).
#[allow(clippy::too_many_arguments)]
pub fn run_shard(
    board: &BoardSpec,
    engine_cfg: &EngineConfig,
    schedule: &[(u64, TenantSpec)],
    shard_cfg: &ShardConfig,
    admission: &mut dyn AdmissionPolicy,
    runtime: ScenarioRuntime,
    solo_cache: SoloCacheHandle<'_>,
    sink: &mut dyn TelemetrySink,
) -> Result<ScenarioOutcome, SimError> {
    let SoloCacheHandle::Shared(solo_cache) = solo_cache;
    let manager = match runtime {
        ScenarioRuntime::Gts => None,
        ScenarioRuntime::MpHars { cfg, perf, power } => {
            Some(MpHarsManager::new(board, perf, power, cfg))
        }
    };
    assert!(
        shard_cfg.target_guard.is_finite() && shard_cfg.target_guard >= 0.0,
        "target guard must be non-negative"
    );
    // Events fire in `at_ns` order; the sort is stable so same-instant
    // events keep their spec order (determinism). Beyond-horizon
    // events never fire.
    let mut events: Vec<TimedEvent> = shard_cfg
        .events
        .iter()
        .filter(|e| e.at_ns < shard_cfg.horizon_ns)
        .cloned()
        .collect();
    events.sort_by_key(|e| e.at_ns);
    let mut engine = Engine::new(board.clone(), engine_cfg.clone());
    if !shard_cfg.faults.is_empty() {
        engine.install_faults(shard_cfg.faults.clone());
    }
    let sim = Sim {
        engine,
        board,
        engine_cfg,
        manager,
        admission: ActiveAdmission::Borrowed(admission),
        events: events.into(),
        sink,
        config_accepted: 0,
        config_rejected: 0,
        horizon_ns: shard_cfg.horizon_ns,
        solo_budget: shard_cfg.solo_budget.max(2),
        target_guard: shard_cfg.target_guard,
        tenants: schedule
            .iter()
            .cloned()
            .map(|(arrival_ns, ts)| TenantState {
                ts,
                arrival_ns,
                admitted_ns: None,
                finished_ns: None,
                was_queued: false,
                rejected: false,
                app: None,
                target: None,
                solo_rate: 0.0,
                rated: 0,
                satisfied: 0,
                last_satisfied: None,
            })
            .collect(),
        queue: VecDeque::new(),
        by_app: HashMap::new(),
        live: 0,
        env_fp: environment_fingerprint(board, engine_cfg),
        solo_cache,
        cache_hits: 0,
        cache_misses: 0,
        quarantine_until: vec![0; board.n_clusters()],
        last_good_solo: HashMap::new(),
        faults_injected: 0,
        quarantines: 0,
        degraded_calibrations: 0,
        board_failed_at: None,
    };
    sim.run()
}

/// [`run_shard`] with the observability fold mounted in front of the
/// caller's sink: every event is folded into a
/// [`hars_obs::MetricsEngine`] *and* forwarded to `sink`, and the
/// resulting [`hars_obs::MetricsSummary`] rides back on
/// [`ScenarioOutcome::metrics`]. The summary is observe-only and sits
/// outside [`ScenarioOutcome::fingerprint`], so the run is
/// bit-identical to a metrics-less one. This is the fleet tier's
/// per-shard metrics entry point, and a single scenario's too.
///
/// # Errors
///
/// Propagates [`SimError`] from engine interaction (invalid tenant
/// specs, malformed decisions).
#[allow(clippy::too_many_arguments)]
pub fn run_shard_with_metrics(
    board: &BoardSpec,
    engine_cfg: &EngineConfig,
    schedule: &[(u64, TenantSpec)],
    shard_cfg: &ShardConfig,
    admission: &mut dyn AdmissionPolicy,
    runtime: ScenarioRuntime,
    solo_cache: SoloCacheHandle<'_>,
    sink: &mut dyn TelemetrySink,
) -> Result<ScenarioOutcome, SimError> {
    let mut metrics = hars_obs::MetricsSink::wrap(sink);
    let mut out = run_shard(
        board,
        engine_cfg,
        schedule,
        shard_cfg,
        admission,
        runtime,
        solo_cache,
        &mut metrics,
    )?;
    out.metrics = Some(metrics.into_summary());
    Ok(out)
}

/// Driver-internal per-tenant bookkeeping.
struct TenantState {
    ts: TenantSpec,
    arrival_ns: u64,
    admitted_ns: Option<u64>,
    finished_ns: Option<u64>,
    was_queued: bool,
    rejected: bool,
    app: Option<AppId>,
    target: Option<PerfTarget>,
    solo_rate: f64,
    rated: u64,
    satisfied: u64,
    /// Last scored satisfaction verdict, to emit
    /// [`TelemetryEvent::SatisfactionFlip`] on transitions only.
    last_satisfied: Option<bool>,
}

/// The admission policy currently in force: the caller's borrow until
/// a [`ScenarioEvent::SwapAdmission`] replaces it with an owned one.
enum ActiveAdmission<'a> {
    Borrowed(&'a mut dyn AdmissionPolicy),
    Owned(Box<dyn AdmissionPolicy>),
}

impl ActiveAdmission<'_> {
    fn policy(&mut self) -> &mut dyn AdmissionPolicy {
        match self {
            ActiveAdmission::Borrowed(p) => &mut **p,
            ActiveAdmission::Owned(p) => &mut **p,
        }
    }
}

struct Sim<'a> {
    engine: Engine,
    board: &'a BoardSpec,
    engine_cfg: &'a EngineConfig,
    manager: Option<MpHarsManager>,
    admission: ActiveAdmission<'a>,
    /// Pending control-plane events, ascending `at_ns` (stable order).
    events: VecDeque<TimedEvent>,
    /// The telemetry consumer (observe-only; never affects outcomes).
    sink: &'a mut dyn TelemetrySink,
    /// Control-plane events accepted / rejected so far.
    config_accepted: u64,
    config_rejected: u64,
    horizon_ns: u64,
    solo_budget: u64,
    target_guard: f64,
    tenants: Vec<TenantState>,
    queue: VecDeque<usize>,
    by_app: HashMap<AppId, usize>,
    live: usize,
    /// This run's calibration-environment fingerprint (cache key part).
    env_fp: u64,
    /// The (possibly cross-scenario, possibly fleet-shared) solo-rate
    /// calibration cache.
    solo_cache: &'a SharedSoloRateCache,
    /// This run's own cache hit/miss counts (reporting only).
    cache_hits: u64,
    cache_misses: u64,
    /// Driver-side quarantine expiries, indexed by cluster (0 = none):
    /// the manager's quarantine is cleared, and the restore
    /// telemetered, at the first interaction at or past the expiry.
    quarantine_until: Vec<u64>,
    /// Last-known-good solo rates — `(rate, resolved_at_ns)` per
    /// `(benchmark, threads)` — the degraded-mode calibration fallback
    /// while a sensor fault is active.
    last_good_solo: HashMap<(Benchmark, usize), (f64, u64)>,
    /// Fault-plane injections observed (reporting).
    faults_injected: u64,
    /// Cluster quarantines applied (reporting).
    quarantines: u64,
    /// Degraded-mode calibrations served (reporting).
    degraded_calibrations: u64,
    /// The instant the board died, when a `BoardFail` fault fired.
    board_failed_at: Option<u64>,
}

/// Degraded-mode staleness bound: a last-known-good solo rate older
/// than this is not trusted for target resolution — the driver falls
/// back to a fresh calibration run even mid-fault.
const DEGRADED_SOLO_MAX_AGE_NS: u64 = 600_000_000_000;

impl Sim<'_> {
    fn run(mut self) -> Result<ScenarioOutcome, SimError> {
        let mut next_arrival = 0usize;
        loop {
            let next_t = self
                .tenants
                .get(next_arrival)
                .map(|t| t.arrival_ns.min(self.horizon_ns));
            let deadline = next_t.unwrap_or(self.horizon_ns);
            if let Some(hb) = self.engine.next_heartbeat(deadline) {
                self.apply_due_events(hb.time_ns)?;
                self.poll_faults();
                self.on_heartbeat(hb.app, hb.index, hb.time_ns)?;
                if self.board_failed_at.is_some() {
                    break;
                }
                continue;
            }
            // No heartbeat before `deadline`: either the clock reached
            // it, or every currently registered app is done (an idle
            // gap between departures and the next arrival).
            if let Some(t) = next_t {
                if self.engine.now_ns() < t {
                    self.engine.run_until(t);
                }
                self.apply_due_events(t)?;
                self.poll_faults();
                if self.board_failed_at.is_some() {
                    // The board is dead: remaining arrivals are never
                    // processed (no admission verdict, no rejection) —
                    // the fleet supervisor recognizes and re-places
                    // them.
                    break;
                }
                self.on_arrival(next_arrival)?;
                next_arrival += 1;
                continue;
            }
            // Arrivals exhausted: run until the last tenant departs or
            // the horizon cuts the scenario off. (`next_heartbeat`
            // returning `None` here means one of those happened —
            // all-done, or the clock hit the horizon.)
            break;
        }
        // Events scheduled after the last heartbeat/arrival still
        // resolve — validation, counters, telemetry — before the books
        // close. Fault notices from the final engine advance likewise.
        self.apply_due_events(u64::MAX)?;
        self.poll_faults();
        Ok(self.finish())
    }

    /// Applies every pending control-plane event with `at_ns ≤ now_ns`.
    ///
    /// Events take effect at the first runtime interaction (heartbeat,
    /// arrival, or scenario end) at or after their scheduled instant —
    /// not at an engine stop forced at `at_ns` itself. The config they
    /// carry is only ever *read* at those interactions, so the
    /// semantics are the same, while the engine's advance timeline
    /// stays bit-identical to an event-free run: forcing the clock to
    /// pause mid-advance would split one floating-point work
    /// integration into two and shift completion instants by an ulp,
    /// breaking the rejected-delta ⇒ unchanged-behavior contract.
    fn apply_due_events(&mut self, now_ns: u64) -> Result<(), SimError> {
        while self.events.front().is_some_and(|e| e.at_ns <= now_ns) {
            let ev = self.events.pop_front().expect("peeked non-empty");
            self.apply_event(&ev)?;
        }
        Ok(())
    }

    /// Applies one control-plane event at the current instant. Invalid
    /// events are counted and reported through the sink, never fatal —
    /// an operator typo must not take the scenario down.
    fn apply_event(&mut self, ev: &TimedEvent) -> Result<(), SimError> {
        let t_ns = self.engine.now_ns();
        match &ev.event {
            ScenarioEvent::Reconfigure(delta) => {
                let applied = match self.manager.as_mut() {
                    Some(m) => m.apply_config(delta),
                    None => Err(RejectReason::NoManager),
                };
                match applied {
                    Ok(version) => {
                        self.config_accepted += 1;
                        self.sink.emit(&TelemetryEvent::ConfigApplied {
                            t_ns,
                            version: version.0,
                        });
                        self.emit_cluster_power(t_ns);
                    }
                    Err(reason) => {
                        self.config_rejected += 1;
                        self.sink.emit(&TelemetryEvent::ConfigRejected {
                            t_ns,
                            reason: reason.code().into(),
                        });
                    }
                }
            }
            ScenarioEvent::SwapAdmission(swap) => {
                if swap.is_valid() {
                    self.admission = ActiveAdmission::Owned(swap.build());
                    self.config_accepted += 1;
                    self.sink.emit(&TelemetryEvent::AdmissionSwapped {
                        t_ns,
                        policy: swap.policy_name().into(),
                    });
                    // A looser policy may admit tenants already waiting.
                    self.drain_queue()?;
                } else {
                    self.config_rejected += 1;
                    self.sink.emit(&TelemetryEvent::ConfigRejected {
                        t_ns,
                        reason: "invalid-value".into(),
                    });
                }
            }
            ScenarioEvent::SetTargetGuard(guard) => {
                if guard.is_finite() && *guard >= 0.0 {
                    self.target_guard = *guard;
                    self.config_accepted += 1;
                    self.sink.emit(&TelemetryEvent::GuardChanged {
                        t_ns,
                        target_guard: *guard,
                    });
                } else {
                    self.config_rejected += 1;
                    self.sink.emit(&TelemetryEvent::ConfigRejected {
                        t_ns,
                        reason: "invalid-value".into(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Drains the engine's fault notices and reacts: telemetry for
    /// every injection, manager quarantine for cluster faults,
    /// board-death bookkeeping for `BoardFail` — then lifts expired
    /// quarantines. A no-op (one empty drain) in fault-free runs, so
    /// the fault-free timeline stays bit-identical.
    fn poll_faults(&mut self) {
        for n in self.engine.drain_fault_notices() {
            self.faults_injected += 1;
            let cluster = n.kind.cluster().map(|c| c.index() as i64).unwrap_or(-1);
            let until_ns = n.kind.until_ns().unwrap_or(u64::MAX);
            self.sink.emit(&TelemetryEvent::FaultInjected {
                t_ns: n.t_ns,
                fault: n.kind.name().into(),
                cluster,
                until_ns,
            });
            match n.kind {
                FaultKind::BoardFail => {
                    self.board_failed_at = Some(n.t_ns);
                    let in_flight = self
                        .tenants
                        .iter()
                        .filter(|t| t.app.is_some() && t.finished_ns.is_none())
                        .count();
                    self.sink.emit(&TelemetryEvent::BoardFailed {
                        t_ns: n.t_ns,
                        tenants_in_flight: in_flight as u64,
                    });
                }
                FaultKind::ClusterCap { cluster, until_ns } => {
                    self.quarantine_cluster(n.t_ns, cluster, QuarantineMode::Cap, until_ns);
                }
                FaultKind::ClusterOffline { cluster, until_ns } => {
                    self.quarantine_cluster(n.t_ns, cluster, QuarantineMode::Offline, until_ns);
                }
                // Sensor and heartbeat faults need no control action:
                // the engine degrades the sample/monitor streams itself
                // and the admission path switches to last-known-good
                // calibration while `sensor_faulted()` holds.
                FaultKind::SensorDropout { .. }
                | FaultKind::SensorStuck { .. }
                | FaultKind::HeartbeatStall { .. } => {}
            }
        }
        // Lift expired quarantines at the first interaction past them.
        let now = self.engine.now_ns();
        for ci in 0..self.quarantine_until.len() {
            if self.quarantine_until[ci] != 0 && now >= self.quarantine_until[ci] {
                self.quarantine_until[ci] = 0;
                if let Some(m) = self.manager.as_mut() {
                    m.clear_cluster_quarantine(ClusterId(ci));
                }
                self.sink.emit(&TelemetryEvent::ClusterRestored {
                    t_ns: now,
                    cluster: ci,
                });
            }
        }
    }

    /// Applies one cluster quarantine: manager eviction plus expiry
    /// bookkeeping plus telemetry.
    fn quarantine_cluster(
        &mut self,
        t_ns: u64,
        cluster: ClusterId,
        mode: QuarantineMode,
        until_ns: u64,
    ) {
        if let Some(m) = self.manager.as_mut() {
            m.set_cluster_quarantine(cluster, mode);
        }
        let slot = &mut self.quarantine_until[cluster.index()];
        *slot = (*slot).max(until_ns);
        self.quarantines += 1;
        self.sink.emit(&TelemetryEvent::ClusterQuarantined {
            t_ns,
            cluster: cluster.index(),
            mode: mode.name().into(),
            until_ns,
        });
    }

    /// Emits one [`TelemetryEvent::ClusterPower`] per cluster.
    fn emit_cluster_power(&mut self, t_ns: u64) {
        for c in self.board.cluster_ids() {
            let watts = self.engine.energy().average_cluster_power(c);
            self.sink.emit(&TelemetryEvent::ClusterPower {
                t_ns,
                cluster: c.0,
                watts,
            });
        }
    }

    fn on_heartbeat(&mut self, app: AppId, hb_index: u64, time_ns: u64) -> Result<(), SimError> {
        let Some(&ti) = self.by_app.get(&app) else {
            return Ok(());
        };
        let rate = self
            .engine
            .monitor(app)?
            .window_rate()
            .map(|r| r.heartbeats_per_sec());
        if let (Some(r), Some(target)) = (rate, self.tenants[ti].target) {
            self.tenants[ti].rated += 1;
            let satisfied = r >= target.min();
            if satisfied {
                self.tenants[ti].satisfied += 1;
            }
            self.sink.emit(&TelemetryEvent::HeartbeatRate {
                t_ns: time_ns,
                tenant: ti as u64,
                rate_hz: r,
                satisfied,
            });
            if self.tenants[ti].last_satisfied != Some(satisfied) {
                self.tenants[ti].last_satisfied = Some(satisfied);
                self.sink.emit(&TelemetryEvent::SatisfactionFlip {
                    t_ns: time_ns,
                    tenant: ti as u64,
                    satisfied,
                });
            }
        }
        if let Some(m) = self.manager.as_mut() {
            if let Some(d) = m.on_heartbeat(app, hb_index, rate) {
                self.sink.emit(&TelemetryEvent::Decision {
                    t_ns: time_ns,
                    app: app.0,
                    config_version: m.core().config_version().0,
                    stats: d.stats,
                });
                apply_mp_decision(&mut self.engine, &d, time_ns + d.overhead_ns)?;
            }
        }
        if self.engine.app_done(app) && self.tenants[ti].finished_ns.is_none() {
            self.tenants[ti].finished_ns = Some(time_ns);
            self.live -= 1;
            self.sink.emit(&TelemetryEvent::TenantDeparted {
                t_ns: time_ns,
                tenant: ti as u64,
                heartbeats: self.engine.app_heartbeats(app),
            });
            if let Some(m) = self.manager.as_mut() {
                m.unregister_app(app);
            }
            self.drain_queue()?;
        }
        Ok(())
    }

    fn on_arrival(&mut self, ti: usize) -> Result<(), SimError> {
        let load = self.load_estimate();
        let t_ns = self.engine.now_ns();
        let decision = self.admission.policy().decide(&load, self.queue.len());
        let verdict = match decision {
            AdmissionDecision::Admit => "admit",
            AdmissionDecision::Queue => "queue",
            AdmissionDecision::Reject => "reject",
        };
        self.sink.emit(&TelemetryEvent::AdmissionVerdict {
            t_ns,
            tenant: ti as u64,
            verdict: verdict.into(),
        });
        match decision {
            AdmissionDecision::Admit => self.admit(ti)?,
            AdmissionDecision::Queue => {
                self.tenants[ti].was_queued = true;
                self.queue.push_back(ti);
            }
            AdmissionDecision::Reject => self.tenants[ti].rejected = true,
        }
        Ok(())
    }

    /// Admits queued tenants head-first while the policy approves.
    fn drain_queue(&mut self) -> Result<(), SimError> {
        while let Some(&head) = self.queue.front() {
            let load = self.load_estimate();
            // The head has no waiters ahead of it.
            match self.admission.policy().decide(&load, 0) {
                AdmissionDecision::Admit => {
                    self.queue.pop_front();
                    self.sink.emit(&TelemetryEvent::AdmissionVerdict {
                        t_ns: self.engine.now_ns(),
                        tenant: head as u64,
                        verdict: "admit".into(),
                    });
                    self.admit(head)?;
                }
                _ => break,
            }
        }
        Ok(())
    }

    fn admit(&mut self, ti: usize) -> Result<(), SimError> {
        let (bench, threads) = (self.tenants[ti].ts.bench, self.tenants[ti].ts.spec.threads);
        let solo = self.solo_rate(ti, bench, threads);
        let t = &mut self.tenants[ti];
        let target = PerfTarget::from_center(t.target_frac_center(solo), t.ts.target_tolerance)
            .expect("positive target center");
        let app = self.engine.add_app(t.ts.spec.clone())?;
        self.engine.set_perf_target(app, target)?;
        if let Some(m) = self.manager.as_mut() {
            // The manager aims at the guard-scaled band; satisfaction
            // is scored against the tenant's own band.
            m.register_app(app, threads, target.scaled(1.0 + self.target_guard));
        }
        let now = self.engine.now_ns();
        let t = &mut self.tenants[ti];
        t.app = Some(app);
        t.target = Some(target);
        t.solo_rate = solo;
        t.admitted_ns = Some(now);
        self.by_app.insert(app, ti);
        self.live += 1;
        self.sink.emit(&TelemetryEvent::TenantAdmitted {
            t_ns: now,
            tenant: ti as u64,
            bench: bench.name().into(),
            threads: threads as u64,
            target_min: target.min(),
            queue_wait_ns: now - self.tenants[ti].arrival_ns,
        });
        Ok(())
    }

    /// The benchmark's isolated rate on this board: a solo run at the
    /// maximum state (GTS, performance governor), cached per
    /// `(environment, benchmark, threads, budget)` — across scenarios
    /// and shards when the caller shares a [`SharedSoloRateCache`].
    fn solo_rate(&mut self, ti: usize, bench: Benchmark, threads: usize) -> f64 {
        let key = (self.env_fp, bench, threads, self.solo_budget);
        let t_ns = self.engine.now_ns();
        // Degraded mode: while a sensor fault is active, target
        // resolution is served from the last-known-good solo rate
        // (bounded staleness) instead of trusting a fresh calibration
        // — telemetered per admission. Too-stale (or absent) entries
        // fall through to the normal path.
        if self.engine.sensor_faulted() {
            if let Some(&(rate, at_ns)) = self.last_good_solo.get(&(bench, threads)) {
                let age_ns = t_ns.saturating_sub(at_ns);
                if age_ns <= DEGRADED_SOLO_MAX_AGE_NS {
                    self.degraded_calibrations += 1;
                    self.sink.emit(&TelemetryEvent::DegradedCalibration {
                        t_ns,
                        tenant: ti as u64,
                        bench: bench.name().into(),
                        age_ns,
                    });
                    return rate;
                }
            }
        }
        let (board, engine_cfg, budget) = (self.board, self.engine_cfg, self.solo_budget);
        let (rate, hit) = self
            .solo_cache
            .get_or_calibrate(key, || calibrate(board, engine_cfg, bench, threads, budget));
        let event = if hit {
            self.cache_hits += 1;
            TelemetryEvent::CacheHit {
                t_ns,
                bench: bench.name().into(),
                threads: threads as u64,
            }
        } else {
            self.cache_misses += 1;
            TelemetryEvent::CacheMiss {
                t_ns,
                bench: bench.name().into(),
                threads: threads as u64,
            }
        };
        self.sink.emit(&event);
        self.last_good_solo.insert((bench, threads), (rate, t_ns));
        rate
    }

    fn load_estimate(&self) -> LoadEstimate {
        match &self.manager {
            Some(m) => {
                let per: Vec<f64> = m
                    .clusters()
                    .iter()
                    .map(|c| 1.0 - c.free_count() as f64 / c.len() as f64)
                    .collect();
                let total_cores: usize = m.clusters().iter().map(|c| c.len()).sum();
                let owned: usize = m.clusters().iter().map(|c| c.len() - c.free_count()).sum();
                // Tenants admitted but not yet through their initial
                // allocation (it happens at the first heartbeat) own
                // nothing yet; count their thread demand as pending
                // claim so a burst cannot slip through the load-0
                // window between admission and allocation.
                let pending: usize = m
                    .apps()
                    .iter()
                    .filter(|a| !a.allocated)
                    .map(|a| a.threads.min(total_cores))
                    .sum();
                LoadEstimate {
                    per_cluster: per,
                    total: (owned + pending) as f64 / total_cores.max(1) as f64,
                    live_tenants: self.live,
                }
            }
            None => {
                let threads: usize = self
                    .tenants
                    .iter()
                    .filter(|t| t.app.is_some() && t.finished_ns.is_none())
                    .map(|t| t.ts.spec.threads)
                    .sum();
                let frac = threads as f64 / self.board.n_cores() as f64;
                LoadEstimate {
                    per_cluster: vec![frac; self.board.n_clusters()],
                    total: frac,
                    live_tenants: self.live,
                }
            }
        }
    }

    fn finish(mut self) -> ScenarioOutcome {
        // Closing power report, whether or not anything reconfigured.
        self.emit_cluster_power(self.engine.now_ns());
        let horizon = self.horizon_ns;
        let (adaptations, busy, stats) = match &self.manager {
            Some(m) => (m.adaptations(), m.busy_ns(), m.search_stats()),
            None => (0, 0, SearchStats::default()),
        };
        let energy = self.engine.energy().total_joules();
        let watts = self.engine.energy().average_power();
        let outcomes: Vec<TenantOutcome> = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let heartbeats = t.app.map(|a| self.engine.app_heartbeats(a)).unwrap_or(0);
                let avg_rate = t
                    .app
                    .and_then(|a| self.engine.monitor(a).ok())
                    .and_then(|m| m.global_rate())
                    .map(|r| r.heartbeats_per_sec())
                    .unwrap_or(0.0);
                let norm_perf = t
                    .target
                    .map(|tg| normalized_performance(&tg, avg_rate))
                    .unwrap_or(0.0);
                TenantOutcome {
                    tenant: i,
                    bench: t.ts.bench.name(),
                    arrival_ns: t.arrival_ns,
                    admitted_ns: t.admitted_ns,
                    finished_ns: t.finished_ns,
                    was_queued: t.was_queued,
                    rejected: t.rejected,
                    heartbeats,
                    avg_rate,
                    target_min: t.target.map(|tg| tg.min()).unwrap_or(0.0),
                    satisfaction: if t.rated > 0 {
                        t.satisfied as f64 / t.rated as f64
                    } else {
                        0.0
                    },
                    norm_perf,
                    solo_rate: t.solo_rate,
                    slowdown: if avg_rate > 0.0 {
                        t.solo_rate / avg_rate
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        let mut out = ScenarioOutcome::from_tenants(
            outcomes,
            horizon,
            energy,
            watts,
            adaptations,
            busy,
            stats,
        );
        // Sample-count reporting (not fingerprinted): total is invariant
        // under idle-span coalescing, the split shows how much the
        // default engine elided.
        out.sensor_samples = self.engine.sensor().total_samples();
        out.sensor_samples_coalesced = self.engine.sensor().coalesced_samples();
        out.ticks_fast_forwarded = self.engine.ticks_fast_forwarded();
        out.sensor_samples_lost = self.engine.sensor().samples_lost();
        out.sensor_samples_stuck = self.engine.sensor().samples_stuck();
        out.faults_injected = self.faults_injected;
        out.board_failed_at = self.board_failed_at;
        out.quarantines = self.quarantines;
        out.degraded_calibrations = self.degraded_calibrations;
        out.stalled_heartbeats = self.engine.stalled_heartbeats();
        out.config_version = self
            .manager
            .as_ref()
            .map(|m| m.core().config_version().0)
            .unwrap_or(0);
        out.reconfig_accepted = self.config_accepted;
        out.reconfig_rejected = self.config_rejected;
        out.solo_cache_hits = self.cache_hits;
        out.solo_cache_misses = self.cache_misses;
        out
    }
}

impl TenantState {
    /// The tenant's absolute target center given the solo rate.
    fn target_frac_center(&self, solo_rate: f64) -> f64 {
        (self.ts.target_frac * solo_rate).max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;
    use std::thread;
    use std::time::Duration;

    use super::*;

    const KEY: SoloKey = (0, Benchmark::Swaptions, 4, 60);
    const THREADS: usize = 8;

    /// Runs `THREADS` lookups of [`KEY`] released together by a barrier,
    /// each through `calibrate(call_index)`; returns what each lookup
    /// produced (`None` for a lookup whose calibration panicked) and
    /// how many calibrations ran.
    fn race(
        cache: &SharedSoloRateCache,
        calibrate: impl Fn(u64) -> f64 + Sync,
    ) -> (Vec<Option<(f64, bool)>>, u64) {
        let calls = AtomicU64::new(0);
        let start = Barrier::new(THREADS);
        let results = thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        catch_unwind(AssertUnwindSafe(|| {
                            cache.get_or_calibrate(KEY, || {
                                let call = calls.fetch_add(1, Ordering::SeqCst);
                                // The asserted counts hold under any
                                // interleaving; the sleep makes the
                                // contended one, every other lookup
                                // waiting on this calibration, likely.
                                thread::sleep(Duration::from_millis(50));
                                calibrate(call)
                            })
                        }))
                        .ok()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("lookups catch their own panics"))
                .collect()
        });
        (results, calls.into_inner())
    }

    #[test]
    fn concurrent_cold_lookups_calibrate_once() {
        let cache = SharedSoloRateCache::new();
        let (results, calls) = race(&cache, |_| 42.0);
        assert_eq!(calls, 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), THREADS as u64 - 1);
        assert_eq!(cache.len(), 1);
        let lookups: Vec<(f64, bool)> = results.into_iter().map(Option::unwrap).collect();
        assert!(lookups.iter().all(|&(rate, _)| rate == 42.0));
        assert_eq!(lookups.iter().filter(|&&(_, hit)| hit).count(), THREADS - 1);
    }

    #[test]
    fn a_panicking_calibration_leaves_the_key_to_the_next_lookup() {
        let cache = SharedSoloRateCache::new();
        let failed = catch_unwind(AssertUnwindSafe(|| {
            cache.get_or_calibrate(KEY, || panic!("calibration failed"))
        }));
        assert!(failed.is_err());
        assert_eq!(cache.len(), 0, "a failed calibration stores nothing");
        assert_eq!(cache.get_or_calibrate(KEY, || 3.0), (3.0, false));

        // Concurrently: the first calibration panics while the others
        // wait on it; one waiter calibrates and the rest are served.
        let cache = SharedSoloRateCache::new();
        let (results, calls) = race(&cache, |call| {
            assert!(call > 0, "first calibration fails");
            7.0
        });
        assert_eq!(calls, 2);
        assert_eq!(results.iter().filter(|r| r.is_none()).count(), 1);
        assert!(results.iter().flatten().all(|(rate, _)| *rate == 7.0));
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), THREADS as u64 - 2);
        assert_eq!(cache.len(), 1);
    }
}
