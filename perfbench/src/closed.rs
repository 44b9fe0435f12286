//! The closed-world workloads: every app starts at t = 0 and a run
//! ends when all have finished their budgets (or at the deadline).
//!
//! * `xu3-paper` — the paper's setting: each PARSEC analog alone on the
//!   ODROID-XU3 under single-app HARS-E at a 50 % target.
//! * `server-search` — four PARSEC apps with staggered targets sharing
//!   the 4-cluster server under MP-HARS-E. More apps would shrink each
//!   app's share of free cores, and with it the search space, while the
//!   engine's cost grows with the threads it steps: at six or eight apps
//!   the engine, not the search, dominates host time.
//!
//! One iteration runs several instances of the setting, each with its
//! own seed derived from the workload seed, so that the work in an
//! iteration varies little from one workload seed to the next.
//!
//! The untraced iteration goes through the public drivers
//! (`run_single_app`, `run_multi_app`). The traced iteration runs the
//! same driver loop from here, timing every call it makes into the
//! engine and the manager, and times the search through a strategy
//! factory that delegates to the manager's own policy.

use std::collections::BTreeMap;
use std::sync::Arc;

use hars_bench::setup::{measure_max_rate, seed_for, target_for, Lab};
use hars_core::driver::{apply_decision, run_single_app};
use hars_core::metrics::{normalized_performance, perf_per_watt};
use hars_core::policy::hars_e;
use hars_core::search::SearchStats;
use hars_core::{HarsConfig, PerfEstimator, PowerEstimator, RuntimeManager};
use heartbeats::{AppId, PerfTarget};
use hmp_sim::clock::secs_to_ns;
use hmp_sim::{AppSpec, BoardSpec, Engine, EngineConfig};
use mp_hars::driver::apply_mp_decision;
use mp_hars::{mp_hars_e, run_multi_app, MpHarsConfig, MpHarsManager, MpVersion};
use workloads::Benchmark;

use crate::hooks::TimedFactory;
use crate::report::{Digest, Outcome, Traced};
use crate::trace;

/// Sizing of the closed-world workloads.
#[derive(Debug, Clone, Copy)]
pub struct ClosedScale {
    /// Seeded instances of the setting per iteration: XU3 runs (of six
    /// apps each) and server runs.
    pub instances: (usize, usize),
    /// Heartbeat budget of every app.
    pub budget: u64,
    /// Apps sharing the server (`server-search` only).
    pub server_apps: usize,
    /// Full XU3 power-calibration sweep (`false`: the coarse one).
    pub full_calibration: bool,
}

impl ClosedScale {
    /// The benchmark's sizing.
    pub fn bench() -> Self {
        Self {
            instances: (8, 8),
            budget: 400,
            server_apps: 4,
            full_calibration: true,
        }
    }

    /// A reduced sizing for tests.
    #[cfg(test)]
    pub fn small() -> Self {
        Self {
            instances: (1, 1),
            budget: 60,
            server_apps: 3,
            full_calibration: false,
        }
    }
}

/// Virtual-time cap of one run; budgets finish well before it.
const DEADLINE_SECS: f64 = 600.0;

/// One application and the target band it must meet.
#[derive(Debug, Clone)]
struct App {
    spec: AppSpec,
    target: PerfTarget,
}

/// Which runtime manager drives a run.
#[derive(Debug)]
enum Manager {
    /// Single-app HARS, one app per run.
    Hars(HarsConfig),
    /// MP-HARS over every app of the run.
    MpHars(MpHarsConfig),
}

/// A closed-world workload: the board, its calibrated estimators and
/// the apps of every run of one iteration.
#[derive(Debug)]
pub struct Closed {
    lab: Lab,
    runs: Vec<Vec<App>>,
    budget: u64,
    manager: Manager,
}

/// Resolves an app's target as `frac` of its solo maximum rate.
fn app(lab: &Lab, bench: Benchmark, seed: u64, budget: u64, frac: f64) -> App {
    let max = measure_max_rate(lab, bench, 8, seed);
    App {
        spec: bench.spec_with_budget(8, seed, budget),
        target: target_for(max, frac),
    }
}

/// The seed of app `slot` of instance `instance`.
fn app_seed(seed: u64, instance: usize, bench: Benchmark, slot: usize) -> u64 {
    let instance_seed = hars_fleet::shard_seed(seed, instance as u64);
    seed_for(bench) ^ hars_fleet::shard_seed(instance_seed, slot as u64)
}

impl Closed {
    /// `xu3-paper`: calibrates the XU3 power model, then resolves each
    /// app's 50 % target from its solo maximum rate.
    pub fn xu3_paper(seed: u64, scale: ClosedScale) -> Self {
        let mut lab = if scale.full_calibration {
            Lab::new()
        } else {
            Lab::quick()
        };
        lab.engine_cfg.seed = hars_fleet::shard_seed(seed, u64::MAX);
        let runs = (0..scale.instances.0)
            .flat_map(|i| {
                Benchmark::ALL
                    .iter()
                    .enumerate()
                    .map(move |(slot, &b)| (i, slot, b))
            })
            .map(|(i, slot, b)| vec![app(&lab, b, app_seed(seed, i, b, slot), scale.budget, 0.50)])
            .collect();
        Self {
            lab,
            runs,
            budget: scale.budget,
            // The paper harness's overhead model: an A7 management core
            // where heartbeat I/O dominates and search adds per-candidate
            // estimator math.
            manager: Manager::Hars(HarsConfig {
                cost_per_state_ns: 8_000,
                cost_per_heartbeat_ns: 1_000_000,
                ..HarsConfig::from_variant(hars_e())
            }),
        }
    }

    /// `server-search`: resolves each app's target from its solo
    /// maximum rate on the server; targets step up from 55 % of it by
    /// 5 points per app.
    pub fn server_search(seed: u64, scale: ClosedScale) -> Self {
        let board = BoardSpec::server_4c_32core();
        let lab = Lab {
            perf_est: PerfEstimator::from_board(&board),
            power_est: PowerEstimator::synthetic_for_board(&board),
            engine_cfg: EngineConfig {
                hb_window: 10,
                seed: hars_fleet::shard_seed(seed, u64::MAX),
                ..EngineConfig::default()
            },
            board,
        };
        let runs = (0..scale.instances.1)
            .map(|i| {
                (0..scale.server_apps)
                    .map(|slot| {
                        let b = Benchmark::ALL[slot % Benchmark::ALL.len()];
                        let frac = 0.55 + 0.05 * slot as f64;
                        app(&lab, b, app_seed(seed, i, b, slot), scale.budget, frac)
                    })
                    .collect()
            })
            .collect();
        Self {
            lab,
            runs,
            budget: scale.budget,
            // A short adaptation period (the churn-tuned fleet runtime
            // uses 5) so that decisions, not stepping, carry the run.
            manager: Manager::MpHars(MpHarsConfig {
                adapt_every: 4,
                cost_per_state_ns: 8_000,
                cost_per_heartbeat_ns: 1_000_000,
                ..mp_hars_e()
            }),
        }
    }

    /// One untraced iteration through the public drivers.
    pub fn run(&self) -> Outcome {
        let results: Vec<RunResult> = self
            .runs
            .iter()
            .map(|apps| self.run_one(apps, false))
            .collect();
        closed_outcome(&results, self.budget)
    }

    /// One traced iteration.
    pub fn run_traced(&self) -> Traced {
        let root = trace::enter("iteration");
        let results: Vec<RunResult> = self
            .runs
            .iter()
            .map(|apps| self.run_one(apps, true))
            .collect();
        drop(root);
        Traced {
            outcome: closed_outcome(&results, self.budget),
            spans: trace::take_thread_spans(),
            counts: closed_counts(&results),
        }
    }

    fn run_one(&self, apps: &[App], traced: bool) -> RunResult {
        let mut engine = self.lab.engine();
        let ids: Vec<AppId> = apps
            .iter()
            .map(|a| {
                engine
                    .add_app(a.spec.clone())
                    .expect("preset specs validate")
            })
            .collect();
        let deadline = secs_to_ns(DEADLINE_SECS);
        match &self.manager {
            Manager::Hars(cfg) => {
                let (app, id) = (&apps[0], ids[0]);
                let mut m = RuntimeManager::new(
                    &self.lab.board,
                    app.target,
                    self.lab.perf_est,
                    self.lab.power_est.clone(),
                    app.spec.threads,
                    cfg.clone(),
                );
                let driver_ppw = if traced {
                    m.set_search_strategy_factory(Arc::new(TimedFactory::new(cfg.policy.clone())));
                    traced_single_loop(&mut engine, id, &mut m, deadline);
                    None
                } else {
                    let out = run_single_app(&mut engine, id, &mut m, deadline, false)
                        .expect("driver runs on its own engine");
                    Some(out.perf_per_watt)
                };
                let rate = global_rate(&engine, id);
                let ppw = perf_per_watt(m.target(), rate, engine.energy().average_power());
                let mut r = run_result(
                    &engine,
                    &ids,
                    ppw,
                    m.adaptations(),
                    m.busy_ns(),
                    m.search_stats(),
                );
                // A single-app manager returns a decision exactly when it
                // adapts.
                r.decisions = m.adaptations();
                r.check_driver(driver_ppw);
                r
            }
            Manager::MpHars(cfg) => {
                let mut m = MpHarsManager::new(
                    &self.lab.board,
                    self.lab.perf_est,
                    self.lab.power_est.clone(),
                    cfg.clone(),
                );
                for (a, &id) in apps.iter().zip(&ids) {
                    engine
                        .set_perf_target(id, a.target)
                        .expect("app registered");
                    m.register_app(id, a.spec.threads, a.target);
                }
                let (decisions, driver_ppw) = if traced {
                    m.set_search_strategy_factory(Arc::new(TimedFactory::new(cfg.policy.clone())));
                    (traced_multi_loop(&mut engine, &ids, &mut m, deadline), None)
                } else {
                    let mut version = MpVersion::MpHars(m);
                    let out = run_multi_app(&mut engine, &ids, &mut version, deadline, false)
                        .expect("driver runs on its own engine");
                    let MpVersion::MpHars(inner) = version else {
                        unreachable!("the version is MP-HARS")
                    };
                    m = inner;
                    (0, Some(out.perf_per_watt))
                };
                let norm_mean = ids
                    .iter()
                    .map(|&id| app_norm_perf(&engine, id))
                    .sum::<f64>()
                    / ids.len() as f64;
                let watts = engine.energy().average_power();
                let ppw = if watts > 0.0 { norm_mean / watts } else { 0.0 };
                let mut r = run_result(
                    &engine,
                    &ids,
                    ppw,
                    m.adaptations(),
                    m.busy_ns(),
                    m.search_stats(),
                );
                r.decisions = decisions;
                r.check_driver(driver_ppw);
                r
            }
        }
    }
}

/// `hars_core::driver::run_single_app` without the behavior trace,
/// every call into the engine and the manager in its own span.
fn traced_single_loop(
    engine: &mut Engine,
    app: AppId,
    manager: &mut RuntimeManager,
    deadline: u64,
) {
    engine
        .set_perf_target(app, *manager.target())
        .expect("app registered");
    let initial = manager.initial_decision();
    let now = engine.now_ns();
    apply_decision(engine, app, &initial, now).expect("valid decision");
    loop {
        let hb = {
            let _s = trace::enter("engine.next_heartbeat");
            engine.next_heartbeat(deadline)
        };
        let Some(hb) = hb else { break };
        if hb.app != app {
            continue;
        }
        let rate = engine
            .monitor(app)
            .expect("app registered")
            .window_rate()
            .map(|r| r.heartbeats_per_sec());
        let decision = {
            let _s = trace::enter("manager.on_heartbeat");
            manager.on_heartbeat(hb.index, rate)
        };
        if let Some(d) = decision {
            let _s = trace::enter("manager.apply");
            apply_decision(engine, app, &d, hb.time_ns + d.overhead_ns).expect("valid decision");
        }
    }
}

/// `mp_hars::run_multi_app`'s MP-HARS arm without the behavior trace,
/// every call into the engine and the manager in its own span. Returns
/// the decisions the manager made.
fn traced_multi_loop(
    engine: &mut Engine,
    apps: &[AppId],
    m: &mut MpHarsManager,
    deadline: u64,
) -> u64 {
    let mut done = vec![false; apps.len()];
    let mut decisions = 0;
    loop {
        let hb = {
            let _s = trace::enter("engine.next_heartbeat");
            engine.next_heartbeat(deadline)
        };
        let Some(hb) = hb else { break };
        let Some(pos) = apps.iter().position(|&a| a == hb.app) else {
            continue;
        };
        let rate = engine
            .monitor(hb.app)
            .expect("app registered")
            .window_rate()
            .map(|r| r.heartbeats_per_sec());
        let decision = {
            let _s = trace::enter("manager.on_heartbeat");
            m.on_heartbeat(hb.app, hb.index, rate)
        };
        if let Some(d) = decision {
            decisions += 1;
            let _s = trace::enter("manager.apply");
            apply_mp_decision(engine, &d, hb.time_ns + d.overhead_ns).expect("valid decision");
        }
        if engine.app_done(hb.app) && !done[pos] {
            done[pos] = true;
            let _s = trace::enter("manager.unregister");
            m.unregister_app(hb.app);
        }
    }
    decisions
}

/// One run's results, read from the engine and the manager after it.
#[derive(Debug)]
struct RunResult {
    /// Per app: heartbeats, finished, normalized performance.
    apps: Vec<(u64, bool, f64)>,
    perf_per_watt: f64,
    energy_j: f64,
    sim_s: f64,
    decisions: u64,
    adaptations: u64,
    search: SearchStats,
    sensor: (u64, u64),
    fingerprint: u64,
    errors: Vec<String>,
}

impl RunResult {
    /// The driver's own perf/W, when it reported one, must equal the one
    /// computed here.
    fn check_driver(&mut self, driver_ppw: Option<f64>) {
        if let Some(d) = driver_ppw {
            if d.to_bits() != self.perf_per_watt.to_bits() {
                self.errors.push(format!(
                    "perf/W {} disagrees with the driver's {d}",
                    self.perf_per_watt
                ));
            }
        }
    }
}

fn run_result(
    engine: &Engine,
    apps: &[AppId],
    perf_per_watt: f64,
    adaptations: u64,
    busy_ns: u64,
    search: SearchStats,
) -> RunResult {
    let mut digest = Digest::new();
    let apps: Vec<(u64, bool, f64)> = apps
        .iter()
        .map(|&id| {
            let hb = engine.app_heartbeats(id);
            digest.u64(hb).f64(global_rate(engine, id));
            (hb, engine.app_done(id), app_norm_perf(engine, id))
        })
        .collect();
    let energy_j = engine.energy().total_joules();
    digest
        .u64(engine.now_ns())
        .f64(energy_j)
        .u64(adaptations)
        .u64(busy_ns)
        .u64(search.explored as u64)
        .u64(search.evaluated as u64)
        .u64(search.nodes);
    RunResult {
        apps,
        perf_per_watt,
        energy_j,
        sim_s: engine.energy().elapsed_secs(),
        decisions: 0,
        adaptations,
        search,
        sensor: (
            engine.sensor().coalesced_samples(),
            engine.sensor().total_samples(),
        ),
        fingerprint: digest.finish(),
        errors: Vec::new(),
    }
}

fn global_rate(engine: &Engine, app: AppId) -> f64 {
    engine
        .monitor(app)
        .ok()
        .and_then(|m| m.global_rate())
        .map_or(0.0, |r| r.heartbeats_per_sec())
}

/// Normalized performance against the target set on the app's monitor.
fn app_norm_perf(engine: &Engine, app: AppId) -> f64 {
    engine
        .monitor(app)
        .ok()
        .and_then(|m| m.target().copied())
        .map_or(0.0, |t| {
            normalized_performance(&t, global_rate(engine, app))
        })
}

fn closed_outcome(runs: &[RunResult], budget: u64) -> Outcome {
    let apps: Vec<(u64, bool, f64)> = runs.iter().flat_map(|r| r.apps.iter().copied()).collect();
    let n = apps.len() as f64;
    let mut digest = Digest::new();
    for r in runs {
        digest.u64(r.fingerprint);
    }
    let mut out = Outcome {
        fingerprint: digest.finish(),
        arrivals: apps.len() as u64,
        completed: apps.iter().filter(|a| a.0 >= budget).count() as u64,
        failed: apps.iter().filter(|a| !a.1).count() as u64,
        sim_s: runs.iter().map(|r| r.sim_s).sum(),
        perf_per_watt: runs.iter().map(|r| r.perf_per_watt).sum::<f64>() / runs.len() as f64,
        service_level: apps.iter().map(|a| a.2 * a.0 as f64).sum::<f64>() / (budget as f64 * n),
        energy_j: runs.iter().map(|r| r.energy_j).sum(),
        norm_perf: apps.iter().map(|a| a.2).sum::<f64>() / n,
        errors: runs.iter().flat_map(|r| r.errors.iter().cloned()).collect(),
    };
    out.check_common();
    out
}

/// The per-layer counts read from the runs' engines and managers.
fn closed_counts(runs: &[RunResult]) -> BTreeMap<&'static str, f64> {
    let mut search = SearchStats::default();
    for r in runs {
        search.merge(r.search);
    }
    let sum = |f: &dyn Fn(&RunResult) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let samples = sum(&|r| r.sensor.1);
    BTreeMap::from([
        (
            "engine.heartbeats",
            sum(&|r| r.apps.iter().map(|a| a.0).sum()),
        ),
        (
            "engine.sensor_coalesced_ratio",
            if samples > 0.0 {
                sum(&|r| r.sensor.0) / samples
            } else {
                0.0
            },
        ),
        ("manager.decisions", sum(&|r| r.decisions)),
        ("manager.adaptations", sum(&|r| r.adaptations)),
        ("search.evaluated", search.evaluated as f64),
        ("search.explored", search.explored as f64),
        ("search.nodes", search.nodes as f64),
        ("search.truncated", f64::from(u8::from(search.truncated))),
        ("search.modeled_ns", search.wall_ns as f64),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_traced_matches(w: &Closed) {
        let untraced = w.run();
        assert!(untraced.errors.is_empty(), "{:?}", untraced.errors);
        let traced = w.run_traced();
        assert_eq!(traced.outcome, untraced, "tracing changed the outcome");
        assert_eq!(
            untraced.arrivals,
            untraced.completed + untraced.failed,
            "counts must add up"
        );
        assert!(traced
            .spans
            .iter()
            .any(|s| s.name == "engine.next_heartbeat"));
        assert!(traced.spans.iter().any(|s| s.name == "search.next_state"));
    }

    #[test]
    fn xu3_paper_traced_run_matches_untraced() {
        assert_traced_matches(&Closed::xu3_paper(7, ClosedScale::small()));
    }

    #[test]
    fn server_search_traced_run_matches_untraced() {
        assert_traced_matches(&Closed::server_search(7, ClosedScale::small()));
    }

    #[test]
    fn inputs_follow_the_seed() {
        let a = Closed::server_search(7, ClosedScale::small()).run();
        let b = Closed::server_search(7, ClosedScale::small()).run();
        let c = Closed::server_search(8, ClosedScale::small()).run();
        assert_eq!(a, b);
        assert_ne!(a.fingerprint, c.fingerprint);
    }
}
