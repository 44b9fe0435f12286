//! `fleet-chaos`: an open-system fleet served through
//! `run_fleet_with_metrics` under a seeded fault model with failover.
//!
//! The traced iteration runs twice. First, round zero of the pool is
//! rebuilt from the fleet's public parts — `place`, one
//! `run_shard` per board with the observability fold mounted in front
//! of a timed sink (what `run_shard_with_metrics` does), and
//! `FleetAccum` — with every call timed. Second, the supervised run
//! itself goes through `run_fleet_with_metrics` with a sink that stamps
//! host time on the caller's event stream: the last initial placement
//! event and the first event after it split the run into placement,
//! round zero and supervision.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use hars_core::NullSink;
use hars_fleet::{
    place, run_fleet_with_metrics, shard_seed, FleetAccum, FleetBoard, FleetFaultSpec,
    FleetOutcome, FleetRuntimeKind, FleetSpec, PlacementPolicy,
};
use hars_obs::MetricsSink;
use hars_scenario::{
    run_shard, AdmissionSwap, AppTemplate, ArrivalProcess, ScenarioOutcome, ShardConfig,
    SharedSoloRateCache, SoloCacheHandle, TemplateSet, TenantSpec,
};
use hmp_sim::clock::NS_PER_SEC;
use hmp_sim::{BoardSpec, EngineConfig, FaultKind};
use workloads::Benchmark;

use crate::hooks::{StampSink, TimedAdmission, TimingSink};
use crate::report::{Outcome, Traced};
use crate::trace::{self, Span};

/// Board classes the fleet cycles over.
const CLASSES: usize = 5;

/// Sizing of the fleet.
#[derive(Debug, Clone, Copy)]
pub struct FleetScale {
    /// Boards, cycling over the five board classes.
    pub boards: usize,
    /// Horizon (s).
    pub horizon_s: u64,
    /// Heartbeat budget of the longest tenant template.
    pub heartbeats: u64,
    /// Worker threads of the pool.
    pub workers: usize,
}

impl FleetScale {
    /// The benchmark's sizing: twelve boards per class, one worker per
    /// core of a two-core host.
    pub fn bench() -> Self {
        Self {
            boards: 60,
            horizon_s: 120,
            heartbeats: 60,
            workers: 2,
        }
    }

    /// A reduced sizing for tests.
    #[cfg(test)]
    pub fn small() -> Self {
        Self {
            boards: 10,
            horizon_s: 40,
            heartbeats: 24,
            workers: 2,
        }
    }
}

/// The fleet under test.
#[derive(Debug)]
pub struct FleetChaos {
    spec: FleetSpec,
    workers: usize,
}

impl FleetChaos {
    /// Builds the fleet, its tenant stream and its fault model.
    pub fn setup(seed: u64, scale: FleetScale) -> Self {
        let classes: [_; CLASSES] = [
            (BoardSpec::odroid_xu3(), AdmissionSwap::AlwaysAdmit),
            (
                BoardSpec::dynamiq_1p_3m_4l(),
                AdmissionSwap::CapacityGate { max_load: 0.95 },
            ),
            (BoardSpec::x86_hybrid_6p_8e(), AdmissionSwap::AlwaysAdmit),
            (
                BoardSpec::server_4c_32core(),
                AdmissionSwap::BoundedQueue {
                    max_load: 0.95,
                    capacity: 4,
                },
            ),
            (BoardSpec::server_5c_48core(), AdmissionSwap::AlwaysAdmit),
        ];
        let boards = (0..scale.boards)
            .map(|i| {
                let (board, admission) = classes[i % classes.len()].clone();
                FleetBoard {
                    board,
                    runtime: FleetRuntimeKind::MpHarsAuto,
                    admission,
                }
            })
            .collect();
        let mk = |bench, threads, heartbeats, target_frac| AppTemplate {
            threads,
            heartbeats,
            target_frac,
            target_jitter: 0.03,
            target_tolerance: 0.20,
            ..AppTemplate::new(bench)
        };
        let hb = scale.heartbeats;
        let templates = TemplateSet::uniform(vec![
            mk(Benchmark::Swaptions, 2, hb, 0.5),
            mk(Benchmark::Bodytrack, 4, hb * 2 / 3, 0.3),
            mk(Benchmark::Blackscholes, 4, hb * 2 / 3, 0.3),
            mk(Benchmark::Fluidanimate, 8, hb / 2, 0.25),
        ]);
        // Ten tenants per board over the horizon: boards still idle for
        // much of it, so the engine takes its idle fast-forward path.
        let horizon_ns = scale.horizon_s * NS_PER_SEC;
        let mut spec = FleetSpec::new(
            boards,
            poisson_with_count(10 * scale.boards, horizon_ns, seed),
            templates,
            horizon_ns,
            seed,
        );
        spec.solo_budget = 30;
        spec.target_guard = 0.10;
        // Round-robin spreads tenants over every class, so each seed
        // loads the fleet alike (least-loaded piles them onto the
        // servers and leaves the small boards empty).
        spec.placement = PlacementPolicy::RoundRobin;
        spec.faults = Some(chaos_model(&spec, seed));
        Self {
            spec,
            workers: scale.workers,
        }
    }

    /// Simulated board-seconds of one run: every board's horizon.
    fn sim_s(&self) -> f64 {
        (self.spec.boards.len() as u64 * self.spec.horizon_ns) as f64 / 1e9
    }

    /// One untraced iteration.
    pub fn run(&self) -> Outcome {
        self.run_on(self.workers)
    }

    /// One untraced iteration on `workers` threads.
    pub fn run_on(&self, workers: usize) -> Outcome {
        let out = run_fleet_with_metrics(&self.spec, workers, &mut NullSink).expect("fleet runs");
        fleet_outcome(&out, self.sim_s())
    }

    /// One traced iteration: round zero rebuilt with spans, then the
    /// supervised run with host stamps on its event stream.
    pub fn run_traced(&self) -> Traced {
        let root = trace::enter("iteration");
        let replica_start = trace::now_ns();
        let RoundZero {
            outs: round0,
            mut spans,
            mut counts,
        } = self.round_zero();
        let replica_ns = trace::now_ns() - replica_start;
        drop(root);

        let mut stamps = StampSink::default();
        let run_start = trace::now_ns();
        let out =
            run_fleet_with_metrics(&self.spec, self.workers, &mut stamps).expect("fleet runs");
        let run_end = trace::now_ns();
        let arrivals = out.arrivals;
        let place_end = stamps
            .stamps
            .iter()
            .filter(|(kind, _)| *kind == "placement")
            .nth(arrivals.saturating_sub(1))
            .map_or(run_start, |&(_, t)| t);
        let supervise_start = stamps.stamps.get(arrivals).map_or(run_end, |&(_, t)| t);
        let mut outcome = fleet_outcome(&out, self.sim_s());

        // Round zero of the replica must match every shard the
        // supervisor did not re-run.
        let mut dests = stamps.failover_dests.clone();
        dests.sort_unstable();
        dests.dedup();
        for (shard, o) in &round0 {
            let pooled = out.shards.iter().find(|s| s.shard == *shard);
            let rerun = dests.contains(&(*shard as u64));
            if !rerun && pooled.map(|s| s.fingerprint) != Some(o.fingerprint()) {
                outcome
                    .errors
                    .push(format!("replica shard {shard} differs from the pooled run"));
            }
        }
        let s = |ns: u64| ns as f64 / 1e9;
        counts.insert("pool.round0_s", s(supervise_start - place_end));
        counts.insert("pool.supervise_s", s(run_end - supervise_start));
        counts.insert("pool.shard_reruns", dests.len() as f64);
        counts.insert("failover.tenants", out.tenants_failed_over as f64);
        counts.insert("failover.lost", out.failover_lost as f64);
        let untraced_round0 = supervise_start - run_start;
        counts.insert(
            "trace.overhead_frac",
            replica_ns as f64 / untraced_round0.max(1) as f64 - 1.0,
        );
        spans.extend(trace::take_thread_spans());
        Traced {
            outcome,
            spans,
            counts,
        }
    }

    /// Round zero of the pool from public parts, every call timed.
    fn round_zero(&self) -> RoundZero {
        let spec = &self.spec;
        let n = spec.boards.len();
        let schedule = spec.tenant_schedule();
        let placement = {
            let _s = trace::enter("fleet.place");
            place(spec, &schedule, &mut NullSink)
        };
        let mut shard_scheds: Vec<Vec<(u64, TenantSpec)>> = vec![Vec::new(); n];
        for (entry, assignment) in schedule.iter().zip(&placement.assignments) {
            if let Some(shard) = assignment {
                shard_scheds[*shard].push(entry.clone());
            }
        }
        let cache = SharedSoloRateCache::new();
        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, ScenarioOutcome)>> = Mutex::new(Vec::with_capacity(n));
        let worker_spans: Mutex<Vec<Span>> = Mutex::new(Vec::new());
        let workers = self.workers.min(n).max(1);
        let round = trace::enter("pool.round");
        let round_id = round.id();
        let round_start = trace::now_ns();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let worker = trace::enter_under("pool.worker", round_id);
                    loop {
                        let shard = next.fetch_add(1, Ordering::Relaxed);
                        if shard >= n {
                            break;
                        }
                        let _s = trace::enter("scenario.shard");
                        let out = self.run_shard(shard, &shard_scheds[shard], &cache);
                        done.lock().expect("no worker panics").push((shard, out));
                    }
                    drop(worker);
                    worker_spans
                        .lock()
                        .expect("no worker panics")
                        .extend(trace::take_thread_spans());
                });
            }
        });
        let round_wall = trace::now_ns() - round_start;
        drop(round);
        let mut outs = done.into_inner().expect("no worker panics");
        outs.sort_by_key(|(s, _)| *s);
        {
            let _s = trace::enter("fleet.reduce");
            let mut accum = FleetAccum::new();
            for (s, out) in &outs {
                let fb = &spec.boards[*s];
                accum.absorb(*s, fb.board.name.clone(), fb.runtime.label(), out);
            }
            std::hint::black_box(accum.finish(&placement, schedule.len()));
        }
        let spans = worker_spans.into_inner().expect("no worker panics");
        let busy: u64 = trace::durations_ns(&spans, "scenario.shard").iter().sum();
        let capacity = round_wall * workers as u64;
        let mut counts = round_counts(&outs, cache.len());
        counts.insert("pool.worker_busy_s", busy as f64 / 1e9);
        counts.insert(
            "pool.worker_idle_s",
            capacity.saturating_sub(busy) as f64 / 1e9,
        );
        counts.insert("pool.utilization", busy as f64 / capacity.max(1) as f64);
        RoundZero {
            outs,
            spans,
            counts,
        }
    }

    /// What the pool's worker does for one shard, with the admission
    /// policy and the event stream timed.
    fn run_shard(
        &self,
        shard: usize,
        schedule: &[(u64, TenantSpec)],
        cache: &SharedSoloRateCache,
    ) -> ScenarioOutcome {
        let spec = &self.spec;
        let fb = &spec.boards[shard];
        let engine_cfg = EngineConfig {
            seed: shard_seed(spec.seed, shard as u64),
            ..spec.engine.clone()
        };
        let shard_cfg = ShardConfig {
            horizon_ns: spec.horizon_ns,
            solo_budget: spec.solo_budget,
            target_guard: spec.target_guard,
            events: Vec::new(),
            faults: spec.fault_plan(shard),
        };
        let mut admission = TimedAdmission(fb.build_admission());
        let mut sink = TimingSink {
            inner: MetricsSink::wrap(NullSink),
        };
        let mut out = run_shard(
            &fb.board,
            &engine_cfg,
            schedule,
            &shard_cfg,
            &mut admission,
            fb.runtime.build(&fb.board),
            SoloCacheHandle::Shared(cache),
            &mut sink,
        )
        .expect("shard runs");
        out.metrics = Some(sink.inner.into_summary());
        out
    }
}

/// What the traced round zero yields.
struct RoundZero {
    /// Shard outcomes, ascending shard.
    outs: Vec<(usize, ScenarioOutcome)>,
    /// The worker threads' spans.
    spans: Vec<Span>,
    /// Counts read from the outcomes and the pool.
    counts: BTreeMap<&'static str, f64>,
}

/// Counts read from round zero's shard outcomes.
fn round_counts(
    outs: &[(usize, ScenarioOutcome)],
    unique_keys: usize,
) -> BTreeMap<&'static str, f64> {
    let sum = |f: &dyn Fn(&ScenarioOutcome) -> u64| outs.iter().map(|(_, o)| f(o)).sum::<u64>();
    let hits = sum(&|o| o.solo_cache_hits);
    let misses = sum(&|o| o.solo_cache_misses);
    let samples = sum(&|o| o.sensor_samples);
    let coalesced = sum(&|o| o.sensor_samples_coalesced);
    let mut search = hars_core::search::SearchStats::default();
    for (_, o) in outs {
        search.merge(o.search_stats);
    }
    let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    BTreeMap::from([
        ("calibration.hits", hits as f64),
        ("calibration.misses", misses as f64),
        ("calibration.unique_keys", unique_keys as f64),
        (
            "calibration.wasted",
            misses.saturating_sub(unique_keys as u64) as f64,
        ),
        ("calibration.hit_ratio", ratio(hits, hits + misses)),
        (
            "engine.heartbeats",
            sum(&|o| o.tenants.iter().map(|t| t.heartbeats).sum()) as f64,
        ),
        ("engine.sensor_coalesced_ratio", ratio(coalesced, samples)),
        ("manager.adaptations", sum(&|o| o.adaptations) as f64),
        ("search.evaluated", search.evaluated as f64),
        ("search.explored", search.explored as f64),
        ("search.nodes", search.nodes as f64),
        ("search.truncated", f64::from(u8::from(search.truncated))),
    ])
}

/// A fault model over the whole failure spectrum whose seed is scanned,
/// from the workload seed and by plan derivation only, until exactly one
/// board in six of each class dies (at least one): every seed loses the
/// same capacity, and survivors of every class exist to fail over to.
fn chaos_model(spec: &FleetSpec, seed: u64) -> FleetFaultSpec {
    let per_class = spec.boards.len() / CLASSES;
    let deaths = (per_class / 6).max(1);
    let mk = |s| {
        let mut f = FleetFaultSpec::new(s);
        f.board_fail_prob = deaths as f64 / per_class as f64;
        f.cluster_cap_prob = 0.2;
        f.cluster_offline_prob = 0.1;
        f.sensor_fault_prob = 0.2;
        f.hb_stall_prob = 0.2;
        f
    };
    let balanced = |f: &FleetFaultSpec| {
        let mut dead = [0usize; CLASSES];
        for (b, fb) in spec.boards.iter().enumerate() {
            let plan = f.plan_for(b, fb.board.n_clusters(), spec.horizon_ns);
            if plan.iter().any(|t| t.kind == FaultKind::BoardFail) {
                dead[b % CLASSES] += 1;
            }
        }
        dead == [deaths; CLASSES]
    };
    (0..1_000_000u64)
        .map(|k| mk(shard_seed(seed, k)))
        .find(balanced)
        .expect("a fault seed with balanced board deaths exists")
}

/// A Poisson arrival stream conditioned on exactly `count` arrivals:
/// `count` instants drawn uniformly over the horizon. Between seeds the
/// instants differ but the number of tenants, and with it most of an
/// iteration's work, does not, so host time compares across seeds.
fn poisson_with_count(count: usize, horizon_ns: u64, seed: u64) -> ArrivalProcess {
    let stream = shard_seed(seed, u64::MAX - 1);
    let mut times: Vec<u64> = (0..count as u64)
        .map(|i| {
            let unit = (shard_seed(stream, i) >> 11) as f64 / (1u64 << 53) as f64;
            (unit * horizon_ns as f64) as u64
        })
        .collect();
    times.sort_unstable();
    ArrivalProcess::Trace(times)
}

/// The fleet's modeled results and accounting checks.
fn fleet_outcome(out: &FleetOutcome, sim_s: f64) -> Outcome {
    // Every arrival that did not finish is accounted for exactly once:
    // turned away by placement or by a board, cut off at the horizon on
    // a surviving board, or given up by the supervisor. Unfinished
    // tenants of dead boards are counted where they failed over to.
    let cut_off: usize = out
        .shards
        .iter()
        .filter(|s| s.board_failed_at.is_none())
        .map(|s| s.arrivals.saturating_sub(s.completed + s.rejected))
        .sum();
    let failed = out.fleet_rejected + out.shard_rejected + cut_off + out.failover_lost as usize;
    let board_watts = out.energy_joules / sim_s;
    let mut o = Outcome {
        fingerprint: out.fingerprint,
        arrivals: out.arrivals as u64,
        completed: out.completed as u64,
        failed: failed as u64,
        sim_s,
        perf_per_watt: out.mean_satisfaction / board_watts,
        service_level: out.service_level,
        energy_j: out.energy_joules,
        // The fleet reports per-shard satisfaction, not per-tenant
        // normalized performance: its admission-weighted mean stands in.
        norm_perf: out.mean_satisfaction,
        errors: Vec::new(),
    };
    if !out.failed_shards.is_empty() {
        o.errors.push(format!(
            "{} shard workers panicked",
            out.failed_shards.len()
        ));
    }
    o.check_common();
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use hars_scenario::run_shard_with_metrics;

    #[test]
    fn traced_run_matches_untraced() {
        let w = FleetChaos::setup(7, FleetScale::small());
        let untraced = w.run();
        assert!(untraced.errors.is_empty(), "{:?}", untraced.errors);
        let traced = w.run_traced();
        assert_eq!(traced.outcome, untraced, "tracing changed the outcome");
        assert!(
            traced.counts["failover.tenants"] > 0.0,
            "a board death must strand tenants"
        );
    }

    #[test]
    fn one_and_two_workers_agree() {
        let w = FleetChaos::setup(11, FleetScale::small());
        assert_eq!(w.run_on(1), w.run_on(2));
    }

    #[test]
    fn counts_add_up() {
        for seed in [1, 2, 3] {
            let o = FleetChaos::setup(seed, FleetScale::small()).run();
            assert_eq!(o.arrivals, 10 * FleetScale::small().boards as u64);
            assert_eq!(o.arrivals, o.completed + o.failed, "seed {seed}");
            assert!(o.failed > 0, "seed {seed}: chaos must cost some tenants");
        }
    }

    #[test]
    fn timed_shard_equals_run_shard_with_metrics() {
        let w = FleetChaos::setup(5, FleetScale::small());
        let spec = &w.spec;
        let schedule = spec.tenant_schedule();
        let placement = place(spec, &schedule, &mut NullSink);
        let shard = 3;
        let mine: Vec<(u64, TenantSpec)> = schedule
            .iter()
            .zip(&placement.assignments)
            .filter(|(_, a)| **a == Some(shard))
            .map(|(e, _)| e.clone())
            .collect();
        let fb = &spec.boards[shard];
        let reference = run_shard_with_metrics(
            &fb.board,
            &EngineConfig {
                seed: shard_seed(spec.seed, shard as u64),
                ..spec.engine.clone()
            },
            &mine,
            &ShardConfig {
                horizon_ns: spec.horizon_ns,
                solo_budget: spec.solo_budget,
                target_guard: spec.target_guard,
                events: Vec::new(),
                faults: spec.fault_plan(shard),
            },
            fb.build_admission().as_mut(),
            fb.runtime.build(&fb.board),
            SoloCacheHandle::Shared(&SharedSoloRateCache::new()),
            &mut NullSink,
        )
        .unwrap();
        let timed = w.run_shard(shard, &mine, &SharedSoloRateCache::new());
        assert_eq!(timed, reference);
        drop(trace::take_thread_spans());
    }

    #[test]
    fn every_class_loses_the_same_number_of_boards() {
        let w = FleetChaos::setup(9, FleetScale::small());
        let mut dead = [0; CLASSES];
        for b in 0..w.spec.boards.len() {
            if w.spec
                .fault_plan(b)
                .iter()
                .any(|t| t.kind == FaultKind::BoardFail)
            {
                dead[b % CLASSES] += 1;
            }
        }
        assert_eq!(dead, [1; CLASSES]);
    }
}
