//! Bit-identity of the engine's default mode against the fixed-step
//! reference stepper.
//!
//! The default mode ([`ExecMode::FastForward`]: one wake-up scan per
//! step, speed caches, idle spans with batched quiescent ticks, and
//! busy spans that go on tick by tick, pinned or not) must be an
//! *optimization*, not a semantic change: for any workload mix —
//! barrier apps that drain to full idle, low-duty spinners that sleep
//! most of every period, deferred frequency actions landing in idle
//! spans, threads pinned and re-pinned through scheduled affinity
//! actions — the heartbeat timeline, final clock, energy integrals,
//! sensor schedule, per-thread GTS loads and per-core busy time must
//! match the fixed-step stepper bit for bit. With sample coalescing
//! disabled the stored sample stream (values included) matches too;
//! with coalescing on (the default) the stream thins out but the
//! *count* of scheduled sample instants is conserved. Under an
//! installed [`FaultPlan`] the applied-fault notices, the board-death
//! instant and the stalled, lost and stuck counts match as well.

use proptest::prelude::*;

use hmp_sim::clock::NS_PER_SEC;
use hmp_sim::{
    Action, AppId, AppSpec, BoardSpec, ClusterId, CoreId, CpuSet, Engine, EngineConfig, ExecMode,
    FaultKind, FaultNotice, FaultPlan, FreqKhz, ParallelismModel, TimedFault, GTS_TICK_NS,
};

/// One run: heartbeat timeline, final clock, per-cluster energy bits,
/// the sensor's sample accounting, the scheduler state the busy tick
/// fast-forward replays, and what the fault plane applied.
struct RunDigest {
    beats: Vec<(u64, u64, u64)>,
    now_ns: u64,
    joules_bits: Vec<u64>,
    elapsed_bits: u64,
    busy_bits: Vec<u64>,
    total_samples: u64,
    stored_samples: Vec<(u64, Vec<u64>)>,
    /// Every thread's GTS load, in app then thread order.
    load_bits: Vec<u64>,
    core_busy_ns: Vec<u64>,
    fault_notices: Vec<FaultNotice>,
    board_failed: Option<u64>,
    stalled_heartbeats: u64,
    samples_lost: u64,
    samples_stuck: u64,
    /// Reporting only: the one number the two modes may differ in.
    ticks_fast_forwarded: u64,
}

fn engine(board: &BoardSpec, mode: ExecMode, coalesce: bool) -> Engine {
    let cfg = EngineConfig {
        sensor_noise: 0.02,
        exec: mode,
        coalesce_idle_sensor: coalesce,
        ..EngineConfig::default()
    };
    Engine::new(board.clone(), cfg)
}

/// A duty-cycle spinner: sleeps most of every period, never finishes.
fn spinner(duty: f64, period_ms: u64) -> AppSpec {
    AppSpec {
        model: ParallelismModel::DutyCycle {
            duty,
            period_ns: period_ms * 1_000_000,
        },
        max_heartbeats: None,
        ..AppSpec::data_parallel("spinner", 1, 1.0)
    }
}

/// Drives `engine` in driver fashion (pump heartbeats, then run out the
/// horizon) and digests everything the equivalence contract covers.
fn digest(mut engine: Engine, apps: &[AppId], horizon_ns: u64) -> RunDigest {
    let mut beats = Vec::new();
    while let Some(hb) = engine.next_heartbeat(horizon_ns) {
        beats.push((hb.app.0, hb.index, hb.time_ns));
    }
    engine.run_until(horizon_ns);
    let board = engine.board().clone();
    RunDigest {
        beats,
        now_ns: engine.now_ns(),
        joules_bits: board
            .cluster_ids()
            .map(|c| engine.energy().cluster_joules(c).to_bits())
            .collect(),
        elapsed_bits: engine.energy().elapsed_secs().to_bits(),
        busy_bits: board
            .cluster_ids()
            .map(|c| engine.energy().busy_core_secs(c).to_bits())
            .collect(),
        total_samples: engine.sensor().total_samples(),
        stored_samples: engine
            .sensor()
            .samples()
            .iter()
            .map(|s| {
                (
                    s.time_ns,
                    s.watts.iter().map(|w| w.to_bits()).collect::<Vec<u64>>(),
                )
            })
            .collect(),
        load_bits: apps
            .iter()
            .flat_map(|&app| {
                let engine = &engine;
                (0..engine.app_threads(app)).map(move |t| {
                    engine
                        .thread_load(app, t)
                        .expect("registered thread")
                        .to_bits()
                })
            })
            .collect(),
        core_busy_ns: (0..board.n_cores())
            .map(|c| engine.core_busy_ns(CoreId(c)))
            .collect(),
        fault_notices: engine.drain_fault_notices(),
        board_failed: engine.board_failed(),
        stalled_heartbeats: engine.stalled_heartbeats(),
        samples_lost: engine.sensor().samples_lost(),
        samples_stuck: engine.sensor().samples_stuck(),
        ticks_fast_forwarded: engine.ticks_fast_forwarded(),
    }
}

/// Everything fingerprinted matches bitwise; with `samples` the stored
/// sample stream (noise values included) matches too.
fn assert_identical(
    fixed: &RunDigest,
    heap: &RunDigest,
    samples: bool,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&fixed.beats, &heap.beats, "heartbeat timelines diverged");
    prop_assert_eq!(fixed.now_ns, heap.now_ns);
    prop_assert_eq!(
        &fixed.joules_bits,
        &heap.joules_bits,
        "energy must be bit-equal"
    );
    prop_assert_eq!(fixed.elapsed_bits, heap.elapsed_bits);
    prop_assert_eq!(&fixed.busy_bits, &heap.busy_bits);
    prop_assert_eq!(
        fixed.total_samples,
        heap.total_samples,
        "coalescing must count every scheduled sample instant"
    );
    prop_assert_eq!(&fixed.load_bits, &heap.load_bits, "GTS loads diverged");
    prop_assert_eq!(&fixed.core_busy_ns, &heap.core_busy_ns);
    prop_assert_eq!(
        &fixed.fault_notices,
        &heap.fault_notices,
        "faults applied at different instants"
    );
    prop_assert_eq!(fixed.board_failed, heap.board_failed);
    prop_assert_eq!(fixed.stalled_heartbeats, heap.stalled_heartbeats);
    prop_assert_eq!(fixed.samples_lost, heap.samples_lost);
    prop_assert_eq!(fixed.samples_stuck, heap.samples_stuck);
    prop_assert_eq!(
        fixed.ticks_fast_forwarded,
        0,
        "the reference never fast-forwards"
    );
    if samples {
        prop_assert_eq!(
            &fixed.stored_samples,
            &heap.stored_samples,
            "with coalescing off the stored sample stream matches bitwise"
        );
    }
    Ok(())
}

/// Generated fault onsets, each a fraction of the horizon: (cap on the
/// first cluster, offline window on the last, sensor dropout), (sensor
/// stuck-at, heartbeat stall, board death), the window length, and
/// whether the board dies at all.
type FaultDraw = ((f64, f64, f64), (f64, f64, f64), f64, bool);

/// Every fault kind at a generated onset: a cap on the first cluster,
/// an offline window on the last, sensor dropout and stuck-at windows,
/// a heartbeat stall and, when drawn, a board death.
fn fault_plan(board: &BoardSpec, horizon_ns: u64, draw: FaultDraw) -> FaultPlan {
    let ((cap, offline, dropout), (stuck, stall, death), window, dies) = draw;
    let at = |frac: f64| (frac * horizon_ns as f64) as u64;
    let until = |frac: f64| at(frac) + at(window);
    let mut faults = vec![
        (
            cap,
            FaultKind::ClusterCap {
                cluster: ClusterId(0),
                until_ns: until(cap),
            },
        ),
        (
            offline,
            FaultKind::ClusterOffline {
                cluster: ClusterId(board.n_clusters() - 1),
                until_ns: until(offline),
            },
        ),
        (
            dropout,
            FaultKind::SensorDropout {
                until_ns: until(dropout),
            },
        ),
        (
            stuck,
            FaultKind::SensorStuck {
                until_ns: until(stuck),
            },
        ),
        (
            stall,
            FaultKind::HeartbeatStall {
                until_ns: until(stall),
            },
        ),
    ];
    if dies {
        faults.push((death, FaultKind::BoardFail));
    }
    FaultPlan::new(
        faults
            .into_iter()
            .map(|(frac, kind)| TimedFault {
                at_ns: at(frac),
                kind,
            })
            .collect(),
    )
}

/// The mixed workload: a barrier app that drains to full idle, a
/// low-duty spinner, and a deferred DVFS action that often lands inside
/// an idle span, under `faults`.
#[allow(clippy::too_many_arguments)]
fn run_digest(
    board: &BoardSpec,
    mode: ExecMode,
    coalesce: bool,
    barrier_threads: usize,
    unit_work: f64,
    budget: u64,
    duty: f64,
    period_ms: u64,
    freq_action_at: u64,
    horizon_ns: u64,
    faults: &FaultPlan,
) -> RunDigest {
    let mut engine = engine(board, mode, coalesce);
    engine.install_faults(faults.clone());
    let mut barrier = AppSpec::data_parallel("barrier", barrier_threads, unit_work);
    barrier.max_heartbeats = Some(budget);
    let apps = [
        engine.add_app(barrier).expect("valid spec"),
        engine
            .add_app(spinner(duty, period_ms))
            .expect("valid spec"),
    ];
    let little = ClusterId(0);
    engine
        .schedule_action(
            freq_action_at,
            Action::SetClusterFreq {
                cluster: little,
                freq: board.ladder(little).min(),
            },
        )
        .expect("on-ladder frequency");
    digest(engine, &apps, horizon_ns)
}

/// How the pinned workload places its threads over time.
struct PinPlan {
    threads: usize,
    unit_work: f64,
    budget: u64,
    /// Cores of a cluster the threads are packed onto, round-robin
    /// (`span < threads` stacks several threads on one core).
    span: usize,
    /// Re-pin every thread onto the last cluster.
    repin_at: u64,
    /// Unpin every thread back to all cores (GTS migrates again).
    unpin_at: u64,
    /// Drop both end clusters to their ladder floor.
    dvfs_at: u64,
    /// Add a duty-cycle spinner pinned to the last core, so sleep
    /// wake-ups cut the busy spans. Without it, once every app is done
    /// the rest of the horizon is a quiescent idle tail.
    spinner: bool,
    /// Heartbeat budget of a short second app (0: none), registered
    /// after the first and pinned to the first cluster's last core, so
    /// it finishes while the first app runs on.
    second_budget: u64,
    /// Coalesce idle sensor samples (the default mode's default).
    coalesce: bool,
    horizon_ns: u64,
}

/// Pins the app's threads round-robin onto the first `span` cores of
/// `cluster` at `at_ns`, as one scheduled `SetThreadAffinity` batch.
fn pin_batch(engine: &mut Engine, app: AppId, plan: &PinPlan, cluster: ClusterId, at_ns: u64) {
    let cores: Vec<CoreId> = engine.board().cluster_cores(cluster).iter().collect();
    let span = plan.span.min(cores.len());
    for thread in 0..plan.threads {
        let affinity = CpuSet::single(cores[thread % span]);
        engine
            .schedule_action(
                at_ns,
                Action::SetThreadAffinity {
                    app,
                    thread,
                    affinity,
                },
            )
            .expect("on-board mask");
    }
}

/// The HARS-style workload: a data-parallel app whose threads scheduled
/// affinity actions pin at t = 0, re-pin across clusters and finally
/// unpin, with DVFS actions landing in between.
fn run_pinned(board: &BoardSpec, mode: ExecMode, plan: &PinPlan) -> RunDigest {
    let mut engine = engine(board, mode, plan.coalesce);
    let mut spec = AppSpec::data_parallel("pinned", plan.threads, plan.unit_work);
    spec.max_heartbeats = Some(plan.budget);
    let app = engine.add_app(spec).expect("valid spec");
    let mut apps = vec![app];
    let first = ClusterId(0);
    let last = ClusterId(board.n_clusters() - 1);
    pin_batch(&mut engine, app, plan, first, 0);
    pin_batch(&mut engine, app, plan, last, plan.repin_at);
    for thread in 0..plan.threads {
        let affinity = board.all_cores();
        engine
            .schedule_action(
                plan.unpin_at,
                Action::SetThreadAffinity {
                    app,
                    thread,
                    affinity,
                },
            )
            .expect("on-board mask");
    }
    for cluster in [first, last] {
        let freq = board.ladder(cluster).min();
        engine
            .schedule_action(plan.dvfs_at, Action::SetClusterFreq { cluster, freq })
            .expect("on-ladder frequency");
    }
    if plan.second_budget > 0 {
        let mut spec = AppSpec::data_parallel("second", 2, 60.0);
        spec.max_heartbeats = Some(plan.second_budget);
        let second = engine.add_app(spec).expect("valid spec");
        let core = engine
            .board()
            .cluster_cores(first)
            .iter()
            .last()
            .expect("clusters have cores");
        for thread in 0..2 {
            engine
                .schedule_action(
                    0,
                    Action::SetThreadAffinity {
                        app: second,
                        thread,
                        affinity: CpuSet::single(core),
                    },
                )
                .expect("on-board mask");
        }
        apps.push(second);
    }
    if plan.spinner {
        let spin = engine.add_app(spinner(0.2, 30)).expect("valid spec");
        let affinity = CpuSet::single(CoreId(board.n_cores() - 1));
        engine
            .schedule_action(
                0,
                Action::SetThreadAffinity {
                    app: spin,
                    thread: 0,
                    affinity,
                },
            )
            .expect("on-board mask");
        apps.push(spin);
    }
    digest(engine, &apps, plan.horizon_ns)
}

/// A work item that ends a few ulps past a tick boundary finishes *at*
/// that tick: its rounded completion lies 1 ns beyond the tick, yet
/// after integrating to the tick its `work_left` is inside the
/// completion epsilon. The reference completes it before running the
/// tick, whose migration passes then see the new run queues; the busy
/// fast-forward must stop there too. Round speeds (every cluster at
/// the 1 GHz base frequency) and unit work a few ulps above a multiple
/// of the per-tick work land on exactly that case.
#[test]
fn work_finishing_on_a_tick_completes_before_the_tick() {
    let board = BoardSpec::odroid_xu3();
    let mut unit_work = 60.0_f64;
    for _ in 0..6 {
        unit_work = unit_work.next_up();
        let run = |mode| {
            let mut engine = engine(&board, mode, false);
            for cluster in board.cluster_ids() {
                engine
                    .set_cluster_freq(cluster, FreqKhz::from_mhz(1_000))
                    .expect("1 GHz is on every XU3 ladder");
            }
            let mut spec = AppSpec::data_parallel("tick-edge", 5, unit_work);
            spec.max_heartbeats = Some(60);
            let app = engine.add_app(spec).expect("valid spec");
            digest(engine, &[app], 20 * NS_PER_SEC)
        };
        let (fixed, heap) = (run(ExecMode::FixedStep), run(ExecMode::FastForward));
        assert_identical(&fixed, &heap, true).expect("modes agree at the tick edge");
        assert!(heap.ticks_fast_forwarded > 0);
    }
}

fn boards() -> Vec<BoardSpec> {
    vec![BoardSpec::odroid_xu3(), BoardSpec::dynamiq_1p_3m_4l()]
}

proptest! {
    /// With coalescing off, the two modes are indistinguishable under
    /// every fault kind: same heartbeats, same clock, same energy bits,
    /// same loads, same stored samples (noise values included — the RNG
    /// streams stay aligned), and the same faults applied at the same
    /// instants.
    #[test]
    fn heap_mode_matches_fixed_step_exactly(
        board_idx in 0usize..2,
        barrier_threads in 1usize..5,
        unit_work in 50.0f64..400.0,
        budget in 3u64..40,
        duty in 0.01f64..0.3,
        period_ms in 20u64..200,
        action_frac in 0.1f64..0.9,
        horizon_secs in 2u64..6,
        faults in (
            (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
            (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
            0.02f64..0.4,
            proptest::bool::ANY,
        ),
    ) {
        let board = &boards()[board_idx];
        let horizon_ns = horizon_secs * NS_PER_SEC;
        let action_at = (action_frac * horizon_ns as f64) as u64;
        let plan = fault_plan(board, horizon_ns, faults);
        let run = |mode| run_digest(
            board, mode, false, barrier_threads, unit_work, budget,
            duty, period_ms, action_at, horizon_ns, &plan,
        );
        let (fixed, heap) = (run(ExecMode::FixedStep), run(ExecMode::FastForward));
        assert_identical(&fixed, &heap, true)?;
        prop_assert_eq!(
            heap.fault_notices.len(),
            plan.len(),
            "every onset lies inside the horizon"
        );
        // A board that dies before the first tick has no span to reach one.
        prop_assert!(
            heap.ticks_fast_forwarded > 0 || heap.board_failed.is_some_and(|t| t < GTS_TICK_NS),
            "no unpinned busy span went on past a tick"
        );
    }

    /// With coalescing on (the default), everything fingerprinted still
    /// matches bitwise, and the sample *count* is conserved: stored +
    /// coalesced equals the fixed-step total.
    #[test]
    fn coalescing_conserves_counts_and_energy(
        board_idx in 0usize..2,
        barrier_threads in 1usize..5,
        unit_work in 50.0f64..400.0,
        budget in 3u64..40,
        duty in 0.01f64..0.3,
        period_ms in 20u64..200,
        horizon_secs in 2u64..6,
    ) {
        let board = &boards()[board_idx];
        let horizon_ns = horizon_secs * NS_PER_SEC;
        let no_faults = FaultPlan::empty();
        let fixed = run_digest(
            board, ExecMode::FixedStep, false, barrier_threads, unit_work,
            budget, duty, period_ms, horizon_ns / 2, horizon_ns, &no_faults,
        );
        let heap = run_digest(
            board, ExecMode::FastForward, true, barrier_threads, unit_work,
            budget, duty, period_ms, horizon_ns / 2, horizon_ns, &no_faults,
        );
        assert_identical(&fixed, &heap, false)?;
        prop_assert!(
            heap.stored_samples.len() as u64 <= heap.total_samples,
            "stored samples are a subset of scheduled instants"
        );
        prop_assert!(
            heap.ticks_fast_forwarded > 0,
            "no unpinned busy span went on past a tick"
        );
    }

    /// Threads pinned through scheduled affinity actions — singleton
    /// masks, several threads stacked on one core, a re-pin across
    /// clusters, an unpin back to every core, DVFS steps and optional
    /// sleep wake-ups — replay bit-identically through the busy tick
    /// fast-forward, which must actually have run. The inputs reach
    /// units that span dozens of ticks, a short second app that
    /// finishes while the first runs on (its threads' loads freeze), and
    /// idle tails, with sample coalescing on and off, that stay
    /// quiescent for several sensor periods.
    #[test]
    fn pinned_spans_fast_forward_bit_identically(
        board_idx in 0usize..2,
        threads in 1usize..9,
        span in 1usize..5,
        unit_work in 200.0f64..3000.0,
        budget in 3u64..40,
        repin_frac in 0.15f64..0.45,
        unpin_frac in 0.55f64..0.9,
        dvfs_frac in 0.05f64..0.95,
        spinner in proptest::bool::ANY,
        second_budget in 0u64..6,
        coalesce in proptest::bool::ANY,
        horizon_secs in 2u64..12,
    ) {
        let board = &boards()[board_idx];
        let horizon_ns = horizon_secs * NS_PER_SEC;
        let at = |frac: f64| (frac * horizon_ns as f64) as u64;
        let plan = PinPlan {
            threads,
            unit_work,
            budget,
            span,
            repin_at: at(repin_frac),
            unpin_at: at(unpin_frac),
            dvfs_at: at(dvfs_frac),
            spinner,
            second_budget,
            coalesce,
            horizon_ns,
        };
        let fixed = run_pinned(board, ExecMode::FixedStep, &plan);
        let heap = run_pinned(board, ExecMode::FastForward, &plan);
        assert_identical(&fixed, &heap, !coalesce)?;
        prop_assert!(
            heap.ticks_fast_forwarded > 0,
            "no busy span went on past a tick"
        );
    }
}
