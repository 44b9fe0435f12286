//! Mid-run application injection: the open-system contract.
//!
//! An app added at `t = T` (tick-aligned) on an otherwise idle engine
//! must behave exactly like the same app added at `t = 0` and shifted
//! by `T`: the engine's event machinery (GTS ticks at absolute
//! multiples of the tick, sleep wake-ups, barrier cascades, pipeline
//! queues) is translation-invariant, and the scenario engine's
//! accounting depends on it. The power sensor samples on its own
//! absolute grid but only *observes*, so dynamics are unaffected.

use hmp_sim::clock::NS_PER_SEC;
use hmp_sim::{AppSpec, BoardSpec, CoreId, Engine, EngineConfig, HeartbeatEvent, GTS_TICK_NS};
use workloads::Benchmark;

/// A generous deadline: every run here finishes on its own.
const LONG: u64 = 10_000 * NS_PER_SEC;

fn drain_run(engine: &mut Engine) -> Vec<HeartbeatEvent> {
    engine.run_while_active(LONG);
    engine.drain_heartbeats()
}

/// Runs `spec` from t = 0 and again injected at `inject_ns` on an idle
/// engine, returning both heartbeat streams.
fn run_pair(spec: AppSpec, inject_ns: u64) -> (Vec<HeartbeatEvent>, Vec<HeartbeatEvent>, u64) {
    let board = BoardSpec::odroid_xu3();
    let cfg = EngineConfig::default();

    let mut reference = Engine::new(board.clone(), cfg.clone());
    let app = reference.add_app(spec.clone()).expect("spec validates");
    let from_start = drain_run(&mut reference);
    assert!(reference.app_done(app), "reference run must finish");
    let ref_busy: u64 = (0..board.n_cores())
        .map(|c| reference.core_busy_ns(CoreId(c)))
        .sum();

    let mut injected = Engine::new(board, cfg);
    injected.run_until(inject_ns);
    assert_eq!(injected.now_ns(), inject_ns);
    let app2 = injected.add_app(spec).expect("spec validates");
    let shifted = drain_run(&mut injected);
    assert!(injected.app_done(app2), "injected run must finish");
    assert_eq!(
        reference.app_units_done(app),
        injected.app_units_done(app2),
        "same work completed"
    );
    let inj_busy: u64 = (0..injected.board().n_cores())
        .map(|c| injected.core_busy_ns(CoreId(c)))
        .sum();
    assert_eq!(
        ref_busy, inj_busy,
        "idle time before injection must not create or destroy busy time"
    );
    (from_start, shifted, inject_ns)
}

fn assert_shifted(from_start: &[HeartbeatEvent], shifted: &[HeartbeatEvent], t: u64) {
    assert_eq!(from_start.len(), shifted.len(), "same heartbeat count");
    assert!(!from_start.is_empty(), "runs must produce heartbeats");
    for (a, b) in from_start.iter().zip(shifted) {
        assert_eq!(a.index, b.index);
        assert_eq!(
            a.time_ns + t,
            b.time_ns,
            "heartbeat {} must shift by exactly {t} ns",
            a.index
        );
    }
}

#[test]
fn data_parallel_app_with_startup_is_time_shift_invariant() {
    // Blackscholes brings the hard cases: a heartbeat-less
    // single-threaded startup phase, a serial section per unit, and a
    // barrier cascade — all started from a mid-run instant.
    let spec = Benchmark::Blackscholes.spec_with_budget(8, 7, 40);
    // 2.5 s: a multiple of the 4 ms GTS tick, far from t = 0.
    let t = 2_500_000_000;
    let (a, b, t) = run_pair(spec, t);
    assert_shifted(&a, &b, t);
}

#[test]
fn pipeline_app_is_time_shift_invariant() {
    // Ferret: 6 stages, bounded queues, 4n+2 threads.
    let spec = Benchmark::Ferret.spec_with_budget(4, 3, 60);
    let t = 1_000_000_000;
    let (a, b, t) = run_pair(spec, t);
    assert_shifted(&a, &b, t);
}

#[test]
fn injection_off_the_tick_grid_still_completes_equivalently() {
    // A non-tick-aligned injection shifts the app's phase against the
    // absolute 4 ms tick grid, so exact time-shift equality is not
    // guaranteed — but the work accounting must match: same units,
    // same heartbeats, and a completion time within one tick-induced
    // wobble of the reference.
    let board = BoardSpec::odroid_xu3();
    let cfg = EngineConfig::default();
    let spec = Benchmark::Swaptions.spec_with_budget(8, 9, 50);

    let mut reference = Engine::new(board.clone(), cfg.clone());
    let app = reference.add_app(spec.clone()).expect("spec validates");
    let a = drain_run(&mut reference);
    let ref_span = a.last().unwrap().time_ns - a.first().unwrap().time_ns;
    let units = reference.app_units_done(app);

    let t = 1_002_345_678; // deliberately off the 4 ms grid
    let mut injected = Engine::new(board, cfg);
    injected.run_until(t);
    let app2 = injected.add_app(spec).expect("spec validates");
    let b = drain_run(&mut injected);
    assert_eq!(injected.app_units_done(app2), units);
    assert_eq!(a.len(), b.len());
    let inj_span = b.last().unwrap().time_ns - b.first().unwrap().time_ns;
    assert!(
        ref_span.abs_diff(inj_span) <= 2 * GTS_TICK_NS,
        "first-to-last heartbeat span drifted: {ref_span} vs {inj_span}"
    );
}

#[test]
fn busy_time_and_placement_shift_with_the_injection_time() {
    // Bodytrack migrates under GTS, so per-core busy time and each
    // thread's last core pin the scheduler's decisions, not just the
    // heartbeat stream.
    let board = BoardSpec::odroid_xu3();
    let cfg = EngineConfig::default();
    let spec = Benchmark::Bodytrack.spec_with_budget(8, 5, 30);
    let t = 600_000_000; // 150 GTS ticks

    let mut reference = Engine::new(board.clone(), cfg.clone());
    let app = reference.add_app(spec.clone()).expect("spec validates");
    let a = drain_run(&mut reference);

    let mut injected = Engine::new(board.clone(), cfg);
    injected.run_until(t);
    let app2 = injected.add_app(spec).expect("spec validates");
    let b = drain_run(&mut injected);

    assert_shifted(&a, &b, t);
    for c in 0..board.n_cores() {
        assert_eq!(
            reference.core_busy_ns(CoreId(c)),
            injected.core_busy_ns(CoreId(c)),
            "core {c} busy time"
        );
    }
    let threads = reference.app_threads(app);
    assert_eq!(threads, injected.app_threads(app2));
    for th in 0..threads {
        assert_eq!(
            reference.thread_core(app, th).unwrap(),
            injected.thread_core(app2, th).unwrap(),
            "thread {th}'s last core"
        );
    }
}

#[test]
fn injection_alongside_a_running_app_keeps_accounting_consistent() {
    // The multi-tenant case: a second app lands while the first is
    // mid-flight. No time-shift equality here (they interact through
    // the scheduler) — instead check the bookkeeping the scenario
    // driver depends on: ids stay distinct, both apps emit and finish,
    // heartbeat indices are gapless per app, and monitors know their
    // own totals.
    let board = BoardSpec::odroid_xu3();
    let mut engine = Engine::new(board, EngineConfig::default());
    let first = engine
        .add_app(Benchmark::Swaptions.spec_with_budget(8, 1, 80))
        .expect("spec validates");
    engine.run_until(NS_PER_SEC);
    let mid_hb = engine.app_heartbeats(first);
    assert!(mid_hb > 0, "the first app must already be emitting");
    assert!(!engine.app_done(first));
    let second = engine
        .add_app(Benchmark::Bodytrack.spec_with_budget(8, 2, 40))
        .expect("spec validates");
    assert_ne!(first, second);
    engine.run_while_active(LONG);
    assert!(engine.all_done());
    assert_eq!(engine.app_heartbeats(first), 80);
    assert_eq!(engine.app_heartbeats(second), 40);
    let events = engine.drain_heartbeats();
    for app in [first, second] {
        let idx: Vec<u64> = events
            .iter()
            .filter(|e| e.app == app)
            .map(|e| e.index)
            .collect();
        let expect: Vec<u64> = (0..idx.len() as u64).collect();
        assert_eq!(idx, expect, "heartbeat indices are gapless in order");
        let monitor = engine.monitor(app).expect("registered");
        assert_eq!(monitor.total_heartbeats(), idx.len() as u64);
        assert!(monitor.global_rate().expect("rated").heartbeats_per_sec() > 0.0);
    }
    // The injected app's first heartbeat cannot predate its injection.
    let first_of_second = events
        .iter()
        .find(|e| e.app == second)
        .expect("second app emitted");
    assert!(first_of_second.time_ns >= NS_PER_SEC);
}
