//! Integration tests validating the engine's timing, scheduling and
//! energy semantics against closed-form expectations.

use hmp_sim::clock::secs_to_ns;
use hmp_sim::{
    AppSpec, BoardSpec, ClusterId, CoreId, CpuSet, Engine, EngineConfig, FreqKhz, ParallelismModel,
    SpeedProfile, WorkSource,
};

fn quiet_engine() -> Engine {
    let cfg = EngineConfig {
        sensor_noise: 0.0,
        ..EngineConfig::default()
    };
    Engine::new(BoardSpec::odroid_xu3(), cfg)
}

/// A heartbeat rate window needs two heartbeats, so a config with a
/// shorter one fails when the engine is built, before any app exists.
#[test]
#[should_panic(expected = "rate window needs capacity >= 2")]
fn a_rate_window_below_two_heartbeats_fails_at_construction() {
    let cfg = EngineConfig {
        hb_window: 1,
        ..EngineConfig::default()
    };
    let _ = Engine::new(BoardSpec::odroid_xu3(), cfg);
}

/// 8 threads, 4 pinned per cluster at max frequencies: the unit time is
/// the *little*-side chunk time (the barrier waits for the slowest),
/// matching the estimator's `t_f = max(t_B, t_L)`.
#[test]
fn data_parallel_rate_matches_barrier_math() {
    let mut engine = quiet_engine();
    let mut spec = AppSpec::data_parallel("dp", 8, 800.0);
    spec.speed = SpeedProfile::compute_bound(1.5);
    let app = engine.add_app(spec).unwrap();
    // Threads 0..4 -> little cores 0..4, threads 4..8 -> big cores 4..8.
    for i in 0..8 {
        engine
            .set_thread_affinity(app, i, CpuSet::single(CoreId(i)))
            .unwrap();
    }
    engine.run_until(secs_to_ns(5.0));
    let rate = engine.monitor(app).unwrap().window_rate().unwrap();
    // S_L = 1000 * 1.3 = 1300 u/s; chunk = 100 -> t_L = 76.92 ms -> 13 hb/s.
    let expected = 1300.0 / 100.0;
    assert!(
        (rate.heartbeats_per_sec() - expected).abs() < 0.10 * expected,
        "rate {rate} vs expected {expected}"
    );
}

/// Under the default GTS (no pinning), CPU-bound threads pack onto the
/// big cluster: unit time = 2 chunks on a big core, and the little
/// cluster stays essentially idle — the paper's baseline pathology.
#[test]
fn gts_baseline_packs_big_cluster() {
    let mut engine = quiet_engine();
    let mut spec = AppSpec::data_parallel("dp", 8, 800.0);
    spec.speed = SpeedProfile::compute_bound(1.5);
    let app = engine.add_app(spec).unwrap();
    engine.run_until(secs_to_ns(5.0));
    let rate = engine.monitor(app).unwrap().window_rate().unwrap();
    // All 8 threads on 4 big cores: t = 2*100/2400 s -> 12 hb/s.
    let expected = 2400.0 / 200.0;
    assert!(
        (rate.heartbeats_per_sec() - expected).abs() < 0.10 * expected,
        "rate {rate} vs expected {expected}"
    );
    // Little cores did (almost) nothing after the first migrations.
    let little_busy: u64 = (0..4).map(|i| engine.core_busy_ns(CoreId(i))).sum();
    let big_busy: u64 = (4..8).map(|i| engine.core_busy_ns(CoreId(i))).sum();
    assert!(
        little_busy < big_busy / 20,
        "little busy {little_busy} vs big busy {big_busy}"
    );
}

/// Halving the big frequency halves a big-pinned app's rate (φ = 0).
#[test]
fn frequency_scales_throughput() {
    let mut engine = quiet_engine();
    let mut spec = AppSpec::data_parallel("dp", 4, 400.0);
    spec.speed = SpeedProfile::compute_bound(1.5);
    let app = engine.add_app(spec).unwrap();
    for i in 0..4 {
        engine
            .set_thread_affinity(app, i, CpuSet::single(CoreId(4 + i)))
            .unwrap();
    }
    engine
        .set_cluster_freq(ClusterId::BIG, FreqKhz::from_mhz(1_600))
        .unwrap();
    engine.run_until(secs_to_ns(3.0));
    let hb_at_16 = engine.app_heartbeats(app);
    engine
        .set_cluster_freq(ClusterId::BIG, FreqKhz::from_mhz(800))
        .unwrap();
    engine.run_until(secs_to_ns(6.0));
    let hb_at_08 = engine.app_heartbeats(app) - hb_at_16;
    let ratio = hb_at_16 as f64 / hb_at_08 as f64;
    assert!(
        (ratio - 2.0).abs() < 0.15,
        "1.6 GHz made {hb_at_16} beats, 0.8 GHz {hb_at_08} (ratio {ratio})"
    );
}

/// A memory-bound app (φ = 1) is frequency-insensitive.
#[test]
fn memory_bound_app_ignores_frequency() {
    let mut engine = quiet_engine();
    let mut spec = AppSpec::data_parallel("mem", 4, 400.0);
    spec.speed = SpeedProfile {
        big_little_ratio: 1.0,
        mem_bound_frac: 1.0,
    };
    let app = engine.add_app(spec).unwrap();
    for i in 0..4 {
        engine
            .set_thread_affinity(app, i, CpuSet::single(CoreId(4 + i)))
            .unwrap();
    }
    engine.run_until(secs_to_ns(3.0));
    let first = engine.app_heartbeats(app);
    engine
        .set_cluster_freq(ClusterId::BIG, FreqKhz::from_mhz(800))
        .unwrap();
    engine.run_until(secs_to_ns(6.0));
    let second = engine.app_heartbeats(app) - first;
    let ratio = first as f64 / second as f64;
    assert!((ratio - 1.0).abs() < 0.1, "ratio {ratio} should be ~1");
}

/// Two-stage pipeline with one thread per stage: throughput is the
/// slowest stage's service rate; the barrier-free flow emits heartbeats
/// per item.
#[test]
fn pipeline_throughput_is_bottleneck_limited() {
    let mut engine = quiet_engine();
    let spec = AppSpec {
        name: "pipe".into(),
        threads: 2,
        model: ParallelismModel::Pipeline {
            stage_threads: vec![1, 1],
            stage_work_frac: vec![0.5, 0.5],
            queue_capacity: 4,
        },
        speed: SpeedProfile::compute_bound(1.5),
        work: WorkSource::Constant(100.0),
        items_per_heartbeat: 1,
        startup_work: 0.0,
        serial_frac: 0.0,
        max_heartbeats: None,
    };
    let app = engine.add_app(spec).unwrap();
    // Stage 0 on a little core (slow), stage 1 on a big core (fast).
    engine
        .set_thread_affinity(app, 0, CpuSet::single(CoreId(0)))
        .unwrap();
    engine
        .set_thread_affinity(app, 1, CpuSet::single(CoreId(4)))
        .unwrap();
    engine.run_until(secs_to_ns(4.0));
    let rate = engine.monitor(app).unwrap().window_rate().unwrap();
    // Stage 0: 50 units at 1300 u/s -> 26 items/s bottleneck.
    let expected = 1300.0 / 50.0;
    assert!(
        (rate.heartbeats_per_sec() - expected).abs() < 0.10 * expected,
        "rate {rate} vs bottleneck {expected}"
    );
}

/// Pipeline back-pressure: with a fast producer and a slow consumer the
/// queue fills and the producer's effective rate drops to the consumer's.
#[test]
fn pipeline_backpressure_throttles_producer() {
    let mut engine = quiet_engine();
    let spec = AppSpec {
        name: "pipe".into(),
        threads: 2,
        model: ParallelismModel::Pipeline {
            stage_threads: vec![1, 1],
            stage_work_frac: vec![0.2, 0.8],
            queue_capacity: 2,
        },
        speed: SpeedProfile::compute_bound(1.5),
        work: WorkSource::Constant(100.0),
        items_per_heartbeat: 1,
        startup_work: 0.0,
        serial_frac: 0.0,
        max_heartbeats: None,
    };
    let app = engine.add_app(spec).unwrap();
    engine
        .set_thread_affinity(app, 0, CpuSet::single(CoreId(4)))
        .unwrap();
    engine
        .set_thread_affinity(app, 1, CpuSet::single(CoreId(0)))
        .unwrap();
    engine.run_until(secs_to_ns(4.0));
    let rate = engine
        .monitor(app)
        .unwrap()
        .window_rate()
        .unwrap()
        .heartbeats_per_sec();
    // Consumer: 80 units at 1300 u/s -> 16.25 items/s.
    let expected = 1300.0 / 80.0;
    assert!(
        (rate - expected).abs() < 0.10 * expected,
        "rate {rate} vs consumer bound {expected}"
    );
    // Producer's core is mostly idle despite being "fast".
    let producer_busy = engine.core_busy_ns(CoreId(4)) as f64;
    let elapsed = engine.now_ns() as f64;
    assert!(
        producer_busy / elapsed < 0.35,
        "producer busy fraction {}",
        producer_busy / elapsed
    );
}

/// The startup phase runs single-threaded, delays the first heartbeat,
/// and only occupies one core.
#[test]
fn startup_phase_is_single_threaded() {
    let mut engine = quiet_engine();
    let mut spec = AppSpec::data_parallel("bl", 8, 800.0);
    spec.speed = SpeedProfile::compute_bound(1.5);
    // 2400 units of startup on one big core at 1.6 GHz = 1 s.
    spec.startup_work = 2400.0;
    let app = engine.add_app(spec).unwrap();
    let first_hb = engine.next_heartbeat(secs_to_ns(10.0)).unwrap();
    assert_eq!(first_hb.app, app);
    assert!(
        first_hb.time_ns > secs_to_ns(0.9),
        "first heartbeat at {} ns, expected after the ~1 s startup",
        first_hb.time_ns
    );
}

/// Scheduled actions apply at their virtual time, not immediately.
#[test]
fn deferred_actions_apply_on_time() {
    let mut engine = quiet_engine();
    let mut spec = AppSpec::data_parallel("dp", 4, 400.0);
    spec.speed = SpeedProfile::compute_bound(1.5);
    let app = engine.add_app(spec).unwrap();
    for i in 0..4 {
        engine
            .set_thread_affinity(app, i, CpuSet::single(CoreId(4 + i)))
            .unwrap();
    }
    engine
        .schedule_action(
            secs_to_ns(2.0),
            hmp_sim::Action::SetClusterFreq {
                cluster: ClusterId::BIG,
                freq: FreqKhz::from_mhz(800),
            },
        )
        .unwrap();
    engine.run_until(secs_to_ns(1.0));
    assert_eq!(
        engine.cluster_freq(ClusterId::BIG),
        FreqKhz::from_mhz(1_600)
    );
    engine.run_until(secs_to_ns(3.0));
    assert_eq!(engine.cluster_freq(ClusterId::BIG), FreqKhz::from_mhz(800));
}

/// Energy accounting lands inside the board's physical envelope and
/// average power decreases when we slow the clusters down.
#[test]
fn energy_envelope_and_dvfs_savings() {
    let run = |fb_mhz: u32, fl_mhz: u32| -> f64 {
        let mut engine = quiet_engine();
        engine
            .set_cluster_freq(ClusterId::BIG, FreqKhz::from_mhz(fb_mhz))
            .unwrap();
        engine
            .set_cluster_freq(ClusterId::LITTLE, FreqKhz::from_mhz(fl_mhz))
            .unwrap();
        let mut spec = AppSpec::data_parallel("dp", 8, 800.0);
        spec.speed = SpeedProfile::compute_bound(1.5);
        let app = engine.add_app(spec).unwrap();
        for i in 0..8 {
            engine
                .set_thread_affinity(app, i, CpuSet::single(CoreId(i)))
                .unwrap();
        }
        engine.run_until(secs_to_ns(3.0));
        engine.energy().average_power()
    };
    let p_max = run(1_600, 1_300);
    let p_min = run(800, 800);
    assert!(p_max > 4.0 && p_max < 9.0, "full-tilt power {p_max} W");
    assert!(
        p_min < 0.6 * p_max,
        "DVFS should cut power: {p_min} vs {p_max}"
    );
}

/// Identical configurations and seeds give bit-identical traces.
#[test]
fn simulation_is_deterministic() {
    let run = || -> (u64, f64, u64) {
        let mut engine = Engine::new(BoardSpec::odroid_xu3(), EngineConfig::default());
        let mut spec = AppSpec::data_parallel("dp", 8, 777.0);
        spec.speed = SpeedProfile {
            big_little_ratio: 1.4,
            mem_bound_frac: 0.2,
        };
        let app = engine.add_app(spec).unwrap();
        engine.run_until(secs_to_ns(4.0));
        (
            engine.app_heartbeats(app),
            engine.energy().total_joules(),
            engine.now_ns(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert!((a.1 - b.1).abs() < 1e-12);
    assert_eq!(a.2, b.2);
}

/// `max_heartbeats` stops the app; `all_done` and `next_heartbeat`
/// terminate cleanly.
#[test]
fn app_completion_semantics() {
    let mut engine = quiet_engine();
    let mut spec = AppSpec::data_parallel("dp", 2, 100.0);
    spec.max_heartbeats = Some(5);
    let app = engine.add_app(spec).unwrap();
    let mut beats = 0;
    while let Some(_hb) = engine.next_heartbeat(secs_to_ns(30.0)) {
        beats += 1;
    }
    assert_eq!(beats, 5);
    assert!(engine.app_done(app));
    assert!(engine.all_done());
    // Further time passes without new heartbeats; threads are idle.
    let busy_before: u64 = (0..8).map(|i| engine.core_busy_ns(CoreId(i))).sum();
    engine.run_until(engine.now_ns() + secs_to_ns(1.0));
    let busy_after: u64 = (0..8).map(|i| engine.core_busy_ns(CoreId(i))).sum();
    assert_eq!(busy_before, busy_after);
}

/// Heartbeat batching: `items_per_heartbeat > 1` divides the rate.
#[test]
fn heartbeat_batching_divides_rate() {
    let mut engine = quiet_engine();
    let mut spec = AppSpec::data_parallel("dp", 4, 400.0);
    spec.items_per_heartbeat = 4;
    let app = engine.add_app(spec).unwrap();
    engine.run_until(secs_to_ns(4.0));
    let units = engine.app_units_done(app);
    let beats = engine.app_heartbeats(app);
    assert!(units >= 4);
    assert_eq!(beats, units / 4);
}

/// Work schedules vary per-unit cost; the mean rate reflects the mean
/// work.
#[test]
fn work_schedule_is_cyclic() {
    let mut engine = quiet_engine();
    let mut spec = AppSpec::data_parallel("dp", 4, 1.0);
    spec.work = WorkSource::Schedule(vec![200.0, 600.0]); // mean 400
    let app = engine.add_app(spec).unwrap();
    for i in 0..4 {
        engine
            .set_thread_affinity(app, i, CpuSet::single(CoreId(4 + i)))
            .unwrap();
    }
    engine.run_until(secs_to_ns(5.0));
    let rate = engine.monitor(app).unwrap().window_rate().unwrap();
    // Mean unit: 100 units/thread at 2400 u/s -> 24 hb/s.
    let expected = 2400.0 / 100.0;
    assert!(
        (rate.heartbeats_per_sec() - expected).abs() < 0.10 * expected,
        "rate {rate} vs {expected}"
    );
}

/// A serial section throttles scaling per Amdahl: with serial fraction
/// 0.5, four extra cores barely double throughput, and only one core is
/// busy during the serial phase.
#[test]
fn serial_sections_limit_scaling() {
    let run = |threads: usize, serial: f64| -> f64 {
        let mut engine = quiet_engine();
        let mut spec = AppSpec::data_parallel("am", threads, 400.0);
        spec.speed = SpeedProfile::compute_bound(1.5);
        spec.serial_frac = serial;
        let app = engine.add_app(spec).unwrap();
        // Pin: thread i -> big core 4 + (i % 4).
        for i in 0..threads {
            engine
                .set_thread_affinity(app, i, CpuSet::single(CoreId(4 + (i % 4))))
                .unwrap();
        }
        engine.run_until(secs_to_ns(5.0));
        engine
            .monitor(app)
            .unwrap()
            .window_rate()
            .unwrap()
            .heartbeats_per_sec()
    };
    // Fully parallel: 4 threads on 4 cores = 4x one thread.
    let one = run(1, 0.0);
    let four = run(4, 0.0);
    assert!(
        (four / one - 4.0).abs() < 0.2,
        "parallel speedup {}",
        four / one
    );
    // Half serial: Amdahl cap = 1/(0.5 + 0.5/4) = 1.6x.
    let one_s = run(1, 0.5);
    let four_s = run(4, 0.5);
    let speedup = four_s / one_s;
    assert!(
        (speedup - 1.6).abs() < 0.15,
        "Amdahl speedup {speedup}, expected ~1.6"
    );
}

/// Once an app finishes, the scheduler stops updating its threads:
/// their loads stay at the last tick's values while time and ticks go
/// on. An app registered afterwards is scheduled as usual: its loads
/// move and it completes its budget.
#[test]
fn finished_threads_keep_their_last_load() {
    let mut engine = quiet_engine();
    let mut spec = AppSpec::data_parallel("a", 4, 400.0);
    spec.max_heartbeats = Some(5);
    let a = engine.add_app(spec).unwrap();
    while engine.next_heartbeat(secs_to_ns(30.0)).is_some() {}
    assert!(engine.app_done(a));
    let loads = |engine: &Engine, app, n| -> Vec<u64> {
        (0..n)
            .map(|t| engine.thread_load(app, t).unwrap().to_bits())
            .collect()
    };
    let frozen = loads(&engine, a, 4);
    assert!(
        frozen.iter().any(|&l| f64::from_bits(l) > 0.5),
        "a busy app ends with high loads"
    );

    let mut spec = AppSpec::data_parallel("b", 2, 400.0);
    spec.max_heartbeats = Some(5);
    let b = engine.add_app(spec).unwrap();
    let b_start = loads(&engine, b, 2);
    let mut beats = 0;
    while let Some(hb) = engine.next_heartbeat(engine.now_ns() + secs_to_ns(30.0)) {
        assert_eq!(hb.app, b, "only b runs");
        beats += 1;
    }
    assert_eq!(beats, 5);
    assert!(engine.app_done(b));
    assert_ne!(loads(&engine, b, 2), b_start, "b's loads follow its ticks");
    assert_eq!(loads(&engine, a, 4), frozen, "a's loads stay frozen");
    // A further idle second of ticks changes nothing either.
    engine.run_until(engine.now_ns() + secs_to_ns(1.0));
    assert_eq!(loads(&engine, a, 4), frozen);
}
