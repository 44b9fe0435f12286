//! Cross-crate integration tests: the full HARS stack (simulator +
//! heartbeats + workloads + runtime + multi-app extension) working
//! together, asserting the paper's qualitative claims.

use hars::hars_core::calibrate::run_power_calibration;
use hars::hars_core::policy::{hars_e, hars_ei, hars_i};
use hars::hars_core::run_single_app;
use hars::mp_hars::{mp_hars_e, run_multi_app, ConsIManager, MpVersion};
use hars::prelude::*;
use hmp_sim::clock::secs_to_ns;
use hmp_sim::microbench::CalibrationConfig;

struct Setup {
    board: BoardSpec,
    power: PowerEstimator,
    perf: PerfEstimator,
}

fn setup() -> Setup {
    let board = BoardSpec::odroid_xu3();
    let power = run_power_calibration(
        &board,
        &EngineConfig::default(),
        &CalibrationConfig::quick(),
    )
    .expect("calibration succeeds");
    let perf = PerfEstimator::paper_default(board.base_freq);
    Setup { board, power, perf }
}

fn solo_max(board: &BoardSpec, bench: Benchmark, seed: u64) -> f64 {
    let mut engine = Engine::new(board.clone(), EngineConfig::default());
    let app = engine
        .add_app(bench.spec_with_budget(8, seed, 120))
        .expect("preset validates");
    engine.run_while_active(secs_to_ns(90.0));
    engine
        .monitor(app)
        .expect("registered")
        .global_rate()
        .expect("baseline heartbeats")
        .heartbeats_per_sec()
}

/// The headline single-app claim: every HARS variant meets a 50% target
/// and beats the baseline's efficiency on a data-parallel benchmark.
#[test]
fn all_hars_variants_meet_target_and_beat_baseline() {
    let s = setup();
    let bench = Benchmark::Fluidanimate;
    let max = solo_max(&s.board, bench, 3);
    let target = PerfTarget::new(0.45 * max, 0.55 * max).unwrap();

    // Baseline efficiency for reference.
    let mut engine = Engine::new(s.board.clone(), EngineConfig::default());
    let _app = engine.add_app(bench.spec_with_budget(8, 3, 150)).unwrap();
    engine.run_while_active(secs_to_ns(90.0));
    let base_pp = 1.0 / engine.energy().average_power();

    for variant in [hars_i(), hars_e(), hars_ei()] {
        let mut engine = Engine::new(s.board.clone(), EngineConfig::default());
        let app = engine.add_app(bench.spec_with_budget(8, 3, 250)).unwrap();
        let mut manager = RuntimeManager::new(
            &s.board,
            target,
            s.perf,
            s.power.clone(),
            8,
            HarsConfig::from_variant(variant.clone()),
        );
        let out = run_single_app(&mut engine, app, &mut manager, secs_to_ns(200.0), false).unwrap();
        assert!(
            out.norm_perf > 0.85,
            "{} missed target: norm perf {}",
            variant.name,
            out.norm_perf
        );
        let pp = out.norm_perf / out.avg_watts;
        assert!(
            pp > 1.4 * base_pp,
            "{} pp {} vs baseline {}",
            variant.name,
            pp,
            base_pp
        );
    }
}

/// The blackscholes anomaly: with its true big/little ratio of 1.0,
/// HARS's r0 = 1.5 assumption leaves efficiency on the table relative
/// to what the same search achieves on a well-modeled benchmark.
#[test]
fn blackscholes_settles_suboptimally() {
    let s = setup();
    let max = solo_max(&s.board, Benchmark::Blackscholes, 1);
    let target = PerfTarget::new(0.45 * max, 0.55 * max).unwrap();
    let mut engine = Engine::new(s.board.clone(), EngineConfig::default());
    let app = engine
        .add_app(Benchmark::Blackscholes.spec_with_budget(8, 1, 250))
        .unwrap();
    let mut manager = RuntimeManager::new(
        &s.board,
        target,
        s.perf,
        s.power.clone(),
        8,
        HarsConfig::from_variant(hars_e()),
    );
    let out = run_single_app(&mut engine, app, &mut manager, secs_to_ns(200.0), false).unwrap();
    // It still beats the baseline and tracks the target...
    assert!(out.norm_perf > 0.85, "norm perf {}", out.norm_perf);
    // ...but it keeps big cores in the mix (r0 = 1.5 says they are
    // worth 1.5 little cores; in truth they are worth 1.0 at much
    // higher power).
    let st = manager.state();
    assert!(
        st.cores(ClusterId::BIG) > 0 || out.avg_watts > 0.9,
        "unexpectedly found the all-little optimum: {st} at {} W",
        out.avg_watts
    );
}

/// MP-HARS keeps core ownership disjoint for the whole run and both
/// apps near their targets.
#[test]
fn mp_hars_partitions_and_satisfies() {
    let s = setup();
    let (a, b) = (Benchmark::Bodytrack, Benchmark::Fluidanimate);
    let (max_a, max_b) = (solo_max(&s.board, a, 1), solo_max(&s.board, b, 2));
    let ta = PerfTarget::new(0.45 * max_a, 0.55 * max_a).unwrap();
    let tb = PerfTarget::new(0.45 * max_b, 0.55 * max_b).unwrap();
    let mut engine = Engine::new(s.board.clone(), EngineConfig::default());
    let app_a = engine.add_app(a.spec_with_budget(8, 1, 150)).unwrap();
    let app_b = engine.add_app(b.spec_with_budget(8, 2, 250)).unwrap();
    engine.set_perf_target(app_a, ta).unwrap();
    engine.set_perf_target(app_b, tb).unwrap();
    let mut manager = MpHarsManager::new(&s.board, s.perf, s.power.clone(), mp_hars_e());
    manager.register_app(app_a, 8, ta);
    manager.register_app(app_b, 8, tb);
    let mut version = MpVersion::MpHars(manager);
    let out = run_multi_app(
        &mut engine,
        &[app_a, app_b],
        &mut version,
        secs_to_ns(200.0),
        true,
    )
    .unwrap();
    for stats in &out.apps {
        assert!(
            stats.norm_perf > 0.7,
            "{:?} norm perf {}",
            stats.app,
            stats.norm_perf
        );
        assert!(stats.heartbeats >= 150);
    }
    // Partitioning invariant: at every trace point the two apps'
    // allocations fit the board together.
    let trace_a = &out.apps[0].trace;
    let trace_b = &out.apps[1].trace;
    for sa in trace_a {
        for sb in trace_b {
            if sa.time_ns.abs_diff(sb.time_ns) < 1_000_000 {
                for c in s.board.cluster_ids() {
                    assert!(sa.state.cores(c) + sb.state.cores(c) <= s.board.cluster_size(c));
                }
            }
        }
    }
}

/// CONS-I's conservative model adapts less aggressively than MP-HARS:
/// over the same case it ends with higher power for the same satisfied
/// targets (the paper's Figure 5.4 ordering).
#[test]
fn cons_i_is_less_efficient_than_mp_hars() {
    let s = setup();
    let (a, b) = (Benchmark::Bodytrack, Benchmark::Fluidanimate);
    let (max_a, max_b) = (solo_max(&s.board, a, 1), solo_max(&s.board, b, 2));
    let ta = PerfTarget::new(0.45 * max_a, 0.55 * max_a).unwrap();
    let tb = PerfTarget::new(0.45 * max_b, 0.55 * max_b).unwrap();

    let run = |version: &mut MpVersion| {
        let mut engine = Engine::new(s.board.clone(), EngineConfig::default());
        let app_a = engine.add_app(a.spec_with_budget(8, 1, 200)).unwrap();
        let app_b = engine.add_app(b.spec_with_budget(8, 2, 350)).unwrap();
        engine.set_perf_target(app_a, ta).unwrap();
        engine.set_perf_target(app_b, tb).unwrap();
        if let MpVersion::ConsI(m) = version {
            m.register_app(app_a, ta);
            m.register_app(app_b, tb);
        }
        if let MpVersion::MpHars(m) = version {
            m.register_app(app_a, 8, ta);
            m.register_app(app_b, 8, tb);
        }
        run_multi_app(
            &mut engine,
            &[app_a, app_b],
            version,
            secs_to_ns(300.0),
            false,
        )
        .unwrap()
    };

    let cons = run(&mut MpVersion::ConsI(ConsIManager::new(&s.board)));
    let mp = run(&mut MpVersion::MpHars(MpHarsManager::new(
        &s.board,
        s.perf,
        s.power.clone(),
        mp_hars_e(),
    )));
    assert!(
        mp.perf_per_watt > cons.perf_per_watt,
        "MP-HARS pp {} vs CONS-I pp {}",
        mp.perf_per_watt,
        cons.perf_per_watt
    );
}

/// Determinism across the whole stack: identical seeds give identical
/// outcomes for a full HARS run.
#[test]
fn full_stack_is_deterministic() {
    let run = || {
        let s = setup();
        let max = solo_max(&s.board, Benchmark::Swaptions, 9);
        let target = PerfTarget::new(0.45 * max, 0.55 * max).unwrap();
        let mut engine = Engine::new(s.board.clone(), EngineConfig::default());
        let app = engine
            .add_app(Benchmark::Swaptions.spec_with_budget(8, 9, 150))
            .unwrap();
        let mut manager = RuntimeManager::new(
            &s.board,
            target,
            s.perf,
            s.power.clone(),
            8,
            HarsConfig::from_variant(hars_e()),
        );
        let out = run_single_app(&mut engine, app, &mut manager, secs_to_ns(120.0), false).unwrap();
        (out.heartbeats, out.avg_rate, out.avg_watts, out.adaptations)
    };
    let x = run();
    let y = run();
    assert_eq!(x.0, y.0);
    assert!((x.1 - y.1).abs() < 1e-12);
    assert!((x.2 - y.2).abs() < 1e-12);
    assert_eq!(x.3, y.3);
}
