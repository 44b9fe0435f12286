//! Fleet determinism contracts: worker-count invariance, merge-order
//! independence, and shared-vs-private cache equivalence.
//!
//! These are the properties that make fleet-scale parallel serving
//! safe to ship: adding workers (or racing shards on the shared
//! calibration cache) must never change a single bit of the outcome,
//! cache hit and miss counts included.

use std::collections::BTreeSet;
use std::hash::Hasher;

use proptest::{prop_assert, prop_assert_eq, proptest};

use hars_core::fnv::FnvHasher;
use hars_core::telemetry::parse_capture;
use hars_core::{NullSink, TelemetryEvent};
use hars_fleet::{
    run_fleet, run_fleet_with_metrics, FleetAccum, FleetBoard, FleetCacheMode, FleetFaultSpec,
    FleetOutcome, FleetRuntimeKind, FleetSpec, Placement, PlacementPolicy, ShardFailure,
};
use hars_obs::{summarize, MetricsSink};
use hars_scenario::{
    run_scenario, AdmissionSwap, AlwaysAdmit, AppTemplate, ArrivalProcess, JsonlSink,
    ScenarioRuntime, ScenarioSpec, TemplateSet,
};
use hmp_sim::clock::NS_PER_SEC;
use hmp_sim::{BoardSpec, FreqKhz};
use workloads::Benchmark;

/// A small, fast, mixed fleet: edge boards next to a big server,
/// heterogeneous runtimes and admission policies, short tenants.
fn tiny_fleet(seed: u64, n_boards: usize, placement: PlacementPolicy) -> FleetSpec {
    let presets = [
        BoardSpec::odroid_xu3(),
        BoardSpec::dynamiq_1p_3m_4l(),
        BoardSpec::server_4c_32core(),
    ];
    let boards: Vec<FleetBoard> = (0..n_boards)
        .map(|i| FleetBoard {
            board: presets[i % presets.len()].clone(),
            runtime: if i % 3 == 2 {
                FleetRuntimeKind::Gts
            } else {
                FleetRuntimeKind::MpHarsI
            },
            admission: if i % 2 == 0 {
                AdmissionSwap::AlwaysAdmit
            } else {
                AdmissionSwap::CapacityGate { max_load: 0.9 }
            },
        })
        .collect();
    let mut template = AppTemplate::new(Benchmark::Swaptions);
    template.heartbeats = 15;
    let mut bg = AppTemplate::new(Benchmark::Blackscholes);
    bg.heartbeats = 12;
    bg.target_frac = 0.3;
    let mut spec = FleetSpec::new(
        boards,
        ArrivalProcess::Poisson { rate_per_sec: 0.5 },
        TemplateSet::uniform(vec![template, bg]),
        12 * NS_PER_SEC,
        seed,
    );
    spec.solo_budget = 20;
    spec.placement = placement;
    spec
}

fn placements() -> [PlacementPolicy; 2] {
    [PlacementPolicy::LeastLoaded, PlacementPolicy::RoundRobin]
}

/// Shared and private caches differ only in their hit/miss split; zero
/// it so whole-struct equality checks everything else.
fn sans_cache_counts(mut out: FleetOutcome) -> FleetOutcome {
    out.solo_cache_hits = 0;
    out.solo_cache_misses = 0;
    out
}

proptest! {
    /// One worker and many workers produce byte-identical fleet
    /// outcomes — fingerprint and cache counts included — regardless
    /// of placement policy.
    #[test]
    fn worker_count_never_changes_the_outcome(
        seed in 0u64..1_000,
        n_boards in 2usize..5,
        placement_idx in 0usize..2,
    ) {
        let spec = tiny_fleet(seed, n_boards, placements()[placement_idx]);
        let one = run_fleet(&spec, 1, &mut NullSink).expect("fleet runs");
        let two = run_fleet(&spec, 2, &mut NullSink).expect("fleet runs");
        let eight = run_fleet(&spec, 8, &mut NullSink).expect("fleet runs");
        prop_assert_eq!(&one, &two);
        prop_assert_eq!(one, eight);
    }

    /// The fleet-wide shared calibration cache is value-transparent:
    /// sharing one cache across all shards and giving every shard its
    /// own private cache produce identical outcomes (only the hit/miss
    /// accounting differs — sharing converts repeat misses into hits).
    #[test]
    fn shared_cache_is_output_identical_to_private_caches(
        seed in 0u64..1_000,
        n_boards in 2usize..5,
        workers in 1usize..5,
    ) {
        let mut spec = tiny_fleet(seed, n_boards, PlacementPolicy::LeastLoaded);
        spec.cache = FleetCacheMode::Shared;
        let shared = run_fleet(&spec, workers, &mut NullSink).expect("fleet runs");
        spec.cache = FleetCacheMode::PerShard;
        let private = run_fleet(&spec, workers, &mut NullSink).expect("fleet runs");
        prop_assert_eq!(shared.fingerprint, private.fingerprint);
        prop_assert_eq!(sans_cache_counts(shared.clone()), sans_cache_counts(private.clone()));
        // Sharing can only save work, never add it.
        prop_assert_eq!(
            shared.solo_cache_hits + shared.solo_cache_misses,
            private.solo_cache_hits + private.solo_cache_misses
        );
        assert!(shared.solo_cache_misses <= private.solo_cache_misses);
    }

    /// The observability fold rides the same contract: metrics runs
    /// produce the same fleet fingerprint as metrics-less runs, and
    /// the merged [`hars_obs::MetricsRollup`] (queue percentiles, SLO
    /// rollups, histograms) is bit-identical across 1/2/8 workers.
    #[test]
    fn metrics_rollups_are_bit_stable_across_worker_counts(
        seed in 0u64..1_000,
        n_boards in 2usize..5,
        placement_idx in 0usize..2,
    ) {
        let spec = tiny_fleet(seed, n_boards, placements()[placement_idx]);
        let plain = run_fleet(&spec, 1, &mut NullSink).expect("fleet runs");
        let one = run_fleet_with_metrics(&spec, 1, &mut NullSink).expect("fleet runs");
        let two = run_fleet_with_metrics(&spec, 2, &mut NullSink).expect("fleet runs");
        let eight = run_fleet_with_metrics(&spec, 8, &mut NullSink).expect("fleet runs");
        // Observe-only: the fold never perturbs the run.
        prop_assert_eq!(plain.fingerprint, one.fingerprint);
        assert!(plain.metrics.is_none());
        let m1 = one.metrics.as_ref().expect("metrics run fills the rollup");
        let m2 = two.metrics.as_ref().expect("metrics run fills the rollup");
        let m8 = eight.metrics.as_ref().expect("metrics run fills the rollup");
        prop_assert_eq!(m1, m2);
        prop_assert_eq!(m1, m8);
        prop_assert_eq!(m1.render(), m8.render());
        prop_assert_eq!(m1.admitted as usize, one.admitted);
        prop_assert_eq!(
            m1.queue_wait_ns.count(),
            m1.admitted,
            "one queue-wait observation per admitted tenant"
        );
    }
}

/// A fault model exercising every channel at once, hot enough that
/// boards die and failover rounds actually run.
fn chaos_faults(seed: u64) -> FleetFaultSpec {
    let mut f = FleetFaultSpec::new(seed);
    f.board_fail_prob = 0.4;
    f.cluster_cap_prob = 0.3;
    f.cluster_offline_prob = 0.2;
    f.sensor_fault_prob = 0.3;
    f.hb_stall_prob = 0.3;
    f
}

proptest! {
    /// The supervised fault plane rides the same determinism contract
    /// as fault-free serving: the same fleet spec and fault seed
    /// produce bit-identical outcomes — failover landings, service
    /// level, cache counts of superseded shard runs and all — for 1, 2
    /// and 8 workers, and the service level stays in [0, 1].
    #[test]
    fn faulty_fleets_are_bit_identical_across_worker_counts(
        seed in 0u64..200,
        fault_seed in 0u64..50,
        n_boards in 2usize..5,
        placement_idx in 0usize..2,
    ) {
        let mut spec = tiny_fleet(seed, n_boards, placements()[placement_idx]);
        spec.faults = Some(chaos_faults(fault_seed));
        let one = run_fleet(&spec, 1, &mut NullSink).expect("fleet runs");
        let two = run_fleet(&spec, 2, &mut NullSink).expect("fleet runs");
        let eight = run_fleet(&spec, 8, &mut NullSink).expect("fleet runs");
        prop_assert!(
            (0.0..=1.0).contains(&one.service_level),
            "service level {} outside [0, 1]",
            one.service_level
        );
        prop_assert_eq!(&one, &two);
        prop_assert_eq!(one, eight);
    }

    /// An installed-but-silent fault model (every probability zero) is
    /// indistinguishable from no fault model at all — the off-by-
    /// default contract that keeps pre-fault-plane goldens intact.
    #[test]
    fn zero_probability_faults_match_no_fault_model(
        seed in 0u64..200,
        n_boards in 2usize..5,
    ) {
        let mut spec = tiny_fleet(seed, n_boards, PlacementPolicy::LeastLoaded);
        let plain = run_fleet(&spec, 2, &mut NullSink).expect("fleet runs");
        spec.faults = Some(FleetFaultSpec::new(1234));
        let silent = run_fleet(&spec, 2, &mut NullSink).expect("fleet runs");
        prop_assert_eq!(plain, silent);
    }
}

/// A fleet big enough for eight workers to race on cold cache keys:
/// 24 boards round-robin over the three presets, serving four tenant
/// templates.
fn racing_fleet() -> FleetSpec {
    let mut spec = tiny_fleet(3, 24, PlacementPolicy::RoundRobin);
    let template = |bench, threads, target_frac| AppTemplate {
        threads,
        heartbeats: 12,
        target_frac,
        ..AppTemplate::new(bench)
    };
    spec.templates = TemplateSet::uniform(vec![
        template(Benchmark::Swaptions, 2, 0.5),
        template(Benchmark::Blackscholes, 4, 0.3),
        template(Benchmark::Bodytrack, 4, 0.3),
        template(Benchmark::Fluidanimate, 8, 0.3),
    ]);
    spec.arrivals = ArrivalProcess::Poisson { rate_per_sec: 4.0 };
    spec
}

/// Shards racing on the single-flight cache leave every count where
/// one worker puts it: misses equal unique keys, and under board
/// deaths the lookups of superseded shard runs still count.
#[test]
fn racing_shards_agree_on_cache_counts_at_any_worker_count() {
    let mut faulty = racing_fleet();
    let mut faults = FleetFaultSpec::new(11);
    faults.board_fail_prob = 0.3;
    faulty.faults = Some(faults);
    for spec in [racing_fleet(), faulty] {
        let one = run_fleet(&spec, 1, &mut NullSink).expect("fleet runs");
        let eight = run_fleet(&spec, 8, &mut NullSink).expect("fleet runs");
        assert_eq!(one, eight);
        assert_eq!(
            one.tenants_failed_over > 0,
            spec.faults.is_some(),
            "board deaths must trigger supervisor re-runs"
        );
    }
}

/// Board deaths for the 3-board `tiny_fleet(17, ..)`: a fault seed that
/// kills at least one board but not all of them — deterministic (the
/// scan order is fixed), and cheap (plan derivation only; no
/// simulation).
fn dead_board_faults() -> FleetFaultSpec {
    let horizon_ns = tiny_fleet(17, 3, PlacementPolicy::LeastLoaded).horizon_ns;
    let with_seed = |fs| {
        let mut f = FleetFaultSpec::new(fs);
        f.board_fail_prob = 0.5;
        f
    };
    (0..500u64)
        .map(with_seed)
        .find(|f| {
            let dead = (0..3)
                .filter(|&b| !f.plan_for(b, 2, horizon_ns).is_empty())
                .count();
            (1..3).contains(&dead)
        })
        .expect("some seed under p=0.5 kills 1-2 of 3 boards")
}

/// With a board guaranteed dead mid-run, the supervisor re-places its
/// tenants on the survivors: failovers happen, the landings show up in
/// survivor schedules, and service recovers relative to supervision
/// switched off — all under the same fault schedule.
#[test]
fn failover_recovers_tenants_of_a_dead_board() {
    let mut faults = dead_board_faults();
    let mut with = tiny_fleet(17, 3, PlacementPolicy::LeastLoaded);
    with.faults = Some(faults);
    let supervised = run_fleet(&with, 4, &mut NullSink).expect("fleet runs");

    faults.failover = false;
    let mut without = tiny_fleet(17, 3, PlacementPolicy::LeastLoaded);
    without.faults = Some(faults);
    let abandoned = run_fleet(&without, 4, &mut NullSink).expect("fleet runs");

    assert!(supervised.boards_failed >= 1, "a board must have died");
    assert_eq!(supervised.boards_failed, abandoned.boards_failed);
    assert!(
        supervised.tenants_failed_over > 0,
        "victims must be re-placed (faults_injected={}, boards_failed={})",
        supervised.faults_injected,
        supervised.boards_failed
    );
    assert!(
        supervised.service_level > abandoned.service_level,
        "failover must strictly beat abandonment under the same fault \
         schedule: {} vs {}",
        supervised.service_level,
        abandoned.service_level
    );
    assert!(supervised.failed_shards.is_empty(), "no worker panicked");
}

/// Boards whose fault plan holds no `BoardFail` run exactly once, with
/// their final schedules: a fleet whose failed-over tenants all land on
/// such boards — like a fault-free fleet — makes one shard run per
/// board, and every other re-run belongs to a board that can die and
/// took failed-over tenants after an earlier run.
#[test]
fn boards_that_cannot_die_run_once() {
    let fault_free = tiny_fleet(17, 3, PlacementPolicy::LeastLoaded);
    let one_death = faulty(fault_free.clone(), dead_board_faults());
    let drained = faulty(
        tiny_fleet(29, 6, PlacementPolicy::RoundRobin),
        chaos_faults(7),
    );
    let racing = faulty(racing_fleet(), chaos_faults(11));
    let cases = [
        (fault_free, false),
        (one_death, false),
        (drained, true),
        (racing, false),
    ];
    for (spec, reruns_expected) in cases {
        let n = spec.boards.len();
        let mut sink = JsonlSink::new(Vec::new());
        let out = run_fleet(&spec, 2, &mut sink).expect("fleet runs");
        let mortal_destinations = failover_destinations(&sink.into_inner())
            .into_iter()
            .filter(|&b| spec.fault_plan(b).kills_board())
            .count() as u64;
        assert!(out.failed_shards.is_empty());
        assert_eq!(mortal_destinations > 0, reruns_expected);
        if spec.faults.is_some() {
            assert!(out.tenants_failed_over > 0, "survivors must take victims");
        }
        // One run per board, plus at least one re-run per board that
        // can die and took victims and at most one per such board and
        // failover pass (each pass follows a wave in which at least one
        // more board died): with no such board, exactly one per board.
        let reruns = out.shard_runs - n as u64;
        assert!(
            (mortal_destinations..=mortal_destinations * out.boards_failed).contains(&reruns),
            "{reruns} re-runs, {mortal_destinations} boards that can die took victims"
        );
    }
}

/// `tiny_fleet(17, 3, ..)` with a zero base frequency on board 2, a GTS
/// board whose shard worker therefore panics in `Engine::new`, under
/// `faults`.
fn panicking_fleet(faults: FleetFaultSpec) -> FleetSpec {
    let mut spec = faulty(tiny_fleet(17, 3, PlacementPolicy::LeastLoaded), faults);
    spec.boards[2].board.base_freq = FreqKhz::new(0);
    spec
}

/// A shard worker that panics fails its shard, not the fleet: the pool
/// reports a row with the panic message and fails the shard's tenants
/// over like a dead board's — also when a board dies in the same fleet
/// — and the outcome stays bit-identical across worker counts.
#[test]
fn a_panicking_shard_fails_over_like_a_dead_board() {
    let board_dies = (0..500u64)
        .map(|fs| FleetFaultSpec {
            board_fail_prob: 0.5,
            ..FleetFaultSpec::new(fs)
        })
        .find(|&f| {
            let spec = panicking_fleet(f);
            let kills = |b| spec.fault_plan(b).kills_board();
            (kills(0) || kills(1)) && !kills(2)
        })
        .expect("some seed under p=0.5 kills board 0 or 1 but not board 2");
    for faults in [FleetFaultSpec::new(5), board_dies] {
        let spec = panicking_fleet(faults);
        let one = run_fleet(&spec, 1, &mut NullSink).expect("a worker panic is no error");
        let eight = run_fleet(&spec, 8, &mut NullSink).expect("a worker panic is no error");
        assert_eq!(one, eight);
        assert_eq!(
            one.failed_shards,
            vec![ShardFailure {
                shard: 2,
                board: spec.boards[2].board.name.clone(),
                reason: "base frequency must be positive".to_string(),
            }]
        );
        assert!(one.shards.iter().all(|row| row.shard != 2));
        assert!(
            one.tenants_failed_over > 0,
            "the panicked shard's tenants fail over"
        );
        assert_eq!(one.boards_failed > 0, faults.board_fail_prob > 0.0);
    }
}

/// The caller-side stream of a chaos fleet (placements and failovers)
/// replays byte for byte: every line re-encodes to itself and the
/// replayed summary equals the live fold.
#[test]
fn chaos_fleet_stream_replays_byte_for_byte() {
    let mut spec = tiny_fleet(17, 3, PlacementPolicy::LeastLoaded);
    spec.faults = Some(dead_board_faults());
    let mut sink = MetricsSink::wrap(JsonlSink::new(Vec::new()));
    run_fleet(&spec, 2, &mut sink).expect("fleet runs");
    let (live, capture) = sink.finish();
    let text = String::from_utf8(capture.into_inner()).expect("utf8 capture");
    let events = parse_capture(&text).expect("capture parses against the schema");

    let kinds: BTreeSet<&str> = events.iter().map(|ev| ev.kind()).collect();
    assert!(kinds.contains("placement"), "{kinds:?}");
    assert!(kinds.contains("tenant_failed_over"), "{kinds:?}");
    for (line, ev) in text.lines().zip(&events) {
        assert_eq!(ev.to_json(), line);
    }
    assert_eq!(events.len(), text.lines().count());
    assert_eq!(live, summarize(&events));
}

/// A fleet spec with `faults` installed.
fn faulty(mut spec: FleetSpec, faults: FleetFaultSpec) -> FleetSpec {
    spec.faults = Some(faults);
    spec
}

/// FNV-1a over a byte stream.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = FnvHasher::new();
    h.write(bytes);
    h.finish()
}

/// The boards a fleet's JSONL stream shows tenants failing over onto.
fn failover_destinations(stream: &[u8]) -> BTreeSet<usize> {
    let text = std::str::from_utf8(stream).expect("utf8 capture");
    parse_capture(text)
        .expect("capture parses against the schema")
        .iter()
        .filter_map(|ev| match ev {
            TelemetryEvent::TenantFailedOver { to_board, .. } if *to_board != u64::MAX => {
                Some(*to_board as usize)
            }
            _ => None,
        })
        .collect()
}

/// The figures a supervised fleet run is pinned by.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    fingerprint: u64,
    service_level_bits: u64,
    tenants_failed_over: u64,
    failover_lost: u64,
    /// FNV-1a of the caller's JSONL stream (placements and failovers).
    stream_fnv: u64,
    /// FNV-1a of the rendered metrics rollup (metrics runs only).
    rollup_fnv: Option<u64>,
    /// Boards that died although tenants had failed over onto them:
    /// they drained before their death instant in an earlier run and
    /// died in the re-run that served their new tenants.
    drained_then_died: usize,
}

/// Runs `spec` on two workers with a JSONL sink and reads off its
/// [`Pinned`] figures.
fn pinned_run(spec: &FleetSpec, metrics: bool) -> Pinned {
    let run = if metrics {
        run_fleet_with_metrics
    } else {
        run_fleet
    };
    let mut sink = JsonlSink::new(Vec::new());
    let out = run(spec, 2, &mut sink).expect("fleet runs");
    let stream = sink.into_inner();
    let landed = failover_destinations(&stream);
    Pinned {
        fingerprint: out.fingerprint,
        service_level_bits: out.service_level.to_bits(),
        tenants_failed_over: out.tenants_failed_over,
        failover_lost: out.failover_lost,
        stream_fnv: fnv(&stream),
        rollup_fnv: out.metrics.map(|m| fnv(m.render().as_bytes())),
        drained_then_died: out
            .shards
            .iter()
            .filter(|row| row.board_failed_at.is_some() && landed.contains(&row.shard))
            .count(),
    }
}

/// Supervised fleets pinned with the figures the barrier-round
/// supervisor produced, which ran every shard in round zero and re-ran
/// failover destinations from t = 0. Running boards that can die first
/// and survivors once, after failover settles, must not move a bit.
/// In the drained-board fleet, failed-over tenants run only the
/// heartbeats they have left. The metrics fleet is pinned with the
/// death-first supervisor's figures. Every service level lies in
/// [0, 1].
#[test]
fn supervised_fleets_match_pinned_outcomes() {
    let no_failover = FleetFaultSpec {
        failover: false,
        ..dead_board_faults()
    };
    let mut per_shard = faulty(
        tiny_fleet(5, 4, PlacementPolicy::RoundRobin),
        chaos_faults(3),
    );
    per_shard.cache = FleetCacheMode::PerShard;
    let drained = FleetFaultSpec {
        board_fail_prob: 0.5,
        ..FleetFaultSpec::new(4)
    };
    let cases = [
        (
            "failover",
            faulty(
                tiny_fleet(17, 3, PlacementPolicy::LeastLoaded),
                dead_board_faults(),
            ),
            false,
            Pinned {
                fingerprint: 0x0796_1616_c86f_9ee2,
                service_level_bits: 0x3fe5_853d_614f_5854,
                tenants_failed_over: 1,
                failover_lost: 0,
                stream_fnv: 0x13ac_7eb6_1d6b_5555,
                rollup_fnv: None,
                drained_then_died: 0,
            },
        ),
        (
            "no failover",
            faulty(tiny_fleet(17, 3, PlacementPolicy::LeastLoaded), no_failover),
            false,
            Pinned {
                fingerprint: 0x6cf3_a79b_6fa4_a588,
                service_level_bits: 0x3fe4_65cd_1973_465d,
                tenants_failed_over: 0,
                failover_lost: 0,
                stream_fnv: 0xcfc7_74f9_468b_ae12,
                rollup_fnv: None,
                drained_then_died: 0,
            },
        ),
        (
            "per-shard caches",
            per_shard,
            false,
            Pinned {
                fingerprint: 0x2d19_3131_9b5f_593a,
                service_level_bits: 0x3fe8_4dc5_abbf_309c,
                tenants_failed_over: 1,
                failover_lost: 0,
                stream_fnv: 0x1209_154f_d92a_493b,
                rollup_fnv: None,
                drained_then_died: 0,
            },
        ),
        (
            "metrics, least loaded",
            faulty(
                tiny_fleet(9, 4, PlacementPolicy::LeastLoaded),
                chaos_faults(7),
            ),
            true,
            Pinned {
                fingerprint: 0x083e_5efb_7ca3_052c,
                service_level_bits: 0x3fd4_0a57_eb50_2960,
                tenants_failed_over: 4,
                failover_lost: 1,
                stream_fnv: 0x468d_35af_d41b_4a61,
                rollup_fnv: Some(0x40d8_cc26_d87a_8496),
                drained_then_died: 0,
            },
        ),
        (
            "drained board dies in its re-run",
            faulty(tiny_fleet(0, 3, PlacementPolicy::RoundRobin), drained),
            false,
            Pinned {
                fingerprint: 0xe144_ac90_ee15_d41e,
                service_level_bits: 0x3fef_3333_3333_3333,
                tenants_failed_over: 2,
                failover_lost: 0,
                stream_fnv: 0x213d_bdb6_39ad_1cb4,
                rollup_fnv: None,
                drained_then_died: 1,
            },
        ),
        (
            "six boards round-robin",
            faulty(
                tiny_fleet(29, 6, PlacementPolicy::RoundRobin),
                chaos_faults(7),
            ),
            false,
            Pinned {
                fingerprint: 0x1fd9_85a0_5ba5_71fd,
                service_level_bits: 0x3fdf_a7e9_fa7e_9fa8,
                tenants_failed_over: 3,
                failover_lost: 1,
                stream_fnv: 0x6fd2_ad05_df1a_a0ec,
                rollup_fnv: None,
                drained_then_died: 1,
            },
        ),
    ];
    for (name, spec, metrics, want) in cases {
        let got = pinned_run(&spec, metrics);
        let service_level = f64::from_bits(got.service_level_bits);
        assert!(
            (0.0..=1.0).contains(&service_level),
            "{name}: service level {service_level} outside [0, 1]"
        );
        assert_eq!(got, want, "{name}");
    }
}

/// Absorbing the same shard outcomes in any order yields the identical
/// fleet outcome: the reduction is commutative by construction
/// (wrapping-sum fingerprint terms, sorted rows, order-free sums).
#[test]
fn merge_order_never_changes_the_outcome() {
    let board = BoardSpec::odroid_xu3();
    let mut template = AppTemplate::new(Benchmark::Swaptions);
    template.heartbeats = 12;
    let outcomes: Vec<_> = (0..4u64)
        .map(|i| {
            let mut spec = ScenarioSpec::new(
                ArrivalProcess::Poisson { rate_per_sec: 0.5 },
                TemplateSet::uniform(vec![template.clone()]),
                8 * NS_PER_SEC,
                100 + i,
            );
            spec.solo_budget = 20;
            run_scenario(
                &board,
                &hmp_sim::EngineConfig::default(),
                &spec,
                &mut AlwaysAdmit,
                ScenarioRuntime::Gts,
            )
            .expect("scenario runs")
        })
        .collect();
    let placement = Placement {
        assignments: (0..8).map(|i| Some(i % 4)).collect(),
        per_board: vec![2; 4],
        fleet_rejected: 0,
    };
    let reduce = |order: &[usize]| {
        let mut accum = FleetAccum::new();
        for &shard in order {
            accum.absorb(shard, format!("board-{shard}"), "GTS", &outcomes[shard]);
        }
        accum.finish(&placement, 8)
    };
    let forward = reduce(&[0, 1, 2, 3]);
    for order in [[3, 2, 1, 0], [2, 0, 3, 1], [1, 3, 0, 2]] {
        let shuffled = reduce(&order);
        assert_eq!(forward, shuffled, "merge must commute (order {order:?})");
    }
    // Sensitivity: swapping which shard produced which outcome must
    // change the digest — commutativity must not come from ignoring
    // shard identity.
    let mut swapped = FleetAccum::new();
    for (shard, src) in [(0usize, 1usize), (1, 0), (2, 2), (3, 3)] {
        swapped.absorb(shard, format!("board-{shard}"), "GTS", &outcomes[src]);
    }
    assert_ne!(
        forward.fingerprint,
        swapped.finish(&placement, 8).fingerprint,
        "digest must bind outcomes to their shards"
    );
}
