//! Property-based tests for the simulator's data structures and the
//! engine's conservation laws.

use proptest::prelude::*;

use hmp_sim::clock::secs_to_ns;
use hmp_sim::{
    AppSpec, BoardSpec, CoreId, CpuSet, Engine, EngineConfig, FreqKhz, FreqLadder, SpeedProfile,
};

proptest! {
    /// CpuSet algebra behaves like a set of integers.
    #[test]
    fn cpuset_algebra(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
        let sa = CpuSet::from_cores((0..64).filter(|i| a & (1 << i) != 0).map(CoreId));
        let sb = CpuSet::from_cores((0..64).filter(|i| b & (1 << i) != 0).map(CoreId));
        prop_assert_eq!(sa.bits(), a);
        prop_assert_eq!(sb.bits(), b);
        prop_assert_eq!(sa.union(sb).bits(), a | b);
        prop_assert_eq!(sa.intersection(sb).bits(), a & b);
        prop_assert_eq!(sa.difference(sb).bits(), a & !b);
        prop_assert_eq!(sa.is_disjoint(sb), a & b == 0);
        prop_assert_eq!(sa.is_subset(sb), a & !b == 0);
        prop_assert_eq!(sa.len(), a.count_ones() as usize);
        // Iteration visits exactly the member cores, ascending.
        let members: Vec<usize> = sa.iter().map(|c| c.0).collect();
        prop_assert!(members.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(members.len(), sa.len());
    }

    /// Frequency ladders: floor stays on the ladder, at or below the
    /// probe.
    #[test]
    fn ladder_operations(
        lo in 1u32..20,
        steps in 1u32..20,
        step in 1u32..5,
        probe_mhz in 1u32..4_000,
    ) {
        let hi = lo + steps * step;
        let ladder = FreqLadder::from_mhz_range(lo * 100, hi * 100, step * 100);
        let probe = FreqKhz::from_mhz(probe_mhz);
        let floored = ladder.floor(probe);
        prop_assert!(ladder.contains(floored));
        if probe >= ladder.min() {
            prop_assert!(floored <= probe);
        }
    }

    /// Engine conservation: work completed (heartbeats × unit work)
    /// never exceeds what the busy core-time could have produced, and
    /// energy is positive and bounded by the maximum board draw.
    #[test]
    fn engine_conservation(
        threads in 1usize..12,
        unit_work in 50.0f64..500.0,
        ratio in 1.0f64..2.0,
        run_secs in 1u64..6,
    ) {
        let board = BoardSpec::odroid_xu3();
        let cfg = EngineConfig { sensor_noise: 0.0, ..EngineConfig::default() };
        let mut engine = Engine::new(board.clone(), cfg);
        let mut spec = AppSpec::data_parallel("p", threads, unit_work);
        spec.speed = SpeedProfile::compute_bound(ratio);
        let app = engine.add_app(spec).unwrap();
        engine.run_until(secs_to_ns(run_secs as f64));

        // Upper bound on producible work: all busy core-seconds at the
        // fastest per-core speed.
        let max_speed = 1_000.0 * ratio * 1.6;
        let busy_secs = engine.energy().busy_core_secs(hmp_sim::ClusterId::BIG)
            + engine.energy().busy_core_secs(hmp_sim::ClusterId::LITTLE);
        let produced = engine.app_units_done(app) as f64 * unit_work;
        prop_assert!(
            produced <= busy_secs * max_speed + unit_work,
            "produced {} from {} busy core-secs",
            produced,
            busy_secs
        );

        // Energy bounded by worst-case draw over the elapsed time.
        let max_power = hmp_sim::board_power(
            &board,
            &board
                .cluster_ids()
                .map(|c| board.ladder(c).max())
                .collect::<Vec<_>>(),
            &board
                .cluster_ids()
                .map(|c| board.cluster_size(c) as f64)
                .collect::<Vec<_>>(),
        );
        let joules = engine.energy().total_joules();
        prop_assert!(joules >= 0.0);
        prop_assert!(joules <= max_power * engine.energy().elapsed_secs() + 1e-9);
    }

    /// Heartbeat counts are consistent with completed units regardless
    /// of batching.
    #[test]
    fn heartbeat_batching_consistency(
        threads in 1usize..8,
        batch in 1u64..8,
        run_secs in 1u64..5,
    ) {
        let board = BoardSpec::odroid_xu3();
        let cfg = EngineConfig { sensor_noise: 0.0, ..EngineConfig::default() };
        let mut engine = Engine::new(board, cfg);
        let mut spec = AppSpec::data_parallel("p", threads, 100.0);
        spec.items_per_heartbeat = batch;
        let app = engine.add_app(spec).unwrap();
        engine.run_until(secs_to_ns(run_secs as f64));
        let units = engine.app_units_done(app);
        let beats = engine.app_heartbeats(app);
        prop_assert_eq!(beats, units / batch);
    }

    /// Affinity changes never lose threads: the app keeps making
    /// progress wherever it is pinned.
    #[test]
    fn repinning_preserves_progress(mask_bits in 1u8..=255u8) {
        let board = BoardSpec::odroid_xu3();
        let cfg = EngineConfig { sensor_noise: 0.0, ..EngineConfig::default() };
        let mut engine = Engine::new(board, cfg);
        let spec = AppSpec::data_parallel("p", 4, 100.0);
        let app = engine.add_app(spec).unwrap();
        let mask = CpuSet::from_cores(
            (0..8usize).filter(|i| mask_bits & (1 << i) != 0).map(CoreId),
        );
        for t in 0..4 {
            engine.set_thread_affinity(app, t, mask).unwrap();
        }
        engine.run_until(secs_to_ns(2.0));
        prop_assert!(
            engine.app_heartbeats(app) > 0,
            "no progress with mask {mask}"
        );
    }
}
