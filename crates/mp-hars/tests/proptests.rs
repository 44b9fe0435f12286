//! Property-based tests for MP-HARS's resource partitioning and
//! decision logic.

use heartbeats::{AppId, PerfTarget};
use proptest::prelude::*;

use hars_core::SystemState;
use hmp_sim::{ClusterId, FreqKhz};
use mp_hars::app_data::{AppData, PerfClass};
use mp_hars::cluster_data::ClusterData;
use mp_hars::freeze::{combine_others, decide, FreezeDecision, StateDecision};
use mp_hars::partition::get_allocatable_core_set;

fn mk_app(id: u64) -> AppData {
    AppData::new(
        AppId(id),
        8,
        PerfTarget::new(9.0, 11.0).unwrap(),
        &[4, 4],
        SystemState::big_little(0, 0, FreqKhz::from_mhz(1_600), FreqKhz::from_mhz(1_300)),
    )
}

proptest! {
    /// Partitioning invariant under arbitrary request sequences: no
    /// core is ever owned by two apps, the free lists mirror ownership
    /// exactly, and every grant matches the ownership bitmap.
    #[test]
    fn partitioning_is_always_disjoint(
        requests in proptest::collection::vec(
            (0usize..3, 0usize..=4, 0usize..=4),
            1..40,
        )
    ) {
        let mut clusters = vec![
            ClusterData::new(ClusterId::LITTLE, 0, 4, FreqKhz::from_mhz(1_300)),
            ClusterData::new(ClusterId::BIG, 4, 4, FreqKhz::from_mhz(1_600)),
        ];
        let mut apps: Vec<AppData> = (0..3).map(mk_app).collect();
        for (idx, want_b, want_l) in requests {
            {
                let app = &mut apps[idx];
                let owned_b = app.owned_big();
                let owned_l = app.owned_little();
                if want_b < owned_b {
                    app.dec[ClusterId::BIG.index()] = owned_b - want_b;
                }
                if want_l < owned_l {
                    app.dec[ClusterId::LITTLE.index()] = owned_l - want_l;
                }
                app.state.set_cores(ClusterId::BIG, want_b);
                app.state.set_cores(ClusterId::LITTLE, want_l);
            }
            let alloc = get_allocatable_core_set(&mut apps[idx], &mut clusters);
            // Grant matches ownership.
            prop_assert_eq!(alloc.big().len(), apps[idx].owned_big());
            prop_assert_eq!(alloc.little().len(), apps[idx].owned_little());
            // Global disjointness + free-list consistency.
            for (ci, cluster) in clusters.iter().enumerate() {
                for i in 0..4 {
                    let owners = apps.iter().filter(|a| a.owned[ci][i]).count();
                    prop_assert!(owners <= 1);
                    prop_assert_eq!(owners == 0, cluster.free[i]);
                }
            }
        }
    }

    /// Shrinking by decrement always releases exactly the decrement.
    #[test]
    fn decrement_releases_exactly(
        initial in 1usize..=4,
        dec in 1usize..=4,
    ) {
        prop_assume!(dec <= initial);
        let mut clusters = vec![
            ClusterData::new(ClusterId::LITTLE, 0, 4, FreqKhz::from_mhz(1_300)),
            ClusterData::new(ClusterId::BIG, 4, 4, FreqKhz::from_mhz(1_600)),
        ];
        let mut app = mk_app(0);
        app.state.set_cores(ClusterId::BIG, initial);
        let _ = get_allocatable_core_set(&mut app, &mut clusters);
        prop_assert_eq!(app.owned_big(), initial);
        app.state.set_cores(ClusterId::BIG, initial - dec);
        app.dec[ClusterId::BIG.index()] = dec;
        let alloc = get_allocatable_core_set(&mut app, &mut clusters);
        prop_assert_eq!(alloc.big().len(), initial - dec);
        prop_assert_eq!(clusters[ClusterId::BIG.index()].free_count(), 4 - (initial - dec));
    }

    /// Decision-table safety invariants hold for every input, not just
    /// the tabulated rows: decreases need unanimity and no freeze, and
    /// any decrease freezes.
    #[test]
    fn decision_table_safety(
        app_c in 0usize..3,
        others_c in 0usize..4,
        frozen in proptest::bool::ANY,
    ) {
        let classes = [PerfClass::Underperf, PerfClass::Achieve, PerfClass::Overperf];
        let app = classes[app_c];
        let others = if others_c == 3 { None } else { Some(classes[others_c]) };
        let (s, f) = decide(app, others, frozen);
        if s == StateDecision::Dec {
            prop_assert_eq!(app, PerfClass::Overperf);
            prop_assert!(others.is_none() || others == Some(PerfClass::Overperf));
            prop_assert!(!frozen);
            prop_assert_eq!(f, FreezeDecision::Freeze);
        }
        if app == PerfClass::Underperf {
            prop_assert_eq!(s, StateDecision::Inc);
        }
        if app == PerfClass::Achieve {
            prop_assert_eq!(s, StateDecision::Keep);
        }
        // Unfreeze only happens for under-performers.
        if f == FreezeDecision::Unfreeze {
            prop_assert_eq!(app, PerfClass::Underperf);
        }
    }

    /// combine_others is order-independent and worst-case dominated.
    #[test]
    fn combine_others_is_commutative(perm in proptest::collection::vec(0usize..4, 0..6)) {
        let classes = [
            None,
            Some(PerfClass::Underperf),
            Some(PerfClass::Achieve),
            Some(PerfClass::Overperf),
        ];
        let items: Vec<Option<PerfClass>> = perm.iter().map(|&i| classes[i]).collect();
        let mut reversed = items.clone();
        reversed.reverse();
        prop_assert_eq!(combine_others(items.clone()), combine_others(reversed));
        // Any under-performer dominates.
        if items.contains(&Some(PerfClass::Underperf)) {
            prop_assert_eq!(combine_others(items), Some(PerfClass::Underperf));
        }
    }
}

// ---------------------------------------------------------------------
// Open-system churn hygiene: arbitrary register / unregister /
// heartbeat interleavings leave the manager's shared state consistent.
// ---------------------------------------------------------------------

mod churn {
    use super::*;
    use hars_core::ratio_learn::RatioLearning;
    use hars_core::{PerfEstimator, PowerEstimator};
    use hmp_sim::BoardSpec;
    use mp_hars::{mp_hars_e, MpHarsConfig, MpHarsManager};

    fn check_invariants(m: &MpHarsManager, board: &BoardSpec) -> Result<(), TestCaseError> {
        // 1. Core ownership is disjoint and mirrors the free lists.
        for (ci, cluster) in m.clusters().iter().enumerate() {
            for i in 0..cluster.len() {
                let owners = m.apps().iter().filter(|a| a.owned[ci][i]).count();
                prop_assert!(
                    owners <= 1,
                    "cluster {} core {} has {} owners",
                    ci,
                    i,
                    owners
                );
                prop_assert_eq!(
                    owners == 0,
                    cluster.free[i],
                    "free list out of sync at cluster {} core {}",
                    ci,
                    i
                );
            }
        }
        // 2. An allocated app's state mirrors its ownership bitmap; an
        //    unallocated app owns nothing.
        for a in m.apps() {
            for c in board.cluster_ids() {
                if a.allocated {
                    prop_assert_eq!(
                        a.owned(c),
                        a.state.cores(c),
                        "app {:?} state/ownership mismatch on {}",
                        a.app,
                        c
                    );
                } else {
                    prop_assert_eq!(a.owned(c), 0);
                }
            }
        }
        // 3. Frozen flags mirror the live freezing counts exactly — no
        //    stale freeze survives a departure (or a decrease nobody
        //    observes).
        for c in board.cluster_ids() {
            let any_armed = m.apps().iter().any(|a| a.freezing_cnt(c) > 0);
            prop_assert_eq!(
                m.cluster_frozen(c),
                any_armed,
                "frozen flag leaked on {}",
                c
            );
        }
        Ok(())
    }

    proptest! {
        /// Any interleaving of register/unregister/heartbeats keeps
        /// ownership, free lists, freeze state and per-app records
        /// consistent, on the XU3 and on a tri-cluster board.
        ///
        /// Ops are encoded as tuples: `kind` 0 = register (`threads`
        /// threads), 1 = unregister, 2.. = heartbeat (rate decoded from
        /// `rate_bits`; 0 means a rate-less beat).
        #[test]
        fn any_churn_interleaving_keeps_manager_state_consistent(
            ops in proptest::collection::vec(
                (0usize..4, 0usize..6, 1usize..=8, 0u32..64),
                1..60,
            ),
            tri in proptest::bool::ANY,
            freeze_heartbeats in 0u32..4,
        ) {
            let board = if tri {
                BoardSpec::dynamiq_1p_3m_4l()
            } else {
                BoardSpec::odroid_xu3()
            };
            let perf = PerfEstimator::from_board(&board);
            let mut m = MpHarsManager::new(
                &board,
                perf,
                PowerEstimator::synthetic_for_board(&board),
                MpHarsConfig {
                    adapt_every: 2,
                    freeze_heartbeats,
                    ratio_learning: RatioLearning::PerCluster,
                    ..mp_hars_e()
                },
            );
            // Slot -> (live id, per-app heartbeat counter); ids are
            // fresh per registration, like the engine's registry.
            let mut live: [Option<(AppId, u64)>; 6] = [None; 6];
            let mut next_id = 0u64;
            for (kind, slot, threads, rate_bits) in ops {
                match kind {
                    0 => {
                        if live[slot].is_none() {
                            let id = AppId(next_id);
                            next_id += 1;
                            m.register_app(id, threads, PerfTarget::new(9.0, 11.0).unwrap());
                            live[slot] = Some((id, 0));
                        }
                    }
                    1 => {
                        if let Some((id, _)) = live[slot].take() {
                            m.unregister_app(id);
                            prop_assert!(
                                m.apps().iter().all(|a| a.app != id),
                                "departed app must leave no record"
                            );
                        }
                    }
                    _ => {
                        if let Some((id, counter)) = live[slot].as_mut() {
                            let rate = if rate_bits == 0 {
                                None
                            } else {
                                Some(0.7 * rate_bits as f64) // 0.7 .. 44.1 hb/s
                            };
                            let _ = m.on_heartbeat(*id, *counter, rate);
                            *counter += 1;
                        }
                    }
                }
                check_invariants(&m, &board)?;
            }
            // Drain everyone: the manager must return to a pristine
            // free state with no frozen clusters.
            for slot in live.iter_mut() {
                if let Some((id, _)) = slot.take() {
                    m.unregister_app(id);
                }
            }
            check_invariants(&m, &board)?;
            prop_assert!(m.apps().is_empty());
            for (ci, cluster) in m.clusters().iter().enumerate() {
                prop_assert_eq!(
                    cluster.free_count(),
                    cluster.len(),
                    "cluster {} did not return to fully free",
                    ci
                );
                prop_assert!(!cluster.frozen);
            }
        }
    }
}
