//! Chaos recovery: a seeded fault schedule against a serving fleet,
//! with shard supervision failing tenants of dead boards over onto the
//! survivors.
//!
//! The fault plane is fully deterministic: a [`FleetFaultSpec`] seed
//! expands positionally into one fault plan per board (whole-board
//! death, cluster thermal caps and quarantines, power-sensor dropout,
//! heartbeat stalls), injected as first-class engine events. The same
//! seed replays the same disaster bit for bit — on any worker count —
//! so a failover path can be regression-tested like any other code.
//!
//! This example serves one tenant stream three ways:
//!
//! 1. fault-free (the reference),
//! 2. with faults but no supervision (dead boards strand their
//!    tenants),
//! 3. with faults and failover (victims re-arrive on survivors after
//!    a deterministic backoff, with capped retries).
//!
//! ```sh
//! cargo run --release --example chaos_recovery
//! ```

use hars::prelude::*;
use hmp_sim::clock::NS_PER_SEC;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 6-board fleet from two hardware classes.
    let boards: Vec<FleetBoard> = (0..6)
        .map(|i| match i % 2 {
            0 => FleetBoard {
                board: BoardSpec::odroid_xu3(),
                runtime: FleetRuntimeKind::MpHarsI,
                admission: AdmissionSwap::AlwaysAdmit,
            },
            _ => FleetBoard {
                board: BoardSpec::dynamiq_1p_3m_4l(),
                runtime: FleetRuntimeKind::MpHarsI,
                admission: AdmissionSwap::CapacityGate { max_load: 0.95 },
            },
        })
        .collect();

    let template = AppTemplate {
        threads: 3,
        heartbeats: 40,
        target_frac: 0.5,
        target_jitter: 0.03,
        target_tolerance: 0.20,
        ..AppTemplate::new(Benchmark::Swaptions)
    };
    let mut spec = FleetSpec::new(
        boards,
        ArrivalProcess::Poisson { rate_per_sec: 0.25 },
        TemplateSet::uniform(vec![template]),
        60 * NS_PER_SEC,
        0xD15A57E5,
    );
    spec.solo_budget = 20;
    spec.placement = PlacementPolicy::RoundRobin;

    // A fault model hot enough to kill boards. Scan fault seeds (plan
    // derivation only — cheap and deterministic) until some board dies
    // and some board survives, so there is something to fail over to.
    let chaos = |seed| {
        let mut f = FleetFaultSpec::new(seed);
        f.board_fail_prob = 0.35;
        f.cluster_cap_prob = 0.3;
        f.sensor_fault_prob = 0.3;
        f.hb_stall_prob = 0.3;
        f
    };
    let kills = |f: &FleetFaultSpec, b: usize| {
        f.plan_for(b, spec.boards[b].board.n_clusters(), spec.horizon_ns)
            .kills_board()
    };
    let fault_seed = (0..1_000u64)
        .find(|&s| {
            let f = chaos(s);
            let dead = (0..spec.boards.len()).filter(|&b| kills(&f, b)).count();
            dead >= 1 && dead < spec.boards.len()
        })
        .expect("partial board loss is reachable at p=0.35");

    println!(
        "fleet: {} boards, {} arrivals over 60 s, fault seed {fault_seed}\n",
        spec.boards.len(),
        spec.tenant_schedule().len()
    );

    // 1. The fault-free reference.
    let clean = run_fleet(&spec, 8, &mut NullSink)?;

    // 2. Chaos without supervision: report-only.
    let mut abandoned_faults = chaos(fault_seed);
    abandoned_faults.failover = false;
    spec.faults = Some(abandoned_faults);
    let abandoned = run_fleet(&spec, 8, &mut NullSink)?;

    // 3. Chaos with the shard supervisor failing victims over.
    spec.faults = Some(chaos(fault_seed));
    let recovered = run_fleet(&spec, 8, &mut NullSink)?;
    let sequential = run_fleet(&spec, 1, &mut NullSink)?;
    assert_eq!(
        recovered.fingerprint, sequential.fingerprint,
        "chaos must replay bit-identically on any worker count"
    );

    println!("                      service  completed  dead  failed-over  lost");
    for (label, out) in [
        ("fault-free", &clean),
        ("faults, no failover", &abandoned),
        ("faults + failover", &recovered),
    ] {
        println!(
            "  {label:<20} {:>6.4}  {:>9}  {:>4}  {:>11}  {:>4}",
            out.service_level,
            out.completed,
            out.boards_failed,
            out.tenants_failed_over,
            out.failover_lost
        );
    }

    assert!(recovered.boards_failed >= 1, "a board must have died");
    assert!(
        recovered.service_level > abandoned.service_level,
        "failover must recover service lost to dead boards"
    );
    println!(
        "\nfailover recovered {:.1} points of service level under the same fault schedule",
        100.0 * (recovered.service_level - abandoned.service_level)
    );
    println!(
        "fingerprint {:#018x} at 1 and 8 workers",
        recovered.fingerprint
    );
    Ok(())
}
