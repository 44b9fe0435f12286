//! The ferret story (paper Section 5.1.2): a 6-stage pipeline is
//! vulnerable to the chunk-based scheduler's stage imbalance — the
//! interleaving scheduler fixes it. This example pins ferret at one
//! mixed big/little state under both schedulers and compares throughput.
//!
//! ```sh
//! cargo run --release --example ferret_pipeline
//! ```

use hars::hars_core::assign::{assign_threads_n, ClusterCapacity};
use hars::hars_core::sched::{plan_affinities, SchedulerKind};
use hars::hars_core::StateSpace;
use hars::prelude::*;

fn run_with(scheduler: SchedulerKind) -> Result<(f64, f64), Box<dyn std::error::Error>> {
    let board = BoardSpec::odroid_xu3();
    let mut engine = Engine::new(board.clone(), EngineConfig::default());
    let spec = Benchmark::Ferret.spec_with_budget(8, 7, 400);
    let threads = spec.threads; // 4n + 2 = 34 OS threads for -n 8
    let app = engine.add_app(spec)?;

    // A mixed state: 2 big cores at 1.0 GHz + 4 little at 1.3 GHz.
    let (big, little) = (ClusterId::BIG, ClusterId::LITTLE);
    let state = SystemState::new(&[(4, FreqKhz::from_mhz(1_300)), (2, FreqKhz::from_mhz(1_000))]);
    assert!(StateSpace::from_board(&board).contains(&state));
    engine.set_cluster_freq(big, state.freq(big))?;
    engine.set_cluster_freq(little, state.freq(little))?;

    // Pin threads the way HARS would: Table 3.1 assignment realized by
    // the chosen scheduler.
    let r = 1.5 * state.freq(big).ghz() / state.freq(little).ghz();
    let cluster = |cores, speed| ClusterCapacity { cores, speed };
    let caps = [
        cluster(state.cores(little), 1.0),
        cluster(state.cores(big), r),
    ];
    let assignment = assign_threads_n(threads, &caps);
    let cores: Vec<Vec<CoreId>> = board
        .cluster_ids()
        .map(|c| {
            let start = board.cluster_start(c).0;
            (0..assignment.used(c)).map(|i| CoreId(start + i)).collect()
        })
        .collect();
    let plan = plan_affinities(scheduler, &assignment, &cores);
    for (thread, mask) in plan.iter().enumerate() {
        engine.set_thread_affinity(app, thread, *mask)?;
    }

    engine.run_while_active(120_000_000_000);
    let rate = engine
        .monitor(app)?
        .global_rate()
        .map(|x| x.heartbeats_per_sec())
        .unwrap_or(0.0);
    Ok((rate, engine.energy().average_power()))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("ferret: 6-stage pipeline, 34 threads (-n 8), pinned to 2B@1.0 + 4L@1.3\n");
    let (chunk_rate, chunk_watts) = run_with(SchedulerKind::Chunk)?;
    let (il_rate, il_watts) = run_with(SchedulerKind::Interleaved)?;
    println!("chunk-based : {chunk_rate:6.2} items/s at {chunk_watts:.2} W");
    println!("interleaving: {il_rate:6.2} items/s at {il_watts:.2} W");
    println!(
        "\ninterleaving delivers {:.0}% more throughput at the same state —",
        100.0 * (il_rate / chunk_rate - 1.0)
    );
    println!("the chunk scheduler put whole pipeline stages onto little cores");
    println!("(the bottleneck the paper describes for HARS-E on ferret).");
    Ok(())
}
