//! Figure 3.2 in code: how the chunk-based and interleaving schedulers
//! map the threads of a two-stage pipeline application onto the
//! clusters, and why it matters.
//!
//! ```sh
//! cargo run --release --example schedulers
//! ```

use hars::hars_core::sched::{plan_affinities, SchedulerKind};
use hars::hars_core::ThreadAssignment;
use hars::prelude::*;

fn show(kind: SchedulerKind, assignment: &ThreadAssignment, board: &BoardSpec) {
    let cores: Vec<Vec<CoreId>> = board
        .cluster_ids()
        .map(|c| {
            let start = board.cluster_start(c).0;
            (0..assignment.used(c)).map(|i| CoreId(start + i)).collect()
        })
        .collect();
    let plan = plan_affinities(kind, assignment, &cores);
    println!("\n{} scheduler:", kind.name());
    for (t, mask) in plan.iter().enumerate() {
        let core = mask.first().expect("singleton affinity");
        let side = if board.cluster_of(core) == ClusterId::BIG {
            "B"
        } else {
            "L"
        };
        let stage = if t < 4 { 0 } else { 1 };
        println!("  T{t} (stage {stage}) -> {core} ({side})");
    }
}

fn main() {
    let board = BoardSpec::odroid_xu3();
    // Figure 3.2's setting: 8 threads, two pipeline stages of 4 threads,
    // 4 big + 4 little cores, T_B = T_L = 4.
    let mut assignment = ThreadAssignment::empty(board.n_clusters());
    for c in board.cluster_ids() {
        assignment.set(c, 4, 4);
    }
    println!("8 threads, two 4-thread pipeline stages, 4B + 4L cores");
    show(SchedulerKind::Chunk, &assignment, &board);
    println!("  -> stage 0 entirely on little cores: it bottlenecks the pipe.");
    show(SchedulerKind::Interleaved, &assignment, &board);
    println!("  -> each stage gets 2 big + 2 little: balanced stage service rates.");
}
