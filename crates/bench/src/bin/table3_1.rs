//! Reproduces **Table 3.1** — thread assignment to the big and little
//! clusters — by evaluating the implemented rule over the paper's
//! regimes and printing the resulting `(T_B, T_L, C_B,U, C_L,U)` table.

use hars_core::assign::{assign_threads_n, ClusterCapacity};
use hars_core::ThreadAssignment;
use hmp_sim::ClusterId;

const B: ClusterId = ClusterId::BIG;
const L: ClusterId = ClusterId::LITTLE;

/// The rule on `cb` big and `cl` little cores at ratio `r = S_B/S_L`:
/// little cores at speed 1, big cores at speed `r`.
fn assign(threads: usize, cb: usize, cl: usize, r: f64) -> ThreadAssignment {
    let cluster = |cores, speed| ClusterCapacity { cores, speed };
    assign_threads_n(threads, &[cluster(cl, 1.0), cluster(cb, r)])
}

fn main() {
    println!("Table 3.1: thread assignment to the big and little clusters");
    println!("(C_B = 4, C_L = 4, r = 1.5 — the paper's platform at equal frequencies)\n");
    println!(
        "{:>3}  {:>4}  {:>4}  {:>5}  {:>5}   regime",
        "T", "T_B", "T_L", "C_B,U", "C_L,U"
    );
    println!("{}", "-".repeat(48));
    let (cb, cl, r) = (4usize, 4usize, 1.5f64);
    for t in 1..=16 {
        let a = assign(t, cb, cl, r);
        let regime = if t <= cb {
            "0 < T <= C_B"
        } else if t as f64 <= r * cb as f64 {
            "C_B < T <= r*C_B"
        } else if t as f64 <= r * cb as f64 + cl as f64 {
            "r*C_B < T <= r*C_B + C_L"
        } else {
            "r*C_B + C_L < T"
        };
        println!(
            "{:>3}  {:>4}  {:>4}  {:>5}  {:>5}   {regime}",
            t,
            a.threads(B),
            a.threads(L),
            a.used(B),
            a.used(L)
        );
    }
    println!("\nWith per-cluster DVFS the ratio shifts: r = r0 * (f_B / f_L).");
    println!("Example rows at r = 0.92 (big 0.8 GHz, little 1.3 GHz — r < 1 mirror):\n");
    for t in [2usize, 6, 8, 12] {
        let a = assign(t, cb, cl, 0.92);
        println!(
            "T = {:>2}: T_B = {}, T_L = {}, C_B,U = {}, C_L,U = {}",
            t,
            a.threads(B),
            a.threads(L),
            a.used(B),
            a.used(L)
        );
    }
}
