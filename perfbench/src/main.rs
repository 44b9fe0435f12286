//! The repository benchmark: runs one named workload for a fixed host
//! time, checks its outputs, and prints its metrics by name and unit.
//!
//! ```sh
//! hars-perfbench --workload <xu3-paper|server-search|fleet-chaos> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it reports the end-to-end metrics, measured with
//! no span recorded. With `--trace 1` it alternates untraced and traced
//! iterations and reports the per-layer ledger built from the traced
//! ones; spans of the last traced iteration go to
//! `perfbench/out/spans-<workload>-<seed>.jsonl`. The last line of
//! standard output is one JSON object; the exit code is non-zero when
//! any output check failed.

mod closed;
mod fleet;
mod hooks;
mod host;
mod report;
mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use closed::{Closed, ClosedScale};
use fleet::{FleetChaos, FleetScale};
use report::{layer_ledger, median, peak_rss_mb, percentile, Outcome, Traced, LAYER_SELF};

/// The workloads; `BENCHMARK.json` and `perfbench/README.md` give the
/// reason for each.
const WORKLOADS: [&str; 3] = ["xu3-paper", "server-search", "fleet-chaos"];

/// Times the set-up is repeated; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// Fewest measured iterations per run, whatever `--seconds` says.
const MIN_ITERATIONS: usize = 3;

/// The end-to-end metrics and their units.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("iter_cpu_s", "s"),
    ("sim_s_per_cpu_s", "s/s"),
    ("peak_rss_mb", "MiB"),
    ("perf_per_watt", "1/W"),
    ("service_level", "ratio"),
    ("energy_j", "J"),
    ("norm_perf", "ratio"),
    ("completed_frac", "ratio"),
];

/// The per-layer metrics and their units.
const PER_LAYER: [(&str, &str); 53] = [
    ("engine.self_s", "s"),
    ("engine.calls", "count"),
    ("engine.heartbeats", "count"),
    ("engine.ns_per_hb", "ns"),
    ("engine.sensor_coalesced_ratio", "ratio"),
    ("search.self_s", "s"),
    ("search.calls", "count"),
    ("search.us_p50", "us"),
    ("search.us_p99", "us"),
    ("search.samples", "count"),
    ("search.evaluated", "count"),
    ("search.explored", "count"),
    ("search.nodes", "count"),
    ("search.truncated", "flag"),
    ("search.ns_per_eval", "ns"),
    ("search.modeled_over_measured", "ratio"),
    ("manager.self_s", "s"),
    ("manager.calls", "count"),
    ("manager.decisions", "count"),
    ("manager.adaptations", "count"),
    ("manager.apply_self_s", "s"),
    ("scenario.self_s", "s"),
    ("scenario.shards", "count"),
    ("scenario.shard_s_p50", "s"),
    ("scenario.shard_s_p99", "s"),
    ("scenario.admission_calls", "count"),
    ("scenario.admission_self_s", "s"),
    ("calibration.hits", "count"),
    ("calibration.misses", "count"),
    ("calibration.unique_keys", "count"),
    ("calibration.wasted", "count"),
    ("calibration.hit_ratio", "ratio"),
    ("placement.self_s", "s"),
    ("pool.round0_s", "s"),
    ("pool.supervise_s", "s"),
    ("pool.worker_busy_s", "s"),
    ("pool.worker_idle_s", "s"),
    ("pool.utilization", "ratio"),
    ("pool.shard_reruns", "count"),
    ("failover.tenants", "count"),
    ("failover.lost", "count"),
    ("reduction.self_s", "s"),
    ("obs.events", "count"),
    ("obs.self_s", "s"),
    ("obs.ns_per_event", "ns"),
    ("other.self_s", "s"),
    ("host.wall_s", "s"),
    ("host.cpu_s", "s"),
    ("host.ref_pass_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.iterations", "count"),
    ("design.dominant_share", "ratio"),
];

/// One set-up workload.
// One per process: the size difference between variants is irrelevant.
#[allow(clippy::large_enum_variant)]
enum Bench {
    Closed(Closed),
    Fleet(FleetChaos),
}

impl Bench {
    fn setup(name: &str, seed: u64) -> Self {
        match name {
            "xu3-paper" => Bench::Closed(Closed::xu3_paper(seed, ClosedScale::bench())),
            "server-search" => Bench::Closed(Closed::server_search(seed, ClosedScale::bench())),
            "fleet-chaos" => Bench::Fleet(FleetChaos::setup(seed, FleetScale::bench())),
            _ => unreachable!("workload names are checked at parse time"),
        }
    }

    fn run(&self) -> Outcome {
        match self {
            Bench::Closed(w) => w.run(),
            Bench::Fleet(w) => w.run(),
        }
    }

    fn run_traced(&self) -> Traced {
        match self {
            Bench::Closed(w) => w.run_traced(),
            Bench::Fleet(w) => w.run_traced(),
        }
    }

    /// Threads an iteration of workload `name` keeps busy.
    fn threads(name: &str) -> usize {
        match name {
            "fleet-chaos" => FleetScale::bench().workers,
            _ => 1,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Compares an iteration with the reference iteration; returns the
/// problems found.
fn check_against(reference: &Outcome, o: &Outcome, what: &str) -> Vec<String> {
    let mut errors: Vec<String> = o.errors.iter().map(|e| format!("{what}: {e}")).collect();
    if o.fingerprint != reference.fingerprint {
        errors.push(format!(
            "{what}: fingerprint {:#018x} != reference {:#018x}",
            o.fingerprint, reference.fingerprint
        ));
    } else if o != reference {
        errors.push(format!("{what}: same fingerprint, different outputs"));
    }
    errors
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} host cores {cores}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // Host time is CPU time converted to seconds on the reference host
    // (see `host`). Each phase has its own speedometer, since the host's
    // speed drifts between them: one samples before every set-up and
    // after the last, the other before every untraced iteration and
    // once at the end.
    let threads = Bench::threads(&args.workload);
    let mut setup_speed = host::Speedometer::new(threads);
    let mut speed = host::Speedometer::new(threads);

    // Set-up: build inputs and calibrate, then one warm-up iteration
    // whose outcome is the reference every later iteration must match.
    let mut setup_cpu_s = Vec::with_capacity(SETUP_REPEATS);
    let mut bench = None;
    let mut reference = Outcome::default();
    for _ in 0..SETUP_REPEATS {
        setup_speed.sample();
        let (b, _, cpu) = host::timed(|| {
            let b = Bench::setup(&args.workload, args.seed);
            reference = b.run();
            b
        });
        setup_cpu_s.push(cpu);
        bench = Some(b);
    }
    setup_speed.sample();
    let setup_s = setup_speed.to_reference_s(median(&setup_cpu_s));
    let bench = bench.expect("set up at least once");
    let mut errors: Vec<String> = reference
        .errors
        .iter()
        .map(|e| format!("warm-up: {e}"))
        .collect();

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut untraced_s = Vec::new();
    let mut untraced_cpu_s = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut record = |errs: Vec<String>, errors: &mut Vec<String>| {
        attempted += 1;
        failed += u64::from(!errs.is_empty());
        errors.extend(errs);
    };
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();

    if !args.trace {
        while untraced_s.len() < MIN_ITERATIONS || start.elapsed() < budget {
            speed.sample();
            let (o, wall, cpu) = host::timed(|| bench.run());
            untraced_s.push(wall);
            untraced_cpu_s.push(cpu);
            record(check_against(&reference, &o, "iteration"), &mut errors);
        }
        speed.sample();
        let iter_cpu_s = speed.to_reference_s(host::trimmed_mean(&untraced_cpu_s));
        let r = &reference;
        let values = [
            setup_s,
            iter_cpu_s,
            r.sim_s / iter_cpu_s,
            peak_rss_mb(),
            r.perf_per_watt,
            r.service_level,
            r.energy_j,
            r.norm_perf,
            r.completed as f64 / r.arrivals as f64,
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name, unit, v));
        }
        println!(
            "iterations {}; wall s min {:.4} median {:.4} max {:.4}; cpu s trimmed mean {:.4}; \
             reference pass {:.5} s; arrivals {} completed {} failed {}",
            untraced_s.len(),
            percentile(&untraced_s, 0.0),
            median(&untraced_s),
            percentile(&untraced_s, 100.0),
            host::trimmed_mean(&untraced_cpu_s),
            speed.pass_cpu_s(),
            r.arrivals,
            r.completed,
            r.failed
        );
    } else {
        let mut traced_s = Vec::new();
        let mut ledgers: Vec<BTreeMap<&'static str, f64>> = Vec::new();
        let mut search_ns = Vec::new();
        let mut shard_ns = Vec::new();
        let mut last_spans = Vec::new();
        while traced_s.len() < MIN_ITERATIONS || start.elapsed() < budget {
            speed.sample();
            let (o, wall, cpu) = host::timed(|| bench.run());
            untraced_s.push(wall);
            untraced_cpu_s.push(cpu);
            record(check_against(&reference, &o, "untraced"), &mut errors);

            let t = Instant::now();
            let traced = bench.run_traced();
            traced_s.push(t.elapsed().as_secs_f64());
            record(
                check_against(&reference, &traced.outcome, "traced"),
                &mut errors,
            );
            ledgers.push(layer_ledger(&traced));
            let durations = |name| {
                trace::durations_ns(&traced.spans, name)
                    .into_iter()
                    .map(|ns| ns as f64)
            };
            search_ns.extend(durations("search.next_state"));
            shard_ns.extend(durations("scenario.shard"));
            last_spans = traced.spans;
        }
        let mut ledger: BTreeMap<&str, f64> = BTreeMap::new();
        for key in ledgers
            .iter()
            .flat_map(|l| l.keys())
            .collect::<std::collections::BTreeSet<_>>()
        {
            let v: Vec<f64> = ledgers.iter().filter_map(|l| l.get(key).copied()).collect();
            ledger.insert(key, median(&v));
        }
        ledger.insert("search.us_p50", percentile(&search_ns, 50.0) / 1e3);
        ledger.insert("search.us_p99", percentile(&search_ns, 99.0) / 1e3);
        ledger.insert("search.samples", search_ns.len() as f64);
        ledger.insert("scenario.shard_s_p50", percentile(&shard_ns, 50.0) / 1e9);
        ledger.insert("scenario.shard_s_p99", percentile(&shard_ns, 99.0) / 1e9);
        let wall_s = median(&untraced_s);
        ledger.insert("host.wall_s", wall_s);
        ledger.insert("host.cpu_s", host::trimmed_mean(&untraced_cpu_s));
        ledger.insert("host.ref_pass_s", speed.pass_cpu_s());
        ledger.insert("trace.wall_s", median(&traced_s));
        ledger.insert("trace.iterations", traced_s.len() as f64);
        // The fleet measures its own overhead against the pooled round
        // zero; the closed-world loops compare whole iterations.
        ledger
            .entry("trace.overhead_frac")
            .or_insert(median(&traced_s) / wall_s - 1.0);
        let share = design_check(&args.workload, &ledger);
        ledger.insert("design.dominant_share", share);
        for (name, unit) in PER_LAYER {
            metrics.push((name, unit, ledger.get(name).copied().unwrap_or(0.0)));
        }
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/spans-{}-{}.jsonl",
            args.workload, args.seed
        ));
        match trace::write_jsonl(&path, &args.workload, &last_spans) {
            Ok(()) => println!("spans of the last traced iteration: {}", path.display()),
            Err(e) => println!("spans not written ({}): {e}", path.display()),
        }
    }

    for e in &errors {
        println!("CHECK FAILED: {e}");
    }
    for (name, unit, v) in &metrics {
        println!("{name:<32} {v:>16.6} {unit}");
    }
    let correct = errors.is_empty() && metrics.iter().all(|(_, _, v)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Prints each layer's share of the traced self time and whether the
/// workload stresses the layer it was built for. Returns the share of
/// the layers the workload is meant to stress.
fn design_check(workload: &str, ledger: &BTreeMap<&str, f64>) -> f64 {
    let shares: Vec<(&str, f64)> = LAYER_SELF
        .iter()
        .map(|(layer, keys)| {
            let v: f64 = keys
                .iter()
                .map(|k| ledger.get(k).copied().unwrap_or(0.0))
                .sum();
            (*layer, v)
        })
        .collect();
    let total: f64 = shares
        .iter()
        .map(|(_, v)| v)
        .sum::<f64>()
        .max(f64::MIN_POSITIVE);
    let share_of = |layers: &[&str]| -> f64 {
        shares
            .iter()
            .filter(|(l, _)| layers.contains(l))
            .map(|(_, v)| v)
            .sum::<f64>()
            / total
    };
    let line: Vec<String> = shares
        .iter()
        .map(|(l, v)| format!("{l} {:.1}%", 100.0 * v / total))
        .collect();
    println!("self-time shares: {}", line.join(", "));
    let largest = shares
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |(l, _)| *l);
    let (ok, share, claim) = match workload {
        "xu3-paper" => (
            largest == "engine",
            share_of(&["engine"]),
            "engine is the largest layer",
        ),
        "server-search" => (
            largest == "search",
            share_of(&["search"]),
            "search is the largest layer",
        ),
        _ => {
            let s = share_of(&["scenario", "fleet", "obs"]);
            (s > 0.5, s, "scenario + fleet + obs hold the majority")
        }
    };
    println!(
        "design check: {claim}: {} (largest {largest})",
        if ok { "confirmed" } else { "NOT MET" }
    );
    share
}
