//! End-to-end behavior of the open-system scenario engine: determinism,
//! admission accounting, mid-run registration with MP-HARS, queue
//! draining and horizon truncation.

use hars_scenario::{
    run_scenario, AlwaysAdmit, AppTemplate, ArrivalProcess, BoundedQueue, CapacityGate,
    ScenarioRuntime, ScenarioSpec, TemplateSet,
};
use hmp_sim::clock::NS_PER_SEC;
use hmp_sim::{BoardSpec, EngineConfig};
use mp_hars::{mp_hars_e, mp_hars_i};
use workloads::Benchmark;

fn short_template(bench: Benchmark, heartbeats: u64) -> AppTemplate {
    AppTemplate {
        heartbeats,
        ..AppTemplate::new(bench)
    }
}

fn spec(arrivals: ArrivalProcess, horizon_secs: u64, seed: u64) -> ScenarioSpec {
    let mut s = ScenarioSpec::new(
        arrivals,
        TemplateSet::uniform(vec![
            short_template(Benchmark::Swaptions, 40),
            short_template(Benchmark::Bodytrack, 30),
        ]),
        horizon_secs * NS_PER_SEC,
        seed,
    );
    s.solo_budget = 30;
    s
}

#[test]
fn scenario_is_deterministic_per_seed() {
    let board = BoardSpec::odroid_xu3();
    let cfg = EngineConfig::default();
    let run = || {
        run_scenario(
            &board,
            &cfg,
            &spec(ArrivalProcess::Poisson { rate_per_sec: 0.3 }, 60, 11),
            &mut AlwaysAdmit,
            ScenarioRuntime::mp_hars(&board, mp_hars_i()),
        )
        .expect("scenario runs")
    };
    let a = run();
    let b = run();
    assert!(a.arrivals > 0, "the scenario must see arrivals");
    assert_eq!(a.fingerprint(), b.fingerprint(), "same seed, same outcome");
    let c = run_scenario(
        &board,
        &cfg,
        &spec(ArrivalProcess::Poisson { rate_per_sec: 0.3 }, 60, 12),
        &mut AlwaysAdmit,
        ScenarioRuntime::mp_hars(&board, mp_hars_i()),
    )
    .expect("scenario runs");
    assert_ne!(
        a.fingerprint(),
        c.fingerprint(),
        "different seeds must differ"
    );
}

#[test]
fn always_admit_admits_everyone_and_tenants_complete() {
    let board = BoardSpec::odroid_xu3();
    let out = run_scenario(
        &board,
        &EngineConfig::default(),
        &spec(ArrivalProcess::Poisson { rate_per_sec: 0.2 }, 120, 3),
        &mut AlwaysAdmit,
        ScenarioRuntime::Gts,
    )
    .expect("scenario runs");
    assert!(
        out.arrivals >= 10,
        "rate 0.2 over 120 s: got {}",
        out.arrivals
    );
    assert_eq!(out.admitted, out.arrivals);
    assert_eq!(out.queued, 0);
    assert_eq!(out.rejected, 0);
    assert!(
        out.completed > 0,
        "light load under GTS must finish tenants"
    );
    assert!(out.energy_joules > 0.0 && out.avg_watts > 0.0);
    for t in out.tenants.iter().filter(|t| t.completed()) {
        assert!(t.heartbeats > 0);
        assert!(t.avg_rate > 0.0);
        assert!(t.solo_rate > 0.0);
        assert!((0.0..=1.0).contains(&t.satisfaction));
        assert!(t.finished_ns.unwrap() >= t.admitted_ns.unwrap());
    }
}

#[test]
fn mp_hars_serves_churn_and_adapts_mid_run() {
    let board = BoardSpec::odroid_xu3();
    let out = run_scenario(
        &board,
        &EngineConfig::default(),
        &spec(ArrivalProcess::Poisson { rate_per_sec: 0.25 }, 120, 5),
        &mut AlwaysAdmit,
        ScenarioRuntime::mp_hars(&board, mp_hars_e()),
    )
    .expect("scenario runs");
    assert!(out.admitted >= 10);
    assert!(out.completed > 0);
    assert!(
        out.adaptations > 0,
        "the manager must adapt under open-system churn"
    );
    assert!(out.search_stats.evaluated > 0);
    assert!(out.manager_busy_ns > 0);
    // Mid-run registration really happened: some tenant was admitted
    // after another was already running.
    let overlapping = out.tenants.iter().any(|t| {
        t.admitted_ns.is_some()
            && out.tenants.iter().any(|o| {
                o.tenant != t.tenant
                    && o.admitted_ns.is_some_and(|a| a < t.admitted_ns.unwrap())
                    && o.finished_ns.is_none_or(|f| f > t.admitted_ns.unwrap())
            })
    });
    assert!(overlapping, "churn must overlap tenancies");
}

#[test]
fn capacity_gate_sheds_load_under_a_burst() {
    let board = BoardSpec::odroid_xu3();
    // A tight burst: 10 arrivals in the first second.
    let times: Vec<u64> = (0..10).map(|i| i * NS_PER_SEC / 10).collect();
    let out = run_scenario(
        &board,
        &EngineConfig::default(),
        &spec(ArrivalProcess::Trace(times), 200, 1),
        &mut CapacityGate::new(0.8),
        ScenarioRuntime::mp_hars(&board, mp_hars_e()),
    )
    .expect("scenario runs");
    assert_eq!(out.arrivals, 10);
    assert!(out.rejected > 0, "the gate must shed part of the burst");
    assert!(
        out.admitted > 0,
        "the gate must admit the head of the burst"
    );
    assert_eq!(out.admitted + out.rejected, out.arrivals);
    // Rejected tenants never ran.
    for t in out.tenants.iter().filter(|t| t.rejected) {
        assert_eq!(t.heartbeats, 0);
        assert!(t.admitted_ns.is_none() && t.finished_ns.is_none());
    }
}

#[test]
fn bounded_queue_delays_and_then_serves_the_burst() {
    let board = BoardSpec::odroid_xu3();
    let times: Vec<u64> = (0..6).map(|i| i * NS_PER_SEC / 10).collect();
    let out = run_scenario(
        &board,
        &EngineConfig::default(),
        &spec(ArrivalProcess::Trace(times), 400, 2),
        &mut BoundedQueue::new(0.8, 16),
        ScenarioRuntime::mp_hars(&board, mp_hars_e()),
    )
    .expect("scenario runs");
    assert_eq!(out.arrivals, 6);
    assert_eq!(out.rejected, 0, "a 16-slot queue absorbs 6 arrivals");
    assert!(out.queued > 0, "the burst must overflow into the queue");
    // Queued tenants were eventually admitted (FIFO drain on
    // departures) and waited a measurable time.
    let drained: Vec<_> = out
        .tenants
        .iter()
        .filter(|t| t.was_queued && t.admitted_ns.is_some())
        .collect();
    assert!(!drained.is_empty(), "departures must drain the queue");
    assert!(drained.iter().all(|t| t.queue_wait_ns() > 0));
    assert!(out.mean_queue_wait_secs > 0.0);
    // FIFO: drained tenants are admitted in arrival order.
    let mut admitted_order: Vec<(u64, u64)> = drained
        .iter()
        .map(|t| (t.admitted_ns.unwrap(), t.arrival_ns))
        .collect();
    admitted_order.sort_unstable();
    let arrivals_in_admit_order: Vec<u64> = admitted_order.iter().map(|&(_, arr)| arr).collect();
    let mut sorted = arrivals_in_admit_order.clone();
    sorted.sort_unstable();
    assert_eq!(arrivals_in_admit_order, sorted, "queue must drain FIFO");
}

#[test]
fn horizon_cuts_off_unfinished_tenants() {
    let board = BoardSpec::odroid_xu3();
    // Tenants far too big to finish in a 20 s horizon.
    let mut s = ScenarioSpec::new(
        ArrivalProcess::Trace(vec![0, NS_PER_SEC]),
        TemplateSet::uniform(vec![short_template(Benchmark::Facesim, 100_000)]),
        20 * NS_PER_SEC,
        9,
    );
    s.solo_budget = 20;
    let out = run_scenario(
        &board,
        &EngineConfig::default(),
        &s,
        &mut AlwaysAdmit,
        ScenarioRuntime::Gts,
    )
    .expect("scenario runs");
    assert_eq!(out.admitted, 2);
    assert_eq!(out.completed, 0);
    assert!(
        (out.makespan_secs - 20.0).abs() < 1e-6,
        "{}",
        out.makespan_secs
    );
    assert!(out.tenants.iter().all(|t| t.finished_ns.is_none()));
    assert!(
        out.tenants.iter().all(|t| t.heartbeats > 0),
        "cut-off tenants still ran"
    );
}

#[test]
fn bursty_process_produces_distinct_tenants() {
    let s = spec(
        ArrivalProcess::Bursty {
            on_rate_per_sec: 1.0,
            mean_on_secs: 5.0,
            mean_off_secs: 15.0,
        },
        120,
        21,
    );
    let schedule = s.tenant_schedule();
    assert!(schedule.len() >= 3, "got {} arrivals", schedule.len());
    // Tenants are jittered draws, not clones.
    let budgets: std::collections::HashSet<Option<u64>> = schedule
        .iter()
        .map(|(_, t)| t.spec.max_heartbeats)
        .collect();
    assert!(budgets.len() > 1, "size jitter must differentiate tenants");
    assert_eq!(s.tenant_schedule(), schedule, "schedule is reproducible");
}
