//! The worker pool and shard supervisor: runs the fleet's shards on
//! `workers` OS threads, survives shard failures, and reduces the
//! outcomes order-independently.
//!
//! Every input a shard consumes — its board, its engine seed
//! ([`crate::shard_seed`]), its fault plan
//! ([`crate::FleetSpec::fault_plan`]), its tenant slice (the placement
//! tier's routing), its admission policy and runtime (rebuilt fresh
//! from plain-data descriptors) — is fixed *before* the shard runs,
//! and the reduction ([`crate::FleetAccum`]) commutes. A fleet run is
//! therefore bit-identical across worker counts and scheduling
//! interleavings: `workers = 1` and `workers = 8` produce the same
//! [`FleetOutcome`], fingerprint included. The only cross-shard
//! coupling is the shared solo-rate calibration cache, which is
//! value-transparent by construction (a hit returns exactly what the
//! miss path would compute) and single-flight (each unique key is
//! calibrated once), so its hit and miss totals are worker-count
//! invariant too.
//!
//! ## Shard supervision and failover
//!
//! A shard can fail two ways — its simulated board dies to a
//! [`hmp_sim::FaultKind::BoardFail`] (a normal truncated outcome with
//! [`hars_scenario::ScenarioOutcome::board_failed_at`] set), or its
//! worker panics (caught per shard, reported as a
//! [`crate::ShardFailure`] row instead of tearing down the pool).
//! Either way, when failover is on ([`crate::FleetSpec::faults`]) the
//! supervisor collects the dead shard's *victims* — admitted-but-
//! unfinished tenants (with their remaining heartbeat budget) and
//! arrivals the board never processed (full budget) — and re-places
//! them through the same placement tier restricted to boards not known
//! dead, with dead boards' ledger claims expired. Each victim
//! re-arrives at `max(arrival, failure) + backoff · 2^(attempt-1)`
//! with a 500 ms base backoff, and is lost after three attempts.
//!
//! The pool runs in *waves*: each runs the *stale* shards — those not
//! yet run with their current schedule — in parallel, then a
//! sequential supervisor pass on the calling thread fails over the
//! shards that died, making their victims' destinations stale. Fault
//! plans are fixed up front, so while any shard whose plan holds a
//! `BoardFail` is stale a wave runs only those; the others run after
//! failover has settled, once each, with their final schedules. The
//! supervisor reads only dead shards' results and every shard's
//! schedule, so the wave order changes no outcome: each shard's result
//! is the run of its final schedule.
//!
//! A board that can die re-runs whenever victims land on it: it may
//! have drained before its death instant and die in the re-run. A
//! panicked shard is failed over after its wave, and boards that take
//! its tenants re-run even if they ran already. Only a pass that marks
//! at least one more board dead makes a shard stale again, so the loop
//! ends after at most `n` such passes for `n` boards; sequential over
//! pure shard results, it is bit-identical across worker counts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;

use hars_core::{NullSink, TelemetryEvent, TelemetrySink};
use hars_scenario::{
    run_shard, run_shard_with_metrics, ScenarioOutcome, ShardConfig, SharedSoloRateCache,
    SoloCacheHandle, TenantSpec,
};
use hmp_sim::{EngineConfig, FaultPlan, SimError};

use crate::outcome::{FleetAccum, FleetOutcome, ShardFailure};
use crate::placement::{budget, place, place_masked, Claim, LedgerSet};
use crate::spec::{shard_seed, FleetCacheMode, FleetSpec};

/// Failover attempts per tenant before it is declared lost.
const MAX_RETRIES: u32 = 3;
/// Base failover re-arrival delay: attempt `k` (1-based) waits
/// `BACKOFF_NS << (k - 1)` after the failure instant.
const BACKOFF_NS: u64 = 500_000_000;

/// Runs the whole fleet described by `spec` on `workers` threads and
/// returns the merged outcome.
///
/// `sink` receives the placement tier's telemetry (one
/// [`hars_core::TelemetryEvent::Placement`] per arrival) emitted
/// sequentially before any shard starts, and — under a fault model
/// with failover — the supervisor's
/// [`hars_core::TelemetryEvent::TenantFailedOver`] and re-placement
/// events between waves; shard-internal telemetry is discarded (sinks
/// are exclusive-borrow consumers, and shards run concurrently — drive
/// [`hars_scenario::run_shard`] directly to stream one shard).
///
/// # Errors
///
/// Propagates a [`SimError`] that a shard hits; shards not yet started
/// are abandoned, and when several shards hit one, which error is
/// returned depends on scheduling. Shard *panics* do not error: they
/// become [`FleetOutcome::failed_shards`] rows.
///
/// # Panics
///
/// Panics when `workers` is zero.
pub fn run_fleet(
    spec: &FleetSpec,
    workers: usize,
    sink: &mut dyn TelemetrySink,
) -> Result<FleetOutcome, SimError> {
    run_fleet_inner(spec, workers, sink, false)
}

/// [`run_fleet`] with the observability fold mounted inside every
/// shard: each shard runs under a
/// [`hars_scenario::run_shard_with_metrics`] wrapper, and the
/// shard-level [`hars_obs::MetricsRollup`]s are merged (ascending
/// shard order, all-integer adds) into [`FleetOutcome::metrics`] —
/// fleet-wide queue-wait percentiles, heartbeat-latency histograms,
/// and per-class SLO rollups, bit-identical for any worker count.
///
/// # Errors
///
/// Propagates a [`SimError`] that a shard hits, as [`run_fleet`] does.
///
/// # Panics
///
/// Panics when `workers` is zero.
pub fn run_fleet_with_metrics(
    spec: &FleetSpec,
    workers: usize,
    sink: &mut dyn TelemetrySink,
) -> Result<FleetOutcome, SimError> {
    run_fleet_inner(spec, workers, sink, true)
}

/// What one shard's worker produced.
enum ShardRun {
    /// The shard ran to its end (possibly truncated by a simulated
    /// board failure — check
    /// [`hars_scenario::ScenarioOutcome::board_failed_at`]).
    Done(Box<ScenarioOutcome>),
    /// The worker panicked; no outcome exists.
    Panicked(String),
}

impl ShardRun {
    /// `true` when this shard's board can serve no further tenants.
    fn is_dead(&self) -> bool {
        match self {
            ShardRun::Done(o) => o.board_failed_at.is_some(),
            ShardRun::Panicked(_) => true,
        }
    }

    /// The failure instant victims re-arrive relative to (a panicked
    /// shard served nothing, so its victims re-arrive relative to
    /// their own arrival instants).
    fn fail_ns(&self) -> u64 {
        match self {
            ShardRun::Done(o) => o.board_failed_at.unwrap_or(0),
            ShardRun::Panicked(_) => 0,
        }
    }
}

fn run_fleet_inner(
    spec: &FleetSpec,
    workers: usize,
    sink: &mut dyn TelemetrySink,
    with_metrics: bool,
) -> Result<FleetOutcome, SimError> {
    assert!(workers > 0, "need at least one worker");
    let n = spec.boards.len();
    let schedule = spec.tenant_schedule();
    let placement = place(spec, &schedule, sink);

    // Fan the global schedule out into per-shard slices (arrival order
    // is preserved within each shard), remembering each entry's global
    // tenant id for supervision and telemetry.
    let mut shard_scheds: Vec<Vec<(u64, TenantSpec)>> = vec![Vec::new(); n];
    let mut shard_globals: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (g, ((arrival_ns, ts), assignment)) in
        schedule.iter().zip(&placement.assignments).enumerate()
    {
        if let Some(shard) = assignment {
            shard_scheds[*shard].push((*arrival_ns, ts.clone()));
            shard_globals[*shard].push(g);
        }
    }
    let plans: Vec<FaultPlan> = (0..n).map(|s| spec.fault_plan(s)).collect();
    let can_die: Vec<bool> = plans.iter().map(FaultPlan::kills_board).collect();

    let shared_cache = SharedSoloRateCache::new();
    let mut results: Vec<Option<ShardRun>> = (0..n).map(|_| None).collect();
    // A shard is stale until it has run with its current schedule.
    let mut stale = vec![true; n];
    let mut shard_runs = 0u64;

    let failover = spec.faults.as_ref().is_some_and(|f| f.failover);
    let mut attempts: Vec<u32> = vec![0; schedule.len()];
    let mut handled_dead = vec![false; n];
    let mut tenants_failed_over = 0u64;
    let mut failover_lost = 0u64;
    // Cache lookups of shard runs a re-run supersedes: every run's
    // lookups count, or which shard calibrated a shared key would leak
    // into the totals.
    let (mut superseded_hits, mut superseded_misses) = (0u64, 0u64);
    loop {
        // Each wave runs the stale shards whose boards can die; only
        // when none is left do the others run, with final schedules.
        let deaths_pending = (0..n).any(|s| stale[s] && can_die[s]);
        let wave: Vec<usize> = (0..n)
            .filter(|&s| stale[s] && (can_die[s] || !deaths_pending))
            .collect();
        if wave.is_empty() {
            break;
        }
        for &s in &wave {
            stale[s] = false;
            if let Some(ShardRun::Done(o)) = &results[s] {
                superseded_hits += o.solo_cache_hits;
                superseded_misses += o.solo_cache_misses;
            }
        }
        shard_runs += wave.len() as u64;
        run_wave(
            spec,
            &wave,
            &shard_scheds,
            &plans,
            &shared_cache,
            workers,
            with_metrics,
            &mut results,
        )?;

        // Supervision: fail the tenants of newly dead shards over onto
        // the boards still in service, whose shards go stale.
        if !failover {
            continue;
        }
        let newly: Vec<usize> = (0..n)
            .filter(|&s| !handled_dead[s] && results[s].as_ref().is_some_and(ShardRun::is_dead))
            .collect();
        if newly.is_empty() {
            continue;
        }
        // Collect victims deterministically: dead shards ascending,
        // then local schedule order within each.
        let mut victims: Vec<(u64, TenantSpec, usize, usize, u32)> = Vec::new();
        for &s in &newly {
            handled_dead[s] = true;
            let run = results[s].as_ref().expect("a dead shard has run");
            let fail_ns = run.fail_ns();
            for (li, &g) in shard_globals[s].iter().enumerate() {
                let (arrival_ns, ts) = &shard_scheds[s][li];
                let served = match run {
                    ShardRun::Done(o) => {
                        let t = &o.tenants[li];
                        if t.rejected || t.finished_ns.is_some() {
                            continue; // resolved before the failure
                        }
                        t.heartbeats
                    }
                    ShardRun::Panicked(_) => 0,
                };
                let remaining = budget(ts).saturating_sub(served);
                if remaining == 0 {
                    continue;
                }
                let attempt = attempts[g] + 1;
                attempts[g] = attempt;
                let retry_at = arrival_ns
                    .max(&fail_ns)
                    .saturating_add(BACKOFF_NS << (attempt - 1));
                if attempt > MAX_RETRIES || retry_at >= spec.horizon_ns {
                    failover_lost += 1;
                    sink.emit(&TelemetryEvent::TenantFailedOver {
                        t_ns: fail_ns,
                        tenant: g as u64,
                        from_board: s as u64,
                        to_board: u64::MAX,
                        attempt: attempt as u64,
                    });
                    continue;
                }
                // The engine obeys the spec's budget, so the victim
                // resumes with the heartbeats it has left.
                let mut retry_ts = ts.clone();
                retry_ts.spec.max_heartbeats = Some(remaining);
                victims.push((retry_at, retry_ts, g, s, attempt));
            }
        }
        victims.sort_by_key(|(at, _, g, ..)| (*at, *g));

        // Re-place victims on the boards not known dead: dead boards'
        // ledger claims expire, the others are charged their current
        // schedules so the failover wave spreads by load.
        let eligible: Vec<bool> = (0..n).map(|s| !handled_dead[s]).collect();
        let mut ledgers = LedgerSet::new(n);
        for (s, ok) in eligible.iter().enumerate() {
            if !ok {
                continue;
            }
            for (arrival_ns, ts) in &shard_scheds[s] {
                ledgers.charge(s, Claim::new(*arrival_ns, ts, &spec.boards[s].board));
            }
        }
        let vsched: Vec<(u64, TenantSpec)> = victims
            .iter()
            .map(|(at, ts, ..)| (*at, ts.clone()))
            .collect();
        let vids: Vec<u64> = victims.iter().map(|v| v.2 as u64).collect();
        let vplace = place_masked(spec, &vsched, &vids, &eligible, ledgers, sink);

        let mut landed: Vec<usize> = Vec::new();
        for (v, assignment) in victims.iter().zip(&vplace.assignments) {
            let &(retry_at, ref ts, g, from, attempt) = v;
            match assignment {
                Some(dest) => {
                    shard_scheds[*dest].push((retry_at, ts.clone()));
                    shard_globals[*dest].push(g);
                    if !landed.contains(dest) {
                        landed.push(*dest);
                    }
                    tenants_failed_over += 1;
                    sink.emit(&TelemetryEvent::TenantFailedOver {
                        t_ns: retry_at,
                        tenant: g as u64,
                        from_board: from as u64,
                        to_board: *dest as u64,
                        attempt: attempt as u64,
                    });
                }
                None => {
                    failover_lost += 1;
                    sink.emit(&TelemetryEvent::TenantFailedOver {
                        t_ns: retry_at,
                        tenant: g as u64,
                        from_board: from as u64,
                        to_board: u64::MAX,
                        attempt: attempt as u64,
                    });
                }
            }
        }
        // Keep destination schedules sorted by arrival (stable, so
        // same-instant entries keep original-then-victim order), with
        // the global-id map in lockstep.
        for &dest in &landed {
            let mut zipped: Vec<((u64, TenantSpec), usize)> = shard_scheds[dest]
                .drain(..)
                .zip(shard_globals[dest].drain(..))
                .collect();
            zipped.sort_by_key(|((at, _), _)| *at);
            (shard_scheds[dest], shard_globals[dest]) = zipped.into_iter().unzip();
            stale[dest] = true;
        }
    }

    // Fold: absorb surviving outcomes ascending (the accumulator
    // commutes anyway), report panicked shards as structured rows.
    let mut accum = FleetAccum::new();
    let mut failed_shards = Vec::new();
    let mut served = 0.0f64;
    // Heartbeats per global tenant over every board it ran on: a
    // failed-over tenant carries only its remaining budget.
    let mut delivered = vec![0u64; schedule.len()];
    // Whether a global tenant already completed or was shard-rejected
    // in some shard outcome: it may do either on one board only.
    let mut resolved = vec![false; schedule.len()];
    for (s, run) in results.iter().enumerate() {
        let fb = &spec.boards[s];
        match run {
            Some(ShardRun::Done(out)) => {
                accum.absorb(s, fb.board.name.clone(), fb.runtime.label(), out);
                for (t, &g) in out.tenants.iter().zip(&shard_globals[s]) {
                    served += t.satisfaction * t.heartbeats as f64;
                    delivered[g] += t.heartbeats;
                    debug_assert!(
                        delivered[g] <= budget(&schedule[g].1),
                        "tenant {g} was served {} heartbeats, past its budget of {}",
                        delivered[g],
                        budget(&schedule[g].1)
                    );
                    if t.rejected || t.completed() {
                        debug_assert!(
                            !resolved[g],
                            "tenant {g} completed or was rejected on more than one board"
                        );
                        resolved[g] = true;
                    }
                }
            }
            Some(ShardRun::Panicked(reason)) => failed_shards.push(ShardFailure {
                shard: s,
                board: fb.board.name.clone(),
                reason: reason.clone(),
            }),
            None => unreachable!("every shard starts stale, so every shard runs"),
        }
    }
    // Every arrival is fleet-rejected or placed on exactly one board.
    debug_assert_eq!(
        placement.fleet_rejected + placement.assignments.iter().flatten().count(),
        schedule.len(),
        "fleet-rejected plus placed arrivals must equal arrivals"
    );
    let mut out = accum.finish(&placement, schedule.len());
    let requested: f64 = schedule.iter().map(|(_, ts)| budget(ts) as f64).sum();
    out.service_level = if requested > 0.0 {
        served / requested
    } else {
        1.0
    };
    out.failed_shards = failed_shards;
    out.tenants_failed_over = tenants_failed_over;
    out.failover_lost = failover_lost;
    out.solo_cache_hits += superseded_hits;
    out.solo_cache_misses += superseded_misses;
    out.shard_runs = shard_runs;
    Ok(out)
}

/// Runs the `wave` shard set on up to `workers` threads, writing each
/// shard's result (outcome or caught panic) into `results`. Shards are
/// claimed off an atomic cursor; each worker keeps the results of the
/// shards it ran and returns them through its join handle, and they are
/// applied after the scope — the per-shard values are pure functions of
/// their inputs, so the interleaving never shows. A worker whose shard
/// hits a [`SimError`] returns it, and the others stop claiming shards;
/// when several workers return one, the first worker's (in spawn order)
/// is the wave's error.
#[allow(clippy::too_many_arguments)]
fn run_wave(
    spec: &FleetSpec,
    wave: &[usize],
    shard_scheds: &[Vec<(u64, TenantSpec)>],
    plans: &[FaultPlan],
    shared_cache: &SharedSoloRateCache,
    workers: usize,
    with_metrics: bool,
    results: &mut [Option<ShardRun>],
) -> Result<(), SimError> {
    let next = AtomicUsize::new(0);
    // Only stops further claims: the error travels through the join
    // handle, so the flag publishes nothing and Relaxed suffices.
    let failed = AtomicBool::new(false);
    let worker = || -> Result<Vec<(usize, ShardRun)>, SimError> {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= wave.len() || failed.load(Ordering::Relaxed) {
                return Ok(done);
            }
            let shard = wave[i];
            let run = catch_unwind(AssertUnwindSafe(|| {
                run_one_shard(
                    spec,
                    shard,
                    &shard_scheds[shard],
                    &plans[shard],
                    shared_cache,
                    with_metrics,
                )
            }));
            match run {
                Ok(Ok(out)) => done.push((shard, ShardRun::Done(Box::new(out)))),
                Ok(Err(e)) => {
                    failed.store(true, Ordering::Relaxed);
                    return Err(e);
                }
                Err(payload) => {
                    let reason = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    done.push((shard, ShardRun::Panicked(reason)));
                }
            }
        }
    };

    let runs = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(wave.len()))
            .map(|_| scope.spawn(worker))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard panics are caught in the worker"))
            .collect::<Result<Vec<_>, SimError>>()
    })?;
    for (shard, run) in runs.into_iter().flatten() {
        results[shard] = Some(run);
    }
    Ok(())
}

/// Runs one shard with its derived engine seed, its fault plan and the
/// spec's cache mode.
fn run_one_shard(
    spec: &FleetSpec,
    shard: usize,
    schedule: &[(u64, TenantSpec)],
    plan: &FaultPlan,
    shared_cache: &SharedSoloRateCache,
    with_metrics: bool,
) -> Result<ScenarioOutcome, SimError> {
    let fb = &spec.boards[shard];
    let engine_cfg = EngineConfig {
        seed: shard_seed(spec.seed, shard as u64),
        ..spec.engine.clone()
    };
    let shard_cfg = ShardConfig {
        horizon_ns: spec.horizon_ns,
        solo_budget: spec.solo_budget,
        target_guard: spec.target_guard,
        events: Vec::new(),
        faults: plan.clone(),
    };
    let mut admission = fb.build_admission();
    let runtime = fb.runtime.build(&fb.board);
    let private_cache;
    let cache = SoloCacheHandle::Shared(match spec.cache {
        FleetCacheMode::Shared => shared_cache,
        FleetCacheMode::PerShard => {
            private_cache = SharedSoloRateCache::new();
            &private_cache
        }
    });
    if with_metrics {
        run_shard_with_metrics(
            &fb.board,
            &engine_cfg,
            schedule,
            &shard_cfg,
            admission.as_mut(),
            runtime,
            cache,
            &mut NullSink,
        )
    } else {
        run_shard(
            &fb.board,
            &engine_cfg,
            schedule,
            &shard_cfg,
            admission.as_mut(),
            runtime,
            cache,
            &mut NullSink,
        )
    }
}
