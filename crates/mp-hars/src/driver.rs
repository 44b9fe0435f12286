//! Drivers connecting the multi-application managers to the simulator,
//! plus the per-case statistics the Figure 5.4 harness reports.

use heartbeats::AppId;
use hmp_sim::{Action, ClusterId, CpuSet, Engine, FreqKhz, SimError};

use hars_core::driver::BehaviorSample;
use hars_core::metrics::normalized_performance;
use hars_core::search::SearchStats;
use hars_core::SystemState;

use crate::cons::{ConsDecision, ConsIManager};
use crate::manager::{MpDecision, MpHarsManager};

/// Per-application statistics of one multi-app run.
#[derive(Debug, Clone)]
pub struct AppRunStats {
    /// The application.
    pub app: AppId,
    /// Heartbeats emitted.
    pub heartbeats: u64,
    /// Whole-run average heartbeat rate.
    pub avg_rate: f64,
    /// Normalized performance `min(g, h)/g`.
    pub norm_perf: f64,
    /// Behavior trace for the Figures 5.5–5.7 graphs (empty unless
    /// requested).
    pub trace: Vec<BehaviorSample>,
}

/// Aggregate outcome of a multi-application run.
#[derive(Debug, Clone)]
pub struct MpRunOutcome {
    /// Per-app statistics in registration order.
    pub apps: Vec<AppRunStats>,
    /// Run length (s).
    pub elapsed_secs: f64,
    /// Average board power (W).
    pub avg_watts: f64,
    /// The case-level efficiency metric: mean normalized performance
    /// over the apps divided by average power.
    pub perf_per_watt: f64,
    /// Modeled manager CPU time (ns).
    pub manager_busy_ns: u64,
    /// State changes applied.
    pub adaptations: u64,
    /// Cumulative search cost across all apps' searches (zero for the
    /// baseline and CONS-I, which perform no search).
    pub search_stats: SearchStats,
}

/// Which multi-app version drives the run (the Figure 5.4 versions).
// One manager per run: the size difference between variants is
// irrelevant (never stored in bulk).
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum MpVersion {
    /// Stock GTS at the maximum state; no runtime manager.
    Baseline,
    /// The conservative incremental naive model.
    ConsI(ConsIManager),
    /// MP-HARS (I or E per the manager's policy).
    MpHars(MpHarsManager),
}

/// Drives `apps` (already added to `engine`, with targets set on their
/// monitors) under `version` until `deadline_ns` or until every app
/// finishes.
///
/// # Errors
///
/// Propagates [`SimError`] from engine interaction.
pub fn run_multi_app(
    engine: &mut Engine,
    apps: &[AppId],
    version: &mut MpVersion,
    deadline_ns: u64,
    record_trace: bool,
) -> Result<MpRunOutcome, SimError> {
    let mut traces: Vec<Vec<BehaviorSample>> = vec![Vec::new(); apps.len()];
    let mut done: Vec<bool> = vec![false; apps.len()];
    while let Some(hb) = engine.next_heartbeat(deadline_ns) {
        let Some(pos) = apps.iter().position(|&a| a == hb.app) else {
            continue;
        };
        let rate = engine
            .monitor(hb.app)?
            .window_rate()
            .map(|r| r.heartbeats_per_sec());
        if record_trace {
            traces[pos].push(behavior_sample(
                engine, version, hb.app, hb.index, hb.time_ns, rate,
            ));
        }
        match version {
            MpVersion::Baseline => {}
            MpVersion::ConsI(m) => {
                if let Some(d) = m.on_heartbeat(hb.app, hb.index, rate) {
                    apply_cons_decision(engine, apps, &d, hb.time_ns + d.overhead_ns)?;
                }
            }
            MpVersion::MpHars(m) => {
                if let Some(d) = m.on_heartbeat(hb.app, hb.index, rate) {
                    apply_mp_decision(engine, &d, hb.time_ns + d.overhead_ns)?;
                }
            }
        }
        // Release a finished app's resources so others can adapt into
        // them.
        if engine.app_done(hb.app) && !done[pos] {
            done[pos] = true;
            match version {
                MpVersion::Baseline => {}
                MpVersion::ConsI(m) => m.unregister_app(hb.app),
                MpVersion::MpHars(m) => m.unregister_app(hb.app),
            }
        }
    }
    Ok(summarize(engine, apps, version, traces))
}

/// Applies an MP-HARS decision: the app's thread pinning plus the shared
/// cluster frequencies.
pub fn apply_mp_decision(
    engine: &mut Engine,
    decision: &MpDecision,
    at_ns: u64,
) -> Result<(), SimError> {
    for (ci, &freq) in decision.freqs.iter().enumerate().rev() {
        engine.schedule_action(
            at_ns,
            Action::SetClusterFreq {
                cluster: ClusterId(ci),
                freq,
            },
        )?;
    }
    for (thread, &affinity) in decision.affinities.iter().enumerate() {
        engine.schedule_action(
            at_ns,
            Action::SetThreadAffinity {
                app: decision.app,
                thread,
                affinity,
            },
        )?;
    }
    Ok(())
}

/// Applies a CONS-I decision: global frequencies and the same allowed
/// core set for every thread of every application.
pub fn apply_cons_decision(
    engine: &mut Engine,
    apps: &[AppId],
    decision: &ConsDecision,
    at_ns: u64,
) -> Result<(), SimError> {
    for (cluster, _, freq) in decision.state.iter().rev() {
        engine.schedule_action(at_ns, Action::SetClusterFreq { cluster, freq })?;
    }
    let mask: CpuSet = decision.allowed_cores;
    for &app in apps {
        if engine.app_done(app) {
            continue;
        }
        for thread in 0..engine.app_threads(app) {
            engine.schedule_action(
                at_ns,
                Action::SetThreadAffinity {
                    app,
                    thread,
                    affinity: mask,
                },
            )?;
        }
    }
    Ok(())
}

fn behavior_sample(
    engine: &Engine,
    version: &MpVersion,
    app: AppId,
    hb_index: u64,
    time_ns: u64,
    rate: Option<f64>,
) -> BehaviorSample {
    let board = engine.board();
    // The manager's cores (every core under GTS, none once MP-HARS has
    // released the app) at the engine's frequencies.
    let cores = |c: ClusterId| match version {
        MpVersion::Baseline => board.cluster_size(c),
        MpVersion::ConsI(m) => m.state().cores(c),
        MpVersion::MpHars(m) => m.app_state(app).map_or(0, |s| s.cores(c)),
    };
    let per: Vec<(usize, FreqKhz)> = board
        .cluster_ids()
        .zip(engine.cluster_freqs())
        .map(|(c, &freq)| (cores(c), freq))
        .collect();
    BehaviorSample {
        hb_index,
        time_ns,
        rate,
        state: SystemState::new(&per),
    }
}

fn summarize(
    engine: &Engine,
    apps: &[AppId],
    version: &MpVersion,
    traces: Vec<Vec<BehaviorSample>>,
) -> MpRunOutcome {
    let mut stats = Vec::with_capacity(apps.len());
    let mut norm_sum = 0.0;
    for (pos, &app) in apps.iter().enumerate() {
        let monitor = engine.monitor(app).ok();
        let avg_rate = monitor
            .and_then(|m| m.global_rate())
            .map(|r| r.heartbeats_per_sec())
            .unwrap_or(0.0);
        let target = monitor.and_then(|m| m.target().copied());
        let norm_perf = target
            .map(|t| normalized_performance(&t, avg_rate))
            .unwrap_or(0.0);
        norm_sum += norm_perf;
        stats.push(AppRunStats {
            app,
            heartbeats: engine.app_heartbeats(app),
            avg_rate,
            norm_perf,
            trace: traces[pos].clone(),
        });
    }
    let avg_watts = engine.energy().average_power();
    let mean_norm = if apps.is_empty() {
        0.0
    } else {
        norm_sum / apps.len() as f64
    };
    let (busy, adaptations, search_stats) = match version {
        MpVersion::Baseline => (0, 0, SearchStats::default()),
        MpVersion::ConsI(m) => (m.busy_ns(), m.adaptations(), SearchStats::default()),
        MpVersion::MpHars(m) => (m.busy_ns(), m.adaptations(), m.search_stats()),
    };
    MpRunOutcome {
        apps: stats,
        elapsed_secs: engine.energy().elapsed_secs(),
        avg_watts,
        perf_per_watt: if avg_watts > 0.0 {
            mean_norm / avg_watts
        } else {
            0.0
        },
        manager_busy_ns: busy,
        adaptations,
        search_stats,
    }
}
