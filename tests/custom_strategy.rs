//! The open search subsystem, exercised from *outside* the workspace
//! crates: a downstream consumer implements its own
//! [`SearchStrategy`] + [`SearchStrategyFactory`] against the public
//! ranking core ([`SearchContext::evaluate`], [`BestTracker`],
//! [`EvalCache`]) and installs it on both runtime managers without
//! touching any crate internals.

use std::sync::Arc;

use hars::hars_core::search::{
    BestTracker, EvalCache, SearchContext, SearchOutcome, SearchStrategy, SearchStrategyFactory,
};
use hars::hars_core::{HarsConfig, PowerEstimator, RuntimeManager, SystemState};
use hars::mp_hars::{mp_hars_i, MpHarsManager};
use hars::prelude::*;

/// A degenerate external strategy: rank the incumbent with the stock
/// evaluator and stay put, whatever the observed rate says.
#[derive(Debug)]
struct StayPut;

impl SearchStrategy for StayPut {
    fn name(&self) -> &'static str {
        "ext-stay-put"
    }

    fn next_state_observed(
        &self,
        ctx: &SearchContext<'_>,
        _observer: &mut dyn FnMut(SystemState),
    ) -> SearchOutcome {
        let mut cache = EvalCache::new();
        let idx = ctx.space.index_of(ctx.current).expect("current is valid");
        let eval = ctx.evaluate(&idx, &mut cache);
        BestTracker::new(*ctx.current, eval, ctx.tabu).finish(1, cache.evaluated())
    }
}

#[derive(Debug)]
struct StayPutFactory;

impl SearchStrategyFactory for StayPutFactory {
    fn strategy_for(
        &self,
        _overperforming: bool,
        _cost_per_state_ns: u64,
    ) -> Box<dyn SearchStrategy> {
        Box::new(StayPut)
    }
}

#[test]
fn external_strategy_drives_the_single_app_manager() {
    let board = BoardSpec::odroid_xu3();
    let target = PerfTarget::from_center(10.0, 0.10).expect("valid target");
    let perf = PerfEstimator::from_board(&board);
    let power = PowerEstimator::synthetic_for_board(&board);
    let mut m = RuntimeManager::new(&board, target, perf, power, 8, HarsConfig::default());

    m.set_search_strategy_factory(Arc::new(StayPutFactory));
    // Grossly over-performing: the stock policy would shrink, the
    // external strategy holds the incumbent.
    assert!(m.on_heartbeat(10, Some(30.0)).is_none());
    assert_eq!(m.searches(), 1, "the external strategy did run");
    assert!(
        m.search_stats().evaluated >= 1,
        "external evaluations flow into the manager's accounting"
    );

    m.clear_search_strategy_factory();
    assert!(
        m.on_heartbeat(20, Some(30.0)).is_some(),
        "clearing the factory restores the configured policy"
    );
}

#[test]
fn external_strategy_drives_the_multi_app_manager() {
    let board = BoardSpec::odroid_xu3();
    let perf = PerfEstimator::from_board(&board);
    let power = PowerEstimator::synthetic_for_board(&board);
    let target = PerfTarget::from_center(10.0, 0.10).expect("valid target");
    let mut m = MpHarsManager::new(&board, perf, power, mp_hars_i());
    m.register_app(AppId(0), 8, target);
    // The first heartbeat performs the initial allocation (not a
    // neighborhood search) — the external strategy takes over after.
    let _ = m.on_heartbeat(AppId(0), 0, None).expect("initial alloc");

    m.set_search_strategy_factory(Arc::new(StayPutFactory));
    for step in 1..6u64 {
        assert!(
            m.on_heartbeat(AppId(0), step * 10, Some(40.0)).is_none(),
            "the external strategy pins the state at step {step}"
        );
    }

    m.clear_search_strategy_factory();
    let mut moved = false;
    for step in 6..12u64 {
        if m.on_heartbeat(AppId(0), step * 10, Some(40.0)).is_some() {
            moved = true;
            break;
        }
    }
    assert!(
        moved,
        "the configured policy resumes after the factory is cleared"
    );
}
