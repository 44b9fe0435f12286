//! One control-plane contract for both runtime managers: the same
//! table of config deltas, applied in order to a single-app
//! `RuntimeManager` and a multi-app `MpHarsManager`, must give the same
//! result, version and runtime snapshot after every step. A rejected
//! delta bumps neither manager's version. A decision budget bounds each
//! decision exactly like the evaluation limit it buys.

use std::sync::Arc;

use hars::hars_core::policy::SearchPolicy;
use hars::hars_core::search::{
    SearchContext, SearchOutcome, SearchStrategy, SearchStrategyFactory,
};
use hars::hars_core::RatioLearning;
use hars::prelude::*;

fn managers() -> (RuntimeManager, MpHarsManager) {
    let board = BoardSpec::odroid_xu3();
    let perf = PerfEstimator::from_board(&board);
    let power = PowerEstimator::synthetic_for_board(&board);
    let target = PerfTarget::from_center(10.0, 0.10).expect("valid target");
    let hars = RuntimeManager::new(
        &board,
        target,
        perf,
        power.clone(),
        8,
        HarsConfig::default(),
    );
    let mp = MpHarsManager::new(&board, perf, power, MpHarsConfig::default());
    (hars, mp)
}

#[test]
fn both_managers_share_one_control_plane() {
    let steps: Vec<(ConfigDelta, Result<u64, RejectReason>)> = vec![
        (ConfigDelta::none(), Err(RejectReason::EmptyDelta)),
        (
            ConfigDelta::none().with_policy(SearchPolicy::Incremental),
            Ok(1),
        ),
        (ConfigDelta::none().with_budget_ns(300_000), Ok(2)),
        (ConfigDelta::none().with_budget_ns(50_000), Ok(3)),
        (ConfigDelta::none().without_budget(), Ok(4)),
        (
            ConfigDelta::none().without_budget(),
            Err(RejectReason::NoBudgetToRemove),
        ),
        (
            ConfigDelta::none().with_budget_ns(0),
            Err(RejectReason::ZeroBudget),
        ),
        (ConfigDelta::none().with_cost_per_state_ns(10), Ok(5)),
        (
            ConfigDelta::none().with_ratio_learning(RatioLearning::FastOnly),
            Ok(6),
        ),
        (
            ConfigDelta::none().with_ratio_learning(RatioLearning::PerCluster),
            Ok(7),
        ),
        (
            ConfigDelta::none().with_ratio_learning(RatioLearning::Off),
            Ok(8),
        ),
    ];
    let (mut hars, mut mp) = managers();
    assert_eq!(hars.core().runtime_config(), mp.core().runtime_config());
    for (i, (delta, want)) in steps.iter().enumerate() {
        let want = want.map(ConfigVersion);
        assert_eq!(hars.apply_config(delta), want, "HARS, step {i}");
        assert_eq!(mp.apply_config(delta), want, "MP-HARS, step {i}");
        assert_eq!(
            hars.core().config_version(),
            mp.core().config_version(),
            "step {i}"
        );
        assert_eq!(
            hars.core().runtime_config(),
            mp.core().runtime_config(),
            "step {i}"
        );
    }
    assert_eq!(hars.core().config_version(), ConfigVersion(8));
}

/// Runs `inner` under a fixed evaluation limit.
struct Limited<S> {
    inner: S,
    limit: usize,
}

impl<S: SearchStrategy> SearchStrategy for Limited<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_state_observed(
        &self,
        ctx: &SearchContext<'_>,
        observer: &mut dyn FnMut(SystemState),
    ) -> SearchOutcome {
        let limited = SearchContext {
            eval_limit: Some(self.limit),
            ..*ctx
        };
        self.inner.next_state_observed(&limited, observer)
    }
}

/// Resolves `policy` as the manager would and limits each search to
/// `limit` evaluations.
#[derive(Debug)]
struct LimitFactory {
    policy: SearchPolicy,
    limit: usize,
}

impl SearchStrategyFactory for LimitFactory {
    fn strategy_for(
        &self,
        overperforming: bool,
        cost_per_state_ns: u64,
    ) -> Box<dyn SearchStrategy> {
        Box::new(Limited {
            inner: self.policy.strategy_for(overperforming, cost_per_state_ns),
            limit: self.limit,
        })
    }
}

/// 30 hb/s and 3 hb/s, alternating every 40 heartbeats.
fn alternating_rate(hb: u64) -> f64 {
    if (hb / 40).is_multiple_of(2) {
        30.0
    } else {
        3.0
    }
}

#[test]
fn a_budget_limits_each_decision_like_an_evaluation_limit() {
    const EVALS: usize = 25;
    const COST: u64 = 3_000;
    let board = BoardSpec::dynamiq_1p_3m_4l();
    let perf = PerfEstimator::from_board(&board);
    let power = PowerEstimator::synthetic_for_board(&board);
    let target = PerfTarget::from_center(10.0, 0.10).expect("valid target");
    let budget = ConfigDelta::none().with_budget_ns(EVALS as u64 * COST);
    let factory = Arc::new(LimitFactory {
        policy: SearchPolicy::exhaustive_default(),
        limit: EVALS,
    });
    let check = |stats: &hars::hars_core::SearchStats| {
        assert!(
            stats.evaluated <= EVALS + 1,
            "evaluated {} past the budget",
            stats.evaluated
        );
    };

    let hars_cfg = HarsConfig {
        cost_per_state_ns: COST,
        ..HarsConfig::default()
    };
    let new_hars = || RuntimeManager::new(&board, target, perf, power.clone(), 8, hars_cfg.clone());
    let (mut budgeted, mut limited) = (new_hars(), new_hars());
    budgeted.apply_config(&budget).expect("budget accepted");
    limited.set_search_strategy_factory(factory.clone());
    let mut decisions = 0;
    let mut truncated = false;
    for hb in 0..400u64 {
        let rate = Some(alternating_rate(hb));
        let (a, b) = (
            budgeted.on_heartbeat(hb, rate),
            limited.on_heartbeat(hb, rate),
        );
        assert_eq!(a, b, "HARS, heartbeat {hb}");
        if let Some(d) = a {
            check(&d.stats);
            truncated |= d.stats.truncated;
            decisions += 1;
        }
    }
    assert!(decisions > 2, "HARS decided {decisions} times");
    assert!(truncated, "the budget cut at least one HARS search short");

    let mp_cfg = MpHarsConfig {
        cost_per_state_ns: COST,
        ..MpHarsConfig::default()
    };
    let new_mp = || {
        let mut m = MpHarsManager::new(&board, perf, power.clone(), mp_cfg.clone());
        m.register_app(AppId(0), 8, target);
        m
    };
    let (mut budgeted, mut limited) = (new_mp(), new_mp());
    budgeted.apply_config(&budget).expect("budget accepted");
    limited.set_search_strategy_factory(factory);
    let mut decisions = 0;
    let mut truncated = false;
    for hb in 0..400u64 {
        let rate = Some(alternating_rate(hb));
        let a = budgeted.on_heartbeat(AppId(0), hb, rate);
        let b = limited.on_heartbeat(AppId(0), hb, rate);
        assert_eq!(a, b, "MP-HARS, heartbeat {hb}");
        if let Some(d) = a {
            check(&d.stats);
            truncated |= d.stats.truncated;
            decisions += 1;
        }
    }
    assert!(decisions > 2, "MP-HARS decided {decisions} times");
    assert!(
        truncated,
        "the budget cut at least one MP-HARS search short"
    );
}
