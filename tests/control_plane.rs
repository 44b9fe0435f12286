//! One control-plane contract for both runtime managers: the same
//! table of config deltas, applied in order to a single-app
//! `RuntimeManager` and a multi-app `MpHarsManager`, must give the same
//! result, version and runtime snapshot after every step. A rejected
//! delta bumps neither manager's version.

use hars::hars_core::policy::SearchPolicy;
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
    let nested = SearchPolicy::Budgeted {
        inner: Box::new(SearchPolicy::budgeted(SearchPolicy::Frontier, 1_000)),
        budget_ns: 2_000,
    };
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
        (
            ConfigDelta::none().with_policy(nested),
            Err(RejectReason::NestedBudget),
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
