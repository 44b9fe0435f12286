//! Timing wrappers around the public extension points of each layer.
//! They only add spans: every call is forwarded unchanged, so a traced
//! run must produce the same outcome as an untraced one.

use hars_core::policy::SearchPolicy;
use hars_core::search::{SearchContext, SearchOutcome, SearchStrategy, SearchStrategyFactory};
use hars_core::{SystemState, TelemetryEvent, TelemetrySink};
use hars_scenario::{AdmissionDecision, AdmissionPolicy, LoadEstimate};

use crate::trace;

/// A strategy factory that resolves the manager's own policy through
/// [`SearchPolicy::strategy_for`], exactly as the manager does without
/// a factory, and times each search.
#[derive(Debug)]
pub struct TimedFactory {
    policy: SearchPolicy,
}

impl TimedFactory {
    /// Delegates to `policy`.
    pub fn new(policy: SearchPolicy) -> Self {
        Self { policy }
    }
}

impl SearchStrategyFactory for TimedFactory {
    fn strategy_for(
        &self,
        overperforming: bool,
        cost_per_state_ns: u64,
    ) -> Box<dyn SearchStrategy> {
        Box::new(TimedStrategy(
            self.policy.strategy_for(overperforming, cost_per_state_ns),
        ))
    }
}

struct TimedStrategy<S>(S);

impl<S: SearchStrategy> SearchStrategy for TimedStrategy<S> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn next_state_observed(
        &self,
        ctx: &SearchContext<'_>,
        observer: &mut dyn FnMut(SystemState),
    ) -> SearchOutcome {
        let _s = trace::enter("search.next_state");
        self.0.next_state_observed(ctx, observer)
    }
}

/// Times every `emit` into the wrapped sink.
#[derive(Debug)]
pub struct TimingSink<S> {
    /// The wrapped sink.
    pub inner: S,
}

impl<S: TelemetrySink> TelemetrySink for TimingSink<S> {
    fn emit(&mut self, event: &TelemetryEvent) {
        let _s = trace::enter("obs.emit");
        self.inner.emit(event);
    }
}

/// Stamps the host time of every event it receives; the fleet's
/// caller-side stream marks where placement ends and supervision
/// starts.
#[derive(Debug, Default)]
pub struct StampSink {
    /// `(event kind, host ns)` in arrival order.
    pub stamps: Vec<(&'static str, u64)>,
    /// Destination shards named by `tenant_failed_over` events.
    pub failover_dests: Vec<u64>,
}

impl TelemetrySink for StampSink {
    fn emit(&mut self, event: &TelemetryEvent) {
        self.stamps.push((event.kind(), trace::now_ns()));
        if let TelemetryEvent::TenantFailedOver { to_board, .. } = event {
            if *to_board != u64::MAX {
                self.failover_dests.push(*to_board);
            }
        }
    }
}

/// Times every admission verdict of the wrapped policy.
#[derive(Debug)]
pub struct TimedAdmission(pub Box<dyn AdmissionPolicy>);

impl AdmissionPolicy for TimedAdmission {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn decide(&mut self, load: &LoadEstimate, queue_len: usize) -> AdmissionDecision {
        let _s = trace::enter("scenario.admission");
        self.0.decide(load, queue_len)
    }
}
