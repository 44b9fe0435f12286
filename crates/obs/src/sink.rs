//! [`MetricsSink`]: the metrics engine mounted as a
//! [`TelemetrySink`], composing with any inner sink.
//!
//! The sink tees: every event is folded into the engine *and*
//! forwarded to the inner sink, so a run can stream JSONL to disk and
//! build its [`MetricsSummary`](crate::MetricsSummary) in one pass.
//! `NullSink` as the inner sink gives metrics-only observation;
//! `&mut JsonlSink<_>` (via the core blanket `&mut T: TelemetrySink`
//! impl) gives capture-plus-metrics without giving up the writer.

use hars_core::{NullSink, TelemetryEvent, TelemetrySink};

use crate::engine::{MetricsEngine, MetricsSummary};

/// A [`TelemetrySink`] that folds every event into a
/// [`MetricsEngine`] and tees it to `inner`.
#[derive(Debug)]
pub struct MetricsSink<S: TelemetrySink> {
    engine: MetricsEngine,
    inner: S,
}

impl Default for MetricsSink<NullSink> {
    fn default() -> Self {
        Self::observer()
    }
}

impl MetricsSink<NullSink> {
    /// A metrics-only sink (inner events are dropped).
    pub fn observer() -> Self {
        Self::wrap(NullSink)
    }
}

impl<S: TelemetrySink> MetricsSink<S> {
    /// Wraps `inner`, folding metrics while forwarding every event.
    pub fn wrap(inner: S) -> Self {
        Self {
            engine: MetricsEngine::new(),
            inner,
        }
    }

    /// The engine's running event count.
    pub fn events(&self) -> u64 {
        self.engine.events()
    }

    /// A shared view of the inner sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Closes the fold, returning the summary and handing the inner
    /// sink back.
    pub fn finish(self) -> (MetricsSummary, S) {
        (self.engine.finish(), self.inner)
    }

    /// Closes the fold, dropping the inner sink.
    pub fn into_summary(self) -> MetricsSummary {
        self.finish().0
    }
}

impl<S: TelemetrySink> TelemetrySink for MetricsSink<S> {
    fn emit(&mut self, event: &TelemetryEvent) {
        self.engine.observe(event);
        self.inner.emit(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hars_core::VecSink;

    #[test]
    fn tees_to_inner_while_folding() {
        let mut sink = MetricsSink::wrap(VecSink::new());
        let ev = TelemetryEvent::ConfigApplied {
            t_ns: 1,
            version: 1,
        };
        sink.emit(&ev);
        assert_eq!(sink.events(), 1);
        assert_eq!(sink.inner().events.len(), 1);
        let (summary, inner) = sink.finish();
        assert_eq!(summary.rollup.events, 1);
        assert_eq!(inner.events, vec![ev]);
    }

    #[test]
    fn composes_with_borrowed_inner_sink() {
        let mut capture = VecSink::new();
        {
            let mut sink = MetricsSink::wrap(&mut capture);
            sink.emit(&TelemetryEvent::ConfigApplied {
                t_ns: 1,
                version: 1,
            });
            let (summary, _) = sink.finish();
            assert_eq!(summary.rollup.events, 1);
        }
        assert_eq!(capture.events.len(), 1, "capture survives the wrapper");
    }
}
