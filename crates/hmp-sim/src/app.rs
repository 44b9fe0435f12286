//! Per-application runtime state: the data-parallel barrier, the pipeline
//! queue network, and heartbeat bookkeeping, monitor included.

use std::collections::VecDeque;

use heartbeats::{AppId, HeartbeatMonitor};

use crate::spec::AppSpec;

/// Model-specific runtime state.
#[derive(Debug, Clone)]
pub(crate) enum ModelState {
    /// Data-parallel barrier per unit of work.
    DataParallel {
        /// Index of the unit currently executing.
        unit: u64,
        /// Threads that have arrived at the barrier.
        arrived: usize,
        /// `true` while the single-threaded startup phase runs.
        in_startup: bool,
        /// `true` while the unit's serial section runs on thread 0.
        in_serial: bool,
    },
    /// Bounded-queue pipeline.
    Pipeline {
        /// `queues[q]` carries item ids from stage `q` to stage `q + 1`.
        queues: Vec<VecDeque<u64>>,
        /// Next item id the source stage will generate.
        next_item: u64,
        /// Items that have exited the last stage.
        completed_items: u64,
    },
    /// Duty-cycle calibration threads; no shared state.
    DutyCycle,
}

/// Runtime state of one application inside the engine.
#[derive(Debug, Clone)]
pub(crate) struct AppState {
    /// The immutable specification.
    pub spec: AppSpec,
    /// The engine-facing application id: this app's index in the
    /// engine's app table.
    pub id: AppId,
    /// The app's heartbeat monitor (rate window and target band).
    pub monitor: HeartbeatMonitor,
    /// Global engine thread-table indices of this app's threads, in
    /// thread-id order.
    pub threads: Vec<usize>,
    /// Model-specific state.
    pub model: ModelState,
    /// Completed units (data-parallel) or items (pipeline).
    pub units_done: u64,
    /// Heartbeats emitted so far.
    pub heartbeats: u64,
    /// `true` once `max_heartbeats` was reached.
    pub done: bool,
}

impl AppState {
    /// Builds the initial state for `spec`, with a monitor over a rate
    /// window of `hb_window` heartbeats (threads are registered by the
    /// engine afterwards).
    pub fn new(spec: AppSpec, id: AppId, hb_window: usize) -> Self {
        let model = match &spec.model {
            crate::spec::ParallelismModel::DataParallel => ModelState::DataParallel {
                unit: 0,
                arrived: 0,
                in_startup: spec.startup_work > 0.0,
                in_serial: false,
            },
            crate::spec::ParallelismModel::Pipeline { stage_threads, .. } => {
                let n_queues = stage_threads.len().saturating_sub(1);
                ModelState::Pipeline {
                    queues: vec![VecDeque::new(); n_queues],
                    next_item: 0,
                    completed_items: 0,
                }
            }
            crate::spec::ParallelismModel::DutyCycle { .. } => ModelState::DutyCycle,
        };
        Self {
            spec,
            id,
            monitor: HeartbeatMonitor::new(hb_window),
            threads: Vec::new(),
            model,
            units_done: 0,
            heartbeats: 0,
            done: false,
        }
    }

    /// Work of one data-parallel chunk for unit `u`: the parallel
    /// portion of the unit divided equally over the threads (the
    /// paper's equal-distribution assumption).
    pub fn chunk_work(&self, unit: u64) -> f64 {
        self.spec.work.sample(unit) * (1.0 - self.spec.serial_frac) / self.spec.threads as f64
    }

    /// Single-threaded work of unit `u`'s serial section.
    pub fn serial_work(&self, unit: u64) -> f64 {
        self.spec.work.sample(unit) * self.spec.serial_frac
    }

    /// Work item `item` costs in pipeline stage `stage`.
    pub fn stage_work(&self, item: u64, stage: usize) -> f64 {
        match &self.spec.model {
            crate::spec::ParallelismModel::Pipeline {
                stage_work_frac, ..
            } => self.spec.work.sample(item) * stage_work_frac[stage],
            _ => 0.0,
        }
    }

    /// `true` when emitting for completion count `n` produces a heartbeat.
    pub fn heartbeat_due(&self, completions: u64) -> bool {
        completions > 0 && completions.is_multiple_of(self.spec.items_per_heartbeat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AppSpec, ParallelismModel, WorkSource};

    #[test]
    fn data_parallel_chunks_split_equally() {
        let spec = AppSpec::data_parallel("x", 8, 400.0);
        let app = AppState::new(spec, AppId(0), 4);
        assert!((app.chunk_work(0) - 50.0).abs() < 1e-12);
        assert!(matches!(
            app.model,
            ModelState::DataParallel {
                in_startup: false,
                ..
            }
        ));
    }

    #[test]
    fn startup_phase_flag() {
        let mut spec = AppSpec::data_parallel("x", 4, 100.0);
        spec.startup_work = 500.0;
        let app = AppState::new(spec, AppId(0), 4);
        assert!(matches!(
            app.model,
            ModelState::DataParallel {
                in_startup: true,
                ..
            }
        ));
    }

    #[test]
    fn pipeline_queue_count_is_stages_minus_one() {
        let mut spec = AppSpec::data_parallel("p", 6, 100.0);
        spec.model = ParallelismModel::Pipeline {
            stage_threads: vec![2, 2, 2],
            stage_work_frac: vec![0.2, 0.5, 0.3],
            queue_capacity: 8,
        };
        let app = AppState::new(spec, AppId(1), 4);
        match &app.model {
            ModelState::Pipeline { queues, .. } => assert_eq!(queues.len(), 2),
            _ => panic!("expected pipeline state"),
        }
        assert!((app.stage_work(0, 1) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn heartbeat_batching() {
        let mut spec = AppSpec::data_parallel("x", 1, 1.0);
        spec.items_per_heartbeat = 4;
        let app = AppState::new(spec, AppId(0), 4);
        assert!(!app.heartbeat_due(0));
        assert!(!app.heartbeat_due(3));
        assert!(app.heartbeat_due(4));
        assert!(!app.heartbeat_due(5));
        assert!(app.heartbeat_due(8));
    }

    #[test]
    fn varying_schedule_changes_chunks() {
        let mut spec = AppSpec::data_parallel("x", 2, 1.0);
        spec.work = WorkSource::Schedule(vec![10.0, 20.0]);
        let app = AppState::new(spec, AppId(0), 4);
        assert!((app.chunk_work(0) - 5.0).abs() < 1e-12);
        assert!((app.chunk_work(1) - 10.0).abs() < 1e-12);
        assert!((app.chunk_work(2) - 5.0).abs() < 1e-12);
    }
}
