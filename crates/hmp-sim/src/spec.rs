//! Application specifications: how a simulated multithreaded application
//! behaves (parallelism model, speed profile, per-unit work schedule).
//!
//! The `workloads` crate builds these specs for each PARSEC analog; the
//! engine executes them.

use serde::{Deserialize, Serialize};

use crate::error::SimError;

/// How an application's speed depends on core type and frequency.
///
/// The ground-truth speed of one thread on a core is
///
/// ```text
/// speed = base · R(type) · (φ + (1 − φ) · f / f0)      units/s
/// R(Little) = 1,  R(Big) = big_little_ratio
/// ```
///
/// where `base` is [`crate::BoardSpec::units_per_sec`], `φ` the
/// memory-bound fraction (insensitive to frequency) and `f0` the board's
/// base frequency. HARS's estimator *assumes* `R(Big) = 1.5` and `φ = 0`;
/// per-application deviations are the paper's model-error story
/// (blackscholes has `big_little_ratio = 1.0`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpeedProfile {
    /// True per-core speed ratio big/little at equal frequency (`r` in
    /// the paper, measured: 1.0 for blackscholes, ~1.5-1.9 elsewhere).
    pub big_little_ratio: f64,
    /// Fraction of execution insensitive to CPU frequency (memory-bound).
    pub mem_bound_frac: f64,
}

impl SpeedProfile {
    /// A purely compute-bound profile with the given big/little ratio.
    pub fn compute_bound(big_little_ratio: f64) -> Self {
        Self {
            big_little_ratio,
            mem_bound_frac: 0.0,
        }
    }

    /// Validates ranges: ratio > 0, φ ∈ [0, 1].
    pub fn validate(&self) -> Result<(), SimError> {
        if !(self.big_little_ratio.is_finite() && self.big_little_ratio > 0.0) {
            return Err(SimError::InvalidSpec(format!(
                "big/little ratio {} must be positive",
                self.big_little_ratio
            )));
        }
        if !(0.0..=1.0).contains(&self.mem_bound_frac) {
            return Err(SimError::InvalidSpec(format!(
                "memory-bound fraction {} outside [0, 1]",
                self.mem_bound_frac
            )));
        }
        Ok(())
    }
}

impl Default for SpeedProfile {
    /// The paper's assumed profile: `r = 1.5`, fully frequency-sensitive.
    fn default() -> Self {
        Self {
            big_little_ratio: 1.5,
            mem_bound_frac: 0.0,
        }
    }
}

/// Per-heartbeat-unit work schedule in abstract work units.
///
/// `sample(i)` yields the total work of unit `i`; finite schedules repeat
/// cyclically so a workload's phase structure persists for arbitrarily
/// long runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkSource {
    /// Every unit costs the same.
    Constant(f64),
    /// Unit `i` costs `schedule[i % len]` — pre-generated phase/noise
    /// schedules from the `workloads` crate.
    Schedule(Vec<f64>),
}

impl WorkSource {
    /// Work of unit `i` (work units).
    pub fn sample(&self, i: u64) -> f64 {
        match self {
            WorkSource::Constant(w) => *w,
            WorkSource::Schedule(s) => s[(i % s.len() as u64) as usize],
        }
    }

    /// Mean work per unit.
    pub fn mean(&self) -> f64 {
        match self {
            WorkSource::Constant(w) => *w,
            WorkSource::Schedule(s) => s.iter().sum::<f64>() / s.len() as f64,
        }
    }

    /// Validates that all work amounts are positive and finite.
    pub fn validate(&self) -> Result<(), SimError> {
        let ok = match self {
            WorkSource::Constant(w) => w.is_finite() && *w > 0.0,
            WorkSource::Schedule(s) => !s.is_empty() && s.iter().all(|w| w.is_finite() && *w > 0.0),
        };
        if ok {
            Ok(())
        } else {
            Err(SimError::InvalidSpec(
                "work schedule must be non-empty with positive finite entries".into(),
            ))
        }
    }
}

/// The parallel structure of an application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParallelismModel {
    /// `T` worker threads split each unit of work equally and meet at a
    /// barrier; one heartbeat per completed unit. This is the structure
    /// HARS's performance estimator assumes (total work equally
    /// distributed across threads).
    DataParallel,
    /// A software pipeline (the paper's ferret is 6 stages): stage `s`
    /// has `stage_threads[s]` threads, each item needs
    /// `stage_work_frac[s]` of the unit work in stage `s`, stages are
    /// connected by bounded queues.
    Pipeline {
        /// Threads per stage; the sum must equal the spec's thread count.
        stage_threads: Vec<usize>,
        /// Fraction of an item's work done in each stage (sums to 1).
        stage_work_frac: Vec<f64>,
        /// Capacity of each inter-stage queue.
        queue_capacity: usize,
    },
    /// Calibration microbenchmark threads: alternate `duty` busy and
    /// `1 − duty` idle over a fixed period. No heartbeats.
    DutyCycle {
        /// Busy fraction in `[0, 1]`.
        duty: f64,
        /// Cycle period in nanoseconds.
        period_ns: u64,
    },
}

/// A complete application description the engine can instantiate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppSpec {
    /// Display name (e.g. "blackscholes").
    pub name: String,
    /// Number of threads.
    pub threads: usize,
    /// Parallel structure.
    pub model: ParallelismModel,
    /// Speed profile (big/little ratio, memory-boundedness).
    pub speed: SpeedProfile,
    /// Work per heartbeat unit.
    pub work: WorkSource,
    /// Heartbeats are emitted once per `items_per_heartbeat` completed
    /// units/items (1 = every unit).
    pub items_per_heartbeat: u64,
    /// Work executed single-threaded before the first unit, with no
    /// heartbeats (blackscholes' input-parsing phase). Zero to disable.
    pub startup_work: f64,
    /// Fraction of every data-parallel unit that runs single-threaded
    /// before the parallel section (Amdahl serial fraction; real PARSEC
    /// applications do not scale linearly to 8 threads). Ignored by
    /// pipeline and duty-cycle models.
    pub serial_frac: f64,
    /// Stop after this many heartbeats (`None` = run until the engine's
    /// time horizon).
    pub max_heartbeats: Option<u64>,
}

impl AppSpec {
    /// Creates a data-parallel spec with `threads` threads and constant
    /// per-unit work — the simplest self-adaptive application.
    pub fn data_parallel(name: impl Into<String>, threads: usize, unit_work: f64) -> Self {
        Self {
            name: name.into(),
            threads,
            model: ParallelismModel::DataParallel,
            speed: SpeedProfile::default(),
            work: WorkSource::Constant(unit_work),
            items_per_heartbeat: 1,
            startup_work: 0.0,
            serial_frac: 0.0,
            max_heartbeats: None,
        }
    }

    /// Validates the whole specification.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidSpec`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.threads == 0 {
            return Err(SimError::InvalidSpec(
                "thread count must be positive".into(),
            ));
        }
        if self.items_per_heartbeat == 0 {
            return Err(SimError::InvalidSpec(
                "items_per_heartbeat must be positive".into(),
            ));
        }
        if !(self.startup_work.is_finite() && self.startup_work >= 0.0) {
            return Err(SimError::InvalidSpec(
                "startup work must be non-negative".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.serial_frac) {
            return Err(SimError::InvalidSpec(format!(
                "serial fraction {} outside [0, 1)",
                self.serial_frac
            )));
        }
        self.speed.validate()?;
        self.work.validate()?;
        match &self.model {
            ParallelismModel::DataParallel => Ok(()),
            ParallelismModel::Pipeline {
                stage_threads,
                stage_work_frac,
                queue_capacity,
            } => {
                if stage_threads.is_empty() || stage_threads.len() != stage_work_frac.len() {
                    return Err(SimError::InvalidSpec(
                        "pipeline stage arrays must be non-empty and equal length".into(),
                    ));
                }
                if stage_threads.contains(&0) {
                    return Err(SimError::InvalidSpec(
                        "every pipeline stage needs at least one thread".into(),
                    ));
                }
                if stage_threads.iter().sum::<usize>() != self.threads {
                    return Err(SimError::InvalidSpec(format!(
                        "stage threads sum to {} but spec has {} threads",
                        stage_threads.iter().sum::<usize>(),
                        self.threads
                    )));
                }
                let frac_sum: f64 = stage_work_frac.iter().sum();
                if stage_work_frac.iter().any(|&f| !(f.is_finite() && f > 0.0))
                    || (frac_sum - 1.0).abs() > 1e-6
                {
                    return Err(SimError::InvalidSpec(
                        "stage work fractions must be positive and sum to 1".into(),
                    ));
                }
                if *queue_capacity == 0 {
                    return Err(SimError::InvalidSpec(
                        "pipeline queue capacity must be positive".into(),
                    ));
                }
                Ok(())
            }
            ParallelismModel::DutyCycle { duty, period_ns } => {
                if !(0.0..=1.0).contains(duty) {
                    return Err(SimError::InvalidSpec(format!(
                        "duty cycle {duty} outside [0, 1]"
                    )));
                }
                if *period_ns == 0 {
                    return Err(SimError::InvalidSpec("duty period must be positive".into()));
                }
                Ok(())
            }
        }
    }

    /// Number of pipeline stages (1 for non-pipeline models).
    pub fn n_stages(&self) -> usize {
        match &self.model {
            ParallelismModel::Pipeline { stage_threads, .. } => stage_threads.len(),
            _ => 1,
        }
    }

    /// The stage a thread index belongs to (threads are numbered stage by
    /// stage, matching the paper's thread-id ordering).
    pub fn stage_of_thread(&self, thread: usize) -> usize {
        match &self.model {
            ParallelismModel::Pipeline { stage_threads, .. } => {
                let mut acc = 0;
                for (s, &n) in stage_threads.iter().enumerate() {
                    acc += n;
                    if thread < acc {
                        return s;
                    }
                }
                stage_threads.len() - 1
            }
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_parallel_spec_validates() {
        let spec = AppSpec::data_parallel("x", 8, 100.0);
        assert!(spec.validate().is_ok());
        assert_eq!(spec.n_stages(), 1);
        assert_eq!(spec.stage_of_thread(5), 0);
    }

    #[test]
    fn serial_fraction_validation() {
        let mut spec = AppSpec::data_parallel("x", 8, 100.0);
        spec.serial_frac = 0.2;
        assert!(spec.validate().is_ok());
        spec.serial_frac = 1.0;
        assert!(spec.validate().is_err());
        spec.serial_frac = -0.1;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn zero_threads_rejected() {
        let mut spec = AppSpec::data_parallel("x", 8, 100.0);
        spec.threads = 0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn pipeline_validation() {
        let mut spec = AppSpec::data_parallel("p", 8, 100.0);
        spec.model = ParallelismModel::Pipeline {
            stage_threads: vec![4, 4],
            stage_work_frac: vec![0.5, 0.5],
            queue_capacity: 16,
        };
        assert!(spec.validate().is_ok());
        assert_eq!(spec.n_stages(), 2);
        assert_eq!(spec.stage_of_thread(0), 0);
        assert_eq!(spec.stage_of_thread(3), 0);
        assert_eq!(spec.stage_of_thread(4), 1);
        assert_eq!(spec.stage_of_thread(7), 1);
    }

    #[test]
    fn pipeline_thread_mismatch_rejected() {
        let mut spec = AppSpec::data_parallel("p", 8, 100.0);
        spec.model = ParallelismModel::Pipeline {
            stage_threads: vec![4, 2],
            stage_work_frac: vec![0.5, 0.5],
            queue_capacity: 16,
        };
        assert!(spec.validate().is_err());
    }

    #[test]
    fn pipeline_fraction_sum_rejected() {
        let mut spec = AppSpec::data_parallel("p", 8, 100.0);
        spec.model = ParallelismModel::Pipeline {
            stage_threads: vec![4, 4],
            stage_work_frac: vec![0.5, 0.6],
            queue_capacity: 16,
        };
        assert!(spec.validate().is_err());
    }

    #[test]
    fn duty_cycle_validation() {
        let mut spec = AppSpec::data_parallel("d", 2, 1.0);
        spec.model = ParallelismModel::DutyCycle {
            duty: 0.5,
            period_ns: 1_000_000,
        };
        assert!(spec.validate().is_ok());
        spec.model = ParallelismModel::DutyCycle {
            duty: 1.5,
            period_ns: 1_000_000,
        };
        assert!(spec.validate().is_err());
    }

    #[test]
    fn work_source_sampling() {
        let c = WorkSource::Constant(5.0);
        assert_eq!(c.sample(0), 5.0);
        assert_eq!(c.sample(99), 5.0);
        assert_eq!(c.mean(), 5.0);
        let s = WorkSource::Schedule(vec![1.0, 2.0, 3.0]);
        assert_eq!(s.sample(0), 1.0);
        assert_eq!(s.sample(4), 2.0); // cyclic
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bad_work_sources_rejected() {
        assert!(WorkSource::Constant(0.0).validate().is_err());
        assert!(WorkSource::Constant(-1.0).validate().is_err());
        assert!(WorkSource::Schedule(vec![]).validate().is_err());
        assert!(WorkSource::Schedule(vec![1.0, f64::NAN])
            .validate()
            .is_err());
    }

    #[test]
    fn speed_profile_validation() {
        assert!(SpeedProfile::default().validate().is_ok());
        assert!(SpeedProfile {
            big_little_ratio: 0.0,
            mem_bound_frac: 0.0
        }
        .validate()
        .is_err());
        assert!(SpeedProfile {
            big_little_ratio: 1.0,
            mem_bound_frac: 1.1
        }
        .validate()
        .is_err());
        assert_eq!(SpeedProfile::compute_bound(2.0).mem_bound_frac, 0.0);
    }
}
