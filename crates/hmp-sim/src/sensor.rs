//! The board's power sensor.
//!
//! The ODROID-XU3 carries INA231 current/voltage sensors on each cluster
//! rail, sampled every 263,808 µs. HARS's power-model calibration reads
//! *these samples*, not the ground truth — so the sensor adds optional
//! Gaussian measurement noise to reproduce real calibration conditions.
//! One rail per cluster, however many clusters the board has.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::board::ClusterId;

/// One sensor sample: per-cluster power at a sample instant.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerSample {
    /// Sample timestamp (ns).
    pub time_ns: u64,
    /// Measured power per cluster rail (W), indexed by cluster.
    pub watts: Vec<f64>,
}

impl PowerSample {
    /// Measured power of `cluster` (0 for a rail the board lacks).
    pub fn watts(&self, cluster: ClusterId) -> f64 {
        self.watts.get(cluster.index()).copied().unwrap_or(0.0)
    }
}

/// Periodic sampling power sensor with optional multiplicative Gaussian
/// noise (`reading = truth × (1 + ε)`, ε ~ N(0, σ²)).
#[derive(Debug, Clone)]
pub struct PowerSensor {
    period_ns: u64,
    next_sample_ns: u64,
    noise_sigma: f64,
    rng: StdRng,
    samples: Vec<PowerSample>,
    /// Samples elided across idle spans (counted, never materialized).
    coalesced: u64,
    /// Samples lost to an injected dropout fault.
    lost: u64,
    /// Samples that repeated a stale reading under a stuck-at fault.
    stuck: u64,
}

impl PowerSensor {
    /// Creates a sensor sampling every `period_ns` with relative noise
    /// `noise_sigma` (0.0 = ideal sensor) and a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if `period_ns == 0` or `noise_sigma < 0`.
    pub fn new(period_ns: u64, noise_sigma: f64, seed: u64) -> Self {
        assert!(period_ns > 0, "sensor period must be positive");
        assert!(noise_sigma >= 0.0, "noise sigma must be non-negative");
        Self {
            period_ns,
            next_sample_ns: period_ns,
            noise_sigma,
            rng: StdRng::seed_from_u64(seed),
            samples: Vec::new(),
            coalesced: 0,
            lost: 0,
            stuck: 0,
        }
    }

    /// Sampling period (ns).
    pub fn period_ns(&self) -> u64 {
        self.period_ns
    }

    /// Time of the next scheduled sample (ns).
    pub fn next_sample_ns(&self) -> u64 {
        self.next_sample_ns
    }

    /// Records a sample at `time_ns` given the true per-cluster powers
    /// (indexed by cluster), then schedules the next one. The engine
    /// calls this exactly when the clock reaches
    /// [`PowerSensor::next_sample_ns`].
    pub fn sample(&mut self, time_ns: u64, truth: &[f64]) {
        let watts = truth.iter().map(|&w| self.noisy(w)).collect();
        self.samples.push(PowerSample { time_ns, watts });
        self.next_sample_ns = self.next_sample_ns.saturating_add(self.period_ns);
    }

    /// Skips one scheduled sample across an idle span: the schedule
    /// advances by a period and the sample is *counted* but not
    /// materialized — no storage, and (deliberately) no noise draws, so
    /// a skipped sample costs nothing. Callers that need the noisy
    /// sample stream itself (the calibration microbenchmark) must run
    /// with coalescing disabled; skipping shifts the RNG stream of any
    /// later materialized samples.
    pub(crate) fn skip_sample(&mut self) {
        self.coalesced += 1;
        self.next_sample_ns = self.next_sample_ns.saturating_add(self.period_ns);
    }

    /// Drops one scheduled sample to an injected dropout fault: the
    /// schedule advances, the loss is counted, and (like
    /// [`PowerSensor::skip_sample`]) no noise is drawn — a dead rail
    /// reads nothing.
    pub(crate) fn drop_sample(&mut self) {
        self.lost += 1;
        self.next_sample_ns = self.next_sample_ns.saturating_add(self.period_ns);
    }

    /// Records one stuck-at sample: the last pre-fault reading is
    /// repeated at `time_ns` (zeros if nothing was ever measured), the
    /// schedule advances, and no noise is drawn — the rail replays a
    /// frozen register, it does not re-measure.
    pub(crate) fn stuck_sample(&mut self, time_ns: u64, n_rails: usize) {
        let watts = self
            .samples
            .last()
            .map(|s| s.watts.clone())
            .unwrap_or_else(|| vec![0.0; n_rails]);
        self.samples.push(PowerSample { time_ns, watts });
        self.stuck += 1;
        self.next_sample_ns = self.next_sample_ns.saturating_add(self.period_ns);
    }

    /// Samples elided across idle spans (scheduled instants that were
    /// counted but never materialized).
    pub fn coalesced_samples(&self) -> u64 {
        self.coalesced
    }

    /// Samples lost to injected dropout faults.
    pub fn samples_lost(&self) -> u64 {
        self.lost
    }

    /// Samples that repeated a stale reading under stuck-at faults.
    pub fn samples_stuck(&self) -> u64 {
        self.stuck
    }

    /// Total scheduled sample instants reached so far: materialized
    /// (stuck-at repeats included) plus coalesced plus dropout losses.
    /// Invariant under idle-span coalescing — the engine's equivalence
    /// proptests pin it against the fixed-step reference.
    pub fn total_samples(&self) -> u64 {
        self.samples.len() as u64 + self.coalesced + self.lost
    }

    fn noisy(&mut self, truth: f64) -> f64 {
        if self.noise_sigma == 0.0 {
            return truth;
        }
        // Box-Muller transform: two uniforms -> one standard normal.
        let u1: f64 = self.rng.random_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.random_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (truth * (1.0 + self.noise_sigma * z)).max(0.0)
    }

    /// All samples recorded so far, oldest first.
    pub fn samples(&self) -> &[PowerSample] {
        &self.samples
    }

    /// Mean measured power of `cluster` over all samples (W), or `None`
    /// before the first sample.
    pub fn mean_watts(&self, cluster: ClusterId) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let sum: f64 = self.samples.iter().map(|s| s.watts(cluster)).sum();
        Some(sum / self.samples.len() as f64)
    }

    /// Discards recorded samples (the schedule continues; the
    /// coalesced-sample counter is a lifetime total and is kept).
    pub fn clear(&mut self) {
        self.samples.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::ClusterId as C;

    #[test]
    fn ideal_sensor_reports_truth() {
        let mut s = PowerSensor::new(1_000, 0.0, 42);
        s.sample(1_000, &[0.5, 3.0]);
        s.sample(2_000, &[0.6, 3.5]);
        assert_eq!(s.samples().len(), 2);
        assert_eq!(s.samples()[0].watts(C::LITTLE), 0.5);
        assert_eq!(s.samples()[1].watts(C::BIG), 3.5);
        assert!((s.mean_watts(C::BIG).unwrap() - 3.25).abs() < 1e-12);
    }

    #[test]
    fn schedule_advances_by_period() {
        let mut s = PowerSensor::new(250, 0.0, 0);
        assert_eq!(s.next_sample_ns(), 250);
        s.sample(250, &[1.0, 1.0]);
        assert_eq!(s.next_sample_ns(), 500);
        s.sample(500, &[1.0, 1.0]);
        assert_eq!(s.next_sample_ns(), 750);
    }

    #[test]
    fn noise_is_unbiased_and_bounded() {
        let mut s = PowerSensor::new(1, 0.02, 7);
        let truth = 4.0;
        for t in 1..=2_000u64 {
            s.sample(t, &[truth, truth]);
        }
        let mean = s.mean_watts(C::BIG).unwrap();
        assert!(
            (mean - truth).abs() < 0.01 * truth,
            "noisy mean {mean} too far from truth {truth}"
        );
        // 2% sigma: essentially all samples within 10%.
        for sample in s.samples() {
            assert!((sample.watts(C::BIG) - truth).abs() < 0.2 * truth);
        }
    }

    #[test]
    fn deterministic_under_same_seed() {
        let mut a = PowerSensor::new(1, 0.05, 9);
        let mut b = PowerSensor::new(1, 0.05, 9);
        for t in 1..=100u64 {
            a.sample(t, &[2.0, 5.0]);
            b.sample(t, &[2.0, 5.0]);
        }
        assert_eq!(a.samples(), b.samples());
    }

    #[test]
    fn noise_never_goes_negative() {
        let mut s = PowerSensor::new(1, 2.0, 3); // absurd noise
        for t in 1..=500u64 {
            s.sample(t, &[0.01, 0.01]);
        }
        assert!(s.samples().iter().all(|x| x.watts(C::LITTLE) >= 0.0));
    }

    #[test]
    fn skipped_samples_are_counted_not_stored() {
        let mut s = PowerSensor::new(100, 0.05, 11);
        s.sample(100, &[1.0, 1.0]);
        s.skip_sample();
        s.skip_sample();
        s.sample(400, &[1.0, 1.0]);
        assert_eq!(s.samples().len(), 2);
        assert_eq!(s.coalesced_samples(), 2);
        assert_eq!(s.total_samples(), 4);
        assert_eq!(s.next_sample_ns(), 500, "schedule advanced per skip");
        s.clear();
        assert_eq!(s.coalesced_samples(), 2, "lifetime counter survives clear");
    }

    #[test]
    fn three_rail_samples() {
        let mut s = PowerSensor::new(10, 0.0, 1);
        s.sample(10, &[0.25, 1.0, 0.75]);
        let sample = &s.samples()[0];
        assert_eq!(sample.watts(C(2)), 0.75);
        assert_eq!(sample.watts(C(5)), 0.0, "missing rail reads zero");
    }
}
