//! Workload-variation schedule generation.
//!
//! Real PARSEC benchmarks do not cost the same per heartbeat: bodytrack
//! alternates per-frame phases, fluidanimate has bursty frames,
//! blackscholes is almost perfectly flat. This module pre-generates
//! deterministic per-unit work schedules (phase structure × lognormal-ish
//! noise) that the simulator replays cyclically.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One phase of a cyclic phase pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Work multiplier applied during this phase.
    pub multiplier: f64,
    /// Number of consecutive units the phase lasts.
    pub units: usize,
}

impl Phase {
    /// Creates a phase.
    pub fn new(multiplier: f64, units: usize) -> Self {
        Self { multiplier, units }
    }
}

/// Parameters of a workload-variation schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationSpec {
    /// Mean work per unit (work units).
    pub base_work: f64,
    /// Coefficient of variation of multiplicative noise (0 = none).
    pub noise_cv: f64,
    /// Cyclic phase pattern (empty = single flat phase).
    pub phases: Vec<Phase>,
    /// Schedule length in units (repeated cyclically by the simulator).
    pub len: usize,
    /// RNG seed — schedules are fully deterministic.
    pub seed: u64,
}

impl VariationSpec {
    /// A flat schedule: `base_work` per unit with optional noise.
    pub fn flat(base_work: f64, noise_cv: f64, seed: u64) -> Self {
        Self {
            base_work,
            noise_cv,
            phases: Vec::new(),
            len: 256,
            seed,
        }
    }

    /// Generates the schedule.
    ///
    /// Every entry is `base_work × phase multiplier × (1 + cv·z)` with
    /// `z ~ N(0,1)`, clamped to a tenth of the base so work never goes
    /// non-positive.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`, `base_work <= 0`, or `noise_cv < 0`.
    pub fn generate(&self) -> Vec<f64> {
        assert!(self.len > 0, "schedule length must be positive");
        assert!(self.base_work > 0.0, "base work must be positive");
        assert!(self.noise_cv >= 0.0, "noise CV must be non-negative");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let phase_cycle: usize = self.phases.iter().map(|p| p.units).sum();
        let mut out = Vec::with_capacity(self.len);
        for i in 0..self.len {
            let mult = if phase_cycle == 0 {
                1.0
            } else {
                let mut pos = i % phase_cycle;
                let mut m = 1.0;
                for p in &self.phases {
                    if pos < p.units {
                        m = p.multiplier;
                        break;
                    }
                    pos -= p.units;
                }
                m
            };
            let noise = if self.noise_cv > 0.0 {
                1.0 + self.noise_cv * standard_normal(&mut rng)
            } else {
                1.0
            };
            out.push((self.base_work * mult * noise).max(self.base_work * 0.1));
        }
        out
    }
}

/// One standard-normal draw via the Box-Muller transform.
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_schedule_without_noise_is_constant() {
        let s = VariationSpec::flat(100.0, 0.0, 1).generate();
        assert_eq!(s.len(), 256);
        assert!(s.iter().all(|&w| (w - 100.0).abs() < 1e-12));
    }

    #[test]
    fn noise_preserves_mean_roughly() {
        let mut spec = VariationSpec::flat(100.0, 0.1, 7);
        spec.len = 4096;
        let s = spec.generate();
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        assert!((mean - 100.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn phases_modulate_work() {
        let spec = VariationSpec {
            base_work: 100.0,
            noise_cv: 0.0,
            phases: vec![Phase::new(1.0, 2), Phase::new(2.0, 1)],
            len: 6,
            seed: 0,
        };
        let s = spec.generate();
        assert_eq!(s, vec![100.0, 100.0, 200.0, 100.0, 100.0, 200.0]);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = VariationSpec::flat(50.0, 0.2, 42).generate();
        let b = VariationSpec::flat(50.0, 0.2, 42).generate();
        let c = VariationSpec::flat(50.0, 0.2, 43).generate();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn work_never_collapses_to_zero() {
        let s = VariationSpec::flat(100.0, 3.0, 11).generate();
        assert!(s.iter().all(|&w| w >= 10.0 - 1e-12));
    }

    #[test]
    #[should_panic(expected = "length")]
    fn zero_length_panics() {
        let mut spec = VariationSpec::flat(1.0, 0.0, 0);
        spec.len = 0;
        let _ = spec.generate();
    }
}
