//! Shared experiment setup: the calibrated lab environment every
//! experiment runs in.

use hars_core::calibrate::run_power_calibration;
use hars_core::{PerfEstimator, PowerEstimator};
use heartbeats::PerfTarget;
use hmp_sim::clock::secs_to_ns;
use hmp_sim::microbench::CalibrationConfig;
use hmp_sim::{BoardSpec, Engine, EngineConfig};
use workloads::Benchmark;

/// The evaluation platform: board + engine configuration + the power
/// model calibrated from the microbenchmark sweep, like the paper's
/// offline regression step. Every constructor runs its own sweep: one
/// spinner engine per (cluster, used cores, duty), whose busy instants
/// serve every frequency (32 engine runs for the XU3 at full scale).
#[derive(Debug, Clone)]
pub struct Lab {
    /// The simulated ODROID-XU3.
    pub board: BoardSpec,
    /// Engine configuration shared by all runs.
    pub engine_cfg: EngineConfig,
    /// The calibrated power estimator HARS uses.
    pub power_est: PowerEstimator,
    /// The performance estimator (`r₀ = 1.5`).
    pub perf_est: PerfEstimator,
}

impl Lab {
    /// Full-fidelity lab: complete calibration sweep with sensor noise.
    pub fn new() -> Self {
        Self::with_calibration(&CalibrationConfig::default())
    }

    /// Reduced-fidelity lab for unit tests: coarse calibration.
    pub fn quick() -> Self {
        Self::with_calibration(&CalibrationConfig::quick())
    }

    fn with_calibration(cal: &CalibrationConfig) -> Self {
        let board = BoardSpec::odroid_xu3();
        // Rate window = adaptation period: each adaptation sees only
        // post-change heartbeats, avoiding decisions on stale mixtures.
        let engine_cfg = EngineConfig {
            hb_window: 10,
            ..EngineConfig::default()
        };
        let power_est = run_power_calibration(&board, &engine_cfg, cal)
            .expect("calibration runs on a valid board");
        let perf_est = PerfEstimator::paper_default(board.base_freq);
        Self {
            board,
            engine_cfg,
            power_est,
            perf_est,
        }
    }

    /// A fresh engine for one run.
    pub fn engine(&self) -> Engine {
        Engine::new(self.board.clone(), self.engine_cfg.clone())
    }
}

impl Default for Lab {
    fn default() -> Self {
        Self::new()
    }
}

/// Measures a benchmark's *maximum achievable performance*: its global
/// heartbeat rate under the baseline configuration (all cores, maximum
/// frequencies, GTS scheduling), which is what the paper derives its
/// "50% / 75% of maximum" targets from.
pub fn measure_max_rate(lab: &Lab, bench: Benchmark, threads: usize, seed: u64) -> f64 {
    let mut engine = lab.engine();
    let spec = bench.spec_with_budget(threads, seed, 200);
    let app = engine.add_app(spec).expect("preset specs validate");
    engine.run_while_active(secs_to_ns(120.0));
    engine
        .monitor(app)
        .expect("app registered")
        .global_rate()
        .map(|r| r.heartbeats_per_sec())
        .unwrap_or(0.0)
}

/// Builds the paper's target band: `frac` of the maximum rate, ±5
/// percentage points of the maximum (so 50% ± 5% → `[0.45, 0.55]·max`).
pub fn target_for(max_rate: f64, frac: f64) -> PerfTarget {
    PerfTarget::new((frac - 0.05) * max_rate, (frac + 0.05) * max_rate)
        .expect("valid band for positive rates")
}

/// Workload seed per benchmark (fixed: experiments are deterministic).
pub fn seed_for(bench: Benchmark) -> u64 {
    0xB10B + Benchmark::ALL.iter().position(|b| *b == bench).unwrap() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hars_core::fnv::FnvHasher;
    use std::hash::Hasher;

    #[test]
    fn target_bands_match_paper_notation() {
        let t = target_for(100.0, 0.50);
        assert!((t.min() - 45.0).abs() < 1e-9);
        assert!((t.max() - 55.0).abs() < 1e-9);
        let h = target_for(100.0, 0.75);
        assert!((h.min() - 70.0).abs() < 1e-9);
        assert!((h.max() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn max_rate_is_positive_and_deterministic() {
        let lab = Lab::quick();
        let a = measure_max_rate(&lab, Benchmark::Swaptions, 8, 1);
        let b = measure_max_rate(&lab, Benchmark::Swaptions, 8, 1);
        assert!(a > 1.0, "swaptions max rate {a}");
        assert_eq!(a, b);
    }

    /// Pins the fitted α and β of every cluster and ladder level of the
    /// full-scale lab: nothing else in tier-1 runs the default sweep.
    #[test]
    fn full_scale_lab_coefficients_are_pinned() {
        let lab = Lab::new();
        let mut h = FnvHasher::new();
        for cluster in lab.board.cluster_ids() {
            for freq in lab.board.ladder(cluster).iter() {
                let c = lab.power_est.coeff(cluster, freq);
                h.write(&c.alpha.to_bits().to_le_bytes());
                h.write(&c.beta.to_bits().to_le_bytes());
            }
        }
        assert_eq!(
            h.finish(),
            0x2c68_8d82_4088_743b,
            "full-scale calibration moved"
        );
    }

    #[test]
    fn seeds_are_distinct() {
        let seeds: Vec<u64> = Benchmark::ALL.iter().map(|b| seed_for(*b)).collect();
        let mut dedup = seeds.clone();
        dedup.dedup();
        assert_eq!(seeds, dedup);
    }
}
