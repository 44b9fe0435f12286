//! The power-model calibration microbenchmark.
//!
//! The paper builds its power estimator from linear regressions over
//! data "collected by the microbenchmark, which stresses the cores and
//! memory ... configure the number of cores, frequency level, and CPU
//! utilization". This module reproduces that methodology against the
//! simulator: for each (cluster, frequency, used cores, duty cycle)
//! point it runs duty-cycle spinner threads pinned one-per-core and
//! records the mean *sensor* (noisy) cluster power.
//!
//! The sweep runs one spinner engine per (cluster, used cores, duty
//! cycle), not one per point, and derives every frequency from it bit
//! for bit. A spinner is time-based (its speed is 1 at any frequency),
//! so its cores are busy at the same instants whatever the cluster runs
//! at; and the sensor's noise draws do not depend on what it reads. Each
//! level's samples are therefore the ones a fresh engine at that level
//! takes, which [`measure_point`] runs as the reference.
//!
//! `hars-core`'s calibration fits `P = α·(C·U) + β` per (cluster,
//! frequency) to these points.

use crate::board::{BoardSpec, ClusterId, MAX_CLUSTERS};
use crate::clock::secs_to_ns;
use crate::cpuset::{CoreId, CpuSet};
use crate::engine::{power_row, Engine, EngineConfig};
use crate::error::SimError;
use crate::freq::FreqKhz;
use crate::sensor::PowerSensor;
use crate::spec::{AppSpec, ParallelismModel, SpeedProfile, WorkSource};

/// One measured calibration point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationPoint {
    /// Cluster under test.
    pub cluster: ClusterId,
    /// Frequency the cluster ran at.
    pub freq: FreqKhz,
    /// Number of cores running spinner threads.
    pub cores_used: usize,
    /// Spinner duty cycle (CPU utilization per used core).
    pub duty: f64,
    /// Mean sensor reading for the cluster over the measurement run (W).
    pub measured_watts: f64,
}

impl CalibrationPoint {
    /// The regressor the paper's model uses: `C_used · U`.
    pub fn load_product(&self) -> f64 {
        self.cores_used as f64 * self.duty
    }
}

/// Calibration sweep parameters.
#[derive(Debug, Clone)]
pub struct CalibrationConfig {
    /// Virtual seconds measured per point (longer = more sensor samples).
    pub secs_per_point: f64,
    /// Duty cycles to sweep.
    pub duties: Vec<f64>,
    /// Duty-cycle period of the spinner threads (ns).
    pub spinner_period_ns: u64,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        Self {
            secs_per_point: 3.0,
            duties: vec![0.25, 0.5, 0.75, 1.0],
            spinner_period_ns: 1_000_000,
        }
    }
}

impl CalibrationConfig {
    /// The coarse sweep of quick runs and tests: 1.1 s per point,
    /// duties 0.5 and 1.0, a 1 ms spinner period.
    pub fn quick() -> Self {
        Self {
            secs_per_point: 1.1,
            duties: vec![0.5, 1.0],
            spinner_period_ns: 1_000_000,
        }
    }
}

/// Runs the full calibration sweep for every cluster of `board`, in
/// (cluster, frequency, used cores, duty) order.
///
/// Each (cluster, used cores, duty) runs once, on a fresh engine, and
/// records every cluster's busy-core count at each sensor instant. Each
/// frequency then replays those counts through a fresh sensor with the
/// engine's period, noise and seed, fed the true power the engine would
/// read at that level: the cluster under test at the level, every other
/// cluster idle at its ladder floor, every rail in cluster order. The
/// points equal [`measure_point`]'s bit for bit (see the module docs).
///
/// # Errors
///
/// Propagates [`SimError`] from engine setup (cannot occur for a valid
/// board).
///
/// # Panics
///
/// Panics when `secs_per_point` is shorter than one sensor period.
pub fn run_calibration(
    board: &BoardSpec,
    engine_cfg: &EngineConfig,
    cal: &CalibrationConfig,
) -> Result<Vec<CalibrationPoint>, SimError> {
    let mut points = Vec::new();
    for cluster in board.cluster_ids() {
        let mut runs = Vec::new();
        for cores_used in 1..=board.cluster_size(cluster) {
            for &duty in &cal.duties {
                let trace = busy_trace(board, engine_cfg, cal, cluster, cores_used, duty)?;
                runs.push((cores_used, duty, trace));
            }
        }
        for freq in board.ladder(cluster).iter() {
            let rows = point_rows(board, cluster, freq);
            for (cores_used, duty, trace) in &runs {
                let sensor = replay(board, engine_cfg, &rows, trace);
                points.push(CalibrationPoint {
                    cluster,
                    freq,
                    cores_used: *cores_used,
                    duty: *duty,
                    measured_watts: sensor
                        .mean_watts(cluster)
                        .expect("run longer than one sensor period"),
                });
            }
        }
    }
    Ok(points)
}

/// Measures a single calibration point on a fresh engine at `freq`: the
/// reference [`run_calibration`] is tested against, bit for bit (also
/// exposed for targeted recalibration).
///
/// # Errors
///
/// Propagates [`SimError`] from engine setup.
///
/// # Panics
///
/// Panics when `secs_per_point` is shorter than one sensor period.
pub fn measure_point(
    board: &BoardSpec,
    engine_cfg: &EngineConfig,
    cal: &CalibrationConfig,
    cluster: ClusterId,
    freq: FreqKhz,
    cores_used: usize,
    duty: f64,
) -> Result<f64, SimError> {
    let mut engine = spinner_engine(board, engine_cfg, cal, cluster, freq, cores_used, duty)?;
    engine.run_until(secs_to_ns(cal.secs_per_point));
    Ok(engine
        .sensor()
        .mean_watts(cluster)
        .expect("run longer than one sensor period"))
}

/// A fresh engine with every cluster at its ladder floor but `cluster`
/// at `freq`, running `cores_used` duty-cycle spinners pinned one per
/// core from the cluster's first core.
fn spinner_engine(
    board: &BoardSpec,
    engine_cfg: &EngineConfig,
    cal: &CalibrationConfig,
    cluster: ClusterId,
    freq: FreqKhz,
    cores_used: usize,
    duty: f64,
) -> Result<Engine, SimError> {
    // `measure_point` reads the sensor's *noisy sample stream* itself,
    // so idle-span sample coalescing must stay off: a skipped sample
    // draws no noise, which would shift the RNG stream of every later
    // sample and perturb the fitted model.
    let mut cfg = engine_cfg.clone();
    cfg.coalesce_idle_sensor = false;
    let mut engine = Engine::new(board.clone(), cfg);
    // Quiesce every cluster at the lowest operating point, then raise
    // the cluster under test.
    for c in board.cluster_ids() {
        engine.set_cluster_freq(c, board.ladder(c).min())?;
    }
    engine.set_cluster_freq(cluster, freq)?;
    let spec = AppSpec {
        name: format!(
            "spinner-{}-{}-{}x{duty}",
            board.cluster_name(cluster),
            freq,
            cores_used
        ),
        threads: cores_used,
        model: ParallelismModel::DutyCycle {
            duty,
            period_ns: cal.spinner_period_ns,
        },
        speed: SpeedProfile::default(),
        work: WorkSource::Constant(1.0),
        items_per_heartbeat: 1,
        startup_work: 0.0,
        serial_frac: 0.0,
        max_heartbeats: None,
    };
    let app = engine.add_app(spec)?;
    let start = board.cluster_start(cluster).0;
    for i in 0..cores_used {
        engine.set_thread_affinity(app, i, CpuSet::single(CoreId(start + i)))?;
    }
    Ok(engine)
}

/// Runs one (cluster, used cores, duty) spinner and reads every
/// cluster's busy-core count at each sensor instant up to and including
/// `secs_per_point`: [`Engine::run_until`] processes its deadline's
/// events, so the sample there is taken before the count is read, as
/// [`measure_point`]'s run takes it.
fn busy_trace(
    board: &BoardSpec,
    engine_cfg: &EngineConfig,
    cal: &CalibrationConfig,
    cluster: ClusterId,
    cores_used: usize,
    duty: f64,
) -> Result<Vec<(u64, [f64; MAX_CLUSTERS])>, SimError> {
    // Every level runs a spinner through the same instants; take the floor.
    let floor = board.ladder(cluster).min();
    let mut engine = spinner_engine(board, engine_cfg, cal, cluster, floor, cores_used, duty)?;
    let end = secs_to_ns(cal.secs_per_point);
    let mut trace = Vec::new();
    loop {
        let t = engine.sensor().next_sample_ns();
        if t > end {
            break;
        }
        engine.run_until(t);
        trace.push((t, engine.busy_counts()));
    }
    Ok(trace)
}

/// Every cluster's power row as [`spinner_engine`] holds them: `cluster`
/// at `freq`, every other cluster at its ladder floor.
fn point_rows(board: &BoardSpec, cluster: ClusterId, freq: FreqKhz) -> Vec<Vec<f64>> {
    board
        .cluster_ids()
        .map(|c| {
            let f = if c == cluster {
                freq
            } else {
                board.ladder(c).min()
            };
            power_row(board, c, f)
        })
        .collect()
}

/// A fresh sensor with the engine's period, noise and seed, fed at each
/// instant of `trace` every cluster's true power from its row in `rows`
/// at that instant's busy count, in cluster order: the samples the
/// engine's own sensor takes, noise draws included.
fn replay(
    board: &BoardSpec,
    engine_cfg: &EngineConfig,
    rows: &[Vec<f64>],
    trace: &[(u64, [f64; MAX_CLUSTERS])],
) -> PowerSensor {
    let mut sensor = PowerSensor::new(
        board.sensor_period_ns,
        engine_cfg.sensor_noise,
        engine_cfg.seed,
    );
    for (t, busy) in trace {
        let truth: Vec<f64> = rows
            .iter()
            .zip(busy)
            .map(|(row, &b)| row[b as usize])
            .collect();
        sensor.sample(*t, &truth);
    }
    sensor
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecMode;

    fn quiet_cfg() -> EngineConfig {
        EngineConfig {
            sensor_noise: 0.0,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn full_load_point_matches_truth_model() {
        let board = BoardSpec::odroid_xu3();
        let f = FreqKhz::from_mhz(1_600);
        let watts = measure_point(
            &board,
            &quiet_cfg(),
            &CalibrationConfig::quick(),
            ClusterId::BIG,
            f,
            4,
            1.0,
        )
        .unwrap();
        let truth = crate::power::cluster_power(&board, ClusterId::BIG, f, 4.0, 4);
        assert!(
            (watts - truth).abs() < 0.05 * truth,
            "measured {watts} vs truth {truth}"
        );
    }

    #[test]
    fn duty_cycle_halves_dynamic_power() {
        let board = BoardSpec::odroid_xu3();
        let f = FreqKhz::from_mhz(1_200);
        let cfg = quiet_cfg();
        let cal = CalibrationConfig::quick();
        let full = measure_point(&board, &cfg, &cal, ClusterId::BIG, f, 2, 1.0).unwrap();
        let half = measure_point(&board, &cfg, &cal, ClusterId::BIG, f, 2, 0.5).unwrap();
        let idle = crate::power::cluster_power(&board, ClusterId::BIG, f, 0.0, 4);
        let dyn_full = full - idle;
        let dyn_half = half - idle;
        assert!(
            (dyn_half - 0.5 * dyn_full).abs() < 0.15 * dyn_full,
            "half-duty dynamic power {dyn_half} not ~half of {dyn_full}"
        );
    }

    #[test]
    fn sweep_produces_expected_point_count() {
        let board = BoardSpec::odroid_xu3();
        let cal = CalibrationConfig {
            secs_per_point: 0.6,
            duties: vec![1.0],
            spinner_period_ns: 1_000_000,
        };
        let points = run_calibration(&board, &quiet_cfg(), &cal).unwrap();
        // (6 little freqs × 4 cores + 9 big freqs × 4 cores) × 1 duty.
        assert_eq!(points.len(), (6 * 4 + 9 * 4));
        assert!(points.iter().all(|p| p.measured_watts > 0.0));
    }

    #[test]
    fn sweep_matches_a_fresh_engine_per_point() {
        // 100 ms samples put the last one exactly at the end of a 0.9 s
        // point; the duties reach both ends and the period is off the tick.
        let mut xu3 = BoardSpec::odroid_xu3();
        xu3.sensor_period_ns = 100_000_000;
        let cal = CalibrationConfig {
            secs_per_point: 0.9,
            duties: vec![0.0, 0.3, 1.0],
            spinner_period_ns: 700_000,
        };
        for board in [xu3, BoardSpec::dynamiq_1p_3m_4l()] {
            for exec in [ExecMode::FastForward, ExecMode::FixedStep] {
                let cfg = EngineConfig {
                    sensor_noise: 0.02,
                    seed: 0x5EED_CA1B,
                    exec,
                    ..EngineConfig::default()
                };
                let points = run_calibration(&board, &cfg, &cal).unwrap();
                let mut expected = Vec::new();
                for cluster in board.cluster_ids() {
                    for freq in board.ladder(cluster).iter() {
                        for cores_used in 1..=board.cluster_size(cluster) {
                            for &duty in &cal.duties {
                                expected.push((cluster, freq, cores_used, duty));
                            }
                        }
                    }
                }
                assert_eq!(points.len(), expected.len(), "{} {exec:?}", board.name);
                for (p, &(cluster, freq, cores_used, duty)) in points.iter().zip(&expected) {
                    let at = format!(
                        "{} {exec:?} {cluster:?} {freq} {cores_used}x{duty}",
                        board.name
                    );
                    assert_eq!(
                        (p.cluster, p.freq, p.cores_used, p.duty.to_bits()),
                        (cluster, freq, cores_used, duty.to_bits()),
                        "{at}"
                    );
                    let watts =
                        measure_point(&board, &cfg, &cal, cluster, freq, cores_used, duty).unwrap();
                    assert_eq!(p.measured_watts.to_bits(), watts.to_bits(), "{at}");
                }
            }
        }
    }

    #[test]
    fn replay_reproduces_every_rail_of_the_engine_sensor() {
        // Points read only the rail under test; this pins the whole
        // replayed stream, idle rails at their floor included.
        let board = BoardSpec::dynamiq_1p_3m_4l();
        let cfg = EngineConfig {
            sensor_noise: 0.02,
            seed: 0x5EED_CA1B,
            ..EngineConfig::default()
        };
        let cal = CalibrationConfig {
            secs_per_point: 0.9,
            duties: vec![0.3],
            spinner_period_ns: 700_000,
        };
        let bits = |s: &PowerSensor| -> Vec<(u64, Vec<u64>)> {
            s.samples()
                .iter()
                .map(|x| (x.time_ns, x.watts.iter().map(|w| w.to_bits()).collect()))
                .collect()
        };
        for cluster in board.cluster_ids() {
            let (n, top) = (board.cluster_size(cluster), board.ladder(cluster).max());
            let trace = busy_trace(&board, &cfg, &cal, cluster, n, 0.3).unwrap();
            let replayed = replay(&board, &cfg, &point_rows(&board, cluster, top), &trace);
            let mut engine = spinner_engine(&board, &cfg, &cal, cluster, top, n, 0.3).unwrap();
            engine.run_until(secs_to_ns(cal.secs_per_point));
            assert_eq!(replayed.samples().len(), 9);
            assert_eq!(bits(&replayed), bits(engine.sensor()), "{cluster:?}");
        }
    }

    #[test]
    fn load_product() {
        let p = CalibrationPoint {
            cluster: ClusterId::BIG,
            freq: FreqKhz::from_mhz(1_000),
            cores_used: 3,
            duty: 0.5,
            measured_watts: 1.0,
        };
        assert!((p.load_product() - 1.5).abs() < 1e-12);
    }
}
