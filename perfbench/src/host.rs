//! Host time, measured so that runs on a shared host compare.
//!
//! The benchmark gets a few cores of a shared machine. Other tenants
//! take those cores away for a while, which stretches wall time, and
//! load the caches and memory they share, which slows every
//! instruction; both come and go over seconds to minutes. Host time is
//! therefore measured as process CPU time, which leaves out the time
//! this process was not running (preempted inside the guest, or stolen
//! from it by the hypervisor), and converted to seconds on a reference
//! host by a fixed kernel run between iterations: a slower host
//! stretches the kernel and the program alike, while a faster program
//! shortens only the program. The kernel is code of this package only,
//! so no change to the program under test changes it.

use std::hint::black_box;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time this process has used, all threads, finished ones too (s).
pub fn cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Runs `f` and returns its result with its host wall and CPU time (s).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let (c, t) = (cpu_s(), Instant::now());
    let out = f();
    (out, t.elapsed().as_secs_f64(), cpu_s() - c)
}

/// Steps of one kernel pass.
const STEPS: u64 = 16_000_000;

/// CPU time of one kernel pass on the reference host, a 2.1 GHz Intel
/// Xeon VM core (s). Medians over 200 passes on an otherwise idle guest
/// read 0.049 to 0.060 s from one minute to the next.
const REFERENCE_PASS_S: f64 = 0.05;

/// Entries of the kernel's table: 256 KiB, larger than a core's L1 and
/// within its L2, like the simulator's working set.
const TABLE_LEN: usize = 1 << 15;

/// One kernel pass: integer hashing, floating-point updates and
/// data-dependent loads and stores over the table.
fn kernel(table: &mut [f64], seed: u64) {
    let mask = table.len() - 1;
    let mut x = seed | 1;
    for _ in 0..black_box(STEPS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & mask;
        let v = table[i] * 0.999 + (x >> 40) as f64 * 1e-9;
        table[i] = if v > 1.0 { v - 1.0 } else { v };
    }
    black_box(table);
}

/// Samples the host's speed with the kernel and converts CPU time
/// measured here into seconds on the reference host.
#[derive(Debug)]
pub struct Speedometer {
    threads: usize,
    pass_cpu_s: Vec<f64>,
}

impl Speedometer {
    /// A speedometer whose kernel keeps `threads` threads busy, as many
    /// as the workload does.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            pass_cpu_s: Vec::new(),
        }
    }

    /// Runs one kernel pass on each thread at once and records the CPU
    /// time of a pass.
    pub fn sample(&mut self) {
        let mut tables = vec![vec![0.5f64; TABLE_LEN]; self.threads];
        let ((), _, cpu) = timed(|| {
            std::thread::scope(|scope| {
                let (first, rest) = tables.split_first_mut().expect("at least one table");
                for (i, table) in rest.iter_mut().enumerate() {
                    scope.spawn(move || kernel(table, 0x9e37_79b9_7f4a_7c15 + i as u64 + 1));
                }
                kernel(first, 0x9e37_79b9_7f4a_7c15);
            })
        });
        self.pass_cpu_s.push(cpu / self.threads as f64);
    }

    /// CPU time of one kernel pass on this host (s): the trimmed mean
    /// over every sample.
    pub fn pass_cpu_s(&self) -> f64 {
        trimmed_mean(&self.pass_cpu_s)
    }

    /// `cpu_s` measured on this host, in seconds on the reference host.
    pub fn to_reference_s(&self, cpu_s: f64) -> f64 {
        cpu_s * REFERENCE_PASS_S / self.pass_cpu_s()
    }
}

/// Mean of `v` without its lowest and highest tenth (0 for an empty
/// slice): robust to the odd sample a burst of host load stretches.
pub fn trimmed_mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let cut = s.len() / 10;
    let kept = &s[cut..s.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trimmed_mean_drops_each_tenth() {
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        v[19] = 1e9;
        assert_eq!(trimmed_mean(&v), (3..=18).sum::<i32>() as f64 / 16.0);
        assert_eq!(trimmed_mean(&[2.0, 4.0]), 3.0);
        assert_eq!(trimmed_mean(&[]), 0.0);
    }

    #[test]
    fn speedometer_converts_by_the_pass_time() {
        for threads in [1, 2] {
            let mut s = Speedometer::new(threads);
            s.sample();
            s.sample();
            let pass = s.pass_cpu_s();
            assert!(pass > 0.0);
            assert!((s.to_reference_s(pass) - REFERENCE_PASS_S).abs() < 1e-12);
        }
    }
}
