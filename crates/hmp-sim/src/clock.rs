//! Virtual time base of the simulator.
//!
//! All simulator time is `u64` nanoseconds from simulation start. This
//! module provides the conversion helpers used throughout the crate so
//! unit mistakes stay in one place.

/// Nanoseconds per second.
pub const NS_PER_SEC: u64 = 1_000_000_000;

/// Converts a nanosecond count to fractional seconds.
///
/// ```
/// assert!((hmp_sim::clock::ns_to_secs(1_500_000_000) - 1.5).abs() < 1e-12);
/// ```
pub fn ns_to_secs(ns: u64) -> f64 {
    ns as f64 / NS_PER_SEC as f64
}

/// Converts fractional seconds to nanoseconds (saturating at `u64::MAX`,
/// truncating fractions below 1 ns).
///
/// ```
/// assert_eq!(hmp_sim::clock::secs_to_ns(0.25), 250_000_000);
/// ```
pub fn secs_to_ns(secs: f64) -> u64 {
    debug_assert!(secs >= 0.0, "negative duration");
    let ns = secs * NS_PER_SEC as f64;
    if ns >= u64::MAX as f64 {
        u64::MAX
    } else {
        ns as u64
    }
}

/// The engine's canonical completion-time rounding: converts the
/// closed-form seconds-until-completion of a work item into a
/// nanosecond delta, rounding *up* (an item is never complete early)
/// with a 1 ns floor (time always advances).
///
/// Both the fixed-step reference stepper and the default fast path
/// must call this one function (or its exact predicate form, the
/// crate-private `completes_within`): the ceil-and-floor is part of
/// the engine's bit-exact event timeline, and two copies of the
/// expression would be an invitation for them to drift apart.
pub fn completion_ns(secs: f64) -> u64 {
    ((secs * 1e9).ceil()).max(1.0) as u64
}

/// Exactly `completion_ns(secs) <= dt_ns`, decided without the
/// rounding: for an integer `dt_ns` in `1..2^53`, `ceil(x) <= dt` holds
/// iff `x <= dt`, and the 1 ns floor never exceeds `dt` (a NaN product
/// rounds to that floor, and is not greater than `dt` either). The
/// engine's busy fast-forward asks this once per runnable thread per
/// tick, where the `ceil` library call would be a measurable share of
/// the loop.
pub(crate) fn completes_within(secs: f64, dt_ns: u64) -> bool {
    debug_assert!((1..1 << 53).contains(&dt_ns), "dt outside the exact range");
    // "Not greater", so that NaN counts as within.
    (secs * 1e9).partial_cmp(&(dt_ns as f64)) != Some(std::cmp::Ordering::Greater)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_seconds() {
        for &s in &[0.0, 0.001, 1.0, 12.345] {
            let ns = secs_to_ns(s);
            assert!((ns_to_secs(ns) - s).abs() < 1e-9);
        }
    }

    #[test]
    fn saturation() {
        assert_eq!(secs_to_ns(1e30), u64::MAX);
    }

    #[test]
    fn completion_rounds_up_with_a_floor() {
        assert_eq!(completion_ns(0.0), 1, "time always advances");
        assert_eq!(completion_ns(1e-12), 1, "sub-ns work still costs 1 ns");
        assert_eq!(completion_ns(1.0), NS_PER_SEC);
        assert_eq!(completion_ns(1.5e-9), 2, "fractional ns round up");
    }

    #[test]
    fn completes_within_agrees_with_rounded_completion() {
        let dts = [1_u64, 2, 999, 4_000_000, 263_808_000, (1 << 53) - 1];
        let mut secs = vec![0.0, -0.0, 1e-12, f64::NAN, f64::INFINITY, 1e30];
        for &dt in &dts {
            let x = dt as f64 / 1e9;
            // Exact boundaries and their neighbours one ulp either side.
            secs.extend([x, x.next_up(), x.next_down(), 2.0 * x, 0.5 * x]);
        }
        // A deterministic spread of ordinary values.
        let mut v = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..10_000 {
            v ^= v << 13;
            v ^= v >> 7;
            v ^= v << 17;
            secs.push((v >> 11) as f64 / (1u64 << 53) as f64 * 0.01);
        }
        for &s in &secs {
            for &dt in &dts {
                assert_eq!(
                    completes_within(s, dt),
                    completion_ns(s) <= dt,
                    "secs {s:e}, dt {dt}"
                );
            }
        }
    }
}
