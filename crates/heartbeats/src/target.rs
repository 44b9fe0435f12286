use crate::HeartbeatError;

/// A user-specified performance target band `[min, max]` with center
/// `avg`, expressed in heartbeats per second.
///
/// HARS treats performance inside the band as "achieving the target";
/// above `max` as over-performing (wasting power) and below `min` as
/// under-performing.
///
/// ```
/// use heartbeats::PerfTarget;
/// // 50 hb/s ± 10% -> band [45, 55]
/// let t = PerfTarget::from_center(50.0, 0.10)?;
/// assert!(t.satisfied_by(50.0));
/// assert!(t.is_underperforming(40.0));
/// assert!(t.is_overperforming(60.0));
/// # Ok::<(), heartbeats::HeartbeatError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfTarget {
    min: f64,
    avg: f64,
    max: f64,
}

impl PerfTarget {
    /// Creates a target band from explicit bounds.
    ///
    /// # Errors
    ///
    /// Returns [`HeartbeatError::InvalidTarget`] if `min > max`, if either
    /// bound is non-positive, or if any value is not finite.
    pub fn new(min: f64, max: f64) -> Result<Self, HeartbeatError> {
        if !(min.is_finite() && max.is_finite()) || min <= 0.0 || min > max {
            return Err(HeartbeatError::InvalidTarget { min, max });
        }
        Ok(Self {
            min,
            avg: 0.5 * (min + max),
            max,
        })
    }

    /// Creates a band centered on `center` with half-width
    /// `center * tolerance` — the paper's "50% ± 5%" style targets.
    ///
    /// # Errors
    ///
    /// Returns [`HeartbeatError::InvalidTarget`] for a non-positive center,
    /// a tolerance outside `[0, 1)`, or non-finite inputs.
    pub fn from_center(center: f64, tolerance: f64) -> Result<Self, HeartbeatError> {
        if !(center.is_finite() && tolerance.is_finite())
            || center <= 0.0
            || !(0.0..1.0).contains(&tolerance)
        {
            return Err(HeartbeatError::InvalidTarget {
                min: center * (1.0 - tolerance),
                max: center * (1.0 + tolerance),
            });
        }
        Ok(Self {
            min: center * (1.0 - tolerance),
            avg: center,
            max: center * (1.0 + tolerance),
        })
    }

    /// Lower edge of the band (`t.min` in the paper's pseudocode).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Center of the band (`t.avg`).
    pub fn avg(&self) -> f64 {
        self.avg
    }

    /// Upper edge of the band (`t.max`).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Half-width of the band, `(max - min) / 2` — the adaptation trigger
    /// threshold in Algorithm 1 of the paper.
    pub fn half_width(&self) -> f64 {
        0.5 * (self.max - self.min)
    }

    /// `true` when `rate` lies inside the band (inclusive).
    pub fn satisfied_by(&self, rate: f64) -> bool {
        rate >= self.min && rate <= self.max
    }

    /// `true` when `rate` falls below the band.
    pub fn is_underperforming(&self, rate: f64) -> bool {
        rate < self.min
    }

    /// `true` when `rate` exceeds the band.
    pub fn is_overperforming(&self, rate: f64) -> bool {
        rate > self.max
    }

    /// Algorithm 1's adaptation trigger: `|rate - avg| > (max - min)/2`.
    pub fn needs_adaptation(&self, rate: f64) -> bool {
        (rate - self.avg).abs() > self.half_width()
    }

    /// The paper's normalized performance `min(g, h) / g` where `g` is the
    /// target (center) and `h` the achieved rate: 1.0 when the target is
    /// met or exceeded, proportionally less below it. Over-performance
    /// earns no extra credit.
    pub fn normalized_performance(&self, rate: f64) -> f64 {
        debug_assert!(self.avg > 0.0);
        (rate.min(self.avg) / self.avg).max(0.0)
    }

    /// Rescales the band by `factor` (e.g. derive a 75% target from a
    /// measured maximum).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            min: self.min * factor,
            avg: self.avg * factor,
            max: self.max * factor,
        }
    }
}

impl std::fmt::Display for PerfTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:.3}, {:.3}] hb/s (avg {:.3})",
            self.min, self.max, self.avg
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_classification() {
        let t = PerfTarget::new(45.0, 55.0).unwrap();
        assert!(t.is_underperforming(44.9));
        assert!(t.satisfied_by(45.0));
        assert!(t.satisfied_by(55.0));
        assert!(t.is_overperforming(55.1));
        assert!((t.avg() - 50.0).abs() < 1e-12);
        assert!((t.half_width() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn from_center_matches_paper_notation() {
        // "50% ± 5%" of a max rate of 100 -> center 50, tolerance 0.1
        let t = PerfTarget::from_center(50.0, 0.10).unwrap();
        assert!((t.min() - 45.0).abs() < 1e-12);
        assert!((t.max() - 55.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_targets_are_rejected() {
        assert!(PerfTarget::new(10.0, 5.0).is_err());
        assert!(PerfTarget::new(-1.0, 5.0).is_err());
        assert!(PerfTarget::new(0.0, 5.0).is_err());
        assert!(PerfTarget::new(f64::NAN, 5.0).is_err());
        assert!(PerfTarget::from_center(50.0, 1.0).is_err());
        assert!(PerfTarget::from_center(-5.0, 0.1).is_err());
    }

    #[test]
    fn needs_adaptation_trigger() {
        let t = PerfTarget::new(45.0, 55.0).unwrap();
        assert!(!t.needs_adaptation(50.0));
        assert!(!t.needs_adaptation(54.9));
        assert!(t.needs_adaptation(55.1));
        assert!(t.needs_adaptation(40.0));
    }

    #[test]
    fn normalized_performance_caps_at_one() {
        let t = PerfTarget::new(45.0, 55.0).unwrap();
        assert!((t.normalized_performance(100.0) - 1.0).abs() < 1e-12);
        assert!((t.normalized_performance(50.0) - 1.0).abs() < 1e-12);
        assert!((t.normalized_performance(25.0) - 0.5).abs() < 1e-12);
        assert_eq!(t.normalized_performance(0.0), 0.0);
    }

    #[test]
    fn scaled_band() {
        let t = PerfTarget::new(40.0, 60.0).unwrap().scaled(0.5);
        assert!((t.min() - 20.0).abs() < 1e-12);
        assert!((t.max() - 30.0).abs() < 1e-12);
        assert!((t.avg() - 25.0).abs() < 1e-12);
    }
}
