//! Ordinary least-squares line fitting for the power estimator's
//! per-(cluster, frequency) models.

/// Fits `y = slope·x + intercept` to `points` by ordinary least squares.
///
/// Returns `None` when fewer than two points are given or the `x` values
/// are (numerically) coincident: the degeneracy guard is *relative* to
/// the magnitude of the `x` values, so near-identical abscissae of large
/// magnitude — where the absolute spread is pure floating-point noise —
/// are rejected instead of producing a wild slope.
///
/// ```
/// let pts = [(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)];
/// let (slope, intercept) = hars_core::linreg::fit_line(&pts).unwrap();
/// assert!((slope - 2.0).abs() < 1e-12);
/// assert!((intercept - 1.0).abs() < 1e-12);
/// ```
pub fn fit_line(points: &[(f64, f64)]) -> Option<(f64, f64)> {
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let sum_x: f64 = points.iter().map(|p| p.0).sum();
    let sum_y: f64 = points.iter().map(|p| p.1).sum();
    let mean_x = sum_x / n;
    let mean_y = sum_y / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for &(x, y) in points {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
    }
    // Degenerate-x guard, relative to the x scale: for |x| up to
    // `x_scale` the rounding noise in each `(x - mean_x)` term is of
    // order `EPSILON · x_scale`, so any sxx at or below the squared
    // noise floor carries no slope information. The `max(1.0)` keeps
    // the old absolute threshold for small-magnitude abscissae.
    let x_scale = points
        .iter()
        .map(|p| p.0.abs())
        .fold(0.0f64, f64::max)
        .max(1.0);
    if sxx <= f64::EPSILON * n * x_scale * x_scale {
        return None;
    }
    let slope = sxy / sxx;
    Some((slope, mean_y - slope * mean_x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 - 2.0)).collect();
        let (a, b) = fit_line(&pts).unwrap();
        assert!((a - 3.0).abs() < 1e-12);
        assert!((b + 2.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_recovered_approximately() {
        // Deterministic pseudo-noise.
        let pts: Vec<(f64, f64)> = (0..100)
            .map(|i| {
                let x = i as f64 / 10.0;
                let noise = ((i * 2_654_435_761_u64) % 1000) as f64 / 1000.0 - 0.5;
                (x, 0.7 * x + 1.2 + 0.05 * noise)
            })
            .collect();
        let (a, b) = fit_line(&pts).unwrap();
        assert!((a - 0.7).abs() < 0.02, "slope {a}");
        assert!((b - 1.2).abs() < 0.05, "intercept {b}");
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(fit_line(&[]).is_none());
        assert!(fit_line(&[(1.0, 2.0)]).is_none());
        assert!(fit_line(&[(1.0, 2.0), (1.0, 3.0)]).is_none(), "vertical");
    }

    #[test]
    fn large_magnitude_near_identical_x_rejected() {
        // Regression: calibration `load_product` abscissae on big boards
        // can be huge and nearly identical. The absolute guard
        // (`sxx <= EPSILON * n`) let these through — sxx ≈ 5e-9 here —
        // and the fit returned a slope of ~2e13 from pure noise.
        let pts = [(1.0e9, 0.0), (1.0e9 + 1.0e-4, 1.0e9)];
        assert!(fit_line(&pts).is_none(), "noise-level x spread must fail");
        // Same magnitude with a *real* relative spread still fits.
        let ok = [(1.0e9, 1.0), (2.0e9, 3.0), (3.0e9, 5.0)];
        let (slope, _) = fit_line(&ok).unwrap();
        assert!((slope - 2.0e-9).abs() < 1e-18, "slope {slope}");
    }

    #[test]
    fn two_points_define_the_line() {
        let (a, b) = fit_line(&[(0.0, 1.0), (2.0, 5.0)]).unwrap();
        assert!((a - 2.0).abs() < 1e-12);
        assert!((b - 1.0).abs() < 1e-12);
    }
}
