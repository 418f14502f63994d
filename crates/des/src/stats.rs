//! Small summary helpers: the least-squares trend line.

/// Ordinary least-squares fit of `y = slope * x + intercept`.
///
/// Returns `None` when fewer than two *distinct* x values exist (the paper's
/// risk plots say a policy "cannot have a trend line if it does not have
/// ... too few different points").
pub fn linear_fit(points: &[(f64, f64)]) -> Option<LinearFit> {
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx <= 1e-15 {
        return None; // all x identical: vertical / undefined trend
    }
    let slope = sxy / sxx;
    Some(LinearFit {
        slope,
        intercept: my - slope * mx,
    })
}

/// Result of [`linear_fit`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinearFit {
    /// Slope of the fitted line.
    pub slope: f64,
    /// Intercept of the fitted line.
    pub intercept: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_exact_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 2.0 * i as f64 + 1.0)).collect();
        let fit = linear_fit(&pts).unwrap();
        assert!((fit.slope - 2.0).abs() < 1e-12);
        assert!((fit.intercept - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_degenerate_cases() {
        assert!(linear_fit(&[]).is_none());
        assert!(linear_fit(&[(1.0, 2.0)]).is_none());
        // All x identical -> undefined slope.
        assert!(linear_fit(&[(1.0, 2.0), (1.0, 5.0), (1.0, 9.0)]).is_none());
    }

    #[test]
    fn linear_fit_flat_line_zero_slope() {
        let fit = linear_fit(&[(0.0, 3.0), (1.0, 3.0), (2.0, 3.0)]).unwrap();
        assert!(fit.slope.abs() < 1e-12);
        assert!((fit.intercept - 3.0).abs() < 1e-12);
    }
}
