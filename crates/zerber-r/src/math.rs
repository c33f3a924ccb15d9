//! Numeric helpers: error function, Gaussian and logistic CDFs, and summary
//! statistics used by the RSTF construction and its evaluation.
//!
//! No external math crates are used; `erf` uses the
//! Abramowitz–Stegun 7.1.26 rational approximation, whose absolute error is
//! below `1.5e-7` — far below the TRS variance thresholds discussed in
//! Section 5.1.3 of the paper (~2e-5).

/// Error function approximation (Abramowitz–Stegun 7.1.26).
pub fn erf(x: f64) -> f64 {
    // erf is odd: erf(-x) = -erf(x).
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;
    let t = 1.0 / (1.0 + P * x);
    let poly = ((((A5 * t + A4) * t + A3) * t + A2) * t + A1) * t;
    sign * (1.0 - poly * (-x * x).exp())
}

/// Standard normal cumulative distribution function `Φ(x)`.
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Standard normal probability density function `φ(x)`.
pub fn std_normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Logistic sigmoid `1 / (1 + e^{-x})`, the kernel of Equation 8.
pub fn logistic(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        // Numerically stable branch for large negative x.
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Arithmetic mean of a slice (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population variance of a slice (0 for fewer than two values).
pub fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / values.len() as f64
}

/// Kolmogorov–Smirnov statistic of a sample against the uniform distribution
/// on `[0, 1]`: the maximum distance between the empirical CDF and `F(x)=x`.
///
/// Used as an alternative uniformity measure in the security experiments
/// (Section 6.2): a well-chosen σ drives this statistic towards the value
/// expected for genuinely uniform samples.
pub fn ks_uniform_statistic(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = sorted.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        let cdf_hi = (i + 1) as f64 / n;
        let cdf_lo = i as f64 / n;
        d = d.max((cdf_hi - x).abs()).max((x - cdf_lo).abs());
    }
    d
}

/// Two-sample Kolmogorov–Smirnov statistic: the maximum distance between the
/// empirical CDFs of `a` and `b`.  Used by the adversary's distribution
/// fingerprinting attack.
pub fn ks_two_sample(a: &[f64], b: &[f64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return if a.is_empty() && b.is_empty() {
            0.0
        } else {
            1.0
        };
    }
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
    sb.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
    let (na, nb) = (sa.len() as f64, sb.len() as f64);
    let (mut ia, mut ib) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while ia < sa.len() && ib < sb.len() {
        if sa[ia] <= sb[ib] {
            ia += 1;
        } else {
            ib += 1;
        }
        d = d.max((ia as f64 / na - ib as f64 / nb).abs());
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_matches_reference_values() {
        // Reference values from tables of the error function.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.5204999),
            (1.0, 0.8427008),
            (2.0, 0.9953223),
            (-1.0, -0.8427008),
        ];
        for (x, want) in cases {
            assert!((erf(x) - want).abs() < 2e-6, "erf({x})");
        }
    }

    #[test]
    fn normal_cdf_is_monotone_and_symmetric() {
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((std_normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((std_normal_cdf(-1.96) - 0.025).abs() < 1e-3);
        let mut prev = 0.0;
        for i in -40..=40 {
            let v = std_normal_cdf(f64::from(i) * 0.1);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn normal_pdf_peaks_at_zero() {
        assert!((std_normal_pdf(0.0) - 0.3989423).abs() < 1e-6);
        assert!(std_normal_pdf(0.0) > std_normal_pdf(0.5));
        assert!((std_normal_pdf(2.0) - std_normal_pdf(-2.0)).abs() < 1e-12);
    }

    #[test]
    fn logistic_is_a_cdf_shape() {
        assert!((logistic(0.0) - 0.5).abs() < 1e-12);
        assert!(logistic(10.0) > 0.9999);
        assert!(logistic(-10.0) < 0.0001);
        assert!((logistic(3.0) + logistic(-3.0) - 1.0).abs() < 1e-12);
        // Stable for extreme inputs.
        assert_eq!(logistic(-1000.0), 0.0);
        assert_eq!(logistic(1000.0), 1.0);
    }

    #[test]
    fn mean_and_variance_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!((variance(&[1.0, 2.0, 3.0]) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ks_uniform_detects_non_uniform_samples() {
        let uniform: Vec<f64> = (0..1000).map(|i| (f64::from(i) + 0.5) / 1000.0).collect();
        let clustered: Vec<f64> = (0..1000)
            .map(|i| 0.4 + 0.2 * f64::from(i) / 1000.0)
            .collect();
        assert!(ks_uniform_statistic(&uniform) < 0.01);
        assert!(ks_uniform_statistic(&clustered) > 0.3);
        assert_eq!(ks_uniform_statistic(&[]), 0.0);
    }

    #[test]
    fn ks_two_sample_distinguishes_distributions() {
        let a: Vec<f64> = (0..500).map(|i| f64::from(i) / 500.0).collect();
        let b: Vec<f64> = (0..500).map(|i| f64::from(i) / 500.0).collect();
        let c: Vec<f64> = (0..500).map(|i| (f64::from(i) / 500.0).powi(3)).collect();
        assert!(ks_two_sample(&a, &b) < 0.01);
        assert!(ks_two_sample(&a, &c) > 0.2);
        assert_eq!(ks_two_sample(&[], &[]), 0.0);
        assert_eq!(ks_two_sample(&a, &[]), 1.0);
    }
}
