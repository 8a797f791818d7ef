//! Confidence intervals on the mean.
//!
//! Figure 14 of the paper reports the mean contact rate of the node at each
//! hop of near-optimal paths with 99% confidence intervals. The sample sizes
//! involved (thousands of hops) make the normal approximation appropriate,
//! so [`ConfidenceInterval`] uses the standard `mean ± z·s/√n` construction
//! with z-scores for the commonly used levels.

use serde::{Deserialize, Serialize};

use crate::{StatsError, Summary};

/// A symmetric confidence interval on a sample mean.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// Point estimate (sample mean).
    pub mean: f64,
    /// Half-width of the interval.
    pub half_width: f64,
    /// Confidence level in (0, 1), e.g. 0.99.
    pub level: f64,
    /// Number of samples that produced the estimate.
    pub count: u64,
}

/// Returns the two-sided z-score for a given confidence level.
///
/// Exact table values are provided for the levels used in practice; other
/// levels are approximated with the Acklam/Beasley-Springer-Moro style
/// rational approximation of the normal quantile.
fn z_score(level: f64) -> f64 {
    // Common levels, matching standard normal tables.
    const TABLE: &[(f64, f64)] = &[
        (0.80, 1.281551565545),
        (0.90, 1.644853626951),
        (0.95, 1.959963984540),
        (0.98, 2.326347874041),
        (0.99, 2.575829303549),
        (0.995, 2.807033768344),
        (0.999, 3.290526731492),
    ];
    for &(l, z) in TABLE {
        if (level - l).abs() < 1e-12 {
            return z;
        }
    }
    normal_quantile(0.5 + level / 2.0)
}

/// Approximation of the standard normal quantile function (inverse CDF).
///
/// Peter Acklam's rational approximation; absolute error below 1.15e-9 over
/// the open unit interval, far more precision than needed for reporting
/// confidence intervals.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "normal_quantile requires p in (0,1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    const P_HIGH: f64 = 1.0 - P_LOW;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

impl ConfidenceInterval {
    /// Computes a confidence interval on the mean of `samples` at the given
    /// `level` (e.g. `0.99` for the paper's Fig. 14).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidLevel`] for a level outside (0, 1) and
    /// [`StatsError::EmptyInput`] when fewer than two samples are supplied
    /// (a single sample has no estimable dispersion).
    pub fn from_samples(samples: &[f64], level: f64) -> Result<Self, StatsError> {
        let summary = Summary::from_slice(samples);
        Self::from_summary(&summary, level)
    }

    /// Computes the interval from a pre-aggregated [`Summary`].
    pub fn from_summary(summary: &Summary, level: f64) -> Result<Self, StatsError> {
        if !(level > 0.0 && level < 1.0) {
            return Err(StatsError::InvalidLevel);
        }
        // The standard error needs at least two samples.
        let (Some(mean), Some(se)) = (summary.mean(), summary.std_error()) else {
            return Err(StatsError::EmptyInput);
        };
        Ok(Self { mean, half_width: z_score(level) * se, level, count: summary.count() })
    }

    /// Lower bound of the interval.
    pub fn low(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound of the interval.
    pub fn high(&self) -> f64 {
        self.mean + self.half_width
    }

    /// True if `value` lies inside the interval (inclusive).
    pub fn contains(&self, value: f64) -> bool {
        value >= self.low() && value <= self.high()
    }

    /// True if this interval and `other` overlap. Non-overlapping 99%
    /// intervals are the paper's informal criterion for calling two hop-rate
    /// means different.
    pub fn overlaps(&self, other: &ConfidenceInterval) -> bool {
        self.low() <= other.high() && other.low() <= self.high()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(ConfidenceInterval::from_samples(&[1.0], 0.95).is_err());
        assert!(ConfidenceInterval::from_samples(&[], 0.95).is_err());
        assert!(ConfidenceInterval::from_samples(&[1.0, 2.0], 0.0).is_err());
        assert!(ConfidenceInterval::from_samples(&[1.0, 2.0], 1.0).is_err());
    }

    #[test]
    fn interval_is_centred_on_mean() {
        let ci = ConfidenceInterval::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.95).unwrap();
        assert!((ci.mean - 3.0).abs() < 1e-12);
        assert!((ci.high() - ci.mean - (ci.mean - ci.low())).abs() < 1e-12);
        assert!(ci.contains(3.0));
    }

    #[test]
    fn higher_level_gives_wider_interval() {
        let samples: Vec<f64> = (0..50).map(|i| (i % 7) as f64).collect();
        let ci90 = ConfidenceInterval::from_samples(&samples, 0.90).unwrap();
        let ci99 = ConfidenceInterval::from_samples(&samples, 0.99).unwrap();
        assert!(ci99.half_width > ci90.half_width);
    }

    #[test]
    fn constant_samples_have_zero_width() {
        let ci = ConfidenceInterval::from_samples(&[5.0; 20], 0.99).unwrap();
        assert_eq!(ci.half_width, 0.0);
        assert!(ci.contains(5.0));
        assert!(!ci.contains(5.1));
    }

    #[test]
    fn overlap_detection() {
        let a = ConfidenceInterval { mean: 0.0, half_width: 1.0, level: 0.95, count: 10 };
        let b = ConfidenceInterval { mean: 1.5, half_width: 1.0, level: 0.95, count: 10 };
        let c = ConfidenceInterval { mean: 5.0, half_width: 1.0, level: 0.95, count: 10 };
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn normal_quantile_matches_table() {
        assert!((normal_quantile(0.975) - 1.959963984540).abs() < 1e-6);
        assert!((normal_quantile(0.995) - 2.575829303549).abs() < 1e-6);
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.025) + 1.959963984540).abs() < 1e-6);
    }

    #[test]
    fn z_score_falls_back_to_quantile_for_unusual_levels() {
        let z = z_score(0.93);
        assert!(z > 1.6 && z < 2.0);
    }

    proptest! {
        #[test]
        fn interval_width_shrinks_with_sample_size(base in 1.0f64..100.0) {
            // Same dispersion, more samples => narrower interval.
            let small: Vec<f64> = (0..10).map(|i| base + (i % 5) as f64).collect();
            let large: Vec<f64> = (0..1000).map(|i| base + (i % 5) as f64).collect();
            let ci_small = ConfidenceInterval::from_samples(&small, 0.95).unwrap();
            let ci_large = ConfidenceInterval::from_samples(&large, 0.95).unwrap();
            prop_assert!(ci_large.half_width <= ci_small.half_width + 1e-9);
        }

        #[test]
        fn normal_quantile_is_monotone(p1 in 0.01f64..0.99, p2 in 0.01f64..0.99) {
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(normal_quantile(lo) <= normal_quantile(hi) + 1e-9);
        }
    }
}
