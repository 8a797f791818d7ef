//! Box-and-whisker summaries.
//!
//! Figure 15 of the paper shows the distribution of the contact-rate ratio
//! `r = λ_j / λ_i` between consecutive hops of near-optimal paths as a box
//! plot per hop: the 25th/75th percentile box, the median, and whiskers. The
//! [`BoxPlot`] type computes exactly that five-number summary (plus outliers
//! under the usual 1.5·IQR rule) from a sample set.

use serde::{Deserialize, Serialize};

use crate::{quantile::quantile_sorted, validated_sorted, StatsError};

/// Five-number summary of a sample set with Tukey-style whiskers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoxPlot {
    /// Number of samples.
    pub count: usize,
    /// Minimum sample value.
    pub min: f64,
    /// 25th percentile (lower edge of the box).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile (upper edge of the box).
    pub q3: f64,
    /// Maximum sample value.
    pub max: f64,
    /// Lower whisker: smallest sample ≥ `q1 - 1.5·IQR`.
    pub whisker_low: f64,
    /// Upper whisker: largest sample ≤ `q3 + 1.5·IQR`.
    pub whisker_high: f64,
    /// Samples outside the whiskers.
    pub outliers: Vec<f64>,
}

impl BoxPlot {
    /// Computes the box-plot summary of `samples`.
    ///
    /// # Errors
    ///
    /// Returns an error for empty or NaN-containing input.
    pub fn new(samples: &[f64]) -> Result<Self, StatsError> {
        let sorted = validated_sorted(samples)?;
        let q1 = quantile_sorted(&sorted, 0.25);
        let median = quantile_sorted(&sorted, 0.5);
        let q3 = quantile_sorted(&sorted, 0.75);
        let iqr = q3 - q1;
        let low_fence = q1 - 1.5 * iqr;
        let high_fence = q3 + 1.5 * iqr;

        let (min, max) = (sorted[0], sorted[sorted.len() - 1]);
        let whisker_low = sorted.iter().copied().find(|&x| x >= low_fence).unwrap_or(min);
        let whisker_high = sorted.iter().rev().copied().find(|&x| x <= high_fence).unwrap_or(max);
        let outliers =
            sorted.iter().copied().filter(|&x| x < low_fence || x > high_fence).collect();

        Ok(Self {
            count: sorted.len(),
            min,
            q1,
            median,
            q3,
            max,
            whisker_low,
            whisker_high,
            outliers,
        })
    }

    /// Interquartile range `q3 - q1`.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Fraction of samples flagged as outliers.
    pub fn outlier_fraction(&self) -> f64 {
        self.outliers.len() as f64 / self.count as f64
    }

    /// Renders a single-line textual description used by the Fig. 15
    /// regeneration binary, e.g.
    /// `n=120 min=0.20 q1=0.90 med=1.40 q3=2.30 max=5.80`.
    pub fn render_line(&self) -> String {
        format!(
            "n={} min={:.3} q1={:.3} med={:.3} q3={:.3} max={:.3} whiskers=[{:.3},{:.3}] outliers={}",
            self.count,
            self.min,
            self.q1,
            self.median,
            self.q3,
            self.max,
            self.whisker_low,
            self.whisker_high,
            self.outliers.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_empty_and_nan() {
        assert!(BoxPlot::new(&[]).is_err());
        assert!(BoxPlot::new(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn quartiles_of_simple_set() {
        let b = BoxPlot::new(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(b.min, 1.0);
        assert_eq!(b.median, 3.0);
        assert_eq!(b.max, 5.0);
        assert_eq!(b.q1, 2.0);
        assert_eq!(b.q3, 4.0);
        assert_eq!(b.iqr(), 2.0);
        assert!(b.outliers.is_empty());
    }

    #[test]
    fn detects_outliers() {
        let mut xs: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        xs.push(1000.0);
        let b = BoxPlot::new(&xs).unwrap();
        assert_eq!(b.outliers, vec![1000.0]);
        assert!(b.whisker_high <= 20.0);
        assert!(b.outlier_fraction() > 0.0);
    }

    #[test]
    fn constant_samples_have_degenerate_box() {
        let b = BoxPlot::new(&[7.0; 10]).unwrap();
        assert_eq!(b.min, 7.0);
        assert_eq!(b.q1, 7.0);
        assert_eq!(b.median, 7.0);
        assert_eq!(b.q3, 7.0);
        assert_eq!(b.max, 7.0);
        assert!(b.outliers.is_empty());
    }

    #[test]
    fn render_line_contains_all_fields() {
        let b = BoxPlot::new(&[1.0, 2.0, 3.0]).unwrap();
        let line = b.render_line();
        for key in ["n=", "min=", "q1=", "med=", "q3=", "max=", "whiskers=", "outliers="] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }

    proptest! {
        #[test]
        fn ordering_invariants(xs in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
            let b = BoxPlot::new(&xs).unwrap();
            prop_assert!(b.min <= b.q1 + 1e-9);
            prop_assert!(b.q1 <= b.median + 1e-9);
            prop_assert!(b.median <= b.q3 + 1e-9);
            prop_assert!(b.q3 <= b.max + 1e-9);
            prop_assert!(b.whisker_low >= b.min - 1e-9);
            prop_assert!(b.whisker_high <= b.max + 1e-9);
            prop_assert!(b.whisker_low <= b.whisker_high + 1e-9);
        }

        #[test]
        fn outliers_lie_outside_whiskers(xs in proptest::collection::vec(-1e4f64..1e4, 1..300)) {
            let b = BoxPlot::new(&xs).unwrap();
            for &o in &b.outliers {
                prop_assert!(o < b.whisker_low || o > b.whisker_high);
            }
        }
    }
}
