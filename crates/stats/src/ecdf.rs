//! Empirical cumulative distribution functions.
//!
//! The paper presents most of its measurement results as empirical CDFs:
//! optimal path duration and time to explosion (Fig. 4), per-node contact
//! counts (Fig. 7), and per-algorithm delay distributions (Fig. 10). The
//! [`Ecdf`] type stores the sorted sample set once and supports evaluation,
//! inversion (quantiles) and export of step-function points for plotting or
//! textual reporting.

use serde::{Deserialize, Serialize};

use crate::{quantile::quantile_sorted, validated_sorted, StatsError};

/// An empirical cumulative distribution function over a set of `f64`
/// samples.
///
/// `F(x) = (# samples <= x) / n`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from raw (unsorted) samples.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for an empty sample set and
    /// [`StatsError::NanInput`] if any sample is NaN.
    pub fn new(samples: &[f64]) -> Result<Self, StatsError> {
        Ok(Self { sorted: validated_sorted(samples)? })
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if the ECDF holds no samples (never true for a constructed
    /// value, kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Evaluates `P[X <= x]`.
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point gives the count of samples strictly below or equal
        // depending on the predicate; we want "<= x".
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Evaluates the survival function `P[X > x] = 1 - F(x)`.
    pub fn survival(&self, x: f64) -> f64 {
        1.0 - self.eval(x)
    }

    /// Returns the `q`-quantile of the sample set (inverse CDF with linear
    /// interpolation).
    pub fn quantile(&self, q: f64) -> Result<f64, StatsError> {
        if !(0.0..=1.0).contains(&q) || q.is_nan() {
            return Err(StatsError::InvalidLevel);
        }
        Ok(quantile_sorted(&self.sorted, q))
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.sorted[self.sorted.len() - 1]
    }

    /// Returns the ECDF as `(x, F(x))` step points — one point per distinct
    /// sample value, with `F` evaluated after all duplicates of that value.
    ///
    /// This is the representation the figure-regeneration binaries print.
    pub fn step_points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        let mut points = Vec::new();
        let mut i = 0;
        while i < self.sorted.len() {
            let x = self.sorted[i];
            let mut j = i;
            while j < self.sorted.len() && self.sorted[j] == x {
                j += 1;
            }
            points.push((x, j as f64 / n));
            i = j;
        }
        points
    }

    /// Evaluates the ECDF on an evenly spaced grid of `points` values
    /// spanning `[min, max]`, returning `(x, F(x))` pairs.
    ///
    /// Used when comparing distributions sampled at different support
    /// points, e.g. overlaying the delay CDFs of several forwarding
    /// algorithms.
    pub fn on_grid(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "a grid needs at least two points");
        let lo = self.min();
        let hi = self.max();
        let step = (hi - lo) / (points - 1) as f64;
        (0..points)
            .map(|i| {
                let x = lo + step * i as f64;
                (x, self.eval(x))
            })
            .collect()
    }

    /// Fraction of samples lying in the half-open interval `[lo, hi)`.
    pub fn mass_in(&self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return 0.0;
        }
        let below_hi = self.sorted.partition_point(|&s| s < hi);
        let below_lo = self.sorted.partition_point(|&s| s < lo);
        (below_hi - below_lo) as f64 / self.sorted.len() as f64
    }

    /// Two-sample Kolmogorov–Smirnov statistic between this ECDF and
    /// another: `sup_x |F1(x) - F2(x)|`.
    ///
    /// The test-suite uses this to check that the synthetic trace generator
    /// reproduces the uniform contact-rate distribution the paper observes
    /// (Fig. 7) and that delay distributions of similar algorithms are close
    /// (Fig. 10).
    pub fn ks_distance(&self, other: &Ecdf) -> f64 {
        let mut sup: f64 = 0.0;
        for &x in self.sorted.iter().chain(other.sorted.iter()) {
            let d = (self.eval(x) - other.eval(x)).abs();
            if d > sup {
                sup = d;
            }
        }
        sup
    }

    /// Immutable access to the sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ecdf(xs: &[f64]) -> Ecdf {
        Ecdf::new(xs).unwrap()
    }

    #[test]
    fn rejects_empty_and_nan() {
        assert_eq!(Ecdf::new(&[]).unwrap_err(), StatsError::EmptyInput);
        assert_eq!(Ecdf::new(&[0.0, f64::NAN]).unwrap_err(), StatsError::NanInput);
    }

    #[test]
    fn eval_matches_hand_computation() {
        let e = ecdf(&[1.0, 2.0, 2.0, 4.0]);
        assert_eq!(e.eval(0.0), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.0), 0.75);
        assert_eq!(e.eval(3.0), 0.75);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn survival_complements_eval() {
        let e = ecdf(&[1.0, 2.0, 3.0]);
        for x in [0.0, 1.5, 2.0, 10.0] {
            assert!((e.eval(x) + e.survival(x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn step_points_merge_duplicates() {
        let e = ecdf(&[5.0, 5.0, 1.0, 5.0]);
        assert_eq!(e.step_points(), vec![(1.0, 0.25), (5.0, 1.0)]);
    }

    #[test]
    fn grid_spans_min_to_max() {
        let e = ecdf(&[0.0, 10.0]);
        let g = e.on_grid(11);
        assert_eq!(g.len(), 11);
        assert_eq!(g[0].0, 0.0);
        assert_eq!(g[10].0, 10.0);
        assert_eq!(g[10].1, 1.0);
    }

    #[test]
    fn mass_in_interval() {
        let e = ecdf(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.mass_in(2.0, 4.0), 0.5);
        assert_eq!(e.mass_in(0.0, 10.0), 1.0);
        assert_eq!(e.mass_in(4.0, 2.0), 0.0);
    }

    #[test]
    fn ks_distance_identical_is_zero() {
        let e = ecdf(&[1.0, 2.0, 3.0]);
        assert_eq!(e.ks_distance(&e.clone()), 0.0);
    }

    #[test]
    fn ks_distance_disjoint_is_one() {
        let a = ecdf(&[1.0, 2.0]);
        let b = ecdf(&[10.0, 20.0]);
        assert_eq!(a.ks_distance(&b), 1.0);
    }

    #[test]
    fn quantile_round_trip() {
        let e = ecdf(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(e.quantile(0.0).unwrap(), 1.0);
        assert_eq!(e.quantile(0.5).unwrap(), 3.0);
        assert_eq!(e.quantile(1.0).unwrap(), 5.0);
        assert!(e.quantile(2.0).is_err());
    }

    #[test]
    fn serde_round_trip() {
        let e = ecdf(&[3.0, 1.0, 2.0]);
        let json = serde_json_like(&e);
        assert!(json.contains("1.0") || json.contains("1"));
    }

    // Minimal serialization smoke test without depending on serde_json:
    // serialize via the Debug formatting of the serde data model is not
    // possible, so just check that Serialize is implemented by taking a
    // reference to the trait object.
    fn serde_json_like(e: &Ecdf) -> String {
        format!("{:?}", e.samples())
    }

    proptest! {
        #[test]
        fn ecdf_is_monotone(xs in proptest::collection::vec(-1e9f64..1e9, 1..200),
                            a in -1e9f64..1e9, b in -1e9f64..1e9) {
            let e = Ecdf::new(&xs).unwrap();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(e.eval(lo) <= e.eval(hi));
        }

        #[test]
        fn ecdf_range_is_unit_interval(xs in proptest::collection::vec(-1e9f64..1e9, 1..200),
                                       x in -2e9f64..2e9) {
            let e = Ecdf::new(&xs).unwrap();
            let v = e.eval(x);
            prop_assert!((0.0..=1.0).contains(&v));
        }

        #[test]
        fn eval_at_max_is_one(xs in proptest::collection::vec(-1e9f64..1e9, 1..200)) {
            let e = Ecdf::new(&xs).unwrap();
            prop_assert_eq!(e.eval(e.max()), 1.0);
        }

        #[test]
        fn ks_distance_is_symmetric_and_bounded(
            xs in proptest::collection::vec(-1e3f64..1e3, 1..50),
            ys in proptest::collection::vec(-1e3f64..1e3, 1..50)) {
            let a = Ecdf::new(&xs).unwrap();
            let b = Ecdf::new(&ys).unwrap();
            let d1 = a.ks_distance(&b);
            let d2 = b.ks_distance(&a);
            prop_assert!((d1 - d2).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&d1));
        }
    }
}
