//! Correlation measures between paired samples.
//!
//! Figure 5 of the paper argues that there is *no clear relationship*
//! between optimal path duration (T₁) and time to explosion (TE). The
//! experiment driver quantifies that claim with Pearson and Spearman
//! correlation coefficients computed here, and the test-suite checks that
//! the synthetic reproduction keeps the correlation weak.

use crate::StatsError;

/// Pearson product-moment correlation coefficient of paired samples.
///
/// Returns a value in `[-1, 1]`, or an error if the slices are empty, have
/// mismatched lengths, contain NaN, or either series is constant (undefined
/// correlation).
pub fn pearson(xs: &[f64], ys: &[f64]) -> Result<f64, StatsError> {
    validate_pairs(xs, ys)?;
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_x = 0.0;
    let mut var_y = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mean_x;
        let dy = y - mean_y;
        cov += dx * dy;
        var_x += dx * dx;
        var_y += dy * dy;
    }
    if var_x == 0.0 || var_y == 0.0 {
        return Err(StatsError::EmptyInput);
    }
    Ok(cov / (var_x.sqrt() * var_y.sqrt()))
}

/// Spearman rank correlation coefficient of paired samples.
///
/// Computes Pearson correlation over mid-ranks (ties get the average rank),
/// so it is robust to the heavy-tailed delay values that appear in PSN
/// traces.
pub fn spearman(xs: &[f64], ys: &[f64]) -> Result<f64, StatsError> {
    validate_pairs(xs, ys)?;
    let rx = ranks(xs);
    let ry = ranks(ys);
    pearson(&rx, &ry)
}

fn validate_pairs(xs: &[f64], ys: &[f64]) -> Result<(), StatsError> {
    if xs.is_empty() || ys.is_empty() || xs.len() != ys.len() || xs.len() < 2 {
        return Err(StatsError::EmptyInput);
    }
    if xs.iter().chain(ys.iter()).any(|v| v.is_nan()) {
        return Err(StatsError::NanInput);
    }
    Ok(())
}

/// Assigns mid-ranks (1-based, ties averaged) to a sample slice.
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut indexed: Vec<(usize, f64)> = xs.iter().copied().enumerate().collect();
    indexed.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < indexed.len() {
        let mut j = i;
        while j < indexed.len() && indexed[j].1 == indexed[i].1 {
            j += 1;
        }
        // Average of ranks i+1 ..= j
        let avg_rank = (i + 1 + j) as f64 / 2.0;
        for k in i..j {
            out[indexed[k].0] = avg_rank;
        }
        i = j;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfectly_linear_data_has_correlation_one() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn anti_correlated_data() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((pearson(&xs, &ys).unwrap() + 1.0).abs() < 1e-12);
        assert!((spearman(&xs, &ys).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_captures_monotone_nonlinear_relationships() {
        let xs: Vec<f64> = (1..=30).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.exp().min(1e300)).collect();
        // Pearson is below 1 for the convex relationship; Spearman is exactly 1.
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        assert!(pearson(&xs, &ys).unwrap() < 1.0);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(pearson(&[], &[]).is_err());
        assert!(pearson(&[1.0], &[2.0]).is_err());
        assert!(pearson(&[1.0, 2.0], &[1.0]).is_err());
        assert!(pearson(&[1.0, f64::NAN], &[1.0, 2.0]).is_err());
        // Constant series -> undefined correlation
        assert!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn ranks_average_ties() {
        assert_eq!(ranks(&[10.0, 20.0, 20.0, 30.0]), vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn independent_constant_noise_has_low_correlation() {
        // A deterministic "uncorrelated-ish" pattern.
        let xs: Vec<f64> = (0..100).map(|i| (i as f64 * 0.7).sin()).collect();
        let ys: Vec<f64> = (0..100).map(|i| ((i + 37) as f64 * 1.3).cos()).collect();
        let r = pearson(&xs, &ys).unwrap();
        assert!(r.abs() < 0.4, "expected weak correlation, got {r}");
    }

    proptest! {
        #[test]
        fn pearson_is_bounded_and_symmetric(
            pairs in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..100)) {
            let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            if let (Ok(a), Ok(b)) = (pearson(&xs, &ys), pearson(&ys, &xs)) {
                prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&a));
                prop_assert!((a - b).abs() < 1e-9);
            }
        }

        #[test]
        fn spearman_is_invariant_to_monotone_transform(
            xs in proptest::collection::vec(0.1f64..1e3, 3..60),
            ys in proptest::collection::vec(0.1f64..1e3, 3..60)) {
            let n = xs.len().min(ys.len());
            let xs = &xs[..n];
            let ys = &ys[..n];
            if let Ok(base) = spearman(xs, ys) {
                let xs_t: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
                let transformed = spearman(&xs_t, ys).unwrap();
                prop_assert!((base - transformed).abs() < 1e-9);
            }
        }
    }
}
