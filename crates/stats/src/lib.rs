//! # psn-stats
//!
//! Small, dependency-light statistics toolkit used throughout the PSN
//! path-diversity reproduction.
//!
//! The paper ("Diversity of Forwarding Paths in Pocket Switched Networks",
//! Erramilli et al., 2007) reports all of its results as empirical CDFs,
//! histograms, scatter plots, box plots and confidence intervals over
//! simulation output. This crate provides exactly those primitives:
//!
//! * [`Ecdf`] — empirical cumulative distribution functions (Figs. 4, 7, 10),
//! * [`Histogram`] — fixed-width binned counts (Figs. 6, 12),
//! * [`Summary`] — streaming moments, quantiles and extrema,
//! * [`BoxPlot`] — five-number summaries used for the rate-ratio plot (Fig. 15),
//! * [`ConfidenceInterval`] — normal-approximation CIs on the mean (Fig. 14),
//! * [`correlation`] — Pearson/Spearman correlation used when discussing the
//!   (absence of a) relationship between optimal path duration and time to
//!   explosion (Fig. 5).
//!
//! Everything operates on `f64` samples and is deterministic: given the same
//! sample sequence the same statistics are produced, which the test-suite and
//! benchmark harness rely on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boxplot;
pub mod confidence;
pub mod correlation;
pub mod ecdf;
pub mod histogram;
pub mod quantile;
pub mod summary;
pub mod timeseries;

pub use boxplot::BoxPlot;
pub use confidence::ConfidenceInterval;
pub use ecdf::Ecdf;
pub use histogram::Histogram;
pub use quantile::{median, quantile};
pub use summary::Summary;
pub use timeseries::BinnedSeries;

/// Errors produced by statistics constructors when fed degenerate input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// The input sample set was empty but the statistic requires at least one
    /// observation.
    EmptyInput,
    /// The input contained a NaN, which has no meaningful ordering.
    NanInput,
    /// A histogram or binned series was requested with a non-positive bin
    /// width.
    InvalidBinWidth,
    /// The requested quantile or confidence level lies outside its valid
    /// range.
    InvalidLevel,
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::EmptyInput => write!(f, "statistic requires at least one observation"),
            StatsError::NanInput => write!(f, "input contains NaN"),
            StatsError::InvalidBinWidth => write!(f, "bin width must be positive and finite"),
            StatsError::InvalidLevel => write!(f, "level must lie in the open interval (0, 1)"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Checks a slice of samples for emptiness and NaNs, returning a sorted copy.
///
/// Most statistics in this crate are order statistics, so they share this
/// validation + sort step.
pub(crate) fn validated_sorted(samples: &[f64]) -> Result<Vec<f64>, StatsError> {
    if samples.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if samples.iter().any(|x| x.is_nan()) {
        return Err(StatsError::NanInput);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    Ok(sorted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validated_sorted_rejects_empty() {
        assert_eq!(validated_sorted(&[]), Err(StatsError::EmptyInput));
    }

    #[test]
    fn validated_sorted_rejects_nan() {
        assert_eq!(validated_sorted(&[1.0, f64::NAN]), Err(StatsError::NanInput));
    }

    #[test]
    fn validated_sorted_sorts() {
        assert_eq!(validated_sorted(&[3.0, 1.0, 2.0]).unwrap(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn error_display_is_informative() {
        let messages = [
            StatsError::EmptyInput.to_string(),
            StatsError::NanInput.to_string(),
            StatsError::InvalidBinWidth.to_string(),
            StatsError::InvalidLevel.to_string(),
        ];
        for m in &messages {
            assert!(!m.is_empty());
        }
    }
}
