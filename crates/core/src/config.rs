//! Experiment scale profiles.
//!
//! Every experiment can run at two scales:
//!
//! * **Paper** — the scale of the original evaluation: 98-node, 3-hour
//!   synthetic datasets, k = 2000 path enumeration, one message every 4
//!   seconds for two hours, 10 simulation runs. Used by the
//!   `--profile paper` figure presets (release builds).
//! * **Quick** — reduced populations, shorter windows, smaller k and fewer
//!   messages, preserving every structural property. Used by the integration
//!   tests and the CI smoke runs so the whole workspace stays fast to
//!   validate.
//!
//! A profile names the datasets; the study numbers of each scale (k, the
//! explosion threshold, message counts, the forwarding workload, run
//! counts) live in one place, [`crate::study::StudyParams::for_profile`].

use psn_trace::{DatasetId, SyntheticDataset};

/// The scale at which an experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentProfile {
    /// Reduced scale for tests and quick benchmarks.
    Quick,
    /// The paper's scale.
    Paper,
}

impl ExperimentProfile {
    /// The synthetic dataset configuration for `id` at this scale.
    pub fn dataset(&self, id: DatasetId) -> SyntheticDataset {
        match self {
            ExperimentProfile::Quick => SyntheticDataset::quick_config(id),
            ExperimentProfile::Paper => SyntheticDataset::paper_config(id),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::study::StudyParams;

    #[test]
    fn paper_profile_matches_paper_parameters() {
        let p = StudyParams::for_profile(ExperimentProfile::Paper);
        assert_eq!(p.explosion_threshold, 2000);
        assert_eq!(p.enumeration.k, 2000);
        assert_eq!(p.simulation_runs, 10);
        assert_eq!(p.workload_interarrival, 4.0);
        assert_eq!(p.workload_horizon, Some(7200.0));
        let ds = ExperimentProfile::Paper.dataset(DatasetId::Infocom06Morning);
        assert_eq!(ds.config.total_nodes(), 98);
    }

    #[test]
    fn quick_profile_is_smaller_but_structured() {
        let q = StudyParams::for_profile(ExperimentProfile::Quick);
        assert!(q.explosion_threshold < 2000);
        assert!(q.enumeration.k < 2000);
        assert!(q.enumeration_messages < 500);
        assert!(q.simulation_runs < 10);
        let ds = ExperimentProfile::Quick.dataset(DatasetId::Conext06Afternoon);
        assert!(ds.config.total_nodes() < 98);
        assert!(ds.config.window_seconds < 10800.0);
    }
}
