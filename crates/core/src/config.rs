//! Experiment scale profiles.
//!
//! Every experiment can run at two scales:
//!
//! * **Paper** — the scale of the original evaluation: 98-node, 3-hour
//!   synthetic datasets, k = 2000 path enumeration, one message every 4
//!   seconds for two hours, 10 simulation runs. Used by the
//!   figure-regeneration binaries (release builds).
//! * **Quick** — reduced populations, shorter windows, smaller k and fewer
//!   messages, preserving every structural property. Used by the integration
//!   tests and the CI smoke runs so the whole workspace stays fast to
//!   validate.

use psn_spacetime::{EnumerationConfig, MessageWorkloadConfig};
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

    /// Path-enumeration configuration (`k`, caps) at this scale.
    pub fn enumeration_config(&self) -> EnumerationConfig {
        match self {
            ExperimentProfile::Quick => EnumerationConfig::quick(100),
            ExperimentProfile::Paper => EnumerationConfig::paper(),
        }
    }

    /// The explosion threshold n such that `Tₙ` defines the explosion time
    /// (2000 in the paper, smaller at quick scale).
    pub fn explosion_threshold(&self) -> usize {
        match self {
            ExperimentProfile::Quick => 100,
            ExperimentProfile::Paper => 2000,
        }
    }

    /// Number of uniformly drawn messages for the path-enumeration study.
    pub fn enumeration_messages(&self) -> usize {
        match self {
            ExperimentProfile::Quick => 60,
            ExperimentProfile::Paper => 500,
        }
    }

    /// The forwarding workload over a trace with `nodes` nodes.
    pub fn workload(&self, nodes: usize) -> MessageWorkloadConfig {
        match self {
            ExperimentProfile::Quick => MessageWorkloadConfig {
                nodes,
                generation_horizon: 2400.0,
                mean_interarrival: 12.0,
                seed: 42,
            },
            ExperimentProfile::Paper => MessageWorkloadConfig::paper_default(nodes),
        }
    }

    /// Number of independent simulation runs to average over (the paper uses
    /// 10).
    pub fn simulation_runs(&self) -> usize {
        match self {
            ExperimentProfile::Quick => 2,
            ExperimentProfile::Paper => 10,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn paper_profile_matches_paper_parameters() {
        let p = ExperimentProfile::Paper;
        assert_eq!(p.explosion_threshold(), 2000);
        assert_eq!(p.enumeration_config().k, 2000);
        assert_eq!(p.simulation_runs(), 10);
        let workload = p.workload(98);
        assert_eq!(workload.mean_interarrival, 4.0);
        assert_eq!(workload.generation_horizon, 7200.0);
        let ds = p.dataset(DatasetId::Infocom06Morning);
        assert_eq!(ds.config.total_nodes(), 98);
    }

    #[test]
    fn quick_profile_is_smaller_but_structured() {
        let q = ExperimentProfile::Quick;
        assert!(q.explosion_threshold() < 2000);
        assert!(q.enumeration_config().k < 2000);
        assert!(q.enumeration_messages() < 500);
        assert!(q.simulation_runs() < 10);
        let ds = q.dataset(DatasetId::Conext06Afternoon);
        assert!(ds.config.total_nodes() < 98);
        assert!(ds.config.window_seconds < 10800.0);
    }
}
