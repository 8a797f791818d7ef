//! Named figure presets: the fifteen pre-refactor `fig*` binaries (plus the
//! §5.1 model-validation table) expressed as study-pipeline invocations.
//!
//! Each preset resolves to a [`StudySpec`] — which paper datasets, which
//! views, which profile-derived parameters — and [`PresetId::run`] executes
//! it through an artifact store like any other study, so a preset honours
//! `--cache` in every format. [`PresetRun::text`] renders the **exact byte
//! stream** the corresponding binary printed (header included). The golden
//! tests in `psn-bench` pin every preset's quick-profile output to captures
//! taken from the binaries before the refactor, so `psn-study run --preset
//! fig09` is a drop-in replacement for the old `fig09_delay_success`.
//!
//! Figure 2 is the one preset with no study: it prints a hardcoded
//! three-node example space-time graph rather than running a study over a
//! generated scenario, so it has nothing to cache.

use std::fmt::Write as _;

use psn_trace::DatasetId;

use super::{
    run_study_with, ArtifactStore, StudyError, StudyId, StudyParams, StudyReport, StudyScenario,
    StudySpec, StudyView,
};
use crate::config::ExperimentProfile;

/// Renders the two-line self-describing header every figure output starts
/// with.
pub fn render_header(figure: &str, profile: ExperimentProfile) -> String {
    let profile_line = match profile {
        ExperimentProfile::Paper => "paper (98 nodes, 3-hour traces)",
        ExperimentProfile::Quick => "quick (reduced scale; pass --profile paper for full scale)",
    };
    format!("# PSN path-diversity reproduction — {figure}\n# profile: {profile_line}\n")
}

/// The registry of figure presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PresetId {
    /// Fig. 1 — contact time series for all four datasets.
    Fig01,
    /// Fig. 2 — the three-node example space-time graph.
    Fig02,
    /// Fig. 4 — optimal-duration / time-to-explosion CDFs.
    Fig04,
    /// Fig. 5 — `(T₁, TE)` scatter.
    Fig05,
    /// Fig. 6 — path-arrival growth for slow explosions.
    Fig06,
    /// Fig. 7 — per-node contact-count CDFs.
    Fig07,
    /// Fig. 8 — pair-type scatter panels.
    Fig08,
    /// Fig. 9 — delay vs success rate for all four datasets.
    Fig09,
    /// Fig. 10 — delay distributions.
    Fig10,
    /// Fig. 11 — cumulative reception times.
    Fig11,
    /// Fig. 12 — paths taken by forwarding algorithms.
    Fig12,
    /// Fig. 13 — performance by pair type.
    Fig13,
    /// Fig. 14 — mean contact rate per hop (near-optimal + taken paths).
    Fig14,
    /// Fig. 15 — rate-ratio box plots.
    Fig15,
    /// §5.1 — analytic model validation.
    Model,
}

impl PresetId {
    /// Every preset, in figure order.
    pub fn all() -> [PresetId; 15] {
        [
            PresetId::Fig01,
            PresetId::Fig02,
            PresetId::Fig04,
            PresetId::Fig05,
            PresetId::Fig06,
            PresetId::Fig07,
            PresetId::Fig08,
            PresetId::Fig09,
            PresetId::Fig10,
            PresetId::Fig11,
            PresetId::Fig12,
            PresetId::Fig13,
            PresetId::Fig14,
            PresetId::Fig15,
            PresetId::Model,
        ]
    }

    /// The short CLI name (`fig01` … `fig15`, `model`).
    pub fn name(&self) -> &'static str {
        match self {
            PresetId::Fig01 => "fig01",
            PresetId::Fig02 => "fig02",
            PresetId::Fig04 => "fig04",
            PresetId::Fig05 => "fig05",
            PresetId::Fig06 => "fig06",
            PresetId::Fig07 => "fig07",
            PresetId::Fig08 => "fig08",
            PresetId::Fig09 => "fig09",
            PresetId::Fig10 => "fig10",
            PresetId::Fig11 => "fig11",
            PresetId::Fig12 => "fig12",
            PresetId::Fig13 => "fig13",
            PresetId::Fig14 => "fig14",
            PresetId::Fig15 => "fig15",
            PresetId::Model => "model",
        }
    }

    /// The name of the pre-refactor binary this preset replaces: the stem
    /// of its golden capture.
    pub fn binary_name(&self) -> &'static str {
        match self {
            PresetId::Fig01 => "fig01_contact_timeseries",
            PresetId::Fig02 => "fig02_spacetime_example",
            PresetId::Fig04 => "fig04_cdfs",
            PresetId::Fig05 => "fig05_scatter",
            PresetId::Fig06 => "fig06_growth",
            PresetId::Fig07 => "fig07_contact_cdf",
            PresetId::Fig08 => "fig08_pairtype_scatter",
            PresetId::Fig09 => "fig09_delay_success",
            PresetId::Fig10 => "fig10_delay_distributions",
            PresetId::Fig11 => "fig11_reception_times",
            PresetId::Fig12 => "fig12_paths_taken",
            PresetId::Fig13 => "fig13_pairtype_performance",
            PresetId::Fig14 => "fig14_hop_rates",
            PresetId::Fig15 => "fig15_rate_ratios",
            PresetId::Model => "model_validation",
        }
    }

    /// Looks a preset up by its CLI name ([`PresetId::name`]).
    pub fn parse(name: &str) -> Option<PresetId> {
        PresetId::all().into_iter().find(|p| p.name() == name)
    }

    /// The figure title printed in the output header — identical to the
    /// string the pre-refactor binary passed to `print_header`.
    pub fn figure_title(&self) -> &'static str {
        match self {
            PresetId::Fig01 => "Figure 1 — contact time series",
            PresetId::Fig02 => "Figure 2 — example space-time graph",
            PresetId::Fig04 => "Figure 4 — optimal duration and time-to-explosion CDFs",
            PresetId::Fig05 => "Figure 5 — T1 vs TE scatter",
            PresetId::Fig06 => "Figure 6 — path-arrival growth for slow explosions",
            PresetId::Fig07 => "Figure 7 — per-node contact-count CDFs",
            PresetId::Fig08 => "Figure 8 — pair-type scatter",
            PresetId::Fig09 => "Figure 9 — average delay vs success rate",
            PresetId::Fig10 => "Figure 10 — delay distributions",
            PresetId::Fig11 => "Figure 11 — cumulative message receptions",
            PresetId::Fig12 => "Figure 12 — paths taken by forwarding algorithms",
            PresetId::Fig13 => "Figure 13 — performance by pair type",
            PresetId::Fig14 => "Figure 14 — mean contact rate per hop",
            PresetId::Fig15 => "Figure 15 — rate ratios between consecutive hops",
            PresetId::Model => "Section 5.1 — analytic model validation",
        }
    }

    /// The study this preset runs (`None` for the Fig. 2 example, which
    /// runs no study).
    pub fn study(&self) -> Option<StudyId> {
        match self {
            PresetId::Fig01 | PresetId::Fig07 => Some(StudyId::Activity),
            PresetId::Fig02 => None,
            PresetId::Fig04 | PresetId::Fig05 | PresetId::Fig06 | PresetId::Fig08 => {
                Some(StudyId::Explosion)
            }
            PresetId::Fig09 | PresetId::Fig10 | PresetId::Fig11 | PresetId::Fig13 => {
                Some(StudyId::Forwarding)
            }
            PresetId::Fig12 => Some(StudyId::PathsTaken),
            PresetId::Fig14 | PresetId::Fig15 => Some(StudyId::HopRates),
            PresetId::Model => Some(StudyId::Model),
        }
    }

    /// The datasets the preset sweeps, in output order.
    fn datasets(&self) -> Vec<DatasetId> {
        match self {
            PresetId::Fig01 | PresetId::Fig07 | PresetId::Fig09 => DatasetId::all().to_vec(),
            PresetId::Fig04 => vec![DatasetId::Infocom06Morning, DatasetId::Infocom06Afternoon],
            PresetId::Fig10 => vec![DatasetId::Infocom06Morning, DatasetId::Conext06Morning],
            PresetId::Fig02 | PresetId::Model => Vec::new(),
            _ => vec![DatasetId::Infocom06Morning],
        }
    }

    /// The views the preset renders per dataset.
    fn views(&self) -> Vec<StudyView> {
        match self {
            PresetId::Fig01 => vec![StudyView::ActivityTimeseries],
            PresetId::Fig02 => Vec::new(),
            PresetId::Fig04 => vec![StudyView::ExplosionCdfs],
            PresetId::Fig05 => vec![StudyView::ExplosionScatter],
            PresetId::Fig06 => vec![StudyView::ExplosionGrowth],
            PresetId::Fig07 => vec![StudyView::ContactCountCdf],
            PresetId::Fig08 => vec![StudyView::ExplosionPairTypes],
            PresetId::Fig09 => vec![StudyView::DelayVsSuccess],
            PresetId::Fig10 => vec![StudyView::DelayDistributions],
            PresetId::Fig11 => vec![StudyView::ReceptionTimes],
            PresetId::Fig12 => vec![StudyView::PathsTaken],
            PresetId::Fig13 => vec![StudyView::PairTypePerformance],
            PresetId::Fig14 => vec![StudyView::HopRateProgression, StudyView::HopRatesTaken],
            PresetId::Fig15 => vec![StudyView::RateRatios],
            PresetId::Model => vec![StudyView::ModelValidation],
        }
    }

    /// Builds the study spec this preset runs at `profile` scale with
    /// `threads` workers. `None` for Fig. 2.
    pub fn spec(&self, profile: ExperimentProfile, threads: usize) -> Option<StudySpec> {
        let study = self.study()?;
        let scenarios =
            self.datasets().into_iter().map(|id| StudyScenario::dataset(id, profile)).collect();
        let params = StudyParams::for_profile(profile).with_threads(threads);
        Some(StudySpec::new(study, scenarios, params).with_views(self.views()))
    }

    /// Runs the preset at `profile` scale with `threads` workers, resolving
    /// its study through `store` (Fig. 2 runs nothing).
    pub fn run(
        &self,
        profile: ExperimentProfile,
        threads: usize,
        store: &ArtifactStore,
    ) -> Result<PresetRun, StudyError> {
        let report = match self.spec(profile, threads) {
            Some(spec) => Some(run_study_with(&spec.plan()?, store)?),
            None => None,
        };
        Ok(PresetRun { header: render_header(self.figure_title(), profile), report })
    }
}

/// One executed preset.
#[derive(Debug, Clone, PartialEq)]
pub struct PresetRun {
    header: String,
    /// The study's report; `None` for Fig. 2, which runs no study.
    pub report: Option<StudyReport>,
}

impl PresetRun {
    /// The preset's complete text output (header + body) — byte-for-byte
    /// what the pre-refactor binary printed at the same profile.
    pub fn text(&self) -> String {
        let body = match &self.report {
            Some(report) => report.render(),
            None => spacetime_example_body(),
        };
        format!("{}{body}", self.header)
    }
}

impl std::fmt::Display for PresetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The Fig. 2 body: the paper's three-node example space-time graph,
/// printed as per-slot adjacency (ported verbatim from the old
/// `fig02_spacetime_example` binary).
fn spacetime_example_body() -> String {
    use psn_spacetime::{epidemic_delivery_time, Message, SpaceTimeGraph};
    use psn_trace::contact::Contact;
    use psn_trace::node::{NodeClass, NodeRegistry};
    use psn_trace::trace::TimeWindow;
    use psn_trace::{ContactTrace, NodeId};

    // The paper's example: nodes 1 and 2 in contact during the first slot,
    // all three nodes in contact during the second slot (Δ = 10 s).
    let mut registry = NodeRegistry::new();
    for _ in 0..3 {
        registry.add(NodeClass::Mobile);
    }
    let contacts = vec![
        Contact::new(NodeId(0), NodeId(1), 0.0, 5.0)
            .unwrap_or_else(|e| unreachable!("valid by construction: {e:?}")),
        Contact::new(NodeId(0), NodeId(1), 11.0, 19.0)
            .unwrap_or_else(|e| unreachable!("valid by construction: {e:?}")),
        Contact::new(NodeId(0), NodeId(2), 12.0, 18.0)
            .unwrap_or_else(|e| unreachable!("valid by construction: {e:?}")),
        Contact::new(NodeId(1), NodeId(2), 13.0, 17.0)
            .unwrap_or_else(|e| unreachable!("valid by construction: {e:?}")),
    ];
    let trace = ContactTrace::from_contacts(
        "figure2-example",
        registry,
        TimeWindow::new(0.0, 20.0),
        contacts,
    )
    .unwrap_or_else(|e| unreachable!("valid by construction: {e:?}"));
    let graph = SpaceTimeGraph::build_default(&trace);

    let mut out = String::new();
    let _ = writeln!(out, "delta = {} s, slots = {}", graph.delta(), graph.slot_count());
    for slot in 0..graph.slot_count() {
        let _ = writeln!(out, "slot {slot} (ends at t = {:.0} s):", graph.slot_end_time(slot));
        for node in 0..graph.node_count() as u32 {
            let neighbors: Vec<String> =
                graph.neighbors(slot, NodeId(node)).iter().map(|n| n.to_string()).collect();
            let _ = writeln!(
                out,
                "  n{node}: zero-weight edges to [{}], wait edge to (n{node}, slot {})",
                neighbors.join(", "),
                slot + 1
            );
        }
    }

    // And the resulting optimal path of the paper's narrative: a message
    // from node 1 (our n0) to node 3 (our n2) created at t = 0 crosses in
    // the second slot.
    let message = Message::new(NodeId(0), NodeId(2), 0.0);
    let _ = writeln!(
        out,
        "\noptimal delivery time for {}: {:?} s",
        message,
        epidemic_delivery_time(&graph, &message)
    );
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn preset_registry_is_consistent() {
        for preset in PresetId::all() {
            assert_eq!(PresetId::parse(preset.name()), Some(preset));
            assert_eq!(PresetId::parse(preset.binary_name()), None, "{preset}: no aliases");
            assert!(!preset.figure_title().is_empty());
            match preset.study() {
                Some(study) => {
                    for view in preset.views() {
                        assert_eq!(view.study(), study, "{preset}: view/study mismatch");
                    }
                    let spec = preset.spec(ExperimentProfile::Quick, 1).unwrap();
                    assert!(spec.plan().is_ok(), "{preset}: plan must resolve");
                }
                None => assert_eq!(preset, PresetId::Fig02),
            }
        }
        assert_eq!(PresetId::parse("fig03"), None);
    }

    #[test]
    fn dataset_sweeps_match_the_old_binaries() {
        assert_eq!(PresetId::Fig01.datasets().len(), 4);
        assert_eq!(PresetId::Fig09.datasets().len(), 4);
        assert_eq!(PresetId::Fig04.datasets().len(), 2);
        assert_eq!(PresetId::Fig10.datasets().len(), 2);
        assert_eq!(PresetId::Fig05.datasets(), vec![DatasetId::Infocom06Morning]);
        assert!(PresetId::Model.datasets().is_empty());
    }

    #[test]
    fn fig02_renders_the_example_graph() {
        let run = PresetId::Fig02.run(ExperimentProfile::Quick, 1, &ArtifactStore::in_memory());
        let out = run.unwrap().text();
        assert!(out.starts_with("# PSN path-diversity reproduction — Figure 2"));
        assert!(out.contains("delta = 10 s, slots = 2"), "{out}");
        assert!(out.contains("optimal delivery time for n0->n2 @0s: Some(20.0) s"), "{out}");
    }

    #[test]
    fn header_names_the_profile() {
        let quick =
            render_header("Figure 9 — average delay vs success rate", ExperimentProfile::Quick);
        assert!(quick.contains("# profile: quick (reduced scale; pass --profile paper"));
        let paper = render_header("x", ExperimentProfile::Paper);
        assert!(paper.contains("# profile: paper (98 nodes, 3-hour traces)"));
    }
}
