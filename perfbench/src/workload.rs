//! The benchmark's workloads: their scenarios and study parameters, and
//! their set-up through the study pipeline's public entry points.

use psn::study::{StudyParams, StudyPlan, StudyScenario, StudySpec};
use psn::{ArtifactStore, ExperimentProfile, StudyId};
use psn_artifact::ArtifactKind;
use psn_trace::ScenarioConfig;

/// Messages of the explosion workload: a fixed prefix of the paper
/// preset's own message draw (seed `0xEC0`), sized so one study fits
/// several times into a run.
const EXPLOSION_MESSAGES: usize = 16;

/// Hot window of the streaming workload, far below the 360 slots of
/// `scaled_1k`, so cold slots are spilled and reloaded.
const STREAMING_WINDOW: usize = 64;

/// Mean message inter-arrival of the streaming workload (the paper uses
/// 4 s): a lighter load keeps one spilling study within a few seconds.
const STREAMING_INTERARRIVAL_S: f64 = 240.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ExplosionPaper,
    ForwardingPaper,
    ForwardingStreaming,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::ExplosionPaper, Workload::ForwardingPaper, Workload::ForwardingStreaming];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExplosionPaper => "explosion-paper",
            Workload::ForwardingPaper => "forwarding-paper",
            Workload::ForwardingStreaming => "forwarding-streaming",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's own copy of its scenario configuration.
    pub fn scenario_text(self) -> &'static str {
        match self {
            Workload::ExplosionPaper | Workload::ForwardingPaper => {
                include_str!("../workloads/infocom_morning.toml")
            }
            Workload::ForwardingStreaming => include_str!("../workloads/scaled_1k.toml"),
        }
    }

    pub fn study(self) -> StudyId {
        match self {
            Workload::ExplosionPaper => StudyId::Explosion,
            Workload::ForwardingPaper | Workload::ForwardingStreaming => StudyId::Forwarding,
        }
    }

    /// The study parameters. Every engine runs on one worker thread.
    pub fn params(self) -> StudyParams {
        let paper = StudyParams::for_profile(ExperimentProfile::Paper).with_threads(1);
        match self {
            Workload::ExplosionPaper => paper.with_messages(EXPLOSION_MESSAGES),
            Workload::ForwardingPaper => paper,
            Workload::ForwardingStreaming => {
                let mut params = paper.with_runs(1).with_streaming_window(Some(STREAMING_WINDOW));
                params.workload_interarrival = STREAMING_INTERARRIVAL_S;
                params
            }
        }
    }

    /// Set-ups per study rep. Set-up is short, so its median needs more
    /// samples than the study reps give; a few milliseconds per rep for
    /// both kinds of workload.
    pub fn setups_per_rep(self) -> usize {
        if self.streaming() {
            300
        } else {
            4
        }
    }

    pub fn streaming(self) -> bool {
        self.params().streaming_window.is_some()
    }
}

/// Parses the scenario text and plans the study: the part of set-up every
/// run pays, cache or no cache.
pub fn plan(workload: Workload) -> Result<StudyPlan, String> {
    let config =
        ScenarioConfig::from_toml_str(workload.scenario_text()).map_err(|e| e.to_string())?;
    StudySpec::new(workload.study(), vec![StudyScenario::from(config)], workload.params())
        .plan()
        .map_err(|e| e.to_string())
}

/// Resolves the engine inputs of every planned run through the store's
/// public resolvers — the work a warm artifact cache would skip. Streaming
/// runs fold their inputs inside the study call, so there is nothing to
/// resolve.
pub fn resolve_inputs(plan: &StudyPlan, store: &ArtifactStore) -> Result<(), String> {
    if plan.params.streaming_window.is_some() {
        return Ok(());
    }
    let delta = plan.params.delta;
    for run in &plan.runs {
        let (trace, _) = store.scenario_trace(&run.config).map_err(|e| e.to_string())?;
        let (graph, _) =
            store.spacetime_graph(&run.config, &trace, delta).map_err(|e| e.to_string())?;
        if plan.study == StudyId::Forwarding {
            store.history_timeline(&run.config, &graph, delta).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Trace, graph and timeline builds the store has made so far.
pub fn input_builds(store: &ArtifactStore) -> u64 {
    let stats = store.stats();
    [ArtifactKind::Trace, ArtifactKind::Graph, ArtifactKind::Timeline]
        .into_iter()
        .map(|kind| stats.builds_of(kind))
        .sum()
}
