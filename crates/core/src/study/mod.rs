//! The declarative study pipeline: `StudySpec` → `StudyPlan` → `StudyReport`.
//!
//! The original experiment layer was fifteen hand-rolled `fig*` binaries,
//! each hardwired to [`psn_trace::SyntheticDataset`]. This module replaces
//! that with a three-stage pipeline any scenario can flow through:
//!
//! 1. **[`StudySpec`]** — what to run: one named study from the registry
//!    ([`StudyId`]), a list of scenarios (any
//!    [`psn_trace::ScenarioConfig`] family — the paper's conference
//!    stand-ins, community-structured mobility, 1000+-node scaled
//!    populations, …), optional seed replications, the views to render and
//!    the numeric parameters ([`StudyParams`], usually derived from an
//!    [`ExperimentProfile`]).
//! 2. **[`StudyPlan`]** — the spec resolved into concrete runs: seeds
//!    expanded, views validated against the study, scenario labels made
//!    unique. Planning is cheap and infallible once constructed, so a plan
//!    can be inspected (`psn-study plan` style tooling) before paying for
//!    generation and simulation.
//! 3. **[`StudyReport`]** — the executed result: a **typed**
//!    [`ReportDoc`] of schema'd tables, series and scalars (one tagged
//!    [`Section`] per run × view), renderable through any backend in
//!    [`crate::report::render`]. [`StudyReport::render`] uses the text
//!    backend and reproduces exactly the plain-text/CSV stream the old
//!    binaries printed; the figure presets in [`preset`] are
//!    golden-file-tested against the pre-refactor binaries' byte-for-byte
//!    output.
//!
//! Scenario sweeps — grids over scenario parameters crossed with seeds —
//! are first-class specs in [`sweep`], resolving through the same
//! `StudySpec -> StudyPlan` machinery.
//!
//! Execution is parallel at every level, always through the one
//! panic-isolated worker pool, [`psn_fault::run_jobs`]: the per-run loop
//! shards (scenario × seed) cells over it, and inside a run path
//! enumeration fans message chunks out over it while the forwarding
//! simulator deals the (algorithm × run) jobs' messages into slot-major
//! lanes run on it. Worker counts never change results
//! (pinned by differential property tests in `psn-spacetime` /
//! `psn-forwarding`). The trace for each planned run is generated
//! **once** and shared by every view that needs it.

pub mod preset;
pub mod sweep;

pub use psn_artifact::{ArtifactError, ArtifactStore, CacheSource, StoreStats};

use psn_artifact::{ArtifactKey, ArtifactKind, BuiltArtifact};
use psn_forwarding::Recording;
use psn_spacetime::{EnumerationConfig, MessageGenerator, MessageWorkloadConfig};
use psn_trace::{ContactStream, ContactSummary, FingerprintHasher, ScenarioConfig, Seconds};

use crate::config::ExperimentProfile;
use crate::experiments::activity::{activity_report, ActivityReport};
use crate::experiments::explosion::{run_explosion_study_on, ExplosionStudy};
use crate::experiments::forwarding::{run_forwarding_study_on, ForwardingStudy};
use crate::experiments::hop_rates::{
    run_hop_rate_study, run_hop_rate_study_on_outcomes, HopRateStudy,
};
use crate::experiments::model::run_model_validation;
use crate::experiments::paths_taken::run_paths_taken;
use crate::report::{
    Artifact, Block, CellValue, Column, JsonRenderer, Renderer, ReportDoc, RunMeta, Scalar,
    Section, Table, TextRenderer,
};

/// The registry of named studies — one per experiment family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StudyId {
    /// Contact activity over time and per-node contact-count CDFs
    /// (Figs. 1 and 7).
    Activity,
    /// Path enumeration and the path-explosion profile (Figs. 4, 5, 6, 8).
    Explosion,
    /// The six forwarding algorithms over a message workload
    /// (Figs. 9, 10, 11, 13).
    Forwarding,
    /// Per-message path-arrival bursts vs the paths algorithms actually
    /// took (Fig. 12).
    PathsTaken,
    /// Per-hop contact-rate progression of near-optimal and taken paths
    /// (Figs. 14, 15).
    HopRates,
    /// Analytic-model validation (§5.1/§5.2); runs no scenario.
    Model,
}

impl StudyId {
    /// Every registered study.
    pub fn all() -> [StudyId; 6] {
        [
            StudyId::Activity,
            StudyId::Explosion,
            StudyId::Forwarding,
            StudyId::PathsTaken,
            StudyId::HopRates,
            StudyId::Model,
        ]
    }

    /// The CLI name of the study.
    pub fn name(&self) -> &'static str {
        match self {
            StudyId::Activity => "activity",
            StudyId::Explosion => "explosion",
            StudyId::Forwarding => "forwarding",
            StudyId::PathsTaken => "paths-taken",
            StudyId::HopRates => "hop-rates",
            StudyId::Model => "model",
        }
    }

    /// Parses a CLI study name.
    pub fn parse(name: &str) -> Option<StudyId> {
        StudyId::all().into_iter().find(|s| s.name() == name)
    }

    /// One-line description for `psn-study list`.
    pub fn description(&self) -> &'static str {
        match self {
            StudyId::Activity => "contact time series and per-node contact-count CDFs (Figs. 1, 7)",
            StudyId::Explosion => "path enumeration and explosion profiles (Figs. 4, 5, 6, 8)",
            StudyId::Forwarding => {
                "six forwarding algorithms over a workload (Figs. 9, 10, 11, 13)"
            }
            StudyId::PathsTaken => "path-arrival bursts vs paths algorithms took (Fig. 12)",
            StudyId::HopRates => "per-hop contact-rate progression (Figs. 14, 15)",
            StudyId::Model => "analytic model validation, no scenario needed (§5.1/§5.2)",
        }
    }

    /// The views this study can render, in default rendering order.
    pub fn views(&self) -> Vec<StudyView> {
        match self {
            StudyId::Activity => vec![StudyView::ActivityTimeseries, StudyView::ContactCountCdf],
            StudyId::Explosion => vec![
                StudyView::ExplosionCdfs,
                StudyView::ExplosionScatter,
                StudyView::ExplosionGrowth,
                StudyView::ExplosionPairTypes,
            ],
            StudyId::Forwarding => vec![
                StudyView::DelayVsSuccess,
                StudyView::DelayDistributions,
                StudyView::ReceptionTimes,
                StudyView::PairTypePerformance,
            ],
            StudyId::PathsTaken => vec![StudyView::PathsTaken],
            StudyId::HopRates => {
                vec![StudyView::HopRateProgression, StudyView::HopRatesTaken, StudyView::RateRatios]
            }
            StudyId::Model => vec![StudyView::ModelValidation],
        }
    }
}

impl std::fmt::Display for StudyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One renderable output series of a study (roughly, one figure panel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StudyView {
    /// Fig. 1: contacts per minute.
    ActivityTimeseries,
    /// Fig. 7: per-node contact-count CDF.
    ContactCountCdf,
    /// Fig. 4: optimal-duration and time-to-explosion CDFs.
    ExplosionCdfs,
    /// Fig. 5: `(T₁, TE)` scatter.
    ExplosionScatter,
    /// Fig. 6: path-arrival growth for slow explosions.
    ExplosionGrowth,
    /// Fig. 8: scatter split by pair type.
    ExplosionPairTypes,
    /// Fig. 9: success rate vs average delay per algorithm.
    DelayVsSuccess,
    /// Fig. 10: full delay distributions per algorithm.
    DelayDistributions,
    /// Fig. 11: cumulative receptions over time.
    ReceptionTimes,
    /// Fig. 13: performance by source/destination pair type.
    PairTypePerformance,
    /// Fig. 12: arrival bursts and each algorithm's chosen-path arrival.
    PathsTaken,
    /// Fig. 14: mean contact rate per hop of near-optimal paths.
    HopRateProgression,
    /// Fig. 14 (lower half): the same analysis over paths each algorithm
    /// actually took.
    HopRatesTaken,
    /// Fig. 15: rate-ratio box plots between consecutive hops.
    RateRatios,
    /// §5.1/§5.2 analytic-model agreement table.
    ModelValidation,
}

impl StudyView {
    /// Every view, in study/default order.
    pub fn all() -> [StudyView; 15] {
        [
            StudyView::ActivityTimeseries,
            StudyView::ContactCountCdf,
            StudyView::ExplosionCdfs,
            StudyView::ExplosionScatter,
            StudyView::ExplosionGrowth,
            StudyView::ExplosionPairTypes,
            StudyView::DelayVsSuccess,
            StudyView::DelayDistributions,
            StudyView::ReceptionTimes,
            StudyView::PairTypePerformance,
            StudyView::PathsTaken,
            StudyView::HopRateProgression,
            StudyView::HopRatesTaken,
            StudyView::RateRatios,
            StudyView::ModelValidation,
        ]
    }

    /// The CLI slug of the view (used by `--views` and as the section tag
    /// in typed reports).
    pub fn name(&self) -> &'static str {
        match self {
            StudyView::ActivityTimeseries => "activity-timeseries",
            StudyView::ContactCountCdf => "contact-count-cdf",
            StudyView::ExplosionCdfs => "explosion-cdfs",
            StudyView::ExplosionScatter => "explosion-scatter",
            StudyView::ExplosionGrowth => "explosion-growth",
            StudyView::ExplosionPairTypes => "explosion-pair-types",
            StudyView::DelayVsSuccess => "delay-vs-success",
            StudyView::DelayDistributions => "delay-distributions",
            StudyView::ReceptionTimes => "reception-times",
            StudyView::PairTypePerformance => "pair-type-performance",
            StudyView::PathsTaken => "paths-taken",
            StudyView::HopRateProgression => "hop-rate-progression",
            StudyView::HopRatesTaken => "hop-rates-taken",
            StudyView::RateRatios => "rate-ratios",
            StudyView::ModelValidation => "model-validation",
        }
    }

    /// Parses a view slug.
    pub fn parse(name: &str) -> Option<StudyView> {
        StudyView::all().into_iter().find(|v| v.name() == name)
    }

    /// The study that produces this view.
    pub fn study(&self) -> StudyId {
        match self {
            StudyView::ActivityTimeseries | StudyView::ContactCountCdf => StudyId::Activity,
            StudyView::ExplosionCdfs
            | StudyView::ExplosionScatter
            | StudyView::ExplosionGrowth
            | StudyView::ExplosionPairTypes => StudyId::Explosion,
            StudyView::DelayVsSuccess
            | StudyView::DelayDistributions
            | StudyView::ReceptionTimes
            | StudyView::PairTypePerformance => StudyId::Forwarding,
            StudyView::PathsTaken => StudyId::PathsTaken,
            StudyView::HopRateProgression | StudyView::HopRatesTaken | StudyView::RateRatios => {
                StudyId::HopRates
            }
            StudyView::ModelValidation => StudyId::Model,
        }
    }

    fn needs_explosion(&self) -> bool {
        matches!(
            self,
            StudyView::ExplosionCdfs
                | StudyView::ExplosionScatter
                | StudyView::ExplosionGrowth
                | StudyView::ExplosionPairTypes
                | StudyView::HopRateProgression
                | StudyView::RateRatios
        )
    }

    fn needs_forwarding(&self) -> bool {
        matches!(
            self,
            StudyView::DelayVsSuccess
                | StudyView::DelayDistributions
                | StudyView::ReceptionTimes
                | StudyView::PairTypePerformance
                | StudyView::HopRatesTaken
        )
    }
}

/// Parses a comma-separated list of view slugs, validated against the
/// study's registered views. Unknown or foreign views produce an error
/// listing the valid names — the `--views` CLI contract.
pub fn parse_views(study: StudyId, list: &str) -> Result<Vec<StudyView>, StudyPlanError> {
    let valid = study.views();
    let valid_names = || valid.iter().map(|v| v.name()).collect::<Vec<_>>().join(", ");
    let mut views = Vec::new();
    for raw in list.split(',') {
        let name = raw.trim();
        if name.is_empty() {
            continue;
        }
        match StudyView::parse(name) {
            Some(view) if valid.contains(&view) => {
                if !views.contains(&view) {
                    views.push(view);
                }
            }
            Some(view) => {
                return Err(StudyPlanError::new(format!(
                    "view {name:?} belongs to study {}, not {study} (valid views: {})",
                    view.study(),
                    valid_names()
                )))
            }
            None => {
                return Err(StudyPlanError::new(format!(
                    "unknown view {name:?} for study {study} (valid views: {})",
                    valid_names()
                )))
            }
        }
    }
    if views.is_empty() {
        return Err(StudyPlanError::new(format!(
            "no views selected (valid views for {study}: {})",
            valid_names()
        )));
    }
    Ok(views)
}

/// Numeric parameters of a study run, usually derived from an
/// [`ExperimentProfile`] and then tweaked.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyParams {
    /// Worker threads shared by the per-run loop, path enumeration and the
    /// forwarding simulator (`0` = one per core). Never changes results.
    // psn-analyze: cache-excluded(thread count never changes results; outputs are pinned byte-identical across worker counts)
    pub threads: usize,
    /// Slot width Δ in seconds for the space-time graph and history
    /// timeline (result-relevant: it quantizes every contact).
    pub delta: Seconds,
    /// Streaming execution: build the graph and timeline in one bounded
    /// pass over the contact-event stream, keeping only this many sealed
    /// slots hot and spilling cold slots to disk. `None` = the materialized
    /// reference engines. Never changes results (pinned by differential
    /// tests), so — like `threads` — it is excluded from cache keys.
    // psn-analyze: cache-excluded(streaming engine is pinned byte-identical to the materialized engines; window size never changes results)
    pub streaming_window: Option<usize>,
    /// Path-enumeration configuration (k, caps, Δ).
    pub enumeration: EnumerationConfig,
    /// The explosion threshold n defining `Tₙ`.
    pub explosion_threshold: usize,
    /// Number of uniformly drawn messages for the explosion study.
    pub enumeration_messages: usize,
    /// Seed of the explosion study's message workload.
    pub enumeration_message_seed: u64,
    /// Forwarding workload: absolute generation horizon in seconds, or
    /// `None` to use two thirds of the scenario's window. Either way the
    /// horizon is capped at two thirds of the window, so a profile-derived
    /// horizon (7200 s at paper scale) never generates messages that a
    /// shorter-window scenario could not possibly deliver. The paper
    /// datasets sit exactly at the cap, so preset outputs are unaffected.
    pub workload_horizon: Option<Seconds>,
    /// Forwarding workload: mean message inter-arrival time.
    pub workload_interarrival: Seconds,
    /// Forwarding workload: RNG seed.
    pub workload_seed: u64,
    /// Independent simulation runs to average over.
    pub simulation_runs: usize,
    /// Number of individual messages for the paths-taken study.
    pub paths_taken_messages: usize,
    /// Seed of the paths-taken message workload.
    pub paths_taken_seed: u64,
    /// Replications for the analytic-model validation.
    pub model_replications: usize,
}

impl StudyParams {
    /// The parameters the pre-refactor figure binaries used at `profile`
    /// scale (the golden-file tests pin presets built from these).
    pub fn for_profile(profile: ExperimentProfile) -> Self {
        let workload = profile.workload(2);
        Self {
            threads: 0,
            delta: psn_spacetime::DEFAULT_DELTA,
            streaming_window: None,
            enumeration: profile.enumeration_config(),
            explosion_threshold: profile.explosion_threshold(),
            enumeration_messages: profile.enumeration_messages(),
            enumeration_message_seed: 0xEC0,
            workload_horizon: Some(workload.generation_horizon),
            workload_interarrival: workload.mean_interarrival,
            workload_seed: workload.seed,
            simulation_runs: profile.simulation_runs(),
            paths_taken_messages: 4,
            paths_taken_seed: 88,
            model_replications: match profile {
                ExperimentProfile::Paper => 200,
                ExperimentProfile::Quick => 30,
            },
        }
    }

    /// Returns the parameters with a different worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Replaces the per-node path budget `k` (and its derived caps) — the
    /// semantics of the CLI's `--k` and of a `params.k` sweep axis. Large
    /// scenarios want much smaller budgets than the paper's 98-node
    /// datasets.
    pub fn with_k(mut self, k: usize) -> Self {
        assert!(k >= 1, "the path budget k must be at least 1");
        self.enumeration = EnumerationConfig::quick(k);
        self.explosion_threshold = self.explosion_threshold.min(50 * k);
        self
    }

    /// Replaces the message counts of the enumeration and paths-taken
    /// workloads — the CLI's `--messages` / a `params.messages` axis.
    pub fn with_messages(mut self, messages: usize) -> Self {
        self.enumeration_messages = messages;
        self.paths_taken_messages = messages;
        self
    }

    /// Replaces the independent simulation-run count — the CLI's `--runs`
    /// / a `params.runs` axis.
    pub fn with_runs(mut self, runs: usize) -> Self {
        self.simulation_runs = runs.max(1);
        self
    }

    /// Replaces the slot width Δ — the CLI's `--delta` / a `params.delta`
    /// sweep axis.
    pub fn with_delta(mut self, delta: Seconds) -> Self {
        assert!(delta > 0.0 && delta.is_finite(), "delta must be a positive slot width");
        self.delta = delta;
        self
    }

    /// Selects streaming execution with a hot window of `window` slots —
    /// the CLI's `--streaming` / `--window N`.
    pub fn with_streaming_window(mut self, window: Option<usize>) -> Self {
        self.streaming_window = window.map(|w| w.max(1));
        self
    }

    /// Feeds every **result-relevant** parameter into a fingerprint
    /// hasher. `threads` is deliberately excluded: worker counts never
    /// change results (pinned by differential tests), so they must not
    /// split cache keys.
    fn hash_into(&self, hasher: &mut FingerprintHasher) {
        let e = &self.enumeration;
        hasher.write_f64(self.delta);
        hasher.write_u64(e.k as u64);
        match e.max_delivered_paths {
            Some(v) => hasher.write_u64(v as u64),
            None => hasher.write_none(),
        }
        hasher.write_u64(e.stored_path_limit as u64);
        hasher.write_bool(e.enforce_first_preference);
        hasher.write_u64(self.explosion_threshold as u64);
        hasher.write_u64(self.enumeration_messages as u64);
        hasher.write_u64(self.enumeration_message_seed);
        match self.workload_horizon {
            Some(v) => hasher.write_f64(v),
            None => hasher.write_none(),
        }
        hasher.write_f64(self.workload_interarrival);
        hasher.write_u64(self.workload_seed);
        hasher.write_u64(self.simulation_runs as u64);
        hasher.write_u64(self.paths_taken_messages as u64);
        hasher.write_u64(self.paths_taken_seed);
        hasher.write_u64(self.model_replications as u64);
    }

    /// Canonical rendering of the result-relevant parameters — the
    /// human-readable half of the cell identity string (`threads` and
    /// `streaming_window` excluded, matching [`StudyParams::hash_into`]:
    /// neither changes results, so neither may split cache keys).
    fn identity(&self) -> String {
        let e = &self.enumeration;
        format!(
            "delta={:?} k={} max_delivered={:?} stored={} first_pref={} te={} emsgs={} eseed={} \
             horizon={:?} interarrival={:?} wseed={} runs={} ptmsgs={} ptseed={} reps={}",
            self.delta,
            e.k,
            e.max_delivered_paths,
            e.stored_path_limit,
            e.enforce_first_preference,
            self.explosion_threshold,
            self.enumeration_messages,
            self.enumeration_message_seed,
            self.workload_horizon,
            self.workload_interarrival,
            self.workload_seed,
            self.simulation_runs,
            self.paths_taken_messages,
            self.paths_taken_seed,
            self.model_replications
        )
    }

    /// The forwarding workload for a scenario with `nodes` nodes over
    /// `window_seconds`.
    fn forwarding_workload(&self, nodes: usize, window_seconds: Seconds) -> MessageWorkloadConfig {
        let cap = (window_seconds * 2.0 / 3.0).max(1.0);
        MessageWorkloadConfig {
            nodes,
            generation_horizon: self.workload_horizon.map_or(cap, |h| h.min(cap)),
            mean_interarrival: self.workload_interarrival,
            seed: self.workload_seed,
        }
    }
}

/// One scenario entry of a spec: the generator configuration plus the label
/// report sections carry.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyScenario {
    /// Section label (a dataset label like "Infocom06 9-12" for the paper
    /// presets, or the scenario name for config-driven runs).
    pub label: String,
    /// The generator configuration.
    pub config: ScenarioConfig,
    /// Per-run study-parameter overrides (`None` = the spec's shared
    /// params). Set by `params.*` sweep axes, where cells vary k, message
    /// counts or run counts over one shared scenario.
    pub params: Option<StudyParams>,
}

impl From<ScenarioConfig> for StudyScenario {
    fn from(config: ScenarioConfig) -> Self {
        Self { label: config.name(), config, params: None }
    }
}

impl StudyScenario {
    /// The paper dataset `id` at `profile` scale, labelled the way the
    /// figures label it.
    pub fn dataset(id: psn_trace::DatasetId, profile: ExperimentProfile) -> Self {
        Self { label: id.label().to_string(), config: profile.dataset(id).into(), params: None }
    }
}

/// A declarative description of one study invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct StudySpec {
    /// Which study to run.
    pub study: StudyId,
    /// The scenarios to run it over (empty is valid only for
    /// [`StudyId::Model`]).
    pub scenarios: Vec<StudyScenario>,
    /// Extra generator seeds: every scenario is re-run once per listed seed
    /// (in addition to its configured seed) as an independent replication.
    pub extra_seeds: Vec<u64>,
    /// The views to render; empty means every view of the study.
    pub views: Vec<StudyView>,
    /// Numeric parameters.
    pub params: StudyParams,
}

/// Errors detected while resolving a [`StudySpec`] into a [`StudyPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudyPlanError {
    message: String,
}

impl StudyPlanError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self { message: message.into() }
    }
}

impl std::fmt::Display for StudyPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "study plan error: {}", self.message)
    }
}

impl std::error::Error for StudyPlanError {}

/// How execution responds to a failing cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RunPolicy {
    /// Stop at the first cell failure and report it (the default).
    #[default]
    FailFast,
    /// Finish every remaining cell; failed cells are recorded in
    /// [`StudyReport::failures`] and summarized in a typed
    /// `failure-summary` section appended to the report.
    KeepGoing,
}

/// The typed record of one cell (planned run) that failed to execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// The failed run's label.
    pub label: String,
    /// What went wrong — a panic message or an artifact-layer error.
    pub message: String,
    /// True when the cell's workers panicked (as opposed to returning a
    /// typed error).
    pub panicked: bool,
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell {:?} {}: {}",
            self.label,
            if self.panicked { "panicked" } else { "failed" },
            self.message
        )
    }
}

/// Why a study (or sweep) failed to execute. The CLI maps each variant to
/// a distinct exit code: plan errors are configuration mistakes, artifact
/// errors are cache problems, cell errors are execution failures.
#[derive(Debug)]
pub enum StudyError {
    /// The spec could not be resolved into a plan.
    Plan(StudyPlanError),
    /// The artifact layer refused a resolution (identity collision,
    /// unusable cache directory).
    Artifact(ArtifactError),
    /// A cell failed under [`RunPolicy::FailFast`].
    Cell(CellFailure),
}

impl std::fmt::Display for StudyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StudyError::Plan(e) => write!(f, "{e}"),
            StudyError::Artifact(e) => write!(f, "{e}"),
            StudyError::Cell(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StudyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StudyError::Plan(e) => Some(e),
            StudyError::Artifact(e) => Some(e),
            StudyError::Cell(_) => None,
        }
    }
}

impl From<StudyPlanError> for StudyError {
    fn from(e: StudyPlanError) -> Self {
        StudyError::Plan(e)
    }
}

impl From<ArtifactError> for StudyError {
    fn from(e: ArtifactError) -> Self {
        StudyError::Artifact(e)
    }
}

impl StudySpec {
    /// Creates a spec running every view of `study` over `scenarios`.
    pub fn new(study: StudyId, scenarios: Vec<StudyScenario>, params: StudyParams) -> Self {
        Self { study, scenarios, extra_seeds: Vec::new(), views: Vec::new(), params }
    }

    /// Restricts the spec to specific views.
    pub fn with_views(mut self, views: Vec<StudyView>) -> Self {
        self.views = views;
        self
    }

    /// Adds seed replications.
    pub fn with_extra_seeds(mut self, seeds: Vec<u64>) -> Self {
        self.extra_seeds = seeds;
        self
    }

    /// Resolves the spec into a concrete plan: expands seed replications,
    /// validates views against the study, and checks labels are unique.
    pub fn plan(&self) -> Result<StudyPlan, StudyPlanError> {
        let mut views = if self.views.is_empty() { self.study.views() } else { self.views.clone() };
        // A repeated view would duplicate sections and work.
        let mut seen = Vec::with_capacity(views.len());
        views.retain(|v| {
            let fresh = !seen.contains(v);
            seen.push(*v);
            fresh
        });
        for view in &views {
            if view.study() != self.study {
                return Err(StudyPlanError::new(format!(
                    "view {view:?} belongs to study {}, not {}",
                    view.study(),
                    self.study
                )));
            }
        }
        if self.scenarios.is_empty() && self.study != StudyId::Model {
            return Err(StudyPlanError::new(format!(
                "study {} needs at least one scenario",
                self.study
            )));
        }

        let mut runs = Vec::new();
        for scenario in &self.scenarios {
            runs.push(PlannedRun {
                label: scenario.label.clone(),
                config: scenario.config.clone(),
                params: scenario.params.clone(),
            });
            for &seed in &self.extra_seeds {
                runs.push(PlannedRun {
                    label: format!("{} (seed {seed})", scenario.label),
                    config: scenario.config.with_seed(seed),
                    params: scenario.params.clone(),
                });
            }
        }
        let mut labels: Vec<&str> = runs.iter().map(|r| r.label.as_str()).collect();
        labels.sort_unstable();
        if let Some(w) = labels.windows(2).find(|w| w[0] == w[1]) {
            return Err(StudyPlanError::new(format!("duplicate scenario label {:?}", w[0])));
        }

        Ok(StudyPlan { study: self.study, runs, views, params: self.params.clone() })
    }
}

/// One concrete trace-generation + analysis run of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedRun {
    /// Section label.
    pub label: String,
    /// The resolved scenario configuration (seed replication applied).
    pub config: ScenarioConfig,
    /// Per-run study-parameter overrides (`None` = the plan's shared
    /// params).
    pub params: Option<StudyParams>,
}

impl PlannedRun {
    /// The effective parameters of this run under `plan_params`.
    pub fn effective_params<'a>(&'a self, plan_params: &'a StudyParams) -> &'a StudyParams {
        self.params.as_ref().unwrap_or(plan_params)
    }
}

/// A resolved, validated study plan — the unit [`run_study`] executes.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyPlan {
    /// Which study runs.
    pub study: StudyId,
    /// The concrete runs, in report order.
    pub runs: Vec<PlannedRun>,
    /// The views rendered per run, in report order.
    pub views: Vec<StudyView>,
    /// Numeric parameters.
    pub params: StudyParams,
}

impl StudyPlan {
    /// A human-readable summary of what will run (for `psn-study` dry
    /// output and logging).
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("study: {}\n", self.study);
        let views: Vec<&str> = self.views.iter().map(|v| v.name()).collect();
        let _ = writeln!(out, "views: [{}]", views.join(", "));
        let _ = writeln!(out, "threads: {} (0 = one per core)", self.params.threads);
        for run in &self.runs {
            let p = run.effective_params(&self.params);
            let overrides = if run.params.is_some() {
                format!(
                    ", params k={} messages={} runs={}",
                    p.enumeration.k, p.enumeration_messages, p.simulation_runs
                )
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "run: {:?} — {} ({} nodes, {:.0} s window, seed {}{overrides})",
                run.label,
                run.config.kind(),
                run.config.node_count(),
                run.config.window_seconds(),
                run.config.seed()
            );
        }
        out
    }
}

/// Cache provenance of one executed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCache {
    /// The run's section label.
    pub label: String,
    /// Where the run's sections came from: computed, or served from the
    /// artifact store's memory/disk tier.
    pub source: CacheSource,
}

/// The executed result of a [`StudyPlan`]: a typed report document plus
/// the study tag.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyReport {
    /// The study that ran.
    pub study: StudyId,
    /// The typed report: one tagged section per (run, view) — or several,
    /// for views that emit one section per case/algorithm — in plan order.
    pub doc: ReportDoc,
    /// Per-run cache provenance, in plan order (empty for the model
    /// study). Deliberately *outside* [`StudyReport::doc`]: cold and warm
    /// runs must render byte-identical reports, so provenance can never be
    /// report content.
    pub cache: Vec<RunCache>,
    /// Cells that failed under [`RunPolicy::KeepGoing`], in plan order
    /// (always empty under fail-fast, which surfaces the first failure as
    /// a [`StudyError::Cell`] instead). When non-empty, the report's last
    /// section is the typed `failure-summary` over these records.
    pub failures: Vec<CellFailure>,
}

impl StudyReport {
    /// Renders the report through the text backend — the exact byte stream
    /// the pre-refactor binaries printed after their header.
    pub fn render(&self) -> String {
        TextRenderer.render_text(&self.doc)
    }

    /// Renders the report through any backend.
    pub fn render_with(&self, renderer: &dyn Renderer) -> Vec<Artifact> {
        renderer.render(&self.doc)
    }

    /// The sections belonging to one scenario label.
    pub fn sections_for(&self, scenario: &str) -> Vec<&Section> {
        self.doc.sections_for(scenario)
    }
}

/// Per-run engine outputs, computed once and shared across views.
struct RunOutputs {
    explosion: Option<ExplosionStudy>,
    forwarding: Option<ForwardingStudy>,
    activity: Option<ActivityReport>,
    hop_rates: Option<HopRateStudy>,
}

fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
}

/// Tags a built section with its run, view and generator metadata.
fn tag(mut section: Section, run: &PlannedRun, view: StudyView) -> Section {
    section.scenario = run.label.clone();
    section.view = view.name().to_string();
    section.run = Some(RunMeta {
        scenario_kind: run.config.kind().to_string(),
        seed: run.config.seed(),
        nodes: run.config.node_count(),
        window_seconds: run.config.window_seconds(),
    });
    section
}

/// The content address of one run's result sections: everything that
/// determines the bytes — study, views, section label, the scenario's
/// structural fingerprint and the result-relevant parameters. Returns the
/// key plus the canonical identity string stores compare on every hit to
/// rule hash collisions out. Worker-thread counts are excluded on both
/// sides (they never change results).
fn cell_key(
    study: StudyId,
    views: &[StudyView],
    run: &PlannedRun,
    params: &StudyParams,
) -> (ArtifactKey, String) {
    let mut hasher = FingerprintHasher::new("psn-cell/1");
    hasher.write_str(study.name());
    for view in views {
        hasher.write_str(view.name());
    }
    hasher.write_str(&run.label);
    hasher.write_fingerprint(run.config.fingerprint());
    params.hash_into(&mut hasher);
    let view_names: Vec<&str> = views.iter().map(|v| v.name()).collect();
    let identity = format!(
        "study={} views=[{}] label={:?} params[{}] scenario={}",
        study.name(),
        view_names.join(","),
        run.label,
        params.identity(),
        run.config.canonical_identity()
    );
    (ArtifactKey { kind: ArtifactKind::Result, fingerprint: hasher.finish() }, identity)
}

/// The result fingerprint of every planned run, in plan order — what
/// `psn-study sweep --resume` checks against the disk tier to report, up
/// front, how many cells an interrupted sweep already completed.
pub fn planned_result_fingerprints(plan: &StudyPlan) -> Vec<(String, psn_trace::Fingerprint)> {
    plan.runs
        .iter()
        .map(|run| {
            let (key, _) =
                cell_key(plan.study, &plan.views, run, run.effective_params(&plan.params));
            (run.label.clone(), key.fingerprint)
        })
        .collect()
}

/// Rough byte weight of cached result sections, for the store's LRU
/// budget. Counts the bulk carriers (table cells, series points, strings);
/// exact allocator overhead does not matter at budget granularity.
fn sections_approx_bytes(sections: &[Section]) -> usize {
    let mut bytes = 0usize;
    for section in sections {
        bytes += 256 + section.scenario.len() + section.view.len();
        bytes += section.stats.len() * 64;
        for block in &section.blocks {
            bytes += match block {
                Block::Title(s) | Block::Heading(s) | Block::Note(s) => 32 + s.len(),
                Block::Scalar(_) => 64,
                Block::Table(t) => {
                    128 + t.rows.len() * t.columns.len() * 24
                        + t.columns.iter().map(|c| c.name.len()).sum::<usize>()
                }
                Block::Series(s) => 128 + s.points.len() * 16,
            };
        }
    }
    bytes
}

/// Resolves one run's result through the artifact store: a memoized
/// result (memory or disk tier) is served without touching the engines;
/// otherwise the sections are computed — via store-shared
/// trace/graph/timeline artifacts — then cached. Returns the provenance
/// alongside the sections.
fn run_one(
    plan: &StudyPlan,
    run: &PlannedRun,
    threads: usize,
    store: &ArtifactStore,
) -> Result<(CacheSource, Vec<Section>), ArtifactError> {
    let params = run.effective_params(&plan.params);
    let (key, identity) = cell_key(plan.study, &plan.views, run, params);
    let (sections, source) = store.get_or_build(key, &identity, || {
        if let Some(text) = store.load_result_text(key.fingerprint, &identity) {
            // `parse(render(doc)) == doc` holds for every study (the
            // round-trip tests pin it), so disk-served sections are
            // value-identical to the cold computation and re-render to the
            // same bytes.
            match JsonRenderer.parse(&text) {
                Ok(doc) => {
                    return Ok(BuiltArtifact {
                        bytes: text.len(),
                        value: doc.sections,
                        source: CacheSource::Disk,
                    });
                }
                // A payload that passed the sidecar check but does not
                // parse is corruption: quarantine it and rebuild.
                Err(e) => store.quarantine_result_text(
                    key.fingerprint,
                    &format!("result payload failed to parse: {e}"),
                ),
            }
        }
        let sections = compute_run_sections(plan, run, params, threads, store)?;
        if store.disk().is_some() {
            let mut doc = ReportDoc::new(plan.study.name());
            doc.sections = sections.clone();
            store.store_result_text(key.fingerprint, &identity, &JsonRenderer.render_json(&doc));
        }
        Ok(BuiltArtifact {
            bytes: sections_approx_bytes(&sections),
            value: sections,
            source: CacheSource::Built,
        })
    })?;
    Ok((source, (*sections).clone()))
}

/// One run's engine inputs: the contact summary every engine reads, and
/// the space-time graph and history timeline when a view needs them.
type RunInputs = (
    ContactSummary,
    Option<psn_spacetime::SharedGraph>,
    Option<std::sync::Arc<psn_forwarding::HistoryTimeline>>,
);

/// Resolves one run's [`RunInputs`]: through the artifact store in
/// materialized mode, or from one pass over the scenario's contact stream
/// in streaming mode.
fn run_inputs(
    plan: &StudyPlan,
    run: &PlannedRun,
    p: &StudyParams,
    store: &ArtifactStore,
) -> Result<RunInputs, ArtifactError> {
    let needs_explosion = plan.views.iter().any(StudyView::needs_explosion);
    let needs_forwarding = plan.views.iter().any(StudyView::needs_forwarding);
    let has_paths_taken = plan.views.contains(&StudyView::PathsTaken);
    // The inputs are resolved up front (not per engine): enumeration reads
    // the Δ-slotted graph, the simulator only the timeline (a
    // forwarding-only plan builds no graph), and every engine its trace
    // aggregates from the one summary. Materialized mode memoizes the
    // trace, graph and timeline through the artifact store, shared across
    // runs, seeds and sweep cells, and folds the summary and timeline from
    // the cached trace. Streaming mode never touches the trace artifact:
    // one pass over the scenario's O(1)-state stream folds the summary and
    // whatever the plan needs, pinned bit-identical to materialized mode by
    // differential tests — which is why `streaming_window` stays out of
    // cache keys.
    let needs_graph = needs_explosion || has_paths_taken;
    let needs_timeline = needs_forwarding || has_paths_taken;
    // The forwarding oracle is the only consumer of the O(nodes²) pair
    // matrix; enumeration/activity-only studies fold per-node state only.
    let needs_pair_counts = needs_timeline;
    Ok(match p.streaming_window {
        None => {
            let (trace, _) = store.scenario_trace(&run.config)?;
            let mut summary = if needs_pair_counts {
                ContactSummary::new(trace.node_count(), trace.window())
            } else {
                ContactSummary::rates_only(trace.node_count(), trace.window())
            };
            summary.observe_trace(&trace);
            let graph = if needs_graph {
                Some(store.spacetime_graph(&run.config, &trace, p.delta)?.0.into())
            } else {
                None
            };
            let timeline = if needs_timeline {
                Some(store.trace_timeline(&run.config, &trace, p.delta)?.0)
            } else {
                None
            };
            (summary, graph, timeline)
        }
        Some(window) => {
            let mut stream = if needs_pair_counts {
                psn_trace::SummarizingStream::new(run.config.stream(p.delta))
            } else {
                psn_trace::SummarizingStream::rates_only(run.config.stream(p.delta))
            };
            let (graph, timeline) = if needs_graph {
                let (graph, timeline) =
                    stream_graph_and_timeline(&mut stream, window, needs_timeline, store)?;
                (Some(graph), timeline)
            } else if needs_timeline {
                // Forwarding alone reads no graph: the stream's slotter
                // feeds the timeline fold directly, with no spill slab.
                let timeline = psn_forwarding::HistoryTimeline::from_stream(&mut stream)
                    .map_err(|e| stream_error("folding history timeline", e))?;
                store.record_stream_peak(timeline.approx_bytes());
                (None, Some(std::sync::Arc::new(timeline)))
            } else {
                // Activity-only studies have no graph to fold, but the
                // summary still wants every event.
                while stream
                    .next_event()
                    .map_err(|e| stream_error("draining scenario contact stream", e))?
                    .is_some()
                {}
                (None, None)
            };
            (stream.into_summary(), graph, timeline)
        }
    })
}

/// The per-path records a run keeps, decided from its planned views. Both
/// are memory the engines spend per delivered path or message, and each
/// feeds exactly one kind of view: the explosion study's sampled hop
/// sequences feed the hop-rate views (Figs. 14 and 15), and run 0's
/// forwarding hop paths feed `hop-rates-taken`. Every other view reads
/// delivery times only. The planned views are part of every cell key, so
/// the choice never changes a cached result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PathRecords {
    /// Whether the explosion study samples hop sequences (the hop-rate
    /// views are planned, which also makes them compute).
    sample_paths: bool,
    /// What run 0 of the forwarding study records.
    first_run: Recording,
}

impl PathRecords {
    fn for_views(views: &[StudyView]) -> Self {
        let planned = |wanted: &[StudyView]| views.iter().any(|v| wanted.contains(v));
        Self {
            sample_paths: planned(&[StudyView::HopRateProgression, StudyView::RateRatios]),
            first_run: if planned(&[StudyView::HopRatesTaken]) {
                Recording::HopPaths
            } else {
                Recording::DeliveryOnly
            },
        }
    }

    /// The explosion study's enumeration config: `base`, sampling no hop
    /// sequence unless the hop-rate views read them.
    fn enumeration(&self, base: &EnumerationConfig) -> EnumerationConfig {
        let stored_path_limit = if self.sample_paths { base.stored_path_limit } else { 0 };
        EnumerationConfig { stored_path_limit, ..base.clone() }
    }
}

/// Computes one run's typed sections with `threads` engine workers from
/// the run's [`RunInputs`], which every run over the same scenario shares
/// through the artifact store.
fn compute_run_sections(
    plan: &StudyPlan,
    run: &PlannedRun,
    p: &StudyParams,
    threads: usize,
    store: &ArtifactStore,
) -> Result<Vec<Section>, ArtifactError> {
    let needs_explosion = plan.views.iter().any(StudyView::needs_explosion);
    let needs_forwarding = plan.views.iter().any(StudyView::needs_forwarding);
    let needs_activity = plan
        .views
        .iter()
        .any(|v| matches!(v, StudyView::ActivityTimeseries | StudyView::ContactCountCdf));
    let records = PathRecords::for_views(&plan.views);

    let (summary, graph, timeline) = run_inputs(plan, run, p, store)?;

    let mut outputs =
        RunOutputs { explosion: None, forwarding: None, activity: None, hop_rates: None };
    let (node_count, duration) = (summary.node_count(), summary.window().duration());
    if needs_explosion {
        let generator = MessageGenerator::new(MessageWorkloadConfig {
            nodes: node_count,
            generation_horizon: (duration * 2.0 / 3.0).max(1.0),
            mean_interarrival: 4.0,
            seed: p.enumeration_message_seed,
        });
        let messages = generator.uniform_messages(p.enumeration_messages);
        let graph = graph.as_ref().unwrap_or_else(|| unreachable!("explosion implies a graph"));
        outputs.explosion = Some(run_explosion_study_on(
            run.label.clone(),
            &summary,
            graph,
            &messages,
            records.enumeration(&p.enumeration),
            p.explosion_threshold,
            threads,
        ));
    }
    if needs_forwarding {
        let workload = p.forwarding_workload(node_count, duration);
        let timeline =
            timeline.clone().unwrap_or_else(|| unreachable!("forwarding implies a timeline"));
        outputs.forwarding = Some(run_forwarding_study_on(
            run.label.clone(),
            &summary,
            timeline,
            p.delta,
            workload,
            p.simulation_runs,
            records.first_run,
            threads,
        ));
    }
    if needs_activity {
        outputs.activity = Some(activity_report(run.label.clone(), &summary));
    }
    if records.sample_paths {
        let study = outputs
            .explosion
            .as_ref()
            .unwrap_or_else(|| unreachable!("hop-rate views imply explosion"));
        outputs.hop_rates = Some(run_hop_rate_study(&study.sample_paths, &study.rates));
    }

    let mut sections = Vec::new();
    for &view in &plan.views {
        let built: Vec<Section> = match view {
            StudyView::ActivityTimeseries => {
                vec![outputs
                    .activity
                    .as_ref()
                    .unwrap_or_else(|| unreachable!("activity precomputed"))
                    .timeseries_section()]
            }
            StudyView::ContactCountCdf => {
                vec![outputs
                    .activity
                    .as_ref()
                    .unwrap_or_else(|| unreachable!("activity precomputed"))
                    .contact_cdf_section()]
            }
            StudyView::ExplosionCdfs => {
                vec![outputs
                    .explosion
                    .as_ref()
                    .unwrap_or_else(|| unreachable!("explosion precomputed"))
                    .cdfs_section()]
            }
            StudyView::ExplosionScatter => {
                vec![outputs
                    .explosion
                    .as_ref()
                    .unwrap_or_else(|| unreachable!("explosion precomputed"))
                    .scatter_section()]
            }
            StudyView::ExplosionGrowth => {
                vec![outputs
                    .explosion
                    .as_ref()
                    .unwrap_or_else(|| unreachable!("explosion precomputed"))
                    .growth_section()]
            }
            StudyView::ExplosionPairTypes => {
                vec![outputs
                    .explosion
                    .as_ref()
                    .unwrap_or_else(|| unreachable!("explosion precomputed"))
                    .pair_type_section()]
            }
            StudyView::DelayVsSuccess => vec![outputs
                .forwarding
                .as_ref()
                .unwrap_or_else(|| unreachable!("forwarding precomputed"))
                .delay_vs_success_section()],
            StudyView::DelayDistributions => vec![outputs
                .forwarding
                .as_ref()
                .unwrap_or_else(|| unreachable!("forwarding precomputed"))
                .delay_distributions_section()],
            StudyView::ReceptionTimes => vec![outputs
                .forwarding
                .as_ref()
                .unwrap_or_else(|| unreachable!("forwarding precomputed"))
                .reception_times_section()],
            StudyView::PairTypePerformance => vec![outputs
                .forwarding
                .as_ref()
                .unwrap_or_else(|| unreachable!("forwarding precomputed"))
                .pair_type_section()],
            StudyView::PathsTaken => {
                let generator = MessageGenerator::new(MessageWorkloadConfig {
                    nodes: node_count,
                    generation_horizon: duration * 2.0 / 3.0,
                    mean_interarrival: 4.0,
                    seed: p.paths_taken_seed,
                });
                let messages = generator.uniform_messages(p.paths_taken_messages);
                let graph =
                    graph.clone().unwrap_or_else(|| unreachable!("paths-taken implies a graph"));
                let timeline = timeline
                    .clone()
                    .unwrap_or_else(|| unreachable!("paths-taken implies a timeline"));
                // Paths-taken reads delivery times only: no sample paths.
                let enumeration =
                    EnumerationConfig { stored_path_limit: 0, ..p.enumeration.clone() };
                let cases = run_paths_taken(&summary, graph, timeline, &messages, enumeration);
                cases.iter().map(|case| case.section()).collect()
            }
            StudyView::HopRateProgression => {
                vec![outputs
                    .hop_rates
                    .as_ref()
                    .unwrap_or_else(|| unreachable!("hop rates precomputed"))
                    .mean_rate_section()]
            }
            StudyView::HopRatesTaken => {
                let study = outputs
                    .forwarding
                    .as_ref()
                    .unwrap_or_else(|| unreachable!("forwarding precomputed"));
                study
                    .algorithms
                    .iter()
                    .map(|algo| {
                        run_hop_rate_study_on_outcomes(&algo.outcomes, &study.rates)
                            .taken_by_section(algo.kind.label())
                    })
                    .collect()
            }
            StudyView::RateRatios => {
                vec![outputs
                    .hop_rates
                    .as_ref()
                    .unwrap_or_else(|| unreachable!("hop rates precomputed"))
                    .rate_ratio_section()]
            }
            StudyView::ModelValidation => {
                unreachable!("model views are rejected for scenario studies by plan()")
            }
        };
        sections.extend(built.into_iter().map(|s| tag(s, run, view)));
    }
    // The engines, paths-taken's enumeration included, are done with the
    // graph: a streaming run's cold-slot reloads go to the store's
    // `--cache` summary, never into the report.
    if let Some(psn_spacetime::SharedGraph::Windowed(graph)) = &graph {
        store.record_spill_loads(graph.spill_loads());
    }
    Ok(sections)
}

/// A streaming-pass failure as the artifact-layer I/O error it surfaces as.
fn stream_error(context: &str, e: impl std::fmt::Display) -> ArtifactError {
    ArtifactError::Io { context: context.to_string(), source: std::io::Error::other(e.to_string()) }
}

/// Builds the bounded-window space-time graph of an enumerating plan and,
/// when it also forwards, the history timeline (from the graph's
/// sealed-slot tap) in **one pass** over a contact-event stream. Cold slots
/// spill raw slot records into a private slab temp file, removed when the
/// graph is dropped. The peak working set (hot slots + spill scratch +
/// timeline builder) is recorded on the store for the `--cache` summary.
fn stream_graph_and_timeline(
    stream: &mut impl psn_trace::ContactStream,
    window: usize,
    needs_timeline: bool,
    store: &ArtifactStore,
) -> Result<
    (psn_spacetime::SharedGraph, Option<std::sync::Arc<psn_forwarding::HistoryTimeline>>),
    ArtifactError,
> {
    let spill = psn_artifact::SlabSlotSpill::in_temp_file()
        .map_err(|e| stream_error("creating streaming spill slab", e))?;
    let mut builder =
        needs_timeline.then(|| psn_forwarding::TimelineBuilder::new(stream.node_count()));
    let mut builder_peak = 0usize;
    let graph = psn_spacetime::WindowedSpaceTimeGraph::stream_with(
        stream,
        window,
        Box::new(spill),
        |slot, sealed| {
            if let Some(b) = builder.as_mut() {
                b.push_slot(slot, sealed.edges());
                builder_peak = builder_peak.max(b.approx_bytes());
            }
        },
    )
    .map_err(|e| stream_error("building windowed space-time graph", e))?;
    store.record_stream_peak(graph.peak_bytes() + builder_peak);
    let timeline = builder.map(|b| {
        std::sync::Arc::new(
            b.finish((0..graph.slot_count()).map(|s| graph.slot_end_time(s)).collect()),
        )
    });
    Ok((std::sync::Arc::new(graph).into(), timeline))
}

/// Builds the typed `failure-summary` section appended to keep-going
/// reports: one table row per failed cell (label, error, whether it
/// panicked). The section only exists when failures exist, so clean runs
/// — and resumed runs that recover every cell — render byte-identically
/// to a never-failed run.
fn failure_summary_section(failures: &[CellFailure]) -> Section {
    let mut table = Table::new(
        "failed_cells",
        vec![Column::text("cell"), Column::text("error"), Column::text("panicked")],
    );
    for failure in failures {
        table.push_row(vec![
            CellValue::Text(failure.label.clone()),
            CellValue::Text(failure.message.clone()),
            CellValue::Text(if failure.panicked { "yes".into() } else { "no".into() }),
        ]);
    }
    let mut section = Section::new()
        .stat(Scalar::display("failed_cells", failures.len() as f64))
        .block(Block::Title(format!(
            "Failure summary — {} cell{} failed (rerun with --resume to recompute only these)",
            failures.len(),
            if failures.len() == 1 { "" } else { "s" }
        )))
        .block(Block::Table(table));
    section.view = "failure-summary".to_string();
    section
}

/// Executes a plan with a fresh, private in-memory artifact store — runs
/// within the plan still share traces, graphs and timelines, but nothing
/// persists past the call. See [`run_study_with`] for the shared-store /
/// disk-backed path.
///
/// Infallible by construction for the preset/golden path: with a private
/// in-memory store and no injected faults nothing can fail; if a cell
/// does fail (e.g. chaos testing armed a panic site), the failure
/// propagates as a panic carrying the typed message.
///
/// # Panics
///
/// Panics when a cell fails — only possible with injected faults, since
/// the private in-memory store removes every I/O failure mode.
pub fn run_study(plan: &StudyPlan) -> StudyReport {
    run_study_with(plan, &ArtifactStore::in_memory())
        .unwrap_or_else(|e| panic!("study execution failed: {e}"))
}

/// Executes a plan against an artifact store under the default
/// [`RunPolicy::FailFast`] — the first failing cell aborts execution with
/// a typed [`StudyError`]. See [`run_study_with_policy`].
pub fn run_study_with(plan: &StudyPlan, store: &ArtifactStore) -> Result<StudyReport, StudyError> {
    run_study_with_policy(plan, store, RunPolicy::FailFast)
}

/// Executes a plan against an artifact store: runs the (scenario × seed)
/// cells in parallel on the [`psn_fault::run_jobs`] pool honoring
/// `params.threads`, resolves every run's trace/graph/timeline — and the
/// run's whole result — through the store, and assembles the typed report.
/// Runs whose result fingerprint is already cached are served without
/// touching the engines; the report's `cache` field records each run's
/// provenance. Worker counts and cache state never change the report
/// (differential tests pin warm output bit-identical to cold).
///
/// Every cell is panic-isolated: a failing cell becomes a typed
/// [`CellFailure`]. Under [`RunPolicy::FailFast`] the first failure stops
/// the queue (in-flight cells drain, no new cells start) and is returned
/// as [`StudyError::Cell`]. Under [`RunPolicy::KeepGoing`] every cell
/// runs; failures are recorded in [`StudyReport::failures`] and
/// summarized in a `failure-summary` section appended to the report, and
/// a later re-run over the same disk cache recomputes **only** the failed
/// cells (the completed ones are served bit-identically from the store).
pub fn run_study_with_policy(
    plan: &StudyPlan,
    store: &ArtifactStore,
    policy: RunPolicy,
) -> Result<StudyReport, StudyError> {
    let mut doc = ReportDoc::new(plan.study.name());

    if plan.study == StudyId::Model {
        let validation = run_model_validation(plan.params.model_replications);
        let mut section = validation.section();
        section.view = StudyView::ModelValidation.name().to_string();
        doc.sections.push(section);
        return Ok(StudyReport { study: plan.study, doc, cache: Vec::new(), failures: Vec::new() });
    }

    // One pool job per cell (per-run cost varies wildly between scenarios,
    // so cells are claimed one at a time rather than chunked). The engine
    // thread budget inside each cell shrinks so the total stays at
    // `threads`, with the division remainder spread over the first workers
    // so no requested thread sits idle (engine thread counts never change
    // results). Workers share the artifact store: cells racing on one
    // scenario block on its latch instead of building the trace twice.
    // Under fail-fast a failed cell stops the pool: in-flight cells drain
    // and no new ones start.
    let total_threads = resolve_threads(plan.params.threads);
    let workers = total_threads.min(plan.runs.len()).max(1);
    let outcomes = psn_fault::run_jobs(
        psn_fault::sites::QUEUE_STUDY_RUN,
        workers,
        plan.runs.len(),
        |worker| total_threads / workers + usize::from(worker < total_threads % workers),
        |&mut threads, idx, _| run_one(plan, &plan.runs[idx], threads, store),
        |outcome| policy == RunPolicy::FailFast && !matches!(outcome, Ok(Ok(_))),
    );

    let mut cache = Vec::with_capacity(plan.runs.len());
    let mut failures = Vec::new();
    for (run, outcome) in plan.runs.iter().zip(outcomes) {
        let (message, panicked) = match outcome {
            Ok(Ok((source, sections))) => {
                cache.push(RunCache { label: run.label.clone(), source });
                doc.sections.extend(sections);
                continue;
            }
            Ok(Err(error)) => (error.to_string(), false),
            Err(message) => (message, true),
        };
        let failure = CellFailure { label: run.label.clone(), message, panicked };
        match policy {
            RunPolicy::FailFast => return Err(StudyError::Cell(failure)),
            RunPolicy::KeepGoing => failures.push(failure),
        }
    }
    if !failures.is_empty() {
        doc.sections.push(failure_summary_section(&failures));
    }
    Ok(StudyReport { study: plan.study, doc, cache, failures })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::report::JsonRenderer;
    use psn_trace::generator::{CommunityConfig, ScaledConfig};
    use psn_trace::{DatasetId, ScenarioConfig};

    fn quick_params() -> StudyParams {
        // Deliberately tiny so the pipeline tests stay fast; structure, not
        // scale, is under test.
        let mut p = StudyParams::for_profile(ExperimentProfile::Quick);
        p.enumeration = EnumerationConfig::quick(30);
        p.explosion_threshold = 30;
        p.enumeration_messages = 8;
        p.simulation_runs = 1;
        p.workload_horizon = Some(600.0);
        p.workload_interarrival = 30.0;
        p.paths_taken_messages = 2;
        p.model_replications = 5;
        p.threads = 2;
        p
    }

    fn small_scenario(seed: u64) -> StudyScenario {
        StudyScenario::from(ScenarioConfig::Community(CommunityConfig {
            name: format!("pipeline-community-{seed}"),
            communities: 3,
            nodes_per_community: 6,
            window_seconds: 900.0,
            max_node_rate: 0.05,
            intra_inter_ratio: 5.0,
            mean_contact_duration: 60.0,
            contact_duration_cv: 0.5,
            seed,
        }))
    }

    /// Like [`small_scenario`] but dense enough that *every* seed produces
    /// contacts, and with a window long enough for the activity study's
    /// 30-minute tail diagnostic.
    fn dense_scenario(seed: u64) -> StudyScenario {
        StudyScenario::from(ScenarioConfig::Community(CommunityConfig {
            name: format!("pipeline-dense-{seed}"),
            communities: 2,
            nodes_per_community: 8,
            window_seconds: 2400.0,
            max_node_rate: 0.2,
            intra_inter_ratio: 4.0,
            mean_contact_duration: 40.0,
            contact_duration_cv: 0.5,
            seed,
        }))
    }

    #[test]
    fn registry_names_round_trip() {
        for study in StudyId::all() {
            assert_eq!(StudyId::parse(study.name()), Some(study));
            assert!(!study.description().is_empty());
            assert!(!study.views().is_empty());
            for view in study.views() {
                assert_eq!(view.study(), study);
            }
        }
        assert_eq!(StudyId::parse("unknown"), None);
        for view in StudyView::all() {
            assert_eq!(StudyView::parse(view.name()), Some(view));
        }
        assert_eq!(StudyView::parse("unknown"), None);
    }

    #[test]
    fn parse_views_validates_against_the_study() {
        let views = parse_views(StudyId::Forwarding, "delay-vs-success, reception-times").unwrap();
        assert_eq!(views, vec![StudyView::DelayVsSuccess, StudyView::ReceptionTimes]);

        // Repeats collapse instead of duplicating sections and work.
        let views = parse_views(StudyId::Forwarding, "delay-vs-success,delay-vs-success").unwrap();
        assert_eq!(views, vec![StudyView::DelayVsSuccess]);

        let err = parse_views(StudyId::Forwarding, "no-such-view").unwrap_err();
        assert!(err.to_string().contains("unknown view"), "{err}");
        assert!(err.to_string().contains("delay-vs-success"), "listing valid names: {err}");

        let err = parse_views(StudyId::Forwarding, "explosion-cdfs").unwrap_err();
        assert!(err.to_string().contains("belongs to study explosion"), "{err}");

        let err = parse_views(StudyId::Forwarding, " , ").unwrap_err();
        assert!(err.to_string().contains("no views selected"), "{err}");
    }

    #[test]
    fn plan_validates_views_and_scenarios() {
        let spec = StudySpec::new(StudyId::Explosion, vec![small_scenario(1)], quick_params())
            .with_views(vec![StudyView::DelayVsSuccess]);
        let err = spec.plan().expect_err("forwarding view under explosion study");
        assert!(err.to_string().contains("belongs to study"), "{err}");

        let spec = StudySpec::new(StudyId::Explosion, vec![], quick_params());
        let err = spec.plan().expect_err("no scenarios");
        assert!(err.to_string().contains("at least one scenario"), "{err}");

        // Model runs without scenarios.
        let spec = StudySpec::new(StudyId::Model, vec![], quick_params());
        assert!(spec.plan().is_ok());
    }

    #[test]
    fn plan_expands_extra_seeds_into_unique_runs() {
        let spec = StudySpec::new(StudyId::Activity, vec![small_scenario(1)], quick_params())
            .with_extra_seeds(vec![7, 8]);
        let plan = spec.plan().unwrap();
        assert_eq!(plan.runs.len(), 3);
        assert_eq!(plan.runs[0].config.seed(), 1);
        assert_eq!(plan.runs[1].config.seed(), 7);
        assert_eq!(plan.runs[2].config.seed(), 8);
        let describe = plan.describe();
        assert!(describe.contains("activity"), "{describe}");
        assert!(describe.contains("seed 7"), "{describe}");
        assert!(describe.contains("activity-timeseries"), "{describe}");

        let duplicate = StudySpec::new(
            StudyId::Activity,
            vec![small_scenario(1), small_scenario(1)],
            quick_params(),
        );
        assert!(duplicate.plan().is_err(), "duplicate labels must be rejected");
    }

    #[test]
    fn community_scenario_flows_through_explosion_study() {
        let spec = StudySpec::new(StudyId::Explosion, vec![small_scenario(3)], quick_params())
            .with_views(vec![StudyView::ExplosionCdfs]);
        let report = run_study(&spec.plan().unwrap());
        assert_eq!(report.doc.sections.len(), 1);
        let section = &report.doc.sections[0];
        assert_eq!(section.scenario, "pipeline-community-3");
        assert_eq!(section.view, "explosion-cdfs");
        let run = section.run.as_ref().expect("scenario sections carry run metadata");
        assert_eq!(run.scenario_kind, "community");
        assert_eq!(run.seed, 3);
        assert_eq!(run.nodes, 18);
        let body = report.render();
        assert!(body.contains("pipeline-community-3"), "{body}");
        assert!(body.contains("Figure 4"), "{body}");
        assert_eq!(report.sections_for("pipeline-community-3").len(), 1);
    }

    #[test]
    fn forwarding_study_runs_scaled_scenario_end_to_end() {
        let scenario = StudyScenario::from(ScenarioConfig::Scaled(ScaledConfig {
            name: "pipeline-scaled".into(),
            nodes: 80,
            window_seconds: 700.0,
            max_node_rate: 0.05,
            min_node_rate: 0.001,
            mean_contact_duration: 60.0,
            seed: 5,
        }));
        let spec = StudySpec::new(StudyId::Forwarding, vec![scenario], quick_params())
            .with_views(vec![StudyView::DelayVsSuccess]);
        let report = run_study(&spec.plan().unwrap());
        let body = report.render();
        assert!(body.contains("Figure 9"), "{body}");
        assert!(body.contains("Epidemic"), "{body}");
    }

    #[test]
    fn forwarding_horizon_is_capped_to_the_scenario_window() {
        let params = StudyParams::for_profile(ExperimentProfile::Paper);
        // Paper datasets sit exactly at the cap: 7200 s over a 10800 s
        // window — unchanged (preset byte parity depends on this).
        assert_eq!(params.forwarding_workload(98, 10800.0).generation_horizon, 7200.0);
        // A short-window scenario must not receive undeliverable messages
        // generated after its window ends.
        assert_eq!(params.forwarding_workload(1000, 3600.0).generation_horizon, 2400.0);
        // No explicit horizon: two thirds of the window.
        let adaptive = StudyParams { workload_horizon: None, ..params };
        assert_eq!(adaptive.forwarding_workload(10, 900.0).generation_horizon, 600.0);
    }

    #[test]
    fn model_study_needs_no_scenario() {
        let spec = StudySpec::new(StudyId::Model, vec![], quick_params());
        let report = run_study(&spec.plan().unwrap());
        assert_eq!(report.doc.sections.len(), 1);
        assert_eq!(report.doc.sections[0].view, "model-validation");
        assert!(report.render().contains("model validation"));
    }

    #[test]
    fn dataset_scenarios_reproduce_the_experiment_driver_output() {
        // The pipeline's explosion section for a paper dataset must equal
        // the direct driver's rendering — the property the figure presets
        // and their golden tests build on.
        let profile = ExperimentProfile::Quick;
        let mut params = StudyParams::for_profile(profile).with_threads(2);
        params.enumeration = EnumerationConfig::quick(40);
        params.explosion_threshold = 40;
        params.enumeration_messages = 10;
        let scenario = StudyScenario::dataset(DatasetId::Conext06Morning, profile);
        let spec = StudySpec::new(StudyId::Explosion, vec![scenario], params.clone())
            .with_views(vec![StudyView::ExplosionCdfs]);
        let report = run_study(&spec.plan().unwrap());

        let trace = profile.dataset(DatasetId::Conext06Morning).generate();
        let generator = MessageGenerator::new(MessageWorkloadConfig {
            nodes: trace.node_count(),
            generation_horizon: (trace.window().duration() * 2.0 / 3.0).max(1.0),
            mean_interarrival: 4.0,
            seed: 0xEC0,
        });
        let messages = generator.uniform_messages(10);
        let direct = run_explosion_study_on(
            DatasetId::Conext06Morning,
            &ContactSummary::from_trace(&trace),
            &psn_spacetime::SpaceTimeGraph::build_default(&trace),
            &messages,
            params.enumeration.clone(),
            40,
            2,
        );
        assert_eq!(
            report.render(),
            format!("{}\n", TextRenderer.render_section(&direct.cdfs_section()))
        );
    }

    #[test]
    fn parallel_run_loop_matches_the_serial_order() {
        // Three (scenario × seed) cells through the work-queue path (threads
        // 4 → 3 workers) must produce the identical document as the serial
        // path (threads 1).
        let scenarios = vec![dense_scenario(1), dense_scenario(2)];
        let serial_spec =
            StudySpec::new(StudyId::Activity, scenarios.clone(), quick_params().with_threads(1))
                .with_extra_seeds(vec![9]);
        let parallel_spec =
            StudySpec::new(StudyId::Activity, scenarios, quick_params().with_threads(4))
                .with_extra_seeds(vec![9]);
        let serial = run_study(&serial_spec.plan().unwrap());
        let parallel = run_study(&parallel_spec.plan().unwrap());
        assert_eq!(serial.doc, parallel.doc);
        assert_eq!(serial.doc.sections.len(), 4 * 2);
    }

    #[test]
    fn warm_store_serves_bit_identical_reports_for_every_study() {
        // The caching contract: for each of the six studies, a warm run
        // (shared store), a cold run (fresh store) and an uncached run
        // (--no-cache semantics) produce the identical typed document —
        // and therefore identical rendered bytes.
        let params = quick_params();
        let store = ArtifactStore::in_memory();
        for study in StudyId::all() {
            let scenarios = if study == StudyId::Model { vec![] } else { vec![dense_scenario(11)] };
            let spec = StudySpec::new(study, scenarios, params.clone());
            let plan = spec.plan().unwrap();
            let cold = run_study_with(&plan, &store).unwrap();
            let warm = run_study_with(&plan, &store).unwrap();
            assert_eq!(cold.doc, warm.doc, "{study}: warm != cold");
            assert_eq!(cold.render(), warm.render(), "{study}: rendered bytes differ");
            let uncached = run_study_with(&plan, &ArtifactStore::disabled()).unwrap();
            assert_eq!(cold.doc, uncached.doc, "{study}: uncached != cold");
            if study != StudyId::Model {
                assert!(
                    cold.cache.iter().all(|c| c.source == CacheSource::Built),
                    "{study}: first run must compute"
                );
                assert!(
                    warm.cache.iter().all(|c| c.source == CacheSource::Memory),
                    "{study}: second run must be served from memory"
                );
            }
        }
    }

    #[test]
    fn only_the_views_that_read_them_get_sample_or_hop_paths() {
        // The decision, for every preset at both profiles and every
        // study's full view set: sample paths only for the enumeration
        // hop-rate views (Figs. 14 and 15), run-0 hop paths only for
        // hop-rates-taken (Fig. 14).
        use crate::study::preset::PresetId;
        let decided = |plan: &StudyPlan| {
            let records = PathRecords::for_views(&plan.views);
            let limit = records.enumeration(&plan.params.enumeration).stored_path_limit;
            assert_eq!(limit > 0, records.sample_paths);
            (records.sample_paths, records.first_run == Recording::HopPaths)
        };
        for profile in [ExperimentProfile::Quick, ExperimentProfile::Paper] {
            for preset in PresetId::all() {
                let Some(spec) = preset.spec(profile, 1) else {
                    continue;
                };
                let expected = match preset {
                    PresetId::Fig14 => (true, true),
                    PresetId::Fig15 => (true, false),
                    _ => (false, false),
                };
                assert_eq!(decided(&spec.plan().unwrap()), expected, "{preset} at {profile:?}");
            }
        }
        for study in StudyId::all() {
            let scenarios = if study == StudyId::Model { vec![] } else { vec![small_scenario(1)] };
            let plan = StudySpec::new(study, scenarios, quick_params()).plan().unwrap();
            let hop_rates = study == StudyId::HopRates;
            assert_eq!(decided(&plan), (hop_rates, hop_rates), "{study}");
        }

        // What the engines then keep on a small scenario: explosion-only,
        // paths-taken and forwarding-only plans hold no sampled hop
        // sequence and no run-0 hop path; the Fig. 14/15 views get both.
        let trace = dense_scenario(3).config.generate();
        let summary = ContactSummary::from_trace(&trace);
        let graph = psn_spacetime::SpaceTimeGraph::build_default(&trace);
        let timeline = std::sync::Arc::new(psn_forwarding::HistoryTimeline::from_trace(
            &trace,
            psn_spacetime::DEFAULT_DELTA,
        ));
        let p = quick_params();
        let messages = MessageGenerator::new(MessageWorkloadConfig {
            nodes: trace.node_count(),
            generation_horizon: 600.0,
            mean_interarrival: 4.0,
            seed: 5,
        })
        .uniform_messages(6);
        let views: [&[StudyView]; 5] = [
            &[StudyView::ExplosionCdfs, StudyView::ExplosionGrowth],
            &[StudyView::PathsTaken],
            &[StudyView::DelayVsSuccess, StudyView::PairTypePerformance],
            &[StudyView::HopRateProgression, StudyView::HopRatesTaken],
            &[StudyView::RateRatios],
        ];
        for views in views {
            let records = PathRecords::for_views(views);
            let explosion = run_explosion_study_on(
                "records",
                &summary,
                &graph,
                &messages,
                records.enumeration(&p.enumeration),
                p.explosion_threshold,
                1,
            );
            assert!(explosion.summary.delivery_fraction() > 0.0, "{views:?}");
            let wants_samples = views.contains(&StudyView::HopRateProgression)
                || views.contains(&StudyView::RateRatios);
            assert_eq!(!explosion.sample_paths.is_empty(), wants_samples, "{views:?}");
            let forwarding = run_forwarding_study_on(
                "records",
                &summary,
                timeline.clone(),
                psn_spacetime::DEFAULT_DELTA,
                p.forwarding_workload(trace.node_count(), trace.window().duration()),
                2,
                records.first_run,
                1,
            );
            let hop_paths = forwarding
                .algorithms
                .iter()
                .flat_map(|a| &a.outcomes)
                .filter(|o| o.path.is_some())
                .count();
            assert!(forwarding.algorithms.iter().any(|a| a.metrics.success_rate > 0.0));
            assert_eq!(hop_paths > 0, views.contains(&StudyView::HopRatesTaken), "{views:?}");
        }
    }

    #[test]
    fn disk_tier_serves_results_across_store_instances() {
        let dir = std::env::temp_dir().join(format!("psn-study-disk-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = StudySpec::new(StudyId::Forwarding, vec![dense_scenario(4)], quick_params())
            .with_views(vec![StudyView::DelayVsSuccess]);
        let plan = spec.plan().unwrap();

        let cold = run_study_with(&plan, &ArtifactStore::with_disk(&dir).unwrap()).unwrap();
        assert!(cold.cache.iter().all(|c| c.source == CacheSource::Built));

        // A fresh store over the same directory — a restarted process —
        // serves the whole run from disk, bit-identically.
        let fresh = ArtifactStore::with_disk(&dir).unwrap();
        let warm = run_study_with(&plan, &fresh).unwrap();
        assert!(warm.cache.iter().all(|c| c.source == CacheSource::Disk), "{:?}", warm.cache);
        assert_eq!(cold.doc, warm.doc);
        assert_eq!(cold.render(), warm.render());
        assert_eq!(
            fresh.stats().total_builds(),
            0,
            "a fully warm disk cache runs no engine at all: {:?}",
            fresh.stats()
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn thread_counts_do_not_split_cache_keys() {
        // `threads` never changes results, so a run at a different thread
        // count must hit the same cached result.
        let store = ArtifactStore::in_memory();
        let serial = StudySpec::new(
            StudyId::Activity,
            vec![dense_scenario(7)],
            quick_params().with_threads(1),
        );
        let parallel = StudySpec::new(
            StudyId::Activity,
            vec![dense_scenario(7)],
            quick_params().with_threads(4),
        );
        let cold = run_study_with(&serial.plan().unwrap(), &store).unwrap();
        let warm = run_study_with(&parallel.plan().unwrap(), &store).unwrap();
        assert!(warm.cache.iter().all(|c| c.source == CacheSource::Memory), "{:?}", warm.cache);
        assert_eq!(cold.doc, warm.doc);
    }

    #[test]
    fn streaming_studies_are_byte_identical_for_every_study() {
        // The stream-native contract: for each of the six studies, a
        // `--streaming` run (scenario event stream → bounded-window graph +
        // folded summary, no materialized trace) produces the identical
        // typed document — and therefore identical rendered bytes — as the
        // materialized run. Fresh stores on both sides so neither run can
        // be served from the other's cache.
        let materialized = quick_params();
        let streaming = quick_params().with_streaming_window(Some(16));
        for study in StudyId::all() {
            if study == StudyId::Model {
                continue; // no scenario, nothing to stream
            }
            let scenarios = vec![dense_scenario(11)];
            let base_plan =
                StudySpec::new(study, scenarios.clone(), materialized.clone()).plan().unwrap();
            let stream_plan = StudySpec::new(study, scenarios, streaming.clone()).plan().unwrap();
            let base = run_study_with(&base_plan, &ArtifactStore::in_memory()).unwrap();
            let streamed = run_study_with(&stream_plan, &ArtifactStore::in_memory()).unwrap();
            assert_eq!(base.doc, streamed.doc, "{study}: streaming changed the document");
            assert_eq!(base.render(), streamed.render(), "{study}: rendered bytes differ");
        }
    }

    #[test]
    fn streaming_study_never_materializes_a_trace() {
        // The point of the stream-native path: a `--streaming` study folds
        // the scenario's event stream directly and must never build (or
        // even request) the materialized ContactTrace artifact.
        use psn_artifact::ArtifactKind;
        for study in StudyId::all() {
            if study == StudyId::Model {
                continue;
            }
            let store = ArtifactStore::in_memory();
            let spec = StudySpec::new(
                study,
                vec![dense_scenario(11)],
                quick_params().with_streaming_window(Some(16)),
            );
            let report = run_study_with(&spec.plan().unwrap(), &store).unwrap();
            assert!(!report.doc.sections.is_empty(), "{study}: no sections");
            let stats = store.stats();
            assert_eq!(
                stats.builds_of(ArtifactKind::Trace),
                0,
                "{study}: streaming run materialized a trace: {stats:?}"
            );
            // Graphs and timelines are built per-run in streaming mode (the
            // bounded-window representation is not cacheable), never stored.
            assert_eq!(stats.builds_of(ArtifactKind::Graph), 0, "{study}: {stats:?}");
            assert_eq!(stats.builds_of(ArtifactKind::Timeline), 0, "{study}: {stats:?}");
        }
    }

    #[test]
    fn streaming_runs_record_their_spill_loads_on_the_store() {
        // A one-slot window makes paths-taken's enumeration reload cold
        // slots; the count reaches the store's stats (and `--cache`
        // summary), while a materialized run records none. The forwarding
        // study reads only the history timeline: it builds no graph in
        // either mode, and its streaming run reports exactly zero loads.
        use psn_artifact::ArtifactKind;
        for (study, window, reloads) in [
            (StudyId::PathsTaken, None, false),
            (StudyId::PathsTaken, Some(1), true),
            (StudyId::Forwarding, None, false),
            (StudyId::Forwarding, Some(1), false),
        ] {
            let store = ArtifactStore::in_memory();
            let spec = StudySpec::new(
                study,
                vec![dense_scenario(11)],
                quick_params().with_streaming_window(window),
            );
            run_study_with(&spec.plan().unwrap(), &store).unwrap();
            let stats = store.stats();
            let summary = stats.summary();
            assert_eq!(stats.spill_loads > 0, reloads, "{study}, window {window:?}: {stats:?}");
            assert_eq!(summary.contains("spill loads"), window.is_some(), "{summary}");
            if study == StudyId::Forwarding {
                assert_eq!(stats.builds_of(ArtifactKind::Graph), 0, "{study}: {stats:?}");
                let timelines = u64::from(window.is_none());
                assert_eq!(stats.builds_of(ArtifactKind::Timeline), timelines, "{stats:?}");
                assert_eq!(summary.ends_with(", 0 spill loads"), window.is_some(), "{summary}");
            }
        }
    }

    #[test]
    fn materialized_runs_fold_the_pair_matrix_only_for_forwarding() {
        // Materialized mode folds the summary from the cached trace starting
        // from the empty summary streaming mode would use: the O(n²) pair
        // matrix only when a forwarding oracle reads it.
        let store = ArtifactStore::in_memory();
        for study in [StudyId::Explosion, StudyId::Activity, StudyId::Forwarding] {
            let plan =
                StudySpec::new(study, vec![dense_scenario(5)], quick_params()).plan().unwrap();
            let run = &plan.runs[0];
            let (summary, _, _) = run_inputs(&plan, run, &plan.params, &store).unwrap();
            let expected =
                ContactSummary::from_trace(&store.scenario_trace(&run.config).unwrap().0);
            assert_eq!(summary.per_node_counts(), expected.per_node_counts(), "{study}");
            assert_eq!(summary.per_minute().series(), expected.per_minute().series(), "{study}");
            if study == StudyId::Forwarding {
                assert_eq!(summary.pair_counts().len(), 16 * 16);
                assert_eq!(summary.pair_counts(), expected.pair_counts());
            } else {
                assert!(summary.pair_counts().is_empty(), "{study}");
            }
        }
    }

    #[test]
    fn every_study_round_trips_through_json() {
        // serialize → parse → compare, for each of the six studies at tiny
        // scale: the JSON schema carries the full typed model.
        let params = quick_params();
        for study in StudyId::all() {
            let scenarios = if study == StudyId::Model { vec![] } else { vec![dense_scenario(11)] };
            let spec = StudySpec::new(study, scenarios, params.clone());
            let report = run_study(&spec.plan().unwrap());
            assert!(!report.doc.sections.is_empty(), "{study}: no sections");
            let json = JsonRenderer.render_json(&report.doc);
            let parsed = JsonRenderer.parse(&json).unwrap_or_else(|e| {
                panic!("{study}: emitted json must parse: {e}");
            });
            assert_eq!(parsed, report.doc, "{study}: json round trip");
        }
    }
}
