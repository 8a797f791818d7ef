//! First-class scenario sweeps over the study pipeline.
//!
//! A [`SweepSpec`] binds a [`psn_trace::ScenarioSweep`] — a grid over
//! scenario parameters crossed with seeds — to one registered study, a
//! view subset and numeric [`StudyParams`]. It resolves through the
//! existing `StudySpec -> StudyPlan` machinery ([`SweepSpec::plan`]): every
//! grid cell becomes one planned run with a unique label, so execution
//! inherits the pipeline's parallel per-run work queue and its
//! thread-count-independence guarantees.
//!
//! [`run_sweep`] produces a [`SweepReport`]: the per-cell typed sections
//! of the underlying study prefixed with a **sweep summary section** whose
//! table has one row per grid cell — the axis assignments, the seed, and
//! every typed scalar statistic the cell's sections report (activity cv,
//! per-algorithm success rates, explosion fractions, …). The summary is
//! plain report content, so any renderer emits it: comparative curves like
//! Fashandi et al.'s rate-allocation-over-path-count plots or Gan et al.'s
//! mobility-heterogeneity sweeps fall out of `psn-study sweep --format
//! json|csv` without re-parsing text.

use psn_artifact::ArtifactStore;
use psn_trace::sweep::PARAM_AXIS_PREFIX;
use psn_trace::{ScenarioSweep, SweepCell};

use crate::report::{Block, CellValue, Column, NumberFormat, ReportDoc, Scalar, Section, Table};
use crate::study::{
    run_study_with_policy, CellFailure, RunCache, RunPolicy, StudyError, StudyId, StudyParams,
    StudyPlan, StudyPlanError, StudyScenario, StudySpec, StudyView,
};

/// A declarative sweep invocation: the scenario grid plus the study to run
/// over every cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// The study every cell runs.
    pub study: StudyId,
    /// The scenario grid.
    pub sweep: ScenarioSweep,
    /// The views to render per cell; empty means every view of the study.
    pub views: Vec<StudyView>,
    /// Numeric parameters shared by every cell.
    pub params: StudyParams,
}

/// A resolved sweep: the grid cells plus the study plan that runs them
/// (cell `i` corresponds to `plan.runs[i]`).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPlan {
    /// The expanded grid cells, in run order.
    pub cells: Vec<SweepCell>,
    /// The axis field names, in grid order.
    pub axes: Vec<String>,
    /// The underlying study plan.
    pub plan: StudyPlan,
}

impl SweepSpec {
    /// Resolves the sweep: expands the grid, then plans the study over the
    /// cells exactly like any multi-scenario spec.
    pub fn plan(&self) -> Result<SweepPlan, StudyPlanError> {
        if self.study == StudyId::Model {
            return Err(StudyPlanError::new(
                "the model study runs no scenario and cannot be swept",
            ));
        }
        let cells = self
            .sweep
            .expand()
            .map_err(|e| StudyPlanError::new(format!("sweep {:?}: {e}", self.sweep.name)))?;
        let scenarios = cells
            .iter()
            .map(|cell| {
                Ok(StudyScenario {
                    label: cell.label.clone(),
                    config: cell.config.clone(),
                    params: apply_param_axes(&self.params, cell)?,
                })
            })
            .collect::<Result<Vec<_>, StudyPlanError>>()?;
        let plan = StudySpec::new(self.study, scenarios, self.params.clone())
            .with_views(self.views.clone())
            .plan()?;
        let axes = self.sweep.axes.iter().map(|a| a.field.clone()).collect();
        Ok(SweepPlan { cells, axes, plan })
    }
}

/// The largest value a count-valued `params.*` axis (`k`, `messages`,
/// `runs`) takes; the CLI's `--k`, `--messages` and `--runs` share it.
pub const MAX_AXIS_COUNT: usize = u32::MAX as usize;

/// Applies a cell's `params.*` axis assignments to the sweep's shared
/// study parameters. `None` when the cell has no parameter axes (the
/// common case: every cell then shares the plan-level params value).
/// Unknown parameter names and non-integer values are plan errors, in the
/// same voice as scenario-axis schema errors.
fn apply_param_axes(
    base: &StudyParams,
    cell: &SweepCell,
) -> Result<Option<StudyParams>, StudyPlanError> {
    let mut params: Option<StudyParams> = None;
    for (field, value) in &cell.assignments {
        let Some(name) = field.strip_prefix(PARAM_AXIS_PREFIX) else { continue };
        let as_count = || -> Result<usize, StudyPlanError> {
            if value.fract() != 0.0 || *value < 1.0 || *value > MAX_AXIS_COUNT as f64 {
                return Err(StudyPlanError::new(format!(
                    "sweep axis {field:?}: value {value} must be a positive integer"
                )));
            }
            Ok(*value as usize)
        };
        let p = params.take().unwrap_or_else(|| base.clone());
        let as_positive = || -> Result<f64, StudyPlanError> {
            if !value.is_finite() || *value <= 0.0 {
                return Err(StudyPlanError::new(format!(
                    "sweep axis {field:?}: value {value} must be a positive number"
                )));
            }
            Ok(*value)
        };
        params = Some(match name {
            "k" => p.with_k(as_count()?),
            "messages" => p.with_messages(as_count()?),
            "runs" => p.with_runs(as_count()?),
            "delta" => p.with_delta(as_positive()?),
            "interarrival" => {
                let mut p = p;
                p.workload_interarrival = as_positive()?;
                p
            }
            _ => {
                return Err(StudyPlanError::new(format!(
                    "unknown study-parameter axis {field:?} \
                     (supported: params.k, params.messages, params.runs, \
                     params.delta, params.interarrival)"
                )))
            }
        });
    }
    Ok(params)
}

/// The executed result of a sweep: one typed document whose first section
/// is the per-cell summary table, followed by every cell's study sections.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// The study that ran per cell.
    pub study: StudyId,
    /// The typed report (summary section first).
    pub doc: ReportDoc,
    /// Per-cell cache provenance, in cell order. Kept outside the
    /// document so cold and warm sweeps render byte-identical reports;
    /// the CLI surfaces it as a stderr summary.
    pub cache: Vec<RunCache>,
    /// Cells that failed under [`RunPolicy::KeepGoing`] (`--keep-going`),
    /// in cell order; empty on a clean sweep. When non-empty the report's
    /// last section is the typed `failure-summary`, and the summary table
    /// shows missing stats for these cells.
    pub failures: Vec<CellFailure>,
}

impl SweepReport {
    /// How many cells were served from the artifact store (memory or
    /// disk) rather than computed.
    pub fn cells_served_from_cache(&self) -> usize {
        self.cache.iter().filter(|c| c.source.is_cached()).count()
    }
}

/// Executes a resolved sweep with a fresh, private in-memory artifact
/// store (cells still share traces/graphs/timelines within the call).
/// Infallible for the clean path; a failing cell propagates as a panic
/// carrying the typed message (use [`run_sweep_with_policy`] for typed
/// failure handling).
///
/// # Panics
///
/// Panics when a cell fails — only possible with injected faults, since
/// the private in-memory store removes every I/O failure mode.
pub fn run_sweep(sweep_plan: &SweepPlan) -> SweepReport {
    run_sweep_with(sweep_plan, &ArtifactStore::in_memory())
        .unwrap_or_else(|e| panic!("sweep execution failed: {e}"))
}

/// Executes a resolved sweep under the default fail-fast policy. See
/// [`run_sweep_with_policy`].
pub fn run_sweep_with(
    sweep_plan: &SweepPlan,
    store: &ArtifactStore,
) -> Result<SweepReport, StudyError> {
    run_sweep_with_policy(sweep_plan, store, RunPolicy::FailFast)
}

/// Executes a resolved sweep against an artifact store and assembles the
/// summary document. With a disk-backed store, cells whose result
/// fingerprint is already cached are served without running any engine —
/// an interrupted multi-thousand-cell sweep resumes from where it died.
///
/// Under [`RunPolicy::KeepGoing`] (`psn-study sweep --keep-going`) a
/// failing cell cannot abort the grid: the remaining cells finish, the
/// failed cells appear in [`SweepReport::failures`] and in the
/// `failure-summary` section at the end of the document (their summary
/// rows show missing stats), and a subsequent run over the same disk
/// cache recomputes only the failed cells — bit-identically to a sweep
/// that never failed.
pub fn run_sweep_with_policy(
    sweep_plan: &SweepPlan,
    store: &ArtifactStore,
    policy: RunPolicy,
) -> Result<SweepReport, StudyError> {
    let report = run_study_with_policy(&sweep_plan.plan, store, policy)?;
    let summary = summary_section(sweep_plan, &report.doc);

    let mut doc = ReportDoc::new(format!("{}-sweep", sweep_plan.plan.study.name()));
    doc.sections.push(summary);
    doc.sections.extend(report.doc.sections);
    Ok(SweepReport {
        study: sweep_plan.plan.study,
        doc,
        cache: report.cache,
        failures: report.failures,
    })
}

/// Builds the per-cell summary: `cell, <axes…>, seed, scenario` plus one
/// column per distinct scalar statistic reported by the cells' sections
/// (first-appearance order; cells missing a statistic get a missing
/// cell). Stats are keyed by name: if a cell reports the same name twice,
/// the first value wins — section builders qualify names (e.g.
/// `paths[Epidemic]`, `success[Fresh]`) where per-section values differ.
fn summary_section(sweep_plan: &SweepPlan, doc: &ReportDoc) -> Section {
    // Discover the stat columns.
    let mut stat_names: Vec<(String, NumberFormat, Option<String>)> = Vec::new();
    let mut per_cell_stats: Vec<Vec<(String, f64)>> = Vec::new();
    for cell in &sweep_plan.cells {
        let mut stats = Vec::new();
        for section in doc.sections_for(&cell.label) {
            for scalar in section.scalars() {
                if !stats.iter().any(|(name, _)| name == &scalar.name) {
                    stats.push((scalar.name.clone(), scalar.value));
                    if !stat_names.iter().any(|(name, _, _)| name == &scalar.name) {
                        stat_names.push((scalar.name.clone(), scalar.format, scalar.unit.clone()));
                    }
                }
            }
        }
        per_cell_stats.push(stats);
    }

    let mut columns = vec![Column::int("cell")];
    for axis in &sweep_plan.axes {
        columns.push(Column::display(axis.clone()));
    }
    columns.push(Column::int("seed"));
    columns.push(Column::text("scenario"));
    for (name, format, unit) in &stat_names {
        columns.push(Column { name: name.clone(), unit: unit.clone(), format: *format });
    }

    let mut table = Table::new("sweep_cells", columns);
    for (index, cell) in sweep_plan.cells.iter().enumerate() {
        let mut row = vec![CellValue::Int(index as u64)];
        for axis in &sweep_plan.axes {
            let value = cell
                .assignments
                .iter()
                .find(|(field, _)| field == axis)
                .map(|(_, value)| *value)
                .unwrap_or_else(|| unreachable!("every cell assigns every axis"));
            row.push(CellValue::Float(value));
        }
        row.push(CellValue::Int(cell.seed.unwrap_or_else(|| cell.config.seed())));
        row.push(CellValue::Text(cell.label.clone()));
        let stats = &per_cell_stats[index];
        for (name, _, _) in &stat_names {
            let value = stats.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            row.push(CellValue::opt_float(value));
        }
        table.push_row(row);
    }

    let mut section = Section::new()
        .stat(Scalar::display("cells", sweep_plan.cells.len() as f64))
        .block(Block::Title(format!(
            "Sweep summary — {} over {} cells ({} axes: {})",
            sweep_plan.plan.study,
            sweep_plan.cells.len(),
            sweep_plan.axes.len(),
            if sweep_plan.axes.is_empty() {
                "none".to_string()
            } else {
                sweep_plan.axes.join(", ")
            }
        )))
        .block(Block::Table(table));
    section.view = "sweep-summary".to_string();
    section
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::config::ExperimentProfile;
    use crate::report::{CsvRenderer, JsonRenderer, Renderer, TextRenderer};
    use psn_spacetime::EnumerationConfig;
    use psn_trace::generator::config::CommunityConfig;
    use psn_trace::{ScenarioConfig, SweepAxis};

    fn tiny_params() -> StudyParams {
        let mut p = StudyParams::for_profile(ExperimentProfile::Quick);
        p.enumeration = EnumerationConfig::quick(20);
        p.explosion_threshold = 20;
        p.enumeration_messages = 4;
        p.simulation_runs = 1;
        p.workload_horizon = Some(400.0);
        p.workload_interarrival = 40.0;
        p.paths_taken_messages = 1;
        p.model_replications = 3;
        p.threads = 2;
        p
    }

    fn base() -> ScenarioConfig {
        ScenarioConfig::Community(CommunityConfig {
            name: "sweep-base".into(),
            communities: 2,
            nodes_per_community: 6,
            window_seconds: 2400.0,
            max_node_rate: 0.2,
            intra_inter_ratio: 4.0,
            mean_contact_duration: 60.0,
            contact_duration_cv: 0.5,
            seed: 5,
        })
    }

    fn grid_spec(study: StudyId, views: Vec<StudyView>) -> SweepSpec {
        SweepSpec {
            study,
            sweep: ScenarioSweep {
                name: "grid".into(),
                study: None,
                base: base(),
                axes: vec![
                    SweepAxis { field: "intra_inter_ratio".into(), values: vec![2.0, 8.0] },
                    SweepAxis { field: "nodes_per_community".into(), values: vec![4.0, 8.0] },
                ],
                seeds: vec![],
            },
            views,
            params: tiny_params(),
        }
    }

    #[test]
    fn sweeps_resolve_through_the_study_plan_machinery() {
        let spec = grid_spec(StudyId::Activity, vec![StudyView::ActivityTimeseries]);
        let plan = spec.plan().unwrap();
        assert_eq!(plan.cells.len(), 4);
        assert_eq!(plan.plan.runs.len(), 4);
        for (cell, run) in plan.cells.iter().zip(&plan.plan.runs) {
            assert_eq!(cell.label, run.label);
            assert_eq!(cell.config, run.config);
        }
        assert_eq!(plan.axes, vec!["intra_inter_ratio", "nodes_per_community"]);
    }

    #[test]
    fn model_and_invalid_axes_are_rejected() {
        let spec = grid_spec(StudyId::Model, vec![]);
        assert!(spec.plan().unwrap_err().to_string().contains("cannot be swept"));

        let mut spec = grid_spec(StudyId::Activity, vec![]);
        spec.sweep.axes[0].field = "bogus".into();
        let err = spec.plan().unwrap_err();
        assert!(err.to_string().contains("bogus"), "{err}");
    }

    #[test]
    fn summary_covers_every_grid_cell_with_typed_stats() {
        let spec = grid_spec(StudyId::Activity, vec![StudyView::ActivityTimeseries]);
        let plan = spec.plan().unwrap();
        let report = run_sweep(&plan);

        // Summary first, then one tagged section per cell.
        assert_eq!(report.doc.sections.len(), 1 + 4);
        let summary = &report.doc.sections[0];
        assert_eq!(summary.view, "sweep-summary");
        let Some(Block::Table(table)) = summary.blocks.get(1) else {
            panic!("summary table expected, got {:?}", summary.blocks.get(1));
        };
        assert_eq!(table.rows.len(), 4, "one row per grid cell");
        let names: Vec<&str> = table.columns.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            &names[..5],
            &["cell", "intra_inter_ratio", "nodes_per_community", "seed", "scenario"]
        );
        assert!(names.contains(&"cv"), "{names:?}");
        assert!(names.contains(&"tail_ratio"), "{names:?}");

        // Every cell label appears in both the summary rows and the body.
        for cell in &plan.cells {
            assert!(
                table.rows.iter().any(|row| row.contains(&CellValue::Text(cell.label.clone()))),
                "summary row for {:?}",
                cell.label
            );
            assert!(!report.doc.sections_for(&cell.label).is_empty(), "{:?}", cell.label);
        }

        // The document renders through every backend; JSON round-trips.
        let text = TextRenderer.render_text(&report.doc);
        assert!(text.contains("Sweep summary — activity over 4 cells"), "{text}");
        let json = JsonRenderer.render_json(&report.doc);
        let parsed = JsonRenderer.parse(&json).expect("sweep json parses");
        assert_eq!(parsed, report.doc);
        assert!(!CsvRenderer.render(&report.doc).is_empty());
    }

    #[test]
    fn param_axes_flow_into_study_params() {
        let mut spec = grid_spec(StudyId::Explosion, vec![StudyView::ExplosionCdfs]);
        spec.sweep.axes = vec![
            SweepAxis { field: "intra_inter_ratio".into(), values: vec![2.0, 8.0] },
            SweepAxis { field: "params.k".into(), values: vec![5.0, 20.0] },
        ];
        let plan = spec.plan().unwrap();
        assert_eq!(plan.plan.runs.len(), 4);
        assert_eq!(plan.axes, vec!["intra_inter_ratio", "params.k"]);
        for (cell, run) in plan.cells.iter().zip(&plan.plan.runs) {
            let k = cell.assignments[1].1 as usize;
            let params = run.params.as_ref().expect("params axis sets per-run overrides");
            assert_eq!(params.enumeration.k, k, "{}", run.label);
            assert!(run.label.contains("params.k="), "{}", run.label);
            // The scenario itself is untouched by the params axis.
            let ScenarioConfig::Community(c) = &run.config else { panic!("family preserved") };
            assert_eq!(c.intra_inter_ratio, cell.assignments[0].1);
        }
        // Cells 0/1 share a scenario fingerprint (only k differs).
        assert_eq!(plan.cells[0].config.fingerprint(), plan.cells[1].config.fingerprint());

        // messages and runs axes map to their params too.
        let mut spec = grid_spec(StudyId::Forwarding, vec![StudyView::DelayVsSuccess]);
        spec.sweep.axes = vec![SweepAxis { field: "params.runs".into(), values: vec![1.0, 2.0] }];
        let plan = spec.plan().unwrap();
        assert_eq!(plan.plan.runs[1].params.as_ref().unwrap().simulation_runs, 2);
        let mut spec = grid_spec(StudyId::Explosion, vec![StudyView::ExplosionCdfs]);
        spec.sweep.axes =
            vec![SweepAxis { field: "params.messages".into(), values: vec![2.0, 3.0] }];
        let plan = spec.plan().unwrap();
        assert_eq!(plan.plan.runs[1].params.as_ref().unwrap().enumeration_messages, 3);

        // Unknown parameter names and non-integer values are plan errors.
        let mut spec = grid_spec(StudyId::Activity, vec![StudyView::ActivityTimeseries]);
        spec.sweep.axes = vec![SweepAxis { field: "params.bogus".into(), values: vec![1.0] }];
        let err = spec.plan().unwrap_err();
        assert!(err.to_string().contains("params.bogus"), "{err}");
        assert!(err.to_string().contains("params.k"), "error lists the supported axes: {err}");
        let mut spec = grid_spec(StudyId::Activity, vec![StudyView::ActivityTimeseries]);
        spec.sweep.axes = vec![SweepAxis { field: "params.k".into(), values: vec![2.5] }];
        let err = spec.plan().unwrap_err();
        assert!(err.to_string().contains("positive integer"), "{err}");
    }

    #[test]
    fn cells_sharing_a_scenario_build_each_artifact_exactly_once() {
        // Four cells varying only params.runs over one scenario: the trace
        // and timeline must each be built once for the whole sweep —
        // including under the parallel per-run work queue — and the
        // forwarding-only cells build no space-time graph at all.
        let mut spec = grid_spec(StudyId::Forwarding, vec![StudyView::DelayVsSuccess]);
        spec.sweep.axes =
            vec![SweepAxis { field: "params.runs".into(), values: vec![1.0, 2.0, 3.0, 4.0] }];
        spec.params.threads = 4;
        let plan = spec.plan().unwrap();
        let store = crate::study::ArtifactStore::in_memory();
        let report = run_sweep_with(&plan, &store).unwrap();
        assert_eq!(report.cache.len(), 4);
        assert_eq!(report.cells_served_from_cache(), 0, "distinct results per runs value");

        let stats = store.stats();
        use psn_artifact::ArtifactKind;
        assert_eq!(stats.builds_of(ArtifactKind::Trace), 1, "{stats:?}");
        assert_eq!(stats.builds_of(ArtifactKind::Graph), 0, "{stats:?}");
        assert_eq!(stats.builds_of(ArtifactKind::Timeline), 1, "{stats:?}");
        assert_eq!(stats.builds_of(ArtifactKind::Result), 4, "{stats:?}");

        // The summary exposes the params axis as a column and the per-cell
        // success stats differ across runs counts only through averaging.
        let Some(Block::Table(table)) = report.doc.sections[0].blocks.get(1) else {
            panic!("summary table expected");
        };
        let names: Vec<&str> = table.columns.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"params.runs"), "{names:?}");
    }

    #[test]
    fn interrupted_sweeps_resume_from_a_partial_disk_cache() {
        use crate::study::{ArtifactStore, CacheSource};
        let dir =
            std::env::temp_dir().join(format!("psn-sweep-resume-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let spec = grid_spec(StudyId::Activity, vec![StudyView::ActivityTimeseries]);
        let plan = spec.plan().unwrap();
        let cold = run_sweep_with(&plan, &ArtifactStore::with_disk(&dir).unwrap()).unwrap();
        assert_eq!(cold.cells_served_from_cache(), 0);

        // Simulate an interruption: delete one cell's persisted result
        // (payload + sidecar), leaving a partially-populated cache.
        let results = dir.join("results");
        let mut stems: Vec<std::path::PathBuf> = std::fs::read_dir(&results)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect();
        stems.sort();
        assert_eq!(stems.len(), 4, "one persisted result per cell");
        std::fs::remove_file(&stems[0]).unwrap();
        std::fs::remove_file(stems[0].with_extension("meta")).unwrap();

        // A fresh store over the same directory — a restarted process —
        // completes the sweep: three cells from disk, one recomputed, and
        // the report is bit-identical to the uninterrupted run.
        let resumed = run_sweep_with(&plan, &ArtifactStore::with_disk(&dir).unwrap()).unwrap();
        assert_eq!(resumed.cells_served_from_cache(), 3, "{:?}", resumed.cache);
        assert_eq!(
            resumed.cache.iter().filter(|c| c.source == CacheSource::Built).count(),
            1,
            "{:?}",
            resumed.cache
        );
        assert_eq!(cold.doc, resumed.doc);

        // A third run is fully cache-served.
        let warm = run_sweep_with(&plan, &ArtifactStore::with_disk(&dir).unwrap()).unwrap();
        assert_eq!(warm.cells_served_from_cache(), 4);
        assert!(warm.cache.iter().all(|c| c.source == CacheSource::Disk));
        assert_eq!(cold.doc, warm.doc);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forwarding_sweeps_expose_per_algorithm_success_columns() {
        let mut spec = grid_spec(StudyId::Forwarding, vec![StudyView::DelayVsSuccess]);
        spec.sweep.axes.truncate(1); // 2 cells keep the test quick
        let report = run_sweep(&spec.plan().unwrap());
        let Some(Block::Table(table)) = report.doc.sections[0].blocks.get(1) else {
            panic!("summary table expected");
        };
        let names: Vec<&str> = table.columns.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"success[Epidemic]"), "{names:?}");
        assert!(names.contains(&"success-rate spread across non-epidemic algorithms"), "{names:?}");
        assert_eq!(table.rows.len(), 2);
    }
}
