//! Typed experiment reports and their pluggable renderers.
//!
//! Historically this module was fifteen `render_*(…) -> String` functions
//! and every study stored exact output bytes per section. It is now a
//! **value model** ([`model`]): studies build [`ReportDoc`]s out of
//! schema'd [`Table`]s, [`Series`] and [`Scalar`]s (column names, number
//! formats, units, run metadata), and rendering is a backend choice
//! ([`render`]):
//!
//! * [`TextRenderer`] reproduces the historical plain-text/CSV stream
//!   byte-for-byte (golden-pinned);
//! * [`JsonRenderer`] emits the parseable `psn-report/1` schema;
//! * [`CsvRenderer`] writes one file per table.
//!
//! The section *builders* live with the experiment drivers (e.g.
//! [`crate::experiments::forwarding::ForwardingStudy::delay_vs_success_section`]);
//! the legacy `render_*` helpers below are retained as thin text-backend
//! wrappers so examples and integration tests keep working unchanged.

pub mod model;
pub mod render;

pub use model::{
    slug, Block, CellValue, Column, NumberFormat, ReportDoc, RunMeta, Scalar, Section, Series,
    Table, TableStyle,
};
pub use render::{Artifact, CsvRenderer, JsonRenderer, Renderer, ReportFormat, TextRenderer};

use psn_stats::Ecdf;

use crate::experiments::activity::ActivityReport;
use crate::experiments::explosion::ExplosionStudy;
use crate::experiments::forwarding::ForwardingStudy;
use crate::experiments::hop_rates::HopRateStudy;
use crate::experiments::model::ModelValidation;
use crate::experiments::paths_taken::PathsTakenCase;

fn text_of(section: &Section) -> String {
    TextRenderer.render_section(section)
}

/// Renders an ECDF as `value,cumulative_probability` rows, down-sampled to
/// at most `max_points` points (see [`Series::downsample`] for the exact
/// thinning rule).
pub fn render_cdf(name: &str, cdf: &Ecdf, max_points: usize) -> String {
    TextRenderer.render_series(&Series::from_ecdf(name, cdf).downsample(max_points))
}

/// Renders the Fig. 1 contact time series of one dataset.
pub fn render_activity(report: &ActivityReport) -> String {
    text_of(&report.timeseries_section())
}

/// Renders the Fig. 7 per-node contact-count CDF of one dataset.
pub fn render_contact_cdf(report: &ActivityReport) -> String {
    text_of(&report.contact_cdf_section())
}

/// Renders the Fig. 4 CDFs (optimal path duration, time to explosion).
pub fn render_explosion_cdfs(study: &ExplosionStudy) -> String {
    text_of(&study.cdfs_section())
}

/// Renders the Fig. 5 scatter of optimal duration vs time to explosion.
pub fn render_explosion_scatter(study: &ExplosionStudy) -> String {
    text_of(&study.scatter_section())
}

/// Renders the Fig. 6 growth histogram for slow-explosion messages.
pub fn render_explosion_growth(study: &ExplosionStudy) -> String {
    text_of(&study.growth_section())
}

/// Renders the Fig. 8 pair-type scatter panels.
pub fn render_pairtype_scatter(study: &ExplosionStudy) -> String {
    text_of(&study.pair_type_section())
}

/// Renders the Fig. 9 success-rate vs average-delay table for one dataset.
pub fn render_delay_vs_success(study: &ForwardingStudy) -> String {
    text_of(&study.delay_vs_success_section())
}

/// Renders the Fig. 10 delay distributions for one dataset.
pub fn render_delay_distributions(study: &ForwardingStudy) -> String {
    text_of(&study.delay_distributions_section())
}

/// Renders the Fig. 11 cumulative reception series (per algorithm).
pub fn render_reception_times(study: &ForwardingStudy) -> String {
    text_of(&study.reception_times_section())
}

/// Renders one Fig. 12 case (path bursts + algorithm arrivals).
pub fn render_paths_taken(case: &PathsTakenCase) -> String {
    text_of(&case.section())
}

/// Renders the Fig. 13 pair-type performance breakdown for one dataset.
pub fn render_pairtype_performance(study: &ForwardingStudy) -> String {
    text_of(&study.pair_type_section())
}

/// Renders the Fig. 14 per-hop mean rates with confidence intervals.
pub fn render_hop_rates(study: &HopRateStudy) -> String {
    text_of(&study.mean_rate_section())
}

/// Renders the Fig. 15 per-hop rate-ratio box plots.
pub fn render_rate_ratios(study: &HopRateStudy) -> String {
    text_of(&study.rate_ratio_section())
}

/// Renders the §5.1 model-validation summary.
pub fn render_model_validation(validation: &ModelValidation) -> String {
    text_of(&validation.section())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::config::ExperimentProfile;
    use crate::experiments::activity::{activity_report, run_activity_study};
    use psn_trace::{ContactSummary, DatasetId};

    #[test]
    fn cdf_rendering_is_csv_like() {
        let cdf = Ecdf::new(&[1.0, 2.0, 2.0, 5.0]).unwrap();
        let text = render_cdf("test", &cdf, 10);
        assert!(text.contains("value,probability"));
        assert!(text.contains("5.000,1.0000"));
        assert!(text.starts_with("# test: 4 samples"));
    }

    #[test]
    fn activity_rendering_contains_every_minute() {
        let reports = run_activity_study(ExperimentProfile::Quick);
        let text = render_activity(&reports[0]);
        assert!(text.contains("Figure 1"));
        assert!(text.contains("minute,contacts"));
        let lines = text.lines().count();
        // Header lines + 60 one-minute bins for the quick one-hour window.
        assert!(lines >= 60, "only {lines} lines");
        let cdf_text = render_contact_cdf(&reports[0]);
        assert!(cdf_text.contains("Figure 7"));
    }

    #[test]
    fn activity_report_for_custom_trace() {
        let trace = ExperimentProfile::Quick.dataset(DatasetId::Conext06Morning).generate();
        let report =
            activity_report(DatasetId::Conext06Morning, &ContactSummary::from_trace(&trace));
        let text = render_activity(&report);
        assert!(text.contains("Conext06 9-12"));
    }

    #[test]
    fn typed_sections_carry_machine_readable_stats() {
        let reports = run_activity_study(ExperimentProfile::Quick);
        let section = reports[0].timeseries_section();
        let names: Vec<&str> = section.scalars().iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"cv"), "{names:?}");
        assert!(names.contains(&"tail_ratio"), "{names:?}");
    }
}
