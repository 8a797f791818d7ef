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
//! `TextRenderer.render_section(&study.delay_vs_success_section())` prints
//! one figure's text.

pub mod model;
pub mod render;

pub use model::{
    slug, Block, CellValue, Column, NumberFormat, ReportDoc, RunMeta, Scalar, Section, Series,
    Table, TableStyle,
};
pub use render::{Artifact, CsvRenderer, JsonRenderer, Renderer, ReportFormat, TextRenderer};

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::config::ExperimentProfile;
    use crate::experiments::activity::{activity_report, ActivityReport};
    use psn_stats::Ecdf;
    use psn_trace::{ContactSummary, DatasetId};

    /// The activity report of the quick Infocom'06 morning dataset.
    fn infocom_morning() -> ActivityReport {
        let trace = ExperimentProfile::Quick.dataset(DatasetId::Infocom06Morning).generate();
        activity_report(DatasetId::Infocom06Morning, &ContactSummary::from_trace(&trace))
    }

    #[test]
    fn cdf_rendering_is_csv_like() {
        let cdf = Ecdf::new(&[1.0, 2.0, 2.0, 5.0]).unwrap();
        let text = TextRenderer.render_series(&Series::from_ecdf("test", &cdf).downsample(10));
        assert!(text.contains("value,probability"));
        assert!(text.contains("5.000,1.0000"));
        assert!(text.starts_with("# test: 4 samples"));
    }

    #[test]
    fn activity_rendering_contains_every_minute() {
        let report = infocom_morning();
        let text = TextRenderer.render_section(&report.timeseries_section());
        assert!(text.contains("Figure 1"));
        assert!(text.contains("minute,contacts"));
        let lines = text.lines().count();
        // Header lines + 60 one-minute bins for the quick one-hour window.
        assert!(lines >= 60, "only {lines} lines");
        let cdf_text = TextRenderer.render_section(&report.contact_cdf_section());
        assert!(cdf_text.contains("Figure 7"));
    }

    #[test]
    fn activity_report_for_custom_trace() {
        let trace = ExperimentProfile::Quick.dataset(DatasetId::Conext06Morning).generate();
        let report =
            activity_report(DatasetId::Conext06Morning, &ContactSummary::from_trace(&trace));
        let text = TextRenderer.render_section(&report.timeseries_section());
        assert!(text.contains("Conext06 9-12"));
    }

    #[test]
    fn typed_sections_carry_machine_readable_stats() {
        let section = infocom_morning().timeseries_section();
        let names: Vec<&str> = section.scalars().iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"cv"), "{names:?}");
        assert!(names.contains(&"tail_ratio"), "{names:?}");
    }
}
