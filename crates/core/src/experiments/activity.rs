//! Contact activity experiments: Fig. 1 (contact time series) and Fig. 7
//! (per-node contact-count CDFs).

use psn_stats::{BinnedSeries, Ecdf};
use psn_trace::ContactSummary;

use crate::report::{Block, Column, Scalar, Section, Series};

/// The activity data for one dataset.
#[derive(Debug, Clone)]
pub struct ActivityReport {
    /// Label of the scenario this report describes.
    pub scenario: String,
    /// Total contacts per one-minute bin (Fig. 1 series).
    pub per_minute: BinnedSeries,
    /// Coefficient of variation of the per-minute counts (stationarity
    /// check). `None` when the stationarity check is undefined: the window
    /// holds fewer one-minute bins than the 30-minute tail, or no contacts.
    pub coefficient_of_variation: Option<f64>,
    /// Mean of the final 30 minutes relative to the overall mean (the
    /// afternoon drop-off diagnostic); `None` exactly when
    /// [`ActivityReport::coefficient_of_variation`] is.
    pub tail_ratio: Option<f64>,
    /// CDF of per-node contact counts (Fig. 7 series).
    pub contact_count_cdf: Ecdf,
    /// Kolmogorov–Smirnov distance of the contact-count distribution from a
    /// uniform distribution on `[0, max]` (the paper's "approximately
    /// uniform" observation).
    pub uniformity_ks: f64,
}

impl ActivityReport {
    /// The typed Fig. 1 section: contacts per minute, with the
    /// stationarity diagnostics as machine-readable stats when they are
    /// defined.
    pub fn timeseries_section(&self) -> Section {
        let points = self.per_minute.series().into_iter().map(|(t, c)| (t / 60.0, c)).collect();
        let title = format!("Figure 1 — total contacts per minute, {}", self.scenario);
        let section = match (self.coefficient_of_variation, self.tail_ratio) {
            (Some(cv), Some(tail_ratio)) => Section::new()
                .stat(Scalar::fixed("cv", cv, 3))
                .stat(Scalar::fixed("tail_ratio", tail_ratio, 3))
                .block(Block::Title(format!("{title} (cv={cv:.3}, tail ratio={tail_ratio:.3})"))),
            _ => Section::new().block(Block::Title(format!("{title} (cv, tail ratio undefined)"))),
        };
        section.block(Block::Series(Series::new(
            "contacts per minute",
            Column::fixed("minute", 0).with_unit("min"),
            Column::display("contacts"),
            points,
        )))
    }

    /// The typed Fig. 7 section: the per-node contact-count CDF.
    pub fn contact_cdf_section(&self) -> Section {
        Section::new()
            .stat(Scalar::fixed("uniformity_ks", self.uniformity_ks, 3))
            .block(Block::Title(format!(
                "Figure 7 — per-node contact count CDF, {} (KS distance to uniform = {:.3})",
                self.scenario, self.uniformity_ks
            )))
            .block(Block::Series(
                Series::from_ecdf("contact counts", &self.contact_count_cdf).downsample(120),
            ))
    }
}

/// Builds the activity report from a scenario's [`ContactSummary`]: its
/// per-minute series and per-node rates, so a rates-only summary
/// ([`ContactSummary::rates_only`]) suffices.
pub fn activity_report(scenario: impl Into<String>, summary: &ContactSummary) -> ActivityReport {
    let per_minute = summary.per_minute().clone();
    let rates = summary.rates();
    // Undefined for windows shorter than the 30-minute tail or without
    // contacts.
    let stationarity = psn_trace::binning::stationarity_from_series(&per_minute);
    ActivityReport {
        scenario: scenario.into(),
        coefficient_of_variation: stationarity.as_ref().map(|s| s.coefficient_of_variation),
        tail_ratio: stationarity.as_ref().map(|s| s.tail_ratio),
        per_minute,
        contact_count_cdf: rates.count_cdf().unwrap_or_else(|| unreachable!("non-empty trace")),
        uniformity_ks: rates.uniformity_ks().unwrap_or(1.0),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::config::ExperimentProfile;
    use crate::study::{run_study, StudyId, StudyParams, StudyReport, StudyScenario, StudySpec};
    use psn_trace::DatasetId;

    /// The activity study over the four paper datasets at quick scale,
    /// through the study pipeline.
    fn quick_study() -> StudyReport {
        let scenarios = DatasetId::all()
            .into_iter()
            .map(|id| StudyScenario::dataset(id, ExperimentProfile::Quick))
            .collect();
        let params = StudyParams::for_profile(ExperimentProfile::Quick).with_threads(2);
        run_study(&StudySpec::new(StudyId::Activity, scenarios, params).plan().unwrap())
    }

    /// The value of the statistic `name` in `section`.
    fn stat(section: &Section, name: &str) -> f64 {
        section.scalars().into_iter().find(|s| s.name == name).expect("stat present").value
    }

    /// The points of the section's only series.
    fn series_points(section: &Section) -> &[(f64, f64)] {
        section
            .blocks
            .iter()
            .find_map(|b| match b {
                Block::Series(s) => Some(s.points.as_slice()),
                _ => None,
            })
            .expect("one series")
    }

    #[test]
    fn quick_study_covers_all_datasets() {
        let report = quick_study();
        for id in DatasetId::all() {
            let sections = report.sections_for(id.label());
            let [timeseries, cdf] = sections.as_slice() else {
                panic!("{id:?}: expected both activity views, got {}", sections.len());
            };
            assert!(series_points(timeseries).iter().map(|p| p.1).sum::<f64>() > 0.0, "{id:?}");
            assert!(!series_points(cdf).is_empty(), "{id:?}");
            // The synthetic traces keep the paper's roughly uniform
            // contact-count distribution.
            let ks = stat(cdf, "uniformity_ks");
            assert!(ks < 0.35, "{id:?}: ks = {ks}");
        }
    }

    #[test]
    fn afternoon_datasets_show_stronger_tail_dropoff() {
        let report = quick_study();
        let get = |id: DatasetId| stat(report.sections_for(id.label())[0], "tail_ratio");
        assert!(
            get(DatasetId::Infocom06Afternoon) < get(DatasetId::Infocom06Morning),
            "afternoon should drop off more than morning"
        );
        assert!(get(DatasetId::Conext06Afternoon) < get(DatasetId::Conext06Morning));
    }

    #[test]
    fn single_trace_helpers() {
        let trace = ExperimentProfile::Quick.dataset(DatasetId::Conext06Morning).generate();
        let report =
            activity_report(DatasetId::Conext06Morning, &ContactSummary::from_trace(&trace));
        assert_eq!(report.per_minute.bin_width(), 60.0);
        assert!(!report.contact_count_cdf.is_empty());
    }
}
