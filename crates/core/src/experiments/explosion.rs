//! Path-explosion experiments: Figs. 4, 5, 6 and 8.
//!
//! For a population of uniformly drawn messages the driver enumerates valid
//! paths (in parallel across messages), builds per-message
//! [`ExplosionProfile`]s and aggregates:
//!
//! * the CDF of optimal path durations (Fig. 4a) and of times to explosion
//!   (Fig. 4b);
//! * the `(T₁, TE)` scatter (Fig. 5), also split by source/destination pair
//!   type (Fig. 8);
//! * the path-arrival growth histogram for slow-explosion messages
//!   (Fig. 6);
//! * summary statistics quoted in the text (fraction of messages with
//!   optimal duration over 1000 s, fraction with TE ≤ 150 s, correlation
//!   between T₁ and TE).

use psn_spacetime::{
    EnumerationConfig, ExplosionProfile, ExplosionSummary, GraphRef, Message, Path, PathEnumerator,
};
use psn_stats::{correlation, Histogram};
use psn_trace::{ContactRates, ContactSummary, Seconds};

use crate::report::{Block, Column, Scalar, Section, Series};
use psn_forwarding::{classify_message, PairType};

/// Messages per worker claim: one slot-major [`PathEnumerator::enumerate_batch`]
/// sweep amortizes cold-slot reloads across the chunk, while a small chunk
/// keeps work-stealing granular enough to balance wildly varying
/// per-message cost.
const ENUMERATION_CHUNK: usize = 8;

/// Scatter points `(optimal duration, time to explosion)` for one pair type
/// (one panel of Fig. 8).
#[derive(Debug, Clone)]
pub struct PairTypeScatter {
    /// The pair type of the panel.
    pub pair_type: PairType,
    /// The scatter points.
    pub points: Vec<(Seconds, Seconds)>,
}

/// The complete result of the path-explosion study on one dataset.
#[derive(Debug)]
pub struct ExplosionStudy {
    /// Label of the scenario analysed (a dataset label like
    /// "Infocom06 9-12" or any [`psn_trace::ScenarioConfig`] name).
    pub scenario: String,
    /// Explosion threshold used (2000 at paper scale).
    pub explosion_threshold: usize,
    /// Aggregated per-message profiles.
    pub summary: ExplosionSummary,
    /// Scatter panels split by pair type (Fig. 8).
    pub by_pair_type: Vec<PairTypeScatter>,
    /// Path-arrival histogram (time since T₁, number of paths) over messages
    /// whose time-to-explosion exceeded `slow_te_cutoff` (Fig. 6).
    pub slow_growth_histogram: Option<Histogram>,
    /// The TE cutoff used for the slow-growth histogram (150 s in the
    /// paper).
    pub slow_te_cutoff: Seconds,
    /// Pearson correlation between T₁ and TE over exploded messages; the
    /// paper's Fig. 5 argues there is no clear relationship.
    pub t1_te_correlation: Option<f64>,
    /// Sample near-optimal paths retained for the per-hop analyses
    /// (Figs. 14–15): the first `stored_path_limit` delivered paths of
    /// each message. The study layer sets that limit to 0, so this is
    /// empty, unless a hop-rate view is planned.
    pub sample_paths: Vec<Path>,
    /// Per-node contact rates of the trace (shared by downstream analyses).
    pub rates: ContactRates,
}

impl ExplosionStudy {
    /// Fraction of delivered messages whose optimal path duration exceeds
    /// `threshold` seconds (the paper quotes "over 25% require over 1000
    /// seconds").
    pub fn fraction_optimal_duration_above(&self, threshold: Seconds) -> Option<f64> {
        let cdf = self.summary.optimal_duration_cdf()?;
        Some(cdf.survival(threshold))
    }

    /// Fraction of exploded messages whose time to explosion is at most
    /// `threshold` seconds (the paper quotes "97% have TE ≤ 150 s").
    pub fn fraction_te_below(&self, threshold: Seconds) -> Option<f64> {
        let cdf = self.summary.time_to_explosion_cdf()?;
        Some(cdf.eval(threshold))
    }

    fn scatter_columns() -> (Column, Column) {
        (
            Column::fixed("optimal_duration_s", 1).with_unit("s"),
            Column::fixed("time_to_explosion_s", 1).with_unit("s"),
        )
    }

    /// The typed Fig. 4 section: optimal-duration and time-to-explosion
    /// CDFs plus the headline fractions the paper quotes.
    pub fn cdfs_section(&self) -> Section {
        let mut section = Section::new()
            .stat(Scalar::display("messages", self.summary.len() as f64))
            .stat(Scalar::fixed("delivery_fraction", self.summary.delivery_fraction(), 3))
            .block(Block::Title(format!(
                "Figure 4 — {} ({} messages, threshold {} paths)",
                self.scenario,
                self.summary.len(),
                self.explosion_threshold
            )));
        section = match self.summary.optimal_duration_cdf() {
            Some(cdf) => section.block(Block::Series(
                Series::from_ecdf("optimal path duration (s)", &cdf).downsample(100),
            )),
            None => section.block(Block::Note("no message was delivered".into())),
        };
        section = match self.summary.time_to_explosion_cdf() {
            Some(cdf) => section.block(Block::Series(
                Series::from_ecdf("time to explosion (s)", &cdf).downsample(100),
            )),
            None => section.block(Block::Note("no message reached the explosion threshold".into())),
        };
        if let Some(f) = self.fraction_optimal_duration_above(1000.0) {
            section = section.block(Block::Scalar(Scalar::fixed(
                "fraction with optimal duration > 1000 s",
                f,
                3,
            )));
        }
        if let Some(f) = self.fraction_te_below(150.0) {
            section =
                section.block(Block::Scalar(Scalar::fixed("fraction with TE <= 150 s", f, 3)));
        }
        section
    }

    /// The typed Fig. 5 section: the `(T₁, TE)` scatter.
    pub fn scatter_section(&self) -> Section {
        let mut section = Section::new().block(Block::Title(format!(
            "Figure 5 — optimal path duration vs time to explosion, {}",
            self.scenario
        )));
        if let Some(r) = self.t1_te_correlation {
            section = section.block(Block::Scalar(Scalar::fixed("Pearson correlation", r, 3)));
        }
        let (x, y) = Self::scatter_columns();
        section.block(Block::Series(Series::new("t1 vs te", x, y, self.summary.scatter_points())))
    }

    /// The typed Fig. 6 section: the slow-explosion growth histogram.
    pub fn growth_section(&self) -> Section {
        let section = Section::new().block(Block::Title(format!(
            "Figure 6 — path arrivals since T1 for messages with TE >= {} s, {}",
            self.slow_te_cutoff, self.scenario
        )));
        match &self.slow_growth_histogram {
            Some(h) => section.block(Block::Series(Series::new(
                "slow growth",
                Column::fixed("seconds_since_T1", 0).with_unit("s"),
                Column::fixed("paths", 0),
                h.series(),
            ))),
            None => {
                section.block(Block::Note("no message had a slow explosion at this scale".into()))
            }
        }
    }

    /// The typed Fig. 8 section: one scatter panel per pair type.
    pub fn pair_type_section(&self) -> Section {
        let mut section = Section::new().block(Block::Title(format!(
            "Figure 8 — optimal duration vs time to explosion by pair type, {}",
            self.scenario
        )));
        for panel in &self.by_pair_type {
            let (x, y) = Self::scatter_columns();
            section = section
                .block(Block::Heading(format!(
                    "{} ({} messages)",
                    panel.pair_type,
                    panel.points.len()
                )))
                .block(Block::Series(Series::new(
                    panel.pair_type.to_string(),
                    x,
                    y,
                    panel.points.clone(),
                )));
        }
        section
    }
}

/// Runs the explosion study over a scenario's [`ContactSummary`] (its
/// per-node contact rates are the only trace statistic this study reads)
/// and its space-time graph — materialized or bounded-window, as
/// [`GraphRef`] accepts either. A rates-only summary
/// ([`ContactSummary::rates_only`]) suffices.
///
/// # Panics
///
/// Panics if the graph covers a different node population than the
/// summary, or when a worker panicked mid-enumeration (e.g. a chaos-armed
/// failpoint) — the first worker panic is re-raised once on the calling
/// thread.
pub fn run_explosion_study_on<'a>(
    scenario: impl Into<String>,
    summary: &ContactSummary,
    graph: impl Into<GraphRef<'a>>,
    messages: &[Message],
    enumeration: EnumerationConfig,
    explosion_threshold: usize,
    threads: usize,
) -> ExplosionStudy {
    let graph = graph.into();
    assert_eq!(graph.node_count(), summary.node_count(), "graph belongs to a different population");
    let rates = summary.rates();

    // Enumerate messages in parallel, one pool job per *chunk* of message
    // indices, each run as one slot-major `enumerate_batch` sweep: over a
    // bounded-window graph every slot the chunk needs is reloaded at most
    // once for the whole chunk instead of once per message, and results
    // are unchanged because messages enumerate independently. Chunks keep
    // the work balanced even though per-message cost varies wildly
    // (out-out messages cost far more than in-in ones). The first failed
    // chunk stops the pool and is re-raised once on the calling thread —
    // one clean failure the study layer can isolate to its cell.
    //
    // Both chunk sweeps and message restarts walk busy slots in ascending
    // order: declare the sequential plan so a windowed graph keeps the
    // sweep prefix hot across chunk boundaries instead of FIFO-thrashing.
    //
    // Each chunk gets fresh scratches, freed when it ends: a pool kept per
    // worker would hold every scratch at the high-water mark of any message
    // it ever served (fig04 at the paper profile peaked 104 → 180 MiB going
    // from 1 to 2 workers with a pool, 62 → 92 MiB without).
    graph.advise_sequential(true);
    let chunks = psn_fault::run_jobs(
        psn_fault::sites::QUEUE_EXPLOSION,
        threads,
        messages.len().div_ceil(ENUMERATION_CHUNK),
        |_| PathEnumerator::new(graph, enumeration.clone()),
        |enumerator, chunk, _| {
            let start = chunk * ENUMERATION_CHUNK;
            let end = (start + ENUMERATION_CHUNK).min(messages.len());
            enumerator
                .enumerate_batch(&messages[start..end], &mut Vec::new())
                .into_iter()
                .map(|result| {
                    let profile = ExplosionProfile::with_threshold(&result, explosion_threshold);
                    (profile, result.sample_paths)
                })
                .collect::<Vec<_>>()
        },
        Result::is_err,
    );
    graph.advise_sequential(false);
    let mut collected = Vec::with_capacity(messages.len());
    for chunk in chunks {
        match chunk {
            Ok(mut items) => collected.append(&mut items),
            Err(message) => panic!("enumeration worker panicked: {message}"),
        }
    }

    let mut summary = ExplosionSummary::new();
    let mut by_type: Vec<PairTypeScatter> = PairType::all()
        .into_iter()
        .map(|pair_type| PairTypeScatter { pair_type, points: Vec::new() })
        .collect();
    let slow_te_cutoff = 150.0;
    let mut slow_growth_histogram: Option<Histogram> = None;
    let mut sample_paths = Vec::new();

    for (idx, (profile, mut paths)) in collected.into_iter().enumerate() {
        // Pair-type scatter (Fig. 8).
        if let (Some(t1), Some(te)) = (profile.optimal_duration, profile.time_to_explosion) {
            let class = classify_message(&rates, &messages[idx]);
            let panel = by_type
                .iter_mut()
                .find(|p| p.pair_type == class)
                .unwrap_or_else(|| unreachable!("all pair types present"));
            panel.points.push((t1, te));

            // Slow-explosion growth histogram (Fig. 6).
            if te >= slow_te_cutoff {
                let h = slow_growth_histogram.get_or_insert_with(|| {
                    Histogram::new(0.0, 10.0, 60)
                        .unwrap_or_else(|e| unreachable!("static bin parameters are valid: {e:?}"))
                });
                if let Some(message_hist) = profile.arrival_histogram(10.0, 600.0) {
                    for (i, (_, count)) in message_hist.series().into_iter().enumerate() {
                        h.add_weighted(i as f64 * 10.0, count);
                    }
                }
            }
        }
        sample_paths.append(&mut paths);
        summary.push(profile);
    }

    let scatter = summary.scatter_points();
    let t1_te_correlation = if scatter.len() >= 3 {
        let t1: Vec<f64> = scatter.iter().map(|p| p.0).collect();
        let te: Vec<f64> = scatter.iter().map(|p| p.1).collect();
        correlation::pearson(&t1, &te).ok()
    } else {
        None
    };

    ExplosionStudy {
        scenario: scenario.into(),
        explosion_threshold,
        summary,
        by_pair_type: by_type,
        slow_growth_histogram,
        slow_te_cutoff,
        t1_te_correlation,
        sample_paths,
        rates,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use psn_spacetime::{MessageGenerator, SpaceTimeGraph};
    use psn_trace::{DatasetId, SyntheticDataset};

    fn small_study() -> ExplosionStudy {
        // A deliberately small configuration so the unit test stays fast:
        // the structure (not the scale) is what is under test here.
        let mut ds = SyntheticDataset::quick_config(DatasetId::Infocom06Morning);
        ds.config.mobile_nodes = 20;
        ds.config.stationary_nodes = 5;
        ds.config.window_seconds = 1800.0;
        let trace = ds.generate();
        let generator = MessageGenerator::new(psn_spacetime::MessageWorkloadConfig {
            nodes: trace.node_count(),
            generation_horizon: 1200.0,
            mean_interarrival: 4.0,
            seed: 7,
        });
        let messages = generator.uniform_messages(12);
        run_explosion_study_on(
            DatasetId::Infocom06Morning,
            &ContactSummary::from_trace(&trace),
            &SpaceTimeGraph::build_default(&trace),
            &messages,
            EnumerationConfig::quick(40),
            40,
            2,
        )
    }

    #[test]
    fn study_produces_profiles_and_scatter() {
        let study = small_study();
        assert_eq!(study.summary.len(), 12);
        assert!(study.summary.delivery_fraction() > 0.5, "most messages should be deliverable");
        // Scatter points are split across the four pair types without loss.
        let split_total: usize = study.by_pair_type.iter().map(|p| p.points.len()).sum();
        assert_eq!(split_total, study.summary.scatter_points().len());
        assert_eq!(study.by_pair_type.len(), 4);
        assert_eq!(study.explosion_threshold, 40);
    }

    #[test]
    fn explosion_is_fast_relative_to_optimal_duration() {
        // The paper's headline: the median time-to-explosion is much smaller
        // than the median optimal path duration.
        let study = small_study();
        let t1_cdf = study.summary.optimal_duration_cdf().expect("some deliveries");
        if let Some(te_cdf) = study.summary.time_to_explosion_cdf() {
            let median_t1 = t1_cdf.quantile(0.5).unwrap();
            let median_te = te_cdf.quantile(0.5).unwrap();
            assert!(
                median_te <= median_t1 + 1e-9,
                "median TE {median_te} should not exceed median T1 {median_t1}"
            );
        }
    }

    #[test]
    fn text_statistics_are_available() {
        let study = small_study();
        let above = study.fraction_optimal_duration_above(1000.0);
        assert!(above.is_some());
        let below = study.fraction_te_below(150.0);
        // TE may be undefined if no message exploded at this tiny scale; if
        // present it must be a valid fraction.
        if let Some(f) = below {
            assert!((0.0..=1.0).contains(&f));
        }
        assert!(!study.sample_paths.is_empty());
    }
}
