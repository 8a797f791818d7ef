//! Forwarding-algorithm experiments: Figs. 9, 10, 11 and 13.
//!
//! For each dataset the driver generates the paper's Poisson message
//! workload, runs all six forwarding algorithms over the same messages,
//! averages over independent runs, and reports:
//!
//! * success rate vs. average delay per algorithm (Fig. 9);
//! * the full delay distribution per algorithm (Fig. 10);
//! * the cumulative count of deliveries over time, confirming delivery is
//!   not bursty (Fig. 11);
//! * success rate and delay broken down by source/destination pair type
//!   (Fig. 13).

use std::sync::Arc;

use psn_forwarding::{
    standard_algorithms, AlgorithmKind, AlgorithmMetrics, ForwardingAlgorithm, HistoryTimeline,
    MessageOutcome, PairType, PairTypeMetrics, Recording, Simulator, SimulatorConfig,
};
use psn_spacetime::{Message, MessageGenerator, MessageWorkloadConfig, DEFAULT_DELTA};
use psn_stats::BinnedSeries;
use psn_trace::{ContactRates, ContactSummary, DatasetId, Seconds};

use crate::config::ExperimentProfile;
use crate::report::{Block, CellValue, Column, Scalar, Section, Series, Table};

/// Results for one algorithm on one dataset.
#[derive(Debug, Clone)]
pub struct AlgorithmStudy {
    /// Which algorithm.
    pub kind: AlgorithmKind,
    /// Metrics averaged over the simulation runs (Fig. 9 point, Fig. 10
    /// distribution).
    pub metrics: AlgorithmMetrics,
    /// Pair-type breakdown from the first run (Fig. 13 bars).
    pub by_pair_type: PairTypeMetrics,
    /// Cumulative deliveries over time from the first run (Fig. 11 series).
    pub reception_series: BinnedSeries,
    /// Raw per-message outcomes of the first run (Fig. 13's pair types,
    /// Fig. 11's series and the hop-rates-taken view). Their hop paths are
    /// `None` unless the study recorded them
    /// ([`Recording::HopPaths`] for the first run).
    pub outcomes: Vec<MessageOutcome>,
}

/// The complete forwarding study for one dataset.
#[derive(Debug)]
pub struct ForwardingStudy {
    /// Label of the scenario simulated (a dataset label like
    /// "Infocom06 9-12" or any [`psn_trace::ScenarioConfig`] name).
    pub scenario: String,
    /// Number of messages per run.
    pub messages_per_run: usize,
    /// Number of independent runs averaged.
    pub runs: usize,
    /// One entry per algorithm, in [`AlgorithmKind::all`] order.
    pub algorithms: Vec<AlgorithmStudy>,
    /// Per-node contact rates of the trace.
    pub rates: ContactRates,
}

impl ForwardingStudy {
    /// The study entry for one algorithm.
    pub fn get(&self, kind: AlgorithmKind) -> &AlgorithmStudy {
        self.algorithms
            .iter()
            .find(|a| a.kind == kind)
            .unwrap_or_else(|| unreachable!("every standard algorithm is simulated"))
    }

    /// `(success rate, average delay)` pairs per algorithm — the Fig. 9
    /// points for this dataset.
    pub fn delay_vs_success(&self) -> Vec<(AlgorithmKind, f64, Option<f64>)> {
        self.algorithms
            .iter()
            .map(|a| (a.kind, a.metrics.success_rate, a.metrics.average_delay))
            .collect()
    }

    /// The spread (max − min) of success rates across the non-epidemic
    /// algorithms — the paper's "virtually identical performance"
    /// observation quantified.
    pub fn non_epidemic_success_spread(&self) -> f64 {
        let rates: Vec<f64> = self
            .algorithms
            .iter()
            .filter(|a| a.kind != AlgorithmKind::Epidemic)
            .map(|a| a.metrics.success_rate)
            .collect();
        let max = rates.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
        max - min
    }

    /// The typed Fig. 9 section: success rate vs average delay per
    /// algorithm, with per-algorithm success rates as machine-readable
    /// stats (the columns scenario sweeps aggregate).
    pub fn delay_vs_success_section(&self) -> Section {
        let mut table = Table::new(
            "delay_vs_success",
            vec![
                Column::text("algorithm"),
                Column::fixed("success_rate", 3),
                Column::fixed("average_delay_s", 1).with_unit("s"),
            ],
        );
        for (kind, success, delay) in self.delay_vs_success() {
            table.push_row(vec![
                CellValue::Text(kind.to_string()),
                CellValue::Float(success),
                CellValue::opt_float(delay),
            ]);
        }
        let mut section = Section::new();
        for algo in &self.algorithms {
            section = section.stat(Scalar::fixed(
                format!("success[{}]", algo.kind),
                algo.metrics.success_rate,
                3,
            ));
        }
        section
            .block(Block::Title(format!(
                "Figure 9 — average delay vs success rate, {} ({} messages x {} runs)",
                self.scenario, self.messages_per_run, self.runs
            )))
            .block(Block::Table(table))
            .block(Block::Scalar(Scalar::fixed(
                "success-rate spread across non-epidemic algorithms",
                self.non_epidemic_success_spread(),
                3,
            )))
    }

    /// The typed Fig. 10 section: one delay CDF per algorithm.
    pub fn delay_distributions_section(&self) -> Section {
        let mut section = Section::new()
            .block(Block::Title(format!("Figure 10 — delay distributions, {}", self.scenario)));
        for algo in &self.algorithms {
            section = match algo.metrics.delay_cdf() {
                Some(cdf) => section
                    .block(Block::Heading(algo.kind.to_string()))
                    .block(Block::Series(Series::from_ecdf("delay (s)", &cdf).downsample(60))),
                None => section.block(Block::Heading(format!("{} — no deliveries", algo.kind))),
            };
        }
        section
    }

    /// The typed Fig. 11 section: cumulative receptions over time per
    /// algorithm.
    pub fn reception_times_section(&self) -> Section {
        let mut section = Section::new().block(Block::Title(format!(
            "Figure 11 — cumulative message receptions, {}",
            self.scenario
        )));
        for algo in &self.algorithms {
            let points = algo
                .reception_series
                .cumulative()
                .into_iter()
                .map(|(t, c)| (t / 60.0, c))
                .collect();
            section = section.block(Block::Heading(algo.kind.to_string())).block(Block::Series(
                Series::new(
                    "cumulative receptions",
                    Column::fixed("minute", 0).with_unit("min"),
                    Column::fixed("cumulative_deliveries", 0),
                    points,
                ),
            ));
        }
        section
    }

    /// The typed Fig. 13 section: success rate and delay per
    /// source-destination pair type.
    pub fn pair_type_section(&self) -> Section {
        let mut table = Table::new(
            "pair_type_performance",
            vec![
                Column::text("algorithm"),
                Column::text("pair_type"),
                Column::fixed("success_rate", 3),
                Column::fixed("average_delay_s", 1).with_unit("s"),
            ],
        );
        for algo in &self.algorithms {
            for pair_type in PairType::all() {
                let metrics = algo.by_pair_type.get(pair_type);
                table.push_row(vec![
                    CellValue::Text(algo.kind.to_string()),
                    CellValue::Text(pair_type.to_string()),
                    CellValue::Float(metrics.success_rate),
                    CellValue::opt_float(metrics.average_delay),
                ]);
            }
        }
        Section::new()
            .block(Block::Title(format!(
                "Figure 13 — performance by source-destination pair type, {}",
                self.scenario
            )))
            .block(Block::Table(table))
    }
}

/// Runs the forwarding study on one dataset at the given profile, using
/// `threads` simulator worker threads (`0` = one per available core).
pub fn run_forwarding_study(
    profile: ExperimentProfile,
    dataset: DatasetId,
    threads: usize,
) -> ForwardingStudy {
    let trace = profile.dataset(dataset).generate();
    let timeline = Arc::new(HistoryTimeline::from_trace(&trace, DEFAULT_DELTA));
    let workload = profile.workload(trace.node_count());
    run_forwarding_study_on(
        dataset,
        &ContactSummary::from_trace(&trace),
        timeline,
        DEFAULT_DELTA,
        workload,
        profile.simulation_runs(),
        Recording::HopPaths,
        threads,
    )
}

/// Runs the forwarding study over a scenario's [`ContactSummary`] — the
/// per-node rates, the observation window and the future-knowledge oracle
/// ([`psn_forwarding::TraceOracle::from_summary`], so the summary must
/// carry its pair-count matrix) — and its history timeline slotted at
/// `delta` (a `params.delta` sweep axis reaches here with non-default
/// slotting). The simulator reads nothing else: no space-time graph. The
/// artifact store memoizes the timeline per scenario and shares it across
/// views, seeds and sweep cells. `first_run` says what run 0 records:
/// [`Recording::HopPaths`] when a view reads the hop paths of
/// [`AlgorithmStudy::outcomes`] (Fig. 14's hop-rates-taken), else
/// [`Recording::DeliveryOnly`]; runs 1.. always record delivery times
/// only. `threads` is the simulator worker count (`0` = one per available
/// core); it never affects results.
#[allow(clippy::too_many_arguments)]
pub fn run_forwarding_study_on(
    scenario: impl Into<String>,
    summary: &ContactSummary,
    timeline: Arc<HistoryTimeline>,
    delta: Seconds,
    workload: MessageWorkloadConfig,
    runs: usize,
    first_run: Recording,
    threads: usize,
) -> ForwardingStudy {
    let simulator = Simulator::from_summary(summary, timeline, SimulatorConfig { delta, threads });
    let rates = summary.rates();
    let window = summary.window();
    assert!(runs >= 1, "need at least one simulation run");
    let generator = MessageGenerator::new(workload);

    // The same message sets are replayed for every algorithm so the
    // comparison is paired, as in the paper.
    let message_sets: Vec<_> =
        (0..runs as u64).map(|run| generator.poisson_messages(run)).collect();
    let messages_per_run = message_sets.first().map(|m| m.len()).unwrap_or(0);

    // All algorithm × run combinations share the simulator's precomputed
    // history timeline and are sharded across the worker threads in one
    // batch. Only run 0's outcomes are kept (`AlgorithmStudy::outcomes`),
    // with hop paths when `first_run` asks for them; the other runs feed
    // only delivery-time metrics, so they record none.
    let algorithm_instances = standard_algorithms();
    let jobs: Vec<(&dyn ForwardingAlgorithm, &[Message], Recording)> = algorithm_instances
        .iter()
        .flat_map(|(_, algorithm)| {
            message_sets.iter().enumerate().map(move |(run, messages)| {
                let recording = if run == 0 { first_run } else { Recording::DeliveryOnly };
                (algorithm.as_ref() as &dyn ForwardingAlgorithm, messages.as_slice(), recording)
            })
        })
        .collect();
    let mut results = simulator.run_batch(&jobs).into_iter();

    let window_start = window.start;
    let algorithms = algorithm_instances
        .iter()
        .map(|(kind, _)| {
            let mut per_run_metrics = Vec::with_capacity(runs);
            let mut first_outcomes: Option<Vec<MessageOutcome>> = None;
            for _ in 0..runs {
                let result = results
                    .next()
                    .unwrap_or_else(|| unreachable!("one result per algorithm × run job"));
                per_run_metrics.push(AlgorithmMetrics::from_result(&result));
                if first_outcomes.is_none() {
                    first_outcomes = Some(result.outcomes);
                }
            }
            let outcomes = first_outcomes.unwrap_or_else(|| unreachable!("at least one run"));
            let metrics = AlgorithmMetrics::average_over_runs(&per_run_metrics)
                .unwrap_or_else(|| unreachable!("at least one run"));
            let by_pair_type = PairTypeMetrics::from_outcomes(kind.label(), &outcomes, &rates);

            // Fig. 11: cumulative deliveries over the trace window, binned
            // by time *since the window start* — delivery timestamps are
            // absolute, so they must be shifted into the `[0, duration)`
            // bin range or every delivery in a nonzero-start trace is
            // silently dropped. The range extends one bin past the window
            // end because deliveries in the final slot are timestamped at
            // the slot's end, which coincides with the window boundary.
            let mut reception_series = BinnedSeries::new(0.0, window.duration() + 60.0, 60.0)
                .unwrap_or_else(|e| unreachable!("trace windows are non-empty: {e:?}"));
            for outcome in &outcomes {
                if let Some(t) = outcome.delivered_at {
                    reception_series.record(t - window_start);
                }
            }

            AlgorithmStudy { kind: *kind, metrics, by_pair_type, reception_series, outcomes }
        })
        .collect();

    ForwardingStudy { scenario: scenario.into(), messages_per_run, runs, algorithms, rates }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use psn_trace::{ContactTrace, SyntheticDataset};

    fn study_on(
        trace: &ContactTrace,
        workload: MessageWorkloadConfig,
        runs: usize,
    ) -> ForwardingStudy {
        let timeline = Arc::new(HistoryTimeline::from_trace(trace, DEFAULT_DELTA));
        let summary = ContactSummary::from_trace(trace);
        run_forwarding_study_on(
            DatasetId::Infocom06Morning,
            &summary,
            timeline,
            DEFAULT_DELTA,
            workload,
            runs,
            Recording::HopPaths,
            0,
        )
    }

    fn small_study() -> ForwardingStudy {
        let mut ds = SyntheticDataset::quick_config(DatasetId::Infocom06Morning);
        ds.config.mobile_nodes = 20;
        ds.config.stationary_nodes = 5;
        ds.config.window_seconds = 1800.0;
        let trace = ds.generate();
        let workload = MessageWorkloadConfig {
            nodes: trace.node_count(),
            generation_horizon: 1200.0,
            mean_interarrival: 20.0,
            seed: 3,
        };
        study_on(&trace, workload, 2)
    }

    #[test]
    fn all_algorithms_are_simulated() {
        let study = small_study();
        assert_eq!(study.algorithms.len(), 6);
        assert_eq!(study.runs, 2);
        assert!(study.messages_per_run > 10);
        for kind in AlgorithmKind::all() {
            let entry = study.get(kind);
            assert_eq!(entry.kind, kind);
            assert_eq!(entry.outcomes.len(), study.messages_per_run);
        }
    }

    #[test]
    fn epidemic_dominates_every_other_algorithm() {
        let study = small_study();
        let epidemic = study.get(AlgorithmKind::Epidemic);
        for kind in AlgorithmKind::all() {
            if kind == AlgorithmKind::Epidemic {
                continue;
            }
            let other = study.get(kind);
            assert!(
                epidemic.metrics.success_rate >= other.metrics.success_rate - 1e-9,
                "epidemic success {} vs {} {}",
                epidemic.metrics.success_rate,
                kind,
                other.metrics.success_rate
            );
        }
        // Epidemic delivers something at this scale.
        assert!(epidemic.metrics.success_rate > 0.3);
    }

    #[test]
    fn per_message_dominance_of_epidemic_delay() {
        // For every message that another algorithm delivers, epidemic
        // delivers it no later (it finds the optimal path).
        let study = small_study();
        let epidemic = study.get(AlgorithmKind::Epidemic);
        for kind in AlgorithmKind::all().into_iter().filter(|&k| k != AlgorithmKind::Epidemic) {
            let other = study.get(kind);
            assert_eq!(other.outcomes.len(), epidemic.outcomes.len(), "{kind}");
            for (e, o) in epidemic.outcomes.iter().zip(&other.outcomes) {
                if let Some(other_time) = o.delivered_at {
                    let epidemic_time =
                        e.delivered_at.expect("epidemic delivers whatever anyone delivers");
                    assert!(
                        epidemic_time <= other_time + 1e-9,
                        "message {}: epidemic {} vs {} {}",
                        e.message,
                        epidemic_time,
                        kind,
                        other_time
                    );
                }
            }
        }
    }

    #[test]
    fn reception_series_accumulates_deliveries() {
        let study = small_study();
        for algo in &study.algorithms {
            let total: f64 = algo.reception_series.total();
            assert_eq!(total as usize, algo.outcomes.iter().filter(|o| o.delivered()).count());
        }
    }

    #[test]
    fn reception_series_handles_nonzero_window_start() {
        // Regression test: delivery times are absolute, so a trace window
        // starting well after t = 0 (here 36000 s — later than the series'
        // whole bin range) produced reception series that silently dropped
        // every delivery before the `t - window.start` fix.
        use psn_trace::contact::Contact;
        use psn_trace::node::{NodeClass, NodeId, NodeRegistry};
        use psn_trace::trace::TimeWindow;

        let start = 36000.0;
        let mut reg = NodeRegistry::new();
        for _ in 0..4 {
            reg.add(NodeClass::Mobile);
        }
        let contacts = vec![
            Contact::new(NodeId(0), NodeId(1), start + 15.0, start + 40.0).unwrap(),
            Contact::new(NodeId(1), NodeId(2), start + 65.0, start + 90.0).unwrap(),
            Contact::new(NodeId(2), NodeId(3), start + 115.0, start + 140.0).unwrap(),
            Contact::new(NodeId(0), NodeId(3), start + 165.0, start + 190.0).unwrap(),
        ];
        let trace = ContactTrace::from_contacts(
            "offset-window",
            reg,
            TimeWindow::new(start, start + 600.0),
            contacts,
        )
        .unwrap();
        let workload = MessageWorkloadConfig {
            nodes: trace.node_count(),
            generation_horizon: 300.0,
            mean_interarrival: 30.0,
            seed: 11,
        };
        let study = study_on(&trace, workload, 1);
        let epidemic = study.get(AlgorithmKind::Epidemic);
        let delivered = epidemic.outcomes.iter().filter(|o| o.delivered()).count();
        assert!(delivered > 0, "epidemic should deliver something on this trace");
        for algo in &study.algorithms {
            let total: f64 = algo.reception_series.total();
            assert_eq!(
                total as usize,
                algo.outcomes.iter().filter(|o| o.delivered()).count(),
                "{}: deliveries must land inside the series bin range",
                algo.kind
            );
        }
    }

    #[test]
    fn pair_type_breakdown_covers_all_messages() {
        let study = small_study();
        for algo in &study.algorithms {
            let total: usize = algo.by_pair_type.per_type.iter().map(|(_, m)| m.messages).sum();
            assert_eq!(total, study.messages_per_run);
        }
    }

    #[test]
    fn delay_vs_success_lists_all_algorithms() {
        let study = small_study();
        let points = study.delay_vs_success();
        assert_eq!(points.len(), 6);
        let spread = study.non_epidemic_success_spread();
        assert!((0.0..=1.0).contains(&spread));
    }
}
