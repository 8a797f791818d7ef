//! Paths taken by forwarding algorithms (Fig. 12).
//!
//! For an individual message the paper overlays (a) the burst structure of
//! valid-path arrivals at the destination (from the enumeration study) with
//! (b) the arrival time of the specific path each forwarding algorithm
//! chose. The point of the figure is that every algorithm's chosen path
//! lands early in the explosion process even when it is not optimal.

use psn_forwarding::{
    standard_algorithms, AlgorithmKind, ForwardingAlgorithm, Recording, Simulator,
};
use psn_spacetime::{EnumerationConfig, Message, PathEnumerator, SharedGraph};
use psn_trace::Seconds;

use crate::report::{Block, CellValue, Column, Section, Table};

/// Fig. 12 data for one message.
#[derive(Debug, Clone)]
pub struct PathsTakenCase {
    /// The message analysed.
    pub message: Message,
    /// Valid-path arrival bursts: `(seconds since the first arrival, number
    /// of paths arriving at that instant)`.
    pub arrival_bursts: Vec<(Seconds, usize)>,
    /// Per algorithm: the arrival time of its chosen path relative to the
    /// first valid path's arrival (`None` if that algorithm failed to
    /// deliver the message).
    pub algorithm_arrivals: Vec<(AlgorithmKind, Option<Seconds>)>,
}

impl PathsTakenCase {
    /// Total number of enumerated path arrivals.
    pub fn total_paths(&self) -> usize {
        self.arrival_bursts.iter().map(|(_, c)| c).sum()
    }

    /// True if every algorithm that delivered did so within `window`
    /// seconds of the optimal arrival — the qualitative claim of Fig. 12.
    pub fn all_deliveries_within(&self, window: Seconds) -> bool {
        self.algorithm_arrivals.iter().filter_map(|(_, t)| *t).all(|t| t <= window + 1e-9)
    }

    /// The typed Fig. 12 section for this message: the path-arrival burst
    /// table and each algorithm's chosen-path arrival offset.
    pub fn section(&self) -> Section {
        let mut bursts = Table::new(
            "arrival_bursts",
            vec![
                Column::fixed("seconds_since_T1", 0).with_unit("s"),
                Column::int("arriving_paths"),
            ],
        );
        for &(t, count) in &self.arrival_bursts {
            bursts.push_row(vec![CellValue::Float(t), CellValue::Int(count as u64)]);
        }
        let mut arrivals = Table::new(
            "algorithm_arrivals",
            vec![Column::text("algorithm"), Column::fixed("arrival_offset_s", 0).with_unit("s")],
        );
        for (kind, arrival) in &self.algorithm_arrivals {
            arrivals
                .push_row(vec![CellValue::Text(kind.to_string()), CellValue::opt_float(*arrival)]);
        }
        Section::new()
            .block(Block::Title(format!(
                "Figure 12 — paths taken by forwarding algorithms, message {}",
                self.message
            )))
            .block(Block::Table(bursts))
            .block(Block::Table(arrivals))
    }
}

/// Runs the Fig. 12 analysis for a set of messages over a scenario's
/// [`Simulator`] and space-time graph. The enumerator reads the graph,
/// which may be materialized or bounded-window ([`SharedGraph`] accepts
/// either); the simulator reads only its oracle and timeline, which the
/// study shares with the forwarding study. The analysis builds nothing per
/// call.
///
/// # Panics
///
/// Panics if the simulator was slotted at another Δ than the graph.
pub fn run_paths_taken(
    simulator: &Simulator,
    graph: impl Into<SharedGraph>,
    messages: &[Message],
    enumeration: EnumerationConfig,
) -> Vec<PathsTakenCase> {
    let graph = graph.into();
    assert!(
        graph.as_graph_ref().delta() == simulator.delta(),
        "the simulator must be slotted at the graph's Δ"
    );
    let enumerator = PathEnumerator::new(&graph, enumeration);
    let algorithms = standard_algorithms();

    // The enumerator sweeps busy slots in ascending order: declare the
    // sequential plan so a windowed graph keeps the sweep prefix hot across
    // restarts.
    graph.as_graph_ref().advise_sequential(true);

    // One slot-major batch over all messages: a bounded-window graph
    // reloads each spilled slot at most once for the whole figure instead
    // of once per message, and results are bit-identical to per-message
    // enumeration because messages are independent.
    let mut scratches = Vec::new();
    let enumeration_results = enumerator.enumerate_batch(messages, &mut scratches);

    // One batch over all (algorithm × message) work instead of a simulator
    // run per (message, algorithm) pair: messages simulate independently,
    // so outcomes are bit-identical, but the batch shares utility tables
    // and worker scratch (one arena of state per worker, not one per call)
    // and shards across the configured threads. Only delivery times are
    // read, so no job records hop paths.
    let jobs: Vec<(&dyn ForwardingAlgorithm, &[Message], Recording)> = algorithms
        .iter()
        .map(|(_, a)| (a.as_ref() as _, messages, Recording::DeliveryOnly))
        .collect();
    let simulations = simulator.run_batch(&jobs);

    let cases = messages
        .iter()
        .enumerate()
        .map(|(msg_idx, message)| {
            let enumeration_result = &enumeration_results[msg_idx];
            let first_arrival = enumeration_result.first_delivery_time();

            // Burst structure: group deliveries by arrival time.
            let mut arrival_bursts: Vec<(Seconds, usize)> = Vec::new();
            if let Some(first) = first_arrival {
                for delivery in &enumeration_result.deliveries {
                    let offset = delivery.time - first;
                    match arrival_bursts.last_mut() {
                        Some((t, count)) if (*t - offset).abs() < 1e-9 => *count += 1,
                        _ => arrival_bursts.push((offset, 1)),
                    }
                }
            }

            // Each algorithm's chosen-path arrival, relative to the first
            // valid path.
            let algorithm_arrivals = algorithms
                .iter()
                .zip(&simulations)
                .map(|((kind, _), result)| {
                    let arrival = match (result.outcomes[msg_idx].delivered_at, first_arrival) {
                        (Some(t), Some(first)) => Some(t - first),
                        _ => None,
                    };
                    (*kind, arrival)
                })
                .collect();

            PathsTakenCase { message: *message, arrival_bursts, algorithm_arrivals }
        })
        .collect();
    graph.as_graph_ref().advise_sequential(false);
    cases
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use psn_forwarding::SimulatorConfig;
    use psn_spacetime::{MessageGenerator, SpaceTimeGraph};
    use psn_trace::{DatasetId, SyntheticDataset};
    use std::sync::Arc;

    #[test]
    fn cases_report_bursts_and_algorithm_arrivals() {
        let mut ds = SyntheticDataset::quick_config(DatasetId::Infocom06Morning);
        ds.config.mobile_nodes = 18;
        ds.config.stationary_nodes = 4;
        ds.config.window_seconds = 1500.0;
        let trace = ds.generate();
        let generator = MessageGenerator::new(psn_spacetime::MessageWorkloadConfig {
            nodes: trace.node_count(),
            generation_horizon: 900.0,
            mean_interarrival: 4.0,
            seed: 5,
        });
        let messages = generator.uniform_messages(3);
        let graph = Arc::new(SpaceTimeGraph::build_default(&trace));
        let simulator =
            Simulator::new(&trace, SimulatorConfig { delta: graph.delta(), threads: 0 });
        let cases = run_paths_taken(&simulator, graph, &messages, EnumerationConfig::quick(30));
        assert_eq!(cases.len(), 3);
        for case in &cases {
            assert_eq!(case.algorithm_arrivals.len(), 6);
            // Offsets are non-negative and bursts are in time order.
            for w in case.arrival_bursts.windows(2) {
                assert!(w[0].0 < w[1].0);
            }
            for (_, arrival) in &case.algorithm_arrivals {
                if let Some(t) = arrival {
                    assert!(*t >= -1e-9);
                }
            }
            // Epidemic, when it delivers, arrives exactly at the first valid
            // path's time (offset zero).
            let epidemic = case
                .algorithm_arrivals
                .iter()
                .find(|(k, _)| *k == AlgorithmKind::Epidemic)
                .unwrap();
            if let Some(t) = epidemic.1 {
                assert!(t.abs() < 1e-9, "epidemic offset {t}");
            }
            if case.total_paths() > 0 {
                assert!(case.arrival_bursts[0].0.abs() < 1e-9);
            }
            // The helper is consistent with the raw data.
            assert!(case.all_deliveries_within(f64::INFINITY));
        }
    }
}
