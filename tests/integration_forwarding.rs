//! Cross-crate integration tests for the forwarding pipeline: synthetic
//! trace → trace-driven simulator → six algorithms → metrics, reproducing
//! the qualitative claims of §6 of the paper at reduced scale.

use psn::prelude::*;
use psn_forwarding::PairTypeMetrics;

fn small_trace() -> ContactTrace {
    let mut ds = SyntheticDataset::quick_config(DatasetId::Infocom06Morning);
    ds.config.mobile_nodes = 24;
    ds.config.stationary_nodes = 6;
    ds.config.window_seconds = 2100.0;
    ds.generate()
}

fn workload(trace: &ContactTrace, seed: u64) -> Vec<Message> {
    let generator = MessageGenerator::new(MessageWorkloadConfig {
        nodes: trace.node_count(),
        generation_horizon: trace.window().duration() * 2.0 / 3.0,
        mean_interarrival: 15.0,
        seed,
    });
    generator.poisson_messages(0)
}

#[test]
fn epidemic_upper_bounds_every_algorithm() {
    let trace = small_trace();
    let simulator = Simulator::with_default_config(&trace);
    let messages = workload(&trace, 5);

    let mut success = Vec::new();
    for (kind, algorithm) in standard_algorithms() {
        let result = simulator.run(algorithm.as_ref(), &messages);
        let metrics = AlgorithmMetrics::from_result(&result);
        success.push((kind, metrics.success_rate));
    }
    let epidemic =
        success.iter().find(|(k, _)| *k == AlgorithmKind::Epidemic).expect("epidemic simulated").1;
    for (kind, rate) in &success {
        assert!(epidemic >= *rate - 1e-9, "epidemic ({epidemic}) should dominate {kind} ({rate})");
    }
    assert!(epidemic > 0.4, "epidemic success rate {epidemic} unexpectedly low");
}

#[test]
fn epidemic_matches_spacetime_optimal_delays_message_by_message() {
    let trace = small_trace();
    let simulator = Simulator::with_default_config(&trace);
    let graph = SpaceTimeGraph::build_default(&trace);
    let messages = workload(&trace, 9);
    let result = simulator.run(&psn_forwarding::algorithms::Epidemic, &messages);
    for (outcome, message) in result.outcomes.iter().zip(&messages) {
        let optimal = epidemic_delivery_time(&graph, message);
        assert_eq!(outcome.delivered_at, optimal, "mismatch for {message}");
    }
}

#[test]
fn delivered_paths_are_loop_free_and_end_at_destination() {
    let trace = small_trace();
    let simulator = Simulator::with_default_config(&trace);
    let messages = workload(&trace, 11);
    for (_, algorithm) in standard_algorithms() {
        let result = simulator.run(algorithm.as_ref(), &messages);
        for outcome in &result.outcomes {
            if let Some(path) = &outcome.path {
                assert!(path.is_loop_free());
                assert_eq!(path.first().node, outcome.message.source);
                assert_eq!(path.current_node(), outcome.message.destination);
                assert_eq!(Some(path.end_time()), outcome.delivered_at);
            } else {
                assert!(!outcome.delivered());
            }
        }
    }
}

#[test]
fn destination_aware_history_algorithms_beat_never_forwarding() {
    // FRESH and Greedy must deliver at least as many messages as a strawman
    // that only ever delivers on direct source-destination contact.
    let trace = small_trace();
    let simulator = Simulator::with_default_config(&trace);
    let messages = workload(&trace, 13);

    struct NeverForward;
    impl psn_forwarding::ForwardingAlgorithm for NeverForward {
        fn name(&self) -> &str {
            "Never"
        }
        fn destination_aware(&self) -> bool {
            false
        }
        fn should_forward(
            &self,
            _ctx: &psn_forwarding::ForwardingContext<'_>,
            _holder: NodeId,
            _peer: NodeId,
            _destination: NodeId,
        ) -> bool {
            false
        }
    }

    let never = AlgorithmMetrics::from_result(&simulator.run(&NeverForward, &messages));
    for (kind, algorithm) in standard_algorithms() {
        let metrics = AlgorithmMetrics::from_result(&simulator.run(algorithm.as_ref(), &messages));
        assert!(
            metrics.success_rate >= never.success_rate - 1e-9,
            "{kind} ({}) should not do worse than never forwarding ({})",
            metrics.success_rate,
            never.success_rate
        );
    }
}

#[test]
fn pair_type_breakdown_shows_in_destinations_doing_best_under_epidemic() {
    let trace = small_trace();
    let simulator = Simulator::with_default_config(&trace);
    let rates = ContactRates::from_trace(&trace);
    let messages = workload(&trace, 17);
    let result = simulator.run(&psn_forwarding::algorithms::Epidemic, &messages);
    let breakdown = PairTypeMetrics::from_outcomes("Epidemic", &result.outcomes, &rates);

    let in_in = breakdown.get(PairType::InIn);
    let out_out = breakdown.get(PairType::OutOut);
    if in_in.messages >= 5 && out_out.messages >= 5 {
        assert!(
            in_in.success_rate >= out_out.success_rate - 0.05,
            "in-in ({}) should not be worse than out-out ({})",
            in_in.success_rate,
            out_out.success_rate
        );
    }
}

#[test]
fn success_rates_are_broadly_similar_across_practical_algorithms() {
    // The paper's headline for §6: very different algorithms perform
    // similarly. At our reduced scale we only check the spread is not
    // enormous (well under the full range of 1.0).
    let trace = small_trace();
    let simulator = Simulator::with_default_config(&trace);
    let messages = workload(&trace, 21);
    let mut rates = Vec::new();
    for (kind, algorithm) in standard_algorithms() {
        if kind == AlgorithmKind::Epidemic {
            continue;
        }
        let metrics = AlgorithmMetrics::from_result(&simulator.run(algorithm.as_ref(), &messages));
        rates.push(metrics.success_rate);
    }
    let max = rates.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(
        max - min <= 0.6,
        "success-rate spread {} unexpectedly large (rates: {rates:?})",
        max - min
    );
}
