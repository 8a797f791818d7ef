//! Integration tests linking the analytic model (§5) to the trace-driven
//! substrate: the homogeneous model's qualitative predictions should show up
//! in simulations over synthetic traces, and the two-class model should
//! order the pair types the same way the trace experiments do.

use psn::experiments::model::run_model_validation;
use psn::prelude::*;
use psn_analytic::{expected_first_path_time, mean_paths};
use psn_trace::generator::HomogeneousConfig;
use psn_trace::ScenarioConfig;

#[test]
fn model_validation_agrees_across_implementations() {
    let validation = run_model_validation(10);
    for a in &validation.agreements {
        assert!(a.ode_relative_error() < 0.12, "ODE error {}", a.ode_relative_error());
        assert!(
            a.simulation_relative_error() < 0.6,
            "simulation error {}",
            a.simulation_relative_error()
        );
    }
}

#[test]
fn homogeneous_trace_first_delivery_times_scale_like_log_n_over_lambda() {
    // The paper's H = ln(N)/λ estimate for the expected first-path time.
    // Epidemic delivery times over a homogeneous synthetic trace should be
    // of that order of magnitude (within a small factor).
    let lambda = 0.02;
    let nodes = 40;
    let config = HomogeneousConfig {
        nodes,
        window_seconds: 3600.0,
        node_contact_rate: lambda,
        mean_contact_duration: 20.0,
        seed: 77,
    };
    let trace = ScenarioConfig::Homogeneous(config).generate();
    let graph = SpaceTimeGraph::build_default(&trace);

    let generator = MessageGenerator::new(MessageWorkloadConfig {
        nodes,
        generation_horizon: 1800.0,
        mean_interarrival: 4.0,
        seed: 3,
    });
    let mut delays = Vec::new();
    for message in generator.uniform_messages(40) {
        if let Some(t) = epidemic_delivery_time(&graph, &message) {
            delays.push(t - message.created_at);
        }
    }
    assert!(delays.len() >= 20, "most messages should be deliverable");
    let mean_delay: f64 = delays.iter().sum::<f64>() / delays.len() as f64;
    let predicted = expected_first_path_time(nodes, lambda);
    assert!(
        mean_delay < predicted * 4.0 && mean_delay > predicted / 8.0,
        "mean epidemic delay {mean_delay:.0}s vs predicted order {predicted:.0}s"
    );
}

#[test]
fn heterogeneous_traces_have_longer_optimal_paths_than_homogeneous_ones() {
    // §5.2's key point: heterogeneity (low-rate sources/destinations)
    // lengthens optimal path durations relative to a homogeneous population
    // with a comparable contact budget.
    let window = 2400.0;
    let homogeneous = ScenarioConfig::Homogeneous(HomogeneousConfig {
        nodes: 30,
        window_seconds: window,
        node_contact_rate: 0.02,
        mean_contact_duration: 60.0,
        seed: 5,
    })
    .generate();
    let heterogeneous = {
        let mut ds = SyntheticDataset::quick_config(DatasetId::Infocom06Morning);
        ds.config.mobile_nodes = 26;
        ds.config.stationary_nodes = 4;
        ds.config.window_seconds = window;
        // Match the aggregate contact volume roughly: max rate well above the
        // homogeneous rate, many nodes far below it.
        ds.config.max_node_rate = 0.04;
        ds.generate()
    };

    let mean_optimal = |trace: &ContactTrace| {
        let graph = SpaceTimeGraph::build_default(trace);
        let generator = MessageGenerator::new(MessageWorkloadConfig {
            nodes: trace.node_count(),
            generation_horizon: window * 2.0 / 3.0,
            mean_interarrival: 4.0,
            seed: 13,
        });
        let mut durations = Vec::new();
        for message in generator.uniform_messages(30) {
            if let Some(t) = epidemic_delivery_time(&graph, &message) {
                durations.push(t - message.created_at);
            }
        }
        durations.iter().sum::<f64>() / durations.len().max(1) as f64
    };

    let hom = mean_optimal(&homogeneous);
    let het = mean_optimal(&heterogeneous);
    assert!(
        het > hom * 0.8,
        "heterogeneous optimal durations ({het:.0}s) should not collapse below homogeneous ones ({hom:.0}s)"
    );
}

#[test]
fn two_class_predictions_follow_the_papers_ordering() {
    let validation = run_model_validation(5);
    let find = |class: PairClass| {
        validation.two_class.iter().find(|p| p.class == class).expect("all classes predicted")
    };
    assert!(find(PairClass::OutIn).expected_t1 > find(PairClass::InIn).expected_t1);
    assert!(find(PairClass::InOut).expected_te > find(PairClass::InIn).expected_te);
    assert!(find(PairClass::OutOut).expected_t1 >= find(PairClass::OutIn).expected_t1 - 1e-9);
    assert!(find(PairClass::OutOut).expected_te >= find(PairClass::InOut).expected_te - 1e-9);
}

#[test]
fn closed_form_mean_is_consistent_with_growth_rate() {
    // Doubling time of the expected path count is ln(2)/λ.
    let lambda = 0.01;
    let mean0 = 1.0 / 98.0;
    let doubling = (2.0_f64).ln() / lambda;
    let ratio =
        mean_paths(mean0, lambda, 3.0 * doubling) / mean_paths(mean0, lambda, 2.0 * doubling);
    assert!((ratio - 2.0).abs() < 1e-9);
}
