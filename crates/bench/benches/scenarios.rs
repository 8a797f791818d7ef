//! Scenario-workload benchmarks: the new generator families flowing
//! through the real engines.
//!
//! Three groups:
//!
//! * `scenario_generation` — trace-generation cost of the community and
//!   scaled families (the scaled generator's aggregate-process sampling is
//!   what keeps 1000+-node traces cheap);
//! * `scenarios` — end-to-end study cost: a community-structured
//!   conference and a 1000-node scaled population driven through the
//!   parallel forwarding engine (all six algorithms in one `run_many`
//!   batch), plus path enumeration over the community scenario.
//!
//! Results are archived in `BENCH_scenarios.json` at the repo root.
//! Smoke mode: `PSN_BENCH_SCN_MESSAGES=20 cargo bench --bench scenarios --
//! --quick`.

use criterion::{criterion_group, criterion_main, Criterion};

use psn::prelude::*;
use psn_forwarding::ForwardingAlgorithm;
use psn_trace::generator::{CommunityConfig, ScaledConfig};
use psn_trace::ScenarioConfig;

/// Message count per forwarding job (override: `PSN_BENCH_SCN_MESSAGES`).
fn message_count() -> usize {
    std::env::var("PSN_BENCH_SCN_MESSAGES").ok().and_then(|s| s.parse().ok()).unwrap_or(200)
}

fn community_scenario() -> ScenarioConfig {
    ScenarioConfig::Community(CommunityConfig {
        name: "bench-community-4x25".into(),
        communities: 4,
        nodes_per_community: 25,
        window_seconds: 3600.0,
        max_node_rate: 0.045,
        intra_inter_ratio: 8.0,
        mean_contact_duration: 120.0,
        contact_duration_cv: 1.0,
        seed: 0xBEEC,
    })
}

fn scaled_scenario(nodes: usize) -> ScenarioConfig {
    ScenarioConfig::Scaled(ScaledConfig {
        name: format!("bench-scaled-{nodes}"),
        nodes,
        window_seconds: 1800.0,
        max_node_rate: 0.045,
        min_node_rate: 0.0006,
        mean_contact_duration: 120.0,
        seed: 0xBEE5,
    })
}

fn bench_scenario_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_generation");
    group.sample_size(10);
    group.bench_function("community_100", |b| {
        let scenario = community_scenario();
        b.iter(|| criterion::black_box(scenario.generate()));
    });
    for nodes in [1000usize, 5000] {
        group.bench_function(format!("scaled_{nodes}"), |b| {
            let scenario = scaled_scenario(nodes);
            b.iter(|| criterion::black_box(scenario.generate()));
        });
    }
    group.finish();
}

/// Runs all six algorithms over one workload through the batched parallel
/// simulator — the hot path every scenario study exercises.
fn forwarding_batch(trace: &ContactTrace, messages: usize) -> usize {
    let simulator = Simulator::new(trace, SimulatorConfig::default());
    let generator = MessageGenerator::new(MessageWorkloadConfig {
        nodes: trace.node_count(),
        generation_horizon: trace.window().duration() * 2.0 / 3.0,
        mean_interarrival: 4.0,
        seed: 17,
    });
    let workload = generator.uniform_messages(messages);
    let algorithms = standard_algorithms();
    let jobs: Vec<(&dyn ForwardingAlgorithm, &[Message])> = algorithms
        .iter()
        .map(|(_, algorithm)| (algorithm.as_ref() as &dyn ForwardingAlgorithm, workload.as_slice()))
        .collect();
    simulator
        .run_many(&jobs)
        .iter()
        .map(|result| result.outcomes.iter().filter(|o| o.delivered()).count())
        .sum()
}

fn bench_scenario_workloads(c: &mut Criterion) {
    let messages = message_count();
    let mut group = c.benchmark_group("scenarios");
    group.sample_size(10);

    let community = community_scenario().generate();
    group.bench_function(format!("community_100_forwarding_{messages}msg"), |b| {
        b.iter(|| criterion::black_box(forwarding_batch(&community, messages)));
    });

    // 1000 nodes exercises the simulator's per-slot structures at
    // beyond-paper scale.
    let scaled = scaled_scenario(1000).generate();
    group.bench_function(format!("scaled_1000_forwarding_{messages}msg"), |b| {
        b.iter(|| criterion::black_box(forwarding_batch(&scaled, messages)));
    });

    let graph = SpaceTimeGraph::build_default(&community);
    let enumerator = PathEnumerator::new(&graph, EnumerationConfig::quick(100));
    let generator = MessageGenerator::new(MessageWorkloadConfig {
        nodes: community.node_count(),
        generation_horizon: community.window().duration() * 2.0 / 3.0,
        mean_interarrival: 4.0,
        seed: 23,
    });
    let enum_messages = generator.uniform_messages(8);
    group.bench_function("community_100_enumeration_8msg", |b| {
        let mut scratch = EnumerationScratch::new();
        b.iter(|| {
            let mut total = 0usize;
            for m in &enum_messages {
                total += enumerator.enumerate_with_scratch(m, &mut scratch).deliveries.len();
            }
            criterion::black_box(total)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_scenario_generation, bench_scenario_workloads);
criterion_main!(benches);
