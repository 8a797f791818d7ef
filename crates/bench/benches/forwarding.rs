//! Benchmarks of the forwarding simulator: the BENCH_forwarding headline is
//! the paper-scale six-algorithm study (§6.1, the workload behind
//! Figs. 9–13) run by the batched parallel engine versus the retained
//! serial reference engine over identical jobs, so the reported ratio *is*
//! the engine speedup. A components group sizes the two fixed costs the
//! parallel engine hoists out of the per-run loop (timeline construction)
//! and the single-run simulation both engines share.
//!
//! Knobs:
//!
//! * `PSN_BENCH_FWD_MESSAGES` — messages per run for the paper-scale group
//!   (default 400; the full paper workload is ~1800, the CI smoke mode sets
//!   a few dozen);
//! * `PSN_BENCH_FWD_RUNS` — independent runs per algorithm (default 2);
//! * `--quick` (or `PSN_BENCH_QUICK=1`) — cuts sample counts and sample
//!   time in the harness, e.g.
//!   `PSN_BENCH_FWD_MESSAGES=24 PSN_BENCH_FWD_RUNS=1 cargo bench --bench forwarding -- --quick`.

use criterion::{criterion_group, criterion_main, Criterion};

use psn::prelude::*;
use psn_forwarding::{standard_algorithms, ForwardingAlgorithm, HistoryTimeline};

fn paper_trace() -> ContactTrace {
    SyntheticDataset::paper_config(DatasetId::Infocom06Morning).generate()
}

fn quick_trace() -> ContactTrace {
    let mut ds = SyntheticDataset::quick_config(DatasetId::Infocom06Morning);
    ds.config.mobile_nodes = 32;
    ds.config.stationary_nodes = 8;
    ds.config.window_seconds = 3600.0;
    ds.generate()
}

/// The paper's Poisson message workload (one message per 4 s over the first
/// two thirds of the trace), truncated to the env-gated per-run count.
fn message_sets(trace: &ContactTrace, runs: usize, per_run: usize) -> Vec<Vec<Message>> {
    let generator = MessageGenerator::new(MessageWorkloadConfig {
        nodes: trace.node_count(),
        generation_horizon: trace.window().duration() * 2.0 / 3.0,
        mean_interarrival: 4.0,
        seed: 0xF0D,
    });
    (0..runs as u64)
        .map(|run| {
            let mut msgs = generator.poisson_messages(run);
            msgs.truncate(per_run);
            msgs
        })
        .collect()
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// The headline comparison: the batched parallel engine versus the serial
/// reference engine over the same six-algorithm × runs job matrix on the
/// paper-scale conference trace (98 nodes, 3 hours, Δ = 10 s).
fn bench_paper_forwarding(c: &mut Criterion) {
    let per_run = env_usize("PSN_BENCH_FWD_MESSAGES", 400);
    let runs = env_usize("PSN_BENCH_FWD_RUNS", 2);
    let trace = paper_trace();
    let simulator = Simulator::with_default_config(&trace);
    let graph = psn_spacetime::SpaceTimeGraph::build_default(&trace);
    let sets = message_sets(&trace, runs, per_run);
    let algorithms = standard_algorithms();
    let jobs: Vec<(&dyn ForwardingAlgorithm, &[Message])> = algorithms
        .iter()
        .flat_map(|(_, a)| {
            sets.iter().map(move |m| (a.as_ref() as &dyn ForwardingAlgorithm, m.as_slice()))
        })
        .collect();

    let mut group = c.benchmark_group("paper_forwarding");
    // Each sample runs the full study once or more; three samples bound the
    // run time while still giving a min/median/max.
    group.sample_size(3);
    group.bench_function("parallel_six_algorithms", |b| {
        b.iter(|| criterion::black_box(simulator.run_many(&jobs)));
    });
    group.bench_function("reference_six_algorithms", |b| {
        b.iter(|| {
            for &(algorithm, messages) in &jobs {
                criterion::black_box(simulator.run_reference(&graph, algorithm, messages));
            }
        });
    });
    group.finish();
}

/// Component costs: timeline construction (paid once per trace and shared
/// by every simulation) and a single epidemic run under both engines.
fn bench_forwarding_components(c: &mut Criterion) {
    let trace = quick_trace();
    let graph = psn_spacetime::SpaceTimeGraph::build_default(&trace);
    let simulator = Simulator::with_default_config(&trace);
    let msgs = message_sets(&trace, 1, 200).remove(0);

    let mut group = c.benchmark_group("forwarding_components");
    group.sample_size(10);
    group.bench_function("timeline_build", |b| {
        b.iter(|| criterion::black_box(HistoryTimeline::build(&graph)));
    });
    group.bench_function("parallel_epidemic_single_run", |b| {
        b.iter(|| {
            criterion::black_box(simulator.run(&psn_forwarding::algorithms::Epidemic, &msgs))
        });
    });
    group.bench_function("reference_epidemic_single_run", |b| {
        b.iter(|| {
            criterion::black_box(simulator.run_reference(
                &graph,
                &psn_forwarding::algorithms::Epidemic,
                &msgs,
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_paper_forwarding, bench_forwarding_components);
criterion_main!(benches);
