//! Benchmarks that regenerate the forwarding figures (Figs. 9–13) at quick
//! scale: the full six-algorithm comparison and the single-algorithm
//! simulator throughput.

use criterion::{criterion_group, criterion_main, Criterion};

use psn::experiments::forwarding::run_forwarding_study_on;
use psn::experiments::paths_taken::run_paths_taken;
use std::sync::Arc;

use psn::prelude::*;
use psn_forwarding::algorithms::Epidemic;
use psn_forwarding::HistoryTimeline;
use psn_trace::ContactSummary;

fn trace() -> ContactTrace {
    let mut ds = SyntheticDataset::quick_config(DatasetId::Conext06Morning);
    ds.config.mobile_nodes = 24;
    ds.config.stationary_nodes = 6;
    ds.config.window_seconds = 2400.0;
    ds.generate()
}

/// The engines' shared inputs: the contact summary, graph and timeline.
fn study_inputs(
    trace: &ContactTrace,
) -> (ContactSummary, Arc<SpaceTimeGraph>, Arc<HistoryTimeline>) {
    let graph = Arc::new(SpaceTimeGraph::build_default(trace));
    let timeline = Arc::new(HistoryTimeline::from_trace(trace, graph.delta()));
    (ContactSummary::from_trace(trace), graph, timeline)
}

fn bench_fig9_to_13_forwarding_study(c: &mut Criterion) {
    let trace = trace();
    let workload = MessageWorkloadConfig {
        nodes: trace.node_count(),
        generation_horizon: 1600.0,
        mean_interarrival: 20.0,
        seed: 2,
    };
    let (summary, _, timeline) = study_inputs(&trace);
    let mut group = c.benchmark_group("figures_forwarding");
    group.sample_size(10);
    group.bench_function("fig09_10_11_13_forwarding_study", |b| {
        b.iter(|| {
            criterion::black_box(run_forwarding_study_on(
                DatasetId::Conext06Morning,
                &summary,
                timeline.clone(),
                10.0,
                workload.clone(),
                1,
                0,
            ))
        });
    });
    group.finish();
}

fn bench_fig12_paths_taken(c: &mut Criterion) {
    let trace = trace();
    let msgs = MessageGenerator::new(MessageWorkloadConfig {
        nodes: trace.node_count(),
        generation_horizon: 1600.0,
        mean_interarrival: 4.0,
        seed: 6,
    })
    .uniform_messages(2);
    let (summary, graph, timeline) = study_inputs(&trace);
    let mut group = c.benchmark_group("figures_paths_taken");
    group.sample_size(10);
    group.bench_function("fig12_paths_taken", |b| {
        b.iter(|| {
            criterion::black_box(run_paths_taken(
                &summary,
                graph.clone(),
                timeline.clone(),
                &msgs,
                EnumerationConfig::quick(40),
            ))
        });
    });
    group.finish();
}

fn bench_simulator_throughput(c: &mut Criterion) {
    let trace = trace();
    let simulator = Simulator::with_default_config(&trace);
    let msgs = MessageGenerator::new(MessageWorkloadConfig {
        nodes: trace.node_count(),
        generation_horizon: 1600.0,
        mean_interarrival: 10.0,
        seed: 3,
    })
    .poisson_messages(0);
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    group.bench_function("epidemic_single_run", |b| {
        b.iter(|| criterion::black_box(simulator.run(&Epidemic, &msgs)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fig9_to_13_forwarding_study,
    bench_fig12_paths_taken,
    bench_simulator_throughput
);
criterion_main!(benches);
