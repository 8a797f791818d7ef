//! Benchmarks that regenerate the path-explosion figures (Figs. 4–8, 14, 15
//! and the activity figures 1 and 7) at quick scale — one benchmark per
//! figure group, so `cargo bench` exercises exactly the code paths the
//! paper-scale binaries run.

use criterion::{criterion_group, criterion_main, Criterion};

use psn::experiments::explosion::run_explosion_study_on;
use psn::experiments::hop_rates::run_hop_rate_study;
use psn::prelude::*;
use psn_trace::ContactSummary;

fn study_inputs() -> (ContactSummary, SpaceTimeGraph, Vec<Message>) {
    let mut ds = SyntheticDataset::quick_config(DatasetId::Infocom06Morning);
    ds.config.mobile_nodes = 24;
    ds.config.stationary_nodes = 6;
    ds.config.window_seconds = 2400.0;
    let trace = ds.generate();
    let msgs = MessageGenerator::new(MessageWorkloadConfig {
        nodes: trace.node_count(),
        generation_horizon: 1600.0,
        mean_interarrival: 4.0,
        seed: 9,
    })
    .uniform_messages(10);
    (ContactSummary::from_trace(&trace), SpaceTimeGraph::build_default(&trace), msgs)
}

fn bench_fig4_to_fig8_explosion_study(c: &mut Criterion) {
    let (summary, graph, msgs) = study_inputs();
    let mut group = c.benchmark_group("figures_explosion");
    group.sample_size(10);
    group.bench_function("fig04_05_06_08_explosion_study", |b| {
        b.iter(|| {
            criterion::black_box(run_explosion_study_on(
                DatasetId::Infocom06Morning,
                &summary,
                &graph,
                &msgs,
                EnumerationConfig::quick(60),
                60,
                2,
            ))
        });
    });
    group.finish();
}

fn bench_fig14_fig15_hop_rates(c: &mut Criterion) {
    let (summary, graph, msgs) = study_inputs();
    let study = run_explosion_study_on(
        DatasetId::Infocom06Morning,
        &summary,
        &graph,
        &msgs,
        EnumerationConfig::quick(60),
        60,
        2,
    );
    let mut group = c.benchmark_group("figures_hop_rates");
    group.sample_size(20);
    group.bench_function("fig14_15_hop_rate_study", |b| {
        b.iter(|| criterion::black_box(run_hop_rate_study(&study.sample_paths, &study.rates)));
    });
    group.finish();
}

fn bench_fig1_fig7_activity(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures_activity");
    group.sample_size(10);
    group.bench_function("fig01_07_activity_study", |b| {
        b.iter(|| {
            criterion::black_box(psn::experiments::activity::run_activity_study(
                ExperimentProfile::Quick,
            ))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fig4_to_fig8_explosion_study,
    bench_fig14_fig15_hop_rates,
    bench_fig1_fig7_activity
);
criterion_main!(benches);
