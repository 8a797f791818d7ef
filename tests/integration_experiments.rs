//! Integration tests of the experiment drivers and report renderers: every
//! figure's data can be produced end-to-end at quick scale and the rendered
//! text contains the expected series.

use psn::experiments::activity::{activity_report, run_activity_study};
use psn::experiments::explosion::run_explosion_study_on;
use psn::experiments::forwarding::run_forwarding_study_on;
use psn::experiments::hop_rates::run_hop_rate_study;
use psn::experiments::paths_taken::run_paths_taken;
use psn::prelude::*;
use psn::report::TextRenderer;
use psn_forwarding::{HistoryTimeline, Recording};
use psn_trace::ContactSummary;
use std::sync::Arc;

fn small_trace() -> ContactTrace {
    let mut ds = SyntheticDataset::quick_config(DatasetId::Infocom06Morning);
    ds.config.mobile_nodes = 20;
    ds.config.stationary_nodes = 5;
    ds.config.window_seconds = 1800.0;
    ds.generate()
}

fn uniform_messages(trace: &ContactTrace, count: usize) -> Vec<Message> {
    MessageGenerator::new(MessageWorkloadConfig {
        nodes: trace.node_count(),
        generation_horizon: trace.window().duration() * 2.0 / 3.0,
        mean_interarrival: 4.0,
        seed: 4242,
    })
    .uniform_messages(count)
}

#[test]
fn figure_1_and_7_activity_reports_render() {
    let reports = run_activity_study(ExperimentProfile::Quick);
    assert_eq!(reports.len(), 4);
    for r in &reports {
        let fig1 = TextRenderer.render_section(&r.timeseries_section());
        assert!(fig1.contains("Figure 1"));
        assert!(fig1.lines().count() > 10);
        let fig7 = TextRenderer.render_section(&r.contact_cdf_section());
        assert!(fig7.contains("Figure 7"));
        assert!(fig7.contains("value,probability"));
    }
}

#[test]
fn figures_4_5_6_8_explosion_study_renders() {
    let trace = small_trace();
    let messages = uniform_messages(&trace, 14);
    let study = run_explosion_study_on(
        DatasetId::Infocom06Morning,
        &ContactSummary::from_trace(&trace),
        &SpaceTimeGraph::build_default(&trace),
        &messages,
        EnumerationConfig::quick(40),
        40,
        2,
    );
    assert_eq!(study.summary.len(), 14);

    let fig4 = TextRenderer.render_section(&study.cdfs_section());
    assert!(fig4.contains("Figure 4"));
    let fig5 = TextRenderer.render_section(&study.scatter_section());
    assert!(fig5.contains("Figure 5"));
    assert!(fig5.contains("optimal_duration_s,time_to_explosion_s"));
    let fig6 = TextRenderer.render_section(&study.growth_section());
    assert!(fig6.contains("Figure 6"));
    let fig8 = TextRenderer.render_section(&study.pair_type_section());
    assert!(fig8.contains("Figure 8"));
    for pair in ["in-in", "in-out", "out-in", "out-out"] {
        assert!(fig8.contains(pair), "missing panel {pair}");
    }
}

#[test]
fn figures_9_10_11_13_forwarding_study_renders() {
    let trace = small_trace();
    let workload = MessageWorkloadConfig {
        nodes: trace.node_count(),
        generation_horizon: 1200.0,
        mean_interarrival: 20.0,
        seed: 11,
    };
    let timeline = Arc::new(HistoryTimeline::from_trace(&trace, 10.0));
    let summary = ContactSummary::from_trace(&trace);
    let study = run_forwarding_study_on(
        DatasetId::Infocom06Morning,
        &summary,
        timeline,
        10.0,
        workload,
        1,
        Recording::HopPaths,
        0,
    );

    let fig9 = TextRenderer.render_section(&study.delay_vs_success_section());
    assert!(fig9.contains("Figure 9"));
    for kind in AlgorithmKind::all() {
        assert!(fig9.contains(kind.label()), "missing algorithm {kind}");
    }
    let fig10 = TextRenderer.render_section(&study.delay_distributions_section());
    assert!(fig10.contains("Figure 10"));
    let fig11 = TextRenderer.render_section(&study.reception_times_section());
    assert!(fig11.contains("Figure 11"));
    assert!(fig11.contains("cumulative_deliveries"));
    let fig13 = TextRenderer.render_section(&study.pair_type_section());
    assert!(fig13.contains("Figure 13"));
    assert!(fig13.contains("out-out"));
}

#[test]
fn figure_12_paths_taken_renders() {
    let trace = small_trace();
    let messages = uniform_messages(&trace, 2);
    let graph = Arc::new(SpaceTimeGraph::build_default(&trace));
    let timeline = Arc::new(HistoryTimeline::build(&graph));
    let summary = ContactSummary::from_trace(&trace);
    let cases = run_paths_taken(&summary, graph, timeline, &messages, EnumerationConfig::quick(30));
    assert_eq!(cases.len(), 2);
    for case in &cases {
        let fig12 = TextRenderer.render_section(&case.section());
        assert!(fig12.contains("Figure 12"));
        assert!(fig12.contains("algorithm,arrival_offset_s"));
        assert!(fig12.contains("Epidemic"));
    }
}

#[test]
fn figures_14_15_hop_rates_render() {
    let trace = small_trace();
    let messages = uniform_messages(&trace, 10);
    let study = run_explosion_study_on(
        DatasetId::Infocom06Morning,
        &ContactSummary::from_trace(&trace),
        &SpaceTimeGraph::build_default(&trace),
        &messages,
        EnumerationConfig::quick(30),
        30,
        2,
    );
    let hop_study = run_hop_rate_study(&study.sample_paths, &study.rates);
    assert!(hop_study.paths > 0, "need sample paths for the hop analysis");

    let fig14 = TextRenderer.render_section(&hop_study.mean_rate_section());
    assert!(fig14.contains("Figure 14"));
    assert!(fig14.contains("hop,mean_rate"));
    let fig15 = TextRenderer.render_section(&hop_study.rate_ratio_section());
    assert!(fig15.contains("Figure 15"));
}

#[test]
fn activity_report_reflects_trace_identity() {
    let trace = small_trace();
    let report_struct =
        activity_report(DatasetId::Infocom06Morning, &ContactSummary::from_trace(&trace));
    assert_eq!(report_struct.scenario, DatasetId::Infocom06Morning.label());
    assert!(report_struct.per_minute.total() > 0.0);
}
