//! The study pipeline driven layer by layer, through each layer's public
//! functions, with a span around every call.
//!
//! This mirrors what `psn::study::run_study_with` does for one planned run
//! (see `compute_run_sections` and the experiment modules in `psn-core`),
//! so that the self times of its spans account for the untraced study
//! time. It produces the same rendered report — the benchmark records
//! whether the digests agree, which shows whether the mirror still
//! describes the program — and keeps the per-message engine outputs, which
//! the report does not carry, for the output invariants.

use std::sync::Arc;
use std::time::{Duration, Instant};

use psn::experiments::explosion::{ExplosionStudy, PairTypeScatter};
use psn::experiments::forwarding::{AlgorithmStudy, ForwardingStudy};
use psn::report::{ReportDoc, RunMeta, Section, TextRenderer};
use psn::study::{PlannedRun, StudyParams, StudyPlan};
use psn::{StudyId, StudyView};
use psn_artifact::SlabSlotSpill;
use psn_forwarding::{
    classify_message, standard_algorithms, AlgorithmKind, AlgorithmMetrics, ForwardingAlgorithm,
    HistoryTimeline, PairType, PairTypeMetrics, SimulationResult, Simulator, SimulatorConfig,
    TimelineBuilder, TraceOracle,
};
use psn_spacetime::{
    EnumerationResult, EnumerationScratch, ExplosionProfile, ExplosionSummary, Message,
    MessageGenerator, MessageWorkloadConfig, PathEnumerator, SharedGraph, SpaceTimeGraph,
    WindowedSpaceTimeGraph,
};
use psn_stats::{correlation, BinnedSeries, Histogram};
use psn_trace::stream::{ContactEvent, ContactStream, StreamError};
use psn_trace::{ContactRates, ContactTrace, Seconds, SummarizingStream, TimeWindow};

use crate::spans::Recorder;

/// Work-size counts and useful-outcome tallies of one layer-by-layer run.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub contacts: u64,
    pub slots: u64,
    pub edges: u64,
    pub enumerated: u64,
    pub exploded: u64,
    pub slots_processed: u64,
    pub paths_delivered: u64,
    pub simulated: u64,
    pub delivered: u64,
    pub spill_stores: u64,
    pub spill_loads: u64,
    pub avoided_reloads: u64,
    pub hot_peak_bytes: u64,
}

/// Materialized engine inputs built layer by layer, outside the store.
pub struct Inputs {
    pub trace: Arc<ContactTrace>,
    pub graph: Arc<SpaceTimeGraph>,
    pub timeline: Option<Arc<HistoryTimeline>>,
}

pub struct LayerRun {
    /// The rendered report.
    pub text: String,
    pub counts: Counts,
    /// Output invariants that failed, one line each.
    pub violations: Vec<String>,
}

/// Builds the materialized engine inputs with the layers' own constructors.
/// Streaming plans fold their inputs inside the study, so they have none.
pub fn build_inputs(plan: &StudyPlan, rec: &mut Recorder) -> Option<Inputs> {
    if plan.params.streaming_window.is_some() {
        return None;
    }
    let run = single_run(plan);
    let delta = plan.params.delta;
    let trace = Arc::new(rec.time("trace.generate", || run.config.generate()));
    let graph =
        Arc::new(rec.time("spacetime.graph_build", || SpaceTimeGraph::build(&trace, delta)));
    let timeline = (plan.study == StudyId::Forwarding).then(|| {
        Arc::new(rec.time("forwarding.timeline_build", || HistoryTimeline::build(&graph)))
    });
    Some(Inputs { trace, graph, timeline })
}

/// Runs the plan's study layer by layer and renders its report.
pub fn run_study(
    plan: &StudyPlan,
    inputs: Option<&Inputs>,
    rec: &mut Recorder,
) -> Result<LayerRun, String> {
    let run = single_run(plan);
    let p = &plan.params;
    rec.open("core.study");
    let built = match (plan.study, inputs) {
        (StudyId::Explosion, Some(inputs)) => Ok(explosion(plan, run, p, inputs, rec)),
        (StudyId::Forwarding, Some(inputs)) => {
            Ok(forwarding_materialized(plan, run, p, inputs, rec))
        }
        (StudyId::Forwarding, None) => forwarding_streamed(plan, run, p, rec),
        (study, _) => Err(format!("study {study} is not a benchmark workload")),
    };
    let result = built.map(|(sections, counts, violations)| {
        let mut doc = ReportDoc::new(plan.study.name());
        doc.sections = sections;
        let text = rec.time("core.render", || TextRenderer.render_text(&doc));
        LayerRun { text, counts, violations }
    });
    rec.close();
    result
}

fn single_run(plan: &StudyPlan) -> &PlannedRun {
    assert_eq!(plan.runs.len(), 1, "benchmark plans hold exactly one scenario run");
    &plan.runs[0]
}

/// Tags a section with its run and view, as the study layer does.
fn tag(mut section: Section, run: &PlannedRun, view: StudyView) -> Section {
    section.scenario = run.label.clone();
    section.view = view.name().to_string();
    section.run = Some(RunMeta {
        scenario_kind: run.config.kind().to_string(),
        seed: run.config.seed(),
        nodes: run.config.node_count(),
        window_seconds: run.config.window_seconds(),
    });
    section
}

type Built = (Vec<Section>, Counts, Vec<String>);

fn explosion(
    plan: &StudyPlan,
    run: &PlannedRun,
    p: &StudyParams,
    inputs: &Inputs,
    rec: &mut Recorder,
) -> Built {
    let trace = &inputs.trace;
    let graph = &*inputs.graph;
    let rates = ContactRates::from_trace(trace);
    let messages = MessageGenerator::new(MessageWorkloadConfig {
        nodes: trace.node_count(),
        generation_horizon: (trace.window().duration() * 2.0 / 3.0).max(1.0),
        mean_interarrival: 4.0,
        seed: p.enumeration_message_seed,
    })
    .uniform_messages(p.enumeration_messages);

    let enumerator = PathEnumerator::new(graph, p.enumeration.clone());
    let mut scratch = EnumerationScratch::new();
    let mut results: Vec<EnumerationResult> = Vec::with_capacity(messages.len());
    for message in &messages {
        results.push(rec.time("spacetime.enumerate", || {
            enumerator.enumerate_with_scratch(message, &mut scratch)
        }));
    }

    let mut counts = Counts {
        contacts: trace.contact_count() as u64,
        slots: graph.slot_count() as u64,
        edges: graph.total_edges() as u64,
        enumerated: results.len() as u64,
        ..Counts::default()
    };
    let mut violations = Vec::new();
    if results.len() != messages.len() {
        violations.push(format!(
            "{} messages, {} enumeration results",
            messages.len(),
            results.len()
        ));
    }
    for (message, result) in messages.iter().zip(&results) {
        counts.exploded += u64::from(result.exploded);
        counts.slots_processed += result.slots_processed as u64;
        counts.paths_delivered += result.delivered_count() as u64;
        if result.message != *message {
            violations.push(format!("enumeration result out of order for {message:?}"));
        }
        let times: Vec<Seconds> = result.deliveries.iter().map(|d| d.time).collect();
        if times.windows(2).any(|w| w[0] > w[1])
            || times.first().is_some_and(|&t| t < message.created_at)
        {
            violations.push(format!("deliveries out of order for {message:?}"));
        }
    }

    // Aggregation as in `psn::experiments::explosion`.
    let mut summary = ExplosionSummary::new();
    let mut by_pair_type: Vec<PairTypeScatter> = PairType::all()
        .into_iter()
        .map(|pair_type| PairTypeScatter { pair_type, points: Vec::new() })
        .collect();
    let slow_te_cutoff = 150.0;
    let mut slow_growth_histogram: Option<Histogram> = None;
    let mut sample_paths = Vec::new();
    for (message, result) in messages.iter().zip(results) {
        let profile = ExplosionProfile::with_threshold(&result, p.explosion_threshold);
        if let (Some(t1), Some(te)) = (profile.optimal_duration, profile.time_to_explosion) {
            let class = classify_message(&rates, message);
            if let Some(panel) = by_pair_type.iter_mut().find(|panel| panel.pair_type == class) {
                panel.points.push((t1, te));
            }
            if te >= slow_te_cutoff {
                let h = slow_growth_histogram.get_or_insert_with(|| {
                    Histogram::new(0.0, 10.0, 60).expect("static bin parameters are valid")
                });
                if let Some(message_hist) = profile.arrival_histogram(10.0, 600.0) {
                    for (i, (_, count)) in message_hist.series().into_iter().enumerate() {
                        h.add_weighted(i as f64 * 10.0, count);
                    }
                }
            }
        }
        sample_paths.extend(result.sample_paths);
        summary.push(profile);
    }
    if summary.len() != messages.len() {
        violations.push(format!(
            "{} messages, {} explosion profiles",
            messages.len(),
            summary.len()
        ));
    }
    let scatter = summary.scatter_points();
    let t1_te_correlation = if scatter.len() >= 3 {
        let t1: Vec<f64> = scatter.iter().map(|p| p.0).collect();
        let te: Vec<f64> = scatter.iter().map(|p| p.1).collect();
        correlation::pearson(&t1, &te).ok()
    } else {
        None
    };
    let study = ExplosionStudy {
        scenario: run.label.clone(),
        explosion_threshold: p.explosion_threshold,
        summary,
        by_pair_type,
        slow_growth_histogram,
        slow_te_cutoff,
        t1_te_correlation,
        sample_paths,
        rates,
    };
    let sections = plan
        .views
        .iter()
        .map(|&view| {
            let section = match view {
                StudyView::ExplosionCdfs => study.cdfs_section(),
                StudyView::ExplosionScatter => study.scatter_section(),
                StudyView::ExplosionGrowth => study.growth_section(),
                _ => study.pair_type_section(),
            };
            tag(section, run, view)
        })
        .collect();
    (sections, counts, violations)
}

fn forwarding_materialized(
    plan: &StudyPlan,
    run: &PlannedRun,
    p: &StudyParams,
    inputs: &Inputs,
    rec: &mut Recorder,
) -> Built {
    let trace = &inputs.trace;
    let timeline = inputs.timeline.clone().expect("forwarding inputs carry a timeline");
    let graph: SharedGraph = inputs.graph.clone().into();
    let delta = graph.as_graph_ref().delta();
    let simulator = rec.time("forwarding.simulator_build", || {
        Simulator::from_parts(
            trace,
            graph,
            timeline,
            SimulatorConfig { delta, threads: p.threads, ..SimulatorConfig::default() },
        )
    });
    let counts = Counts {
        contacts: trace.contact_count() as u64,
        slots: inputs.graph.slot_count() as u64,
        edges: inputs.graph.total_edges() as u64,
        ..Counts::default()
    };
    let rates = ContactRates::from_trace(trace);
    forwarding(plan, run, p, rates, trace.window(), &simulator, counts, rec)
}

/// A contact stream that times every event it hands out — the scenario
/// source and the summary fold, as seen from the windowed graph's construction.
struct TimedStream<S> {
    inner: S,
    busy: Duration,
    events: u64,
}

impl<S: ContactStream> ContactStream for TimedStream<S> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
    fn window(&self) -> TimeWindow {
        self.inner.window()
    }
    fn delta(&self) -> Seconds {
        self.inner.delta()
    }
    fn slot_count(&self) -> usize {
        self.inner.slot_count()
    }
    fn next_event(&mut self) -> Result<Option<ContactEvent>, StreamError> {
        let started = Instant::now();
        let event = self.inner.next_event();
        self.busy += started.elapsed();
        self.events += 1;
        event
    }
}

fn forwarding_streamed(
    plan: &StudyPlan,
    run: &PlannedRun,
    p: &StudyParams,
    rec: &mut Recorder,
) -> Result<Built, String> {
    let window = p.streaming_window.expect("streamed plans carry a window");
    let mut stream = TimedStream {
        inner: SummarizingStream::new(run.config.stream(p.delta)),
        busy: Duration::ZERO,
        events: 0,
    };
    let spill = SlabSlotSpill::in_temp_file().map_err(|e| format!("creating spill slab: {e}"))?;
    let mut builder = TimelineBuilder::new(stream.node_count());
    let (mut fold, mut folds) = (Duration::ZERO, 0u64);
    rec.open("spacetime.window_build");
    let graph = WindowedSpaceTimeGraph::stream_with(
        &mut stream,
        window,
        Box::new(spill),
        |slot, sealed| {
            let started = Instant::now();
            builder.push_slot(slot, sealed.edges());
            fold += started.elapsed();
            folds += 1;
        },
    );
    rec.add("trace.stream_fold", stream.busy, stream.events);
    rec.add("forwarding.timeline_fold", fold, folds);
    rec.close();
    let graph = Arc::new(graph.map_err(|e| format!("building windowed graph: {e}"))?);
    let slot_ends = (0..graph.slot_count()).map(|s| graph.slot_end_time(s)).collect();
    let timeline = Arc::new(rec.time("forwarding.timeline_fold", || builder.finish(slot_ends)));
    let summary = stream.inner.into_summary();

    let simulator = rec.time("forwarding.simulator_build", || {
        Simulator::from_streamed_parts(
            summary.node_count(),
            TraceOracle::from_summary(&summary),
            graph.clone(),
            timeline,
            SimulatorConfig {
                delta: graph.delta(),
                threads: p.threads,
                ..SimulatorConfig::default()
            },
        )
    });
    let counts = Counts {
        contacts: summary.contacts(),
        slots: graph.slot_count() as u64,
        edges: graph.total_edges() as u64,
        ..Counts::default()
    };
    let (sections, mut counts, violations) =
        forwarding(plan, run, p, summary.rates(), summary.window(), &simulator, counts, rec);
    counts.spill_stores = graph.spill_stores();
    counts.spill_loads = graph.spill_loads();
    counts.avoided_reloads = graph.avoided_reloads();
    counts.hot_peak_bytes = graph.peak_bytes() as u64;
    Ok((sections, counts, violations))
}

/// The metric-name stem of an algorithm: `Greedy Total` → `greedy_total`.
pub fn algorithm_stem(kind: AlgorithmKind) -> String {
    kind.label().to_lowercase().replace(' ', "_")
}

#[allow(clippy::too_many_arguments)]
fn forwarding(
    plan: &StudyPlan,
    run: &PlannedRun,
    p: &StudyParams,
    rates: ContactRates,
    window: TimeWindow,
    simulator: &Simulator,
    mut counts: Counts,
    rec: &mut Recorder,
) -> Built {
    let cap = (window.duration() * 2.0 / 3.0).max(1.0);
    let generator = MessageGenerator::new(MessageWorkloadConfig {
        nodes: rates.node_count(),
        generation_horizon: p.workload_horizon.map_or(cap, |h| h.min(cap)),
        mean_interarrival: p.workload_interarrival,
        seed: p.workload_seed,
    });
    let message_sets: Vec<Vec<Message>> =
        (0..p.simulation_runs as u64).map(|r| generator.poisson_messages(r)).collect();
    let messages_per_run = message_sets.first().map_or(0, Vec::len);

    let algorithms = standard_algorithms();
    let results: Vec<Vec<SimulationResult>> = algorithms
        .iter()
        .map(|(kind, algorithm)| {
            let jobs: Vec<(&dyn ForwardingAlgorithm, &[Message])> = message_sets
                .iter()
                .map(|messages| (algorithm.as_ref(), messages.as_slice()))
                .collect();
            let span = format!("forwarding.simulate.{}", algorithm_stem(*kind));
            rec.time(&span, || simulator.run_many(&jobs))
        })
        .collect();

    let violations = check_forwarding(&algorithms, &message_sets, &results);
    for per_run in &results {
        for result in per_run {
            counts.simulated += result.outcomes.len() as u64;
            counts.delivered += result.outcomes.iter().filter(|o| o.delivered()).count() as u64;
        }
    }

    // Assembly as in `psn::experiments::forwarding`.
    let window_start = window.start;
    let algorithm_studies = algorithms
        .iter()
        .zip(results)
        .map(|((kind, _), per_run)| {
            let per_run_metrics: Vec<AlgorithmMetrics> =
                per_run.iter().map(AlgorithmMetrics::from_result).collect();
            let outcomes = per_run.into_iter().next().expect("at least one run").outcomes;
            let metrics =
                AlgorithmMetrics::average_over_runs(&per_run_metrics).expect("at least one run");
            let by_pair_type = PairTypeMetrics::from_outcomes(kind.label(), &outcomes, &rates);
            let mut reception_series = BinnedSeries::new(0.0, window.duration() + 60.0, 60.0)
                .expect("trace windows are non-empty");
            for outcome in &outcomes {
                if let Some(t) = outcome.delivered_at {
                    reception_series.record(t - window_start);
                }
            }
            AlgorithmStudy { kind: *kind, metrics, by_pair_type, reception_series, outcomes }
        })
        .collect();
    let study = ForwardingStudy {
        scenario: run.label.clone(),
        messages_per_run,
        runs: p.simulation_runs,
        algorithms: algorithm_studies,
        rates,
    };
    let sections = plan
        .views
        .iter()
        .map(|&view| {
            let section = match view {
                StudyView::DelayVsSuccess => study.delay_vs_success_section(),
                StudyView::DelayDistributions => study.delay_distributions_section(),
                StudyView::ReceptionTimes => study.reception_times_section(),
                _ => study.pair_type_section(),
            };
            tag(section, run, view)
        })
        .collect();
    (sections, counts, violations)
}

/// Per message and run: every message has one outcome per algorithm, and
/// epidemic forwarding — which floods every contact — delivers whatever any
/// algorithm delivers, no later.
fn check_forwarding(
    algorithms: &[(AlgorithmKind, Box<dyn ForwardingAlgorithm>)],
    message_sets: &[Vec<Message>],
    results: &[Vec<SimulationResult>],
) -> Vec<String> {
    let mut violations = Vec::new();
    let Some(epidemic) = algorithms.iter().position(|(k, _)| *k == AlgorithmKind::Epidemic) else {
        return vec!["no epidemic algorithm to bound the others".to_string()];
    };
    for ((kind, _), per_run) in algorithms.iter().zip(results) {
        if per_run.len() != message_sets.len() {
            violations.push(format!(
                "{}: {} runs of {}",
                kind.label(),
                per_run.len(),
                message_sets.len()
            ));
            continue;
        }
        for (run, (messages, result)) in message_sets.iter().zip(per_run).enumerate() {
            let accounted = result.outcomes.len() == messages.len()
                && result.outcomes.iter().zip(messages).all(|(o, m)| o.message == *m);
            if !accounted {
                violations.push(format!("{} run {run}: messages not accounted for", kind.label()));
                continue;
            }
            let bound = &results[epidemic][run].outcomes;
            for (i, outcome) in result.outcomes.iter().enumerate() {
                let Some(delay) = outcome.delay() else { continue };
                match bound.get(i).and_then(|o| o.delay()) {
                    Some(best) if best <= delay => {}
                    best => violations.push(format!(
                        "{} run {run} message {i}: delay {delay} beats epidemic {best:?}",
                        kind.label()
                    )),
                }
            }
        }
    }
    violations
}
