//! Streaming-vs-materialized benchmark (`BENCH_streaming.json`).
//!
//! Two modes over the same on-the-fly [`SyntheticContactStream`] (nothing
//! materialized at the source):
//!
//! - **Construction** (always on): drains the stream through both engines —
//!   [`stream_graph`] + [`HistoryTimeline::build`] (the materialized
//!   reference) and [`WindowedSpaceTimeGraph::stream_with`] with a riding
//!   [`TimelineBuilder`] plus the raw-slab spill sink ([`SlabSlotSpill`],
//!   the production streaming-study backend) — and reports wall-clock time
//!   and working-set bytes for each window size.
//! - **Source-to-study end-to-end** (`--study N`): the full stream-native
//!   pipeline the `--streaming` study flag runs — source → summary fold →
//!   graph + timeline → slot-major batch path enumeration → batched
//!   forwarding simulation over all six algorithms — timed against the
//!   identical pipeline over the materialized graph, with the outputs
//!   asserted byte-identical (delivery times compared by exact f64 bits).
//!
//! Nothing here re-checks slot contents: bit-identity of the two engines is
//! pinned by `tests/integration_streaming.rs`; this binary cross-checks the
//! cheap structural invariants (slot counts, spill stores vs busy slots,
//! timeline size) and, in study mode, the end-to-end result digest.
//!
//! ```text
//! psn-stream-bench --contacts 1000000 --interarrival 0.25 --windows 16,64,256,1024 --study 8
//! ```
//!
//! The target contact count is hit in expectation: the synthetic source is
//! a Poisson process over a window of `contacts x interarrival` seconds.
//! `--skip-materialized` benches only the windowed engine, for scales where
//! the materialized graph would not fit in memory. `--assert-max-ratio R`
//! exits non-zero if any streaming configuration exceeds `R x` the
//! materialized wall-clock — the CI regression guard for spill-path
//! slowdowns (the w=256 eviction-thrash anomaly of BENCH v1).

use std::sync::Arc;
use std::time::Instant;

use psn_artifact::SlabSlotSpill;
use psn_forwarding::{
    standard_algorithms, ForwardingAlgorithm, HistoryTimeline, Simulator, SimulatorConfig,
    TimelineBuilder,
};
use psn_spacetime::{
    stream_graph, EnumerationConfig, Message, MessageGenerator, MessageWorkloadConfig,
    PathEnumerator, SharedGraph, WindowedSpaceTimeGraph,
};
use psn_trace::{
    ContactEvent, ContactStream, SummarizingStream, SyntheticContactStream, SyntheticStreamConfig,
    TimeWindow,
};

/// Benchmark knobs, all overridable from the command line.
#[derive(Debug, Clone, Copy)]
struct Args {
    /// Expected number of contacts (sets the window length).
    contacts: usize,
    /// Mean seconds between successive contact starts.
    interarrival: f64,
    nodes: usize,
    mean_duration: f64,
    delta: f64,
    seed: u64,
    /// Timed repetitions per engine configuration (best-of wins).
    runs: usize,
    skip_materialized: bool,
    /// Messages for the end-to-end source-to-study mode (0 = off).
    study_messages: usize,
    /// Fail if streaming exceeds this multiple of the materialized
    /// wall-clock (construction sweep; `None` = report only).
    assert_max_ratio: Option<f64>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            contacts: 100_000,
            interarrival: 1.0,
            nodes: 200,
            mean_duration: 30.0,
            delta: 10.0,
            seed: 7,
            runs: 3,
            skip_materialized: false,
            study_messages: 0,
            assert_max_ratio: None,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: psn-stream-bench [--contacts N] [--interarrival SECS] [--nodes N]\n\
         \x20                       [--duration SECS] [--delta SECS] [--seed N] [--runs N]\n\
         \x20                       [--windows W1,W2,...] [--skip-materialized]\n\
         \x20                       [--study MESSAGES] [--assert-max-ratio R]"
    );
    std::process::exit(2)
}

fn parse_args() -> (Args, Vec<usize>) {
    let mut args = Args::default();
    let mut windows = vec![16usize, 64, 256, 1024];
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} requires a value");
                usage()
            })
        };
        match flag.as_str() {
            "--contacts" => args.contacts = parse(&value("--contacts")),
            "--interarrival" => args.interarrival = parse(&value("--interarrival")),
            "--nodes" => args.nodes = parse(&value("--nodes")),
            "--duration" => args.mean_duration = parse(&value("--duration")),
            "--delta" => args.delta = parse(&value("--delta")),
            "--seed" => args.seed = parse(&value("--seed")),
            "--runs" => args.runs = parse::<usize>(&value("--runs")).max(1),
            "--windows" => {
                windows = value("--windows").split(',').map(|w| parse(w.trim())).collect();
            }
            "--skip-materialized" => args.skip_materialized = true,
            "--study" => args.study_messages = parse(&value("--study")),
            "--assert-max-ratio" => {
                args.assert_max_ratio = Some(parse(&value("--assert-max-ratio")));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    if windows.is_empty() {
        eprintln!("--windows needs at least one window size");
        usage()
    }
    (args, windows)
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("cannot parse {s:?}");
        usage()
    })
}

fn stream_config(args: &Args) -> SyntheticStreamConfig {
    SyntheticStreamConfig {
        nodes: args.nodes,
        window: TimeWindow::new(0.0, args.contacts as f64 * args.interarrival),
        delta: args.delta,
        mean_interarrival: args.interarrival,
        mean_duration: args.mean_duration,
        seed: args.seed,
    }
}

/// One untimed pass over the source to report the realized workload.
fn count_contacts(config: SyntheticStreamConfig) -> usize {
    let mut stream = SyntheticContactStream::new(config);
    let mut ups = 0usize;
    while let Some(event) = next(&mut stream) {
        if matches!(event, ContactEvent::Up { .. }) {
            ups += 1;
        }
    }
    ups
}

fn next<S: ContactStream>(stream: &mut S) -> Option<ContactEvent> {
    stream.next_event().unwrap_or_else(|e| panic!("synthetic stream is well-ordered: {e}"))
}

struct Materialized {
    secs: f64,
    graph: psn_spacetime::SpaceTimeGraph,
    timeline: HistoryTimeline,
}

fn run_materialized(config: SyntheticStreamConfig) -> Materialized {
    let start = Instant::now();
    let mut stream = SyntheticContactStream::new(config);
    let graph = stream_graph(&mut stream)
        .unwrap_or_else(|e| panic!("synthetic stream is well-ordered: {e}"));
    let timeline = HistoryTimeline::build(&graph);
    Materialized { secs: start.elapsed().as_secs_f64(), graph, timeline }
}

struct Streamed {
    secs: f64,
    graph: WindowedSpaceTimeGraph,
    timeline: HistoryTimeline,
    /// Peak of the timeline builder's fold state during the pass.
    builder_peak: usize,
}

fn run_streamed(config: SyntheticStreamConfig, window: usize) -> Streamed {
    let start = Instant::now();
    let mut stream = SyntheticContactStream::new(config);
    let spill =
        SlabSlotSpill::in_temp_file().unwrap_or_else(|e| panic!("cannot create spill slab: {e}"));
    let mut builder = TimelineBuilder::new(config.nodes);
    let mut builder_peak = 0usize;
    let graph = WindowedSpaceTimeGraph::stream_with(
        &mut stream,
        window,
        Box::new(spill),
        |slot, sealed| {
            builder.push_slot(slot, sealed.edges());
            builder_peak = builder_peak.max(builder.approx_bytes());
        },
    )
    .unwrap_or_else(|e| panic!("synthetic stream is well-ordered: {e}"));
    let timeline =
        builder.finish((0..graph.slot_count()).map(|s| graph.slot_end_time(s)).collect());
    Streamed { secs: start.elapsed().as_secs_f64(), graph, timeline, builder_peak }
}

/// One end-to-end source-to-study pass: the stream-native study pipeline
/// (summary fold + graph + timeline + batch enumeration + batched
/// forwarding) over either the materialized graph (`window = None`) or the
/// bounded-window graph. Returns the wall-clock time and an exact digest of
/// every study output (path counts and delivery times as f64 bit patterns).
struct StudyRun {
    secs: f64,
    digest: String,
}

fn run_study(
    config: SyntheticStreamConfig,
    window: Option<usize>,
    messages: &[Message],
) -> StudyRun {
    let start = Instant::now();
    let mut stream = SummarizingStream::new(SyntheticContactStream::new(config));
    let (shared, timeline): (SharedGraph, HistoryTimeline) = match window {
        None => {
            let graph = stream_graph(&mut stream)
                .unwrap_or_else(|e| panic!("synthetic stream is well-ordered: {e}"));
            let timeline = HistoryTimeline::build(&graph);
            (SharedGraph::from(Arc::new(graph)), timeline)
        }
        Some(w) => {
            let spill = SlabSlotSpill::in_temp_file()
                .unwrap_or_else(|e| panic!("cannot create spill slab: {e}"));
            let mut builder = TimelineBuilder::new(config.nodes);
            let graph = WindowedSpaceTimeGraph::stream_with(
                &mut stream,
                w,
                Box::new(spill),
                |slot, sealed| builder.push_slot(slot, sealed.edges()),
            )
            .unwrap_or_else(|e| panic!("synthetic stream is well-ordered: {e}"));
            let timeline =
                builder.finish((0..graph.slot_count()).map(|s| graph.slot_end_time(s)).collect());
            (SharedGraph::from(Arc::new(graph)), timeline)
        }
    };
    let summary = stream.into_summary();
    let simulator = Simulator::from_summary(
        &summary,
        Arc::new(timeline),
        SimulatorConfig { delta: config.delta, ..SimulatorConfig::default() },
    );

    // Slot-major batch enumeration under a sequential-sweep plan — exactly
    // what the study layer's paths-taken/explosion engines do.
    let enumerator = PathEnumerator::new(&shared, EnumerationConfig::quick(30));
    shared.as_graph_ref().advise_sequential(true);
    let mut scratches = Vec::new();
    let enumerations = enumerator.enumerate_batch(messages, &mut scratches);
    shared.as_graph_ref().advise_sequential(false);

    let algorithms = standard_algorithms();
    let jobs: Vec<(&dyn ForwardingAlgorithm, &[Message])> =
        algorithms.iter().map(|(_, a)| (a.as_ref() as _, messages)).collect();
    let simulations = simulator.run_many(&jobs);

    let mut digest = String::new();
    for (i, result) in enumerations.iter().enumerate() {
        digest.push_str(&format!(
            "m{i}:paths={},first={:?};",
            result.deliveries.len(),
            result.first_delivery_time().map(f64::to_bits)
        ));
    }
    for result in &simulations {
        digest.push_str(&format!("{}:", result.algorithm));
        for outcome in &result.outcomes {
            digest.push_str(&format!("{:?},", outcome.delivered_at.map(f64::to_bits)));
        }
        digest.push(';');
    }
    StudyRun { secs: start.elapsed().as_secs_f64(), digest }
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn main() {
    let (args, windows) = parse_args();
    let config = stream_config(&args);
    let contacts = count_contacts(config);
    let slots = ((config.window.end - config.window.start) / config.delta).ceil() as usize;
    println!(
        "workload: {contacts} contacts (target {}), {} nodes, {:.0} s window, delta {} -> {slots} slots, seed {}",
        args.contacts, args.nodes, config.window.end, args.delta, args.seed
    );
    println!("timing: best of {} runs per configuration\n", args.runs);

    let reference = if args.skip_materialized {
        None
    } else {
        let mut best = run_materialized(config);
        for _ in 1..args.runs {
            let again = run_materialized(config);
            if again.secs < best.secs {
                best = again;
            }
        }
        println!(
            "materialized: {:.3} s | graph {:.1} MiB + timeline {:.1} MiB = {:.1} MiB resident | {} busy slots",
            best.secs,
            mib(best.graph.approx_bytes()),
            mib(best.timeline.approx_bytes()),
            mib(best.graph.approx_bytes() + best.timeline.approx_bytes()),
            best.graph.busy_slots().len(),
        );
        Some(best)
    };

    let mut worst_ratio: Option<(usize, f64)> = None;
    for &window in &windows {
        let mut best = run_streamed(config, window);
        for _ in 1..args.runs {
            let again = run_streamed(config, window);
            if again.secs < best.secs {
                best = again;
            }
        }
        // Structural cross-check against the reference engine; slot-level
        // bit-identity is pinned by the differential integration tests.
        if let Some(reference) = &reference {
            assert_eq!(best.graph.slot_count(), reference.graph.slot_count(), "slot counts");
            // Spilling is lazy (store-on-evict): the busy slots still hot
            // when the build finishes are never written.
            let busy = reference.graph.busy_slots().len();
            assert_eq!(
                best.graph.spill_stores() as usize,
                busy - busy.min(window),
                "spill stores at w={window}"
            );
            assert_eq!(
                best.timeline.approx_bytes(),
                reference.timeline.approx_bytes(),
                "timeline sizes"
            );
        }
        let ratio = reference.as_ref().map(|r| best.secs / r.secs);
        println!(
            "streaming w={window:<5}: {:.3} s{} | graph peak {:.2} MiB + builder peak {:.1} MiB = {:.1} MiB working set | {} spill stores",
            best.secs,
            ratio.map(|r| format!(" ({r:.2}x)")).unwrap_or_default(),
            mib(best.graph.peak_bytes()),
            mib(best.builder_peak),
            mib(best.graph.peak_bytes() + best.builder_peak),
            best.graph.spill_stores(),
        );
        if let Some(r) = ratio {
            if worst_ratio.is_none_or(|(_, worst)| r > worst) {
                worst_ratio = Some((window, r));
            }
        }
    }

    if args.study_messages > 0 {
        let generator = MessageGenerator::new(MessageWorkloadConfig {
            nodes: config.nodes,
            generation_horizon: (config.window.duration() * 2.0 / 3.0).max(1.0),
            mean_interarrival: 4.0,
            seed: 0xEC0,
        });
        let messages = generator.uniform_messages(args.study_messages);
        println!("\nend-to-end source-to-study ({} messages, 6 algorithms):", messages.len());

        let study_reference = if args.skip_materialized {
            None
        } else {
            let mut best = run_study(config, None, &messages);
            for _ in 1..args.runs {
                let again = run_study(config, None, &messages);
                assert_eq!(again.digest, best.digest, "materialized study must be deterministic");
                if again.secs < best.secs {
                    best = again;
                }
            }
            println!("materialized: {:.3} s", best.secs);
            Some(best)
        };

        for &window in &windows {
            let mut best = run_study(config, Some(window), &messages);
            for _ in 1..args.runs {
                let again = run_study(config, Some(window), &messages);
                assert_eq!(again.digest, best.digest, "streaming study must be deterministic");
                if again.secs < best.secs {
                    best = again;
                }
            }
            let ratio = study_reference.as_ref().map(|r| {
                assert_eq!(
                    best.digest, r.digest,
                    "w={window}: streaming study output differs from materialized"
                );
                best.secs / r.secs
            });
            println!(
                "streaming w={window:<5}: {:.3} s{} | outputs byte-identical",
                best.secs,
                ratio.map(|r| format!(" ({r:.2}x)")).unwrap_or_default(),
            );
            if let Some(r) = ratio {
                if worst_ratio.is_none_or(|(_, worst)| r > worst) {
                    worst_ratio = Some((window, r));
                }
            }
        }
    }

    if let Some(max) = args.assert_max_ratio {
        match worst_ratio {
            Some((window, ratio)) if ratio > max => {
                eprintln!(
                    "FAIL: streaming at w={window} is {ratio:.2}x the materialized wall-clock \
                     (limit {max:.2}x)"
                );
                std::process::exit(1);
            }
            Some((window, ratio)) => {
                println!("\nratio guard: worst streaming/materialized = {ratio:.2}x (w={window}) <= {max:.2}x");
            }
            None => {
                eprintln!("--assert-max-ratio needs the materialized reference (drop --skip-materialized)");
                std::process::exit(2);
            }
        }
    }
}
