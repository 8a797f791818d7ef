//! Thread-scaling benchmark for the slot-major forwarding engine
//! (`BENCH_scaling.json`).
//!
//! Runs the paper-scale six-algorithm forwarding study (algorithm × run
//! jobs through one `Simulator::run_many` batch, exactly like the study
//! driver) and records wall-clock curves over a list of worker-thread
//! (lane) counts, plus an optional per-algorithm single-thread breakdown.
//!
//! ```text
//! psn-scaling-bench --threads-list 1,2,4,8 --reps 3
//! psn-scaling-bench --quick --threads-list 1,2        # CI smoke
//! ```
//!
//! The host's `available_parallelism` is printed so curves recorded on an
//! oversubscribed host (thread counts above the core count) are honest
//! about it. Every configuration's outcomes are checked bit-identical to
//! `Simulator::run_reference`, the serial engine that shares no fast-path
//! code, before any number is reported; a mismatch exits nonzero.

use std::time::Instant;

use psn_forwarding::{
    standard_algorithms, ForwardingAlgorithm, HistoryTimeline, SimulationResult, Simulator,
    SimulatorConfig,
};
use psn_spacetime::{Message, MessageGenerator, MessageWorkloadConfig, SpaceTimeGraph};
use psn_trace::{ContactTrace, DatasetId, SyntheticDataset};

/// Benchmark knobs, all overridable from the command line.
#[derive(Debug, Clone, Copy)]
struct Args {
    /// Message sets (runs) per algorithm, like the study driver.
    runs: usize,
    /// Mean message inter-arrival in seconds (the paper uses 4 s).
    interarrival: f64,
    /// Timed repetitions per configuration (median wins).
    reps: usize,
    /// Reduced scale for CI smoke.
    quick: bool,
    /// Additionally print a per-algorithm single-thread breakdown.
    per_algorithm: bool,
    seed: u64,
}

impl Default for Args {
    fn default() -> Self {
        Self { runs: 3, interarrival: 4.0, reps: 3, quick: false, per_algorithm: false, seed: 11 }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: psn-scaling-bench [--threads-list T1,T2,...] [--runs N] [--reps N]\n\
         \x20                        [--interarrival SECS] [--seed N] [--quick]\n\
         \x20                        [--per-algorithm]"
    );
    std::process::exit(2)
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("cannot parse {s:?}");
        usage()
    })
}

fn parse_args() -> (Args, Vec<usize>) {
    let mut args = Args::default();
    let mut threads_list = vec![1usize, 2, 4, 8];
    let mut threads_overridden = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} requires a value");
                usage()
            })
        };
        match flag.as_str() {
            "--threads-list" => {
                threads_list =
                    value("--threads-list").split(',').map(|t| parse(t.trim())).collect();
                threads_overridden = true;
            }
            "--runs" => args.runs = parse::<usize>(&value("--runs")).max(1),
            "--reps" => args.reps = parse::<usize>(&value("--reps")).max(1),
            "--interarrival" => args.interarrival = parse(&value("--interarrival")),
            "--seed" => args.seed = parse(&value("--seed")),
            "--quick" => args.quick = true,
            "--per-algorithm" => args.per_algorithm = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    if args.quick && !threads_overridden {
        threads_list = vec![1, 2];
    }
    if threads_list.is_empty() || threads_list.contains(&0) {
        eprintln!("--threads-list needs nonzero thread counts");
        usage()
    }
    if args.quick {
        args.reps = args.reps.min(1);
        args.runs = args.runs.min(1);
    }
    (args, threads_list)
}

/// The paper-scale workload: the synthetic Infocom'06 morning trace with
/// the §6.1 Poisson message workload over the first two thirds of the
/// window, one message set per run.
fn workload(args: &Args) -> (ContactTrace, Vec<Vec<Message>>) {
    let dataset = if args.quick {
        SyntheticDataset::quick_config(DatasetId::Infocom06Morning)
    } else {
        SyntheticDataset::paper_config(DatasetId::Infocom06Morning)
    };
    let trace = dataset.generate();
    let window = trace.window();
    let generator = MessageGenerator::new(MessageWorkloadConfig {
        nodes: trace.node_count(),
        generation_horizon: (window.end - window.start) * 2.0 / 3.0,
        mean_interarrival: if args.quick { args.interarrival.max(20.0) } else { args.interarrival },
        seed: args.seed,
    });
    let message_sets: Vec<Vec<Message>> =
        (0..args.runs as u64).map(|run| generator.poisson_messages(run)).collect();
    (trace, message_sets)
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite wall-clock times"));
    samples[samples.len() / 2]
}

/// Times `run_many` over the full algorithm × run job list, returning the
/// median wall-clock over `reps` repetitions and the (rep-invariant)
/// results.
fn time_config(
    trace: &ContactTrace,
    graph: &std::sync::Arc<SpaceTimeGraph>,
    timeline: &std::sync::Arc<HistoryTimeline>,
    message_sets: &[Vec<Message>],
    threads: usize,
    reps: usize,
) -> (f64, Vec<SimulationResult>) {
    let config = SimulatorConfig { delta: 10.0, threads };
    let simulator =
        Simulator::from_parts(trace, std::sync::Arc::clone(graph), timeline.clone(), config);
    let algorithms = standard_algorithms();
    let jobs: Vec<(&dyn ForwardingAlgorithm, &[Message])> = algorithms
        .iter()
        .flat_map(|(_, a)| message_sets.iter().map(move |m| (a.as_ref() as _, m.as_slice())))
        .collect();
    let mut walls = Vec::with_capacity(reps);
    let mut results = None;
    for _ in 0..reps {
        let start = Instant::now();
        let out = simulator.run_many(&jobs);
        walls.push(start.elapsed().as_secs_f64());
        results = Some(out);
    }
    (median(&mut walls), results.expect("at least one rep"))
}

/// Exits nonzero unless both configurations produced byte-identical
/// per-message outcomes (delivery times and hop paths).
fn assert_identical(label: &str, baseline: &[SimulationResult], candidate: &[SimulationResult]) {
    assert_eq!(baseline.len(), candidate.len(), "{label}: job counts differ");
    for (b, c) in baseline.iter().zip(candidate) {
        if b.algorithm != c.algorithm || b.outcomes != c.outcomes {
            eprintln!("FAIL: {label}: outcomes diverge from the reference for {}", b.algorithm);
            std::process::exit(1);
        }
    }
}

fn main() {
    let (args, threads_list) = parse_args();
    let (trace, message_sets) = workload(&args);
    let graph = std::sync::Arc::new(SpaceTimeGraph::build(&trace, 10.0));
    let timeline = std::sync::Arc::new(HistoryTimeline::build(&graph));
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let total_messages: usize = message_sets.iter().map(|m| m.len()).sum();

    println!(
        "workload: {} ({} nodes, {:.0} s window, {} busy slots), {} algorithms x {} runs, {} messages/engine pass",
        trace.name(),
        trace.node_count(),
        trace.window().end - trace.window().start,
        graph.busy_slots().len(),
        standard_algorithms().len(),
        message_sets.len(),
        total_messages,
    );
    println!(
        "host: available_parallelism = {cores}; timing: median of {} reps; thread counts above {cores} are oversubscribed on this host",
        args.reps
    );

    // The reference: every job through the serial engine, once.
    let simulator = Simulator::from_parts(
        &trace,
        std::sync::Arc::clone(&graph),
        timeline.clone(),
        SimulatorConfig { delta: 10.0, threads: 1 },
    );
    let algorithms = standard_algorithms();
    let start = Instant::now();
    let reference: Vec<SimulationResult> = algorithms
        .iter()
        .flat_map(|(_, a)| message_sets.iter().map(|m| simulator.run_reference(a.as_ref(), m)))
        .collect();
    println!("\nreference engine (serial, once): {:.3} s", start.elapsed().as_secs_f64());

    if args.per_algorithm {
        println!("\nper-algorithm breakdown @ 1 thread:");
        for (kind, algorithm) in &algorithms {
            let jobs: Vec<(&dyn ForwardingAlgorithm, &[Message])> =
                message_sets.iter().map(|m| (algorithm.as_ref() as _, m.as_slice())).collect();
            let mut walls = Vec::with_capacity(args.reps);
            for _ in 0..args.reps {
                let start = Instant::now();
                let out = simulator.run_many(&jobs);
                walls.push(start.elapsed().as_secs_f64());
                std::hint::black_box(out);
            }
            println!("  {:<22} {:.3} s", kind.label(), median(&mut walls));
        }
    }

    println!("\nthread-scaling curve (slot-major engine):");
    let mut single = None;
    for &threads in &threads_list {
        let (wall, results) =
            time_config(&trace, &graph, &timeline, &message_sets, threads, args.reps);
        assert_identical(&format!("{threads} threads"), &reference, &results);
        let base = *single.get_or_insert(wall);
        println!(
            "  threads={threads:<2} wall {wall:.3} s | {:.2}x vs threads={} | outcomes identical",
            base / wall,
            threads_list[0],
        );
    }
    println!("\nall configurations byte-identical to the reference engine");
}
