//! Benchmark of the study pipeline at paper scale.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload. With `--trace 0` it sets up and runs the
//! workload's study through `psn::study` again and again for `--seconds`,
//! then prints the medians of set-up time and study time, calibrated to a
//! reference host speed (`calibrate.rs`), and the peak resident set. With `--trace 1` it follows every untraced rep with a rep
//! of the layer-by-layer pipeline with spans, and prints the per-layer
//! metrics. Every engine runs on one worker thread.
//! The last line of standard output is the JSON result; see README.md.

mod calibrate;
mod host;
mod pipeline;
mod spans;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use psn::study::{run_study_with, StudyPlan};
use psn::ArtifactStore;
use psn_trace::{FingerprintHasher, ScenarioConfig};

use pipeline::Counts;
use spans::Recorder;
use workload::Workload;

/// Repetitions a run makes even when one repetition outlasts `--seconds`.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&names.join("|"))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Where the benchmark keeps what it writes (spill slabs, span logs,
/// digests): next to its own executable, inside the build directory.
fn state_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    exe.parent().map_or_else(|| PathBuf::from("."), |d| d.to_path_buf()).join("perfbench-state")
}

fn digest(text: &str) -> String {
    let mut hasher = FingerprintHasher::new("perfbench-report/1");
    hasher.write_str(text);
    hasher.finish().to_hex()
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// One line naming the first few output invariants that failed.
fn invariants_failed(violations: &[String]) -> String {
    let shown = violations.iter().take(3).cloned().collect::<Vec<_>>().join("; ");
    match violations.len() {
        n if n > 3 => format!("output invariants: {shown}; and {} more", n - 3),
        _ => format!("output invariants: {shown}"),
    }
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(format!("panicked: {}", psn_fault::panic_message(payload.as_ref())))
    })
}

/// Whether a measuring loop starts another repetition: always for the
/// first `MIN_REPS`, then while the next one is expected to end within
/// half a repetition of `budget`.
fn another_rep(attempt: u32, started: Instant, budget: Duration) -> bool {
    let elapsed = started.elapsed();
    (attempt as usize) < MIN_REPS || elapsed + elapsed / (2 * attempt) <= budget
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn record<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        outcome.map_err(|e| self.fail(e)).ok()
    }

    fn fail(&mut self, reason: String) {
        self.failed += 1;
        eprintln!("perfbench: failure: {reason}");
        self.failures.push(reason);
    }
}

/// Parses the configuration, plans the study and resolves its engine
/// inputs into a fresh store. Returns the plan, the store and the seconds
/// it took.
fn setup(workload: Workload) -> Result<(StudyPlan, ArtifactStore, f64), String> {
    let started = Instant::now();
    let plan = workload::plan(workload)?;
    let store = ArtifactStore::in_memory();
    workload::resolve_inputs(&plan, &store)?;
    Ok((plan, store, started.elapsed().as_secs_f64()))
}

/// One untraced repetition: set-up (several times; the study runs on the
/// last store), then the study and its rendering, between two runs of the
/// calibration kernel.
struct Rep {
    setup_s: Vec<f64>,
    study_s: f64,
    /// Mean calibration-kernel seconds before and after the rep.
    kernel_s: f64,
    digest: String,
    builds_in_study: u64,
}

impl Rep {
    /// Scales a time measured in this rep to the reference host speed.
    fn calibrated(&self, seconds: f64) -> f64 {
        seconds / self.kernel_s * calibrate::REFERENCE_S
    }
}

fn untraced_rep(workload: Workload) -> Result<Rep, String> {
    let kernel_before = calibrate::kernel_seconds();
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..workload.setups_per_rep() {
        // One store at a time, as in a real run.
        drop(prepared.take());
        let (plan, store, seconds) = setup(workload)?;
        setup_s.push(seconds);
        prepared = Some((plan, store));
    }
    let (plan, store) = prepared.expect("every rep sets up at least once");
    let builds_before = workload::input_builds(&store);
    let started = Instant::now();
    let report = run_study_with(&plan, &store).map_err(|e| e.to_string())?;
    let text = report.render();
    let study_s = started.elapsed().as_secs_f64();
    let kernel_s = (kernel_before + calibrate::kernel_seconds()) / 2.0;
    if !report.failures.is_empty() {
        return Err(format!("{} study cells failed", report.failures.len()));
    }
    Ok(Rep {
        setup_s,
        study_s,
        kernel_s,
        digest: digest(&text),
        builds_in_study: workload::input_builds(&store) - builds_before,
    })
}

/// Runs one untraced rep and checks that its report equals the first
/// rep's and that its study rebuilt none of its inputs.
fn untraced_step(workload: Workload, reps: &mut Vec<Rep>, tally: &mut Tally) {
    let outcome = guarded(|| untraced_rep(workload)).and_then(|rep| {
        if let Some(first) = reps.first() {
            if rep.digest != first.digest {
                return Err(format!("report digest {} differs from {}", rep.digest, first.digest));
            }
        }
        if !workload.streaming() && rep.builds_in_study != 0 {
            return Err(format!("the study rebuilt {} set-up artifacts", rep.builds_in_study));
        }
        Ok(rep)
    });
    reps.extend(tally.record(outcome));
}

/// Runs the layer-by-layer pipeline once, untraced, and checks the
/// per-message invariants on its engine outputs. Returns whether its
/// report matches the study's.
fn check_pass(workload: Workload, study_digest: &str, tally: &mut Tally) -> bool {
    let mut rec = Recorder::new(false);
    let outcome = guarded(|| {
        let plan = workload::plan(workload)?;
        let inputs = pipeline::build_inputs(&plan, &mut rec);
        pipeline::run_study(&plan, inputs.as_ref(), &mut rec)
    });
    let Some(run) = tally.record(outcome) else { return false };
    if !run.violations.is_empty() {
        tally.fail(invariants_failed(&run.violations));
    }
    digest(&run.text) == study_digest
}

/// The streaming engine's report must equal the materialized engine's on
/// the same configuration. Returns the materialized study's seconds
/// (set-up included), for comparison.
fn check_streaming_matches_materialized(
    workload: Workload,
    study_digest: &str,
    tally: &mut Tally,
) -> Option<f64> {
    let outcome = guarded(|| {
        let started = Instant::now();
        let mut plan = workload::plan(workload)?;
        plan.params.streaming_window = None;
        let report =
            run_study_with(&plan, &ArtifactStore::in_memory()).map_err(|e| e.to_string())?;
        let materialized = digest(&report.render());
        if materialized != study_digest {
            return Err(format!(
                "streaming report {study_digest} differs from materialized report {materialized}"
            ));
        }
        Ok(started.elapsed().as_secs_f64())
    });
    tally.record(outcome)
}

/// Runs of one build must all render the same report: the first run of a
/// build records its digest next to the executable, later runs compare.
fn check_digest_across_runs(workload: Workload, study_digest: &str, tally: &mut Tally) {
    let Some(build) = std::env::current_exe().ok().and_then(|exe| exe.metadata().ok()).map(|m| {
        let modified = m.modified().ok().and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok());
        format!("{}-{}", m.len(), modified.map_or(0, |d| d.as_nanos()))
    }) else {
        return;
    };
    let path = state_dir().join(format!("digest-{}-{build}", workload.name()));
    match std::fs::read_to_string(&path) {
        Ok(recorded) if recorded.trim() != study_digest => tally.fail(format!(
            "report digest {study_digest} differs from {} recorded by an earlier run of this build",
            recorded.trim()
        )),
        Ok(_) => {}
        Err(_) => {
            let tmp = path.with_extension("tmp");
            let written =
                std::fs::write(&tmp, study_digest).and_then(|()| std::fs::rename(&tmp, &path));
            if let Err(e) = written {
                eprintln!("perfbench: could not record the report digest: {e}");
            }
        }
    }
}

/// Per-layer numbers of one traced repetition.
struct TracedRep {
    self_s: BTreeMap<String, f64>,
    study_s: f64,
    message_s: Vec<f64>,
    counts: Counts,
}

/// Runs the pipeline layer by layer once, with spans, and checks its
/// output invariants. Returns the rep's per-layer numbers and its report
/// digest.
fn traced_step(
    workload: Workload,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Option<(TracedRep, String)> {
    let from = rec.spans().len();
    let outcome = guarded(|| {
        let plan = rec.time("core.plan", || workload::plan(workload))?;
        let inputs = pipeline::build_inputs(&plan, rec);
        pipeline::run_study(&plan, inputs.as_ref(), rec)
    });
    rec.close_all();
    let run = tally.record(outcome.and_then(|run| {
        if run.violations.is_empty() {
            Ok(run)
        } else {
            Err(invariants_failed(&run.violations))
        }
    }))?;
    let rep = TracedRep {
        self_s: rec.self_seconds_since(from),
        study_s: rec.durations_since(from, "core.study").iter().sum(),
        message_s: rec.durations_since(from, "spacetime.enumerate"),
        counts: run.counts,
    };
    Some((rep, digest(&run.text)))
}

/// What one run measured.
struct Measured {
    reps: Vec<Rep>,
    /// Peak resident set after the first rep, in MiB: a fixed prefix of
    /// work, so allocator history does not move it.
    peak_rss_mib: f64,
    traced: Vec<TracedRep>,
    traced_digests: Vec<String>,
}

/// Repeats reps for `budget`. With a recorder, every untraced rep is
/// followed by a traced one, so both see the same host conditions and the
/// tracing overhead compares like with like.
fn measure(
    workload: Workload,
    budget: Duration,
    mut rec: Option<&mut Recorder>,
    tally: &mut Tally,
) -> Measured {
    let started = Instant::now();
    let mut measured = Measured {
        reps: Vec::new(),
        peak_rss_mib: 0.0,
        traced: Vec::new(),
        traced_digests: Vec::new(),
    };
    let mut attempt = 0;
    while another_rep(attempt, started, budget) {
        untraced_step(workload, &mut measured.reps, tally);
        if attempt == 0 {
            measured.peak_rss_mib = host::peak_rss_mib().unwrap_or(0.0);
        }
        if let Some(rec) = rec.as_deref_mut() {
            if let Some((rep, digest)) = traced_step(workload, rec, tally) {
                measured.traced.push(rep);
                measured.traced_digests.push(digest);
            }
        }
        attempt += 1;
    }
    measured
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

fn per_layer_metrics(reps: &[TracedRep], untraced_study_s: f64) -> Vec<Metric> {
    let med = |f: &dyn Fn(&TracedRep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let self_s = |name: &str| {
        let name = name.to_string();
        med(&|r: &TracedRep| r.self_s.get(&name).copied().unwrap_or(0.0))
    };
    let simulate_s = |r: &TracedRep| -> f64 {
        r.self_s.iter().filter(|(k, _)| k.starts_with("forwarding.simulate.")).map(|(_, v)| v).sum()
    };
    let count = |f: &dyn Fn(&Counts) -> u64| med(&|r: &TracedRep| f(&r.counts) as f64);
    let share = |num: &dyn Fn(&Counts) -> u64, den: &dyn Fn(&Counts) -> u64| {
        med(&|r: &TracedRep| {
            let d = den(&r.counts);
            if d == 0 {
                0.0
            } else {
                num(&r.counts) as f64 / d as f64
            }
        })
    };
    // Per-message enumeration times, pooled over the traced reps. The tail
    // is the highest percentile with at least ten samples beyond it.
    let mut message_s: Vec<f64> = reps.iter().flat_map(|r| r.message_s.iter().copied()).collect();
    message_s.sort_by(f64::total_cmp);
    let samples = message_s.len();
    let (tail_s, tail_pct) = match samples {
        0 => (0.0, 0.0),
        n if n <= 10 => (message_s[n - 1], 100.0),
        n => (message_s[n - 11], 100.0 * (n - 10) as f64 / n as f64),
    };
    let traced_study_s = med(&|r: &TracedRep| r.study_s);

    let mut metrics: Vec<Metric> = vec![
        ("trace.generate_s".into(), self_s("trace.generate"), "s"),
        ("trace.stream_fold_s".into(), self_s("trace.stream_fold"), "s"),
        ("trace.contacts".into(), count(&|c| c.contacts), "count"),
        ("spacetime.graph_build_s".into(), self_s("spacetime.graph_build"), "s"),
        ("spacetime.window_build_s".into(), self_s("spacetime.window_build"), "s"),
        ("spacetime.spill_stores".into(), count(&|c| c.spill_stores), "count"),
        ("spacetime.spill_loads".into(), count(&|c| c.spill_loads), "count"),
        ("spacetime.avoided_reloads".into(), count(&|c| c.avoided_reloads), "count"),
        ("spacetime.hot_peak_mib".into(), count(&|c| c.hot_peak_bytes) / (1024.0 * 1024.0), "MiB"),
        ("spacetime.enumerate_s".into(), self_s("spacetime.enumerate"), "s"),
        ("spacetime.enumerate_msg_p50_s".into(), median(&message_s), "s"),
        ("spacetime.enumerate_msg_tail_s".into(), tail_s, "s"),
        ("spacetime.enumerate_msg_tail_pct".into(), tail_pct, "%"),
        ("spacetime.enumerate_msg_samples".into(), samples as f64, "count"),
        ("spacetime.enumerate_messages".into(), count(&|c| c.enumerated), "count"),
        ("spacetime.exploded_share".into(), share(&|c| c.exploded, &|c| c.enumerated), "ratio"),
        ("spacetime.slots".into(), count(&|c| c.slots), "count"),
        ("spacetime.edges".into(), count(&|c| c.edges), "count"),
        ("spacetime.slots_processed".into(), count(&|c| c.slots_processed), "count"),
        ("spacetime.paths_delivered".into(), count(&|c| c.paths_delivered), "count"),
        ("forwarding.timeline_build_s".into(), self_s("forwarding.timeline_build"), "s"),
        ("forwarding.timeline_fold_s".into(), self_s("forwarding.timeline_fold"), "s"),
        ("forwarding.simulator_build_s".into(), self_s("forwarding.simulator_build"), "s"),
        ("forwarding.simulate_s".into(), med(&simulate_s), "s"),
    ];
    for (kind, _) in psn_forwarding::standard_algorithms() {
        let stem = pipeline::algorithm_stem(kind);
        metrics.push((
            format!("forwarding.simulate.{stem}_s"),
            self_s(&format!("forwarding.simulate.{stem}")),
            "s",
        ));
    }
    metrics.extend([
        ("forwarding.delivered_share".into(), share(&|c| c.delivered, &|c| c.simulated), "ratio"),
        ("forwarding.messages".into(), count(&|c| c.simulated), "count"),
        ("core.plan_s".into(), self_s("core.plan"), "s"),
        ("core.analysis_s".into(), self_s("core.study"), "s"),
        ("core.render_s".into(), self_s("core.render"), "s"),
        ("tracing.traced_study_s".into(), traced_study_s, "s"),
        ("tracing.untraced_study_s".into(), untraced_study_s, "s"),
        (
            "tracing.overhead_share".into(),
            if untraced_study_s > 0.0 { traced_study_s / untraced_study_s - 1.0 } else { 0.0 },
            "ratio",
        ),
    ]);
    metrics
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let state = state_dir();
    if let Err(e) = std::fs::create_dir_all(state.join("tmp")) {
        eprintln!("perfbench: cannot create {}: {e}", state.display());
        return ExitCode::from(1);
    }
    // Streaming spill slabs go to the temp directory; keep them in the
    // build directory. Set before any thread exists.
    std::env::set_var("TMPDIR", state.join("tmp"));

    let workload = args.workload;
    let steal_start = host::steal_seconds();
    let load_start = host::load_average();
    let fingerprint = ScenarioConfig::from_toml_str(workload.scenario_text())
        .map(|c| c.fingerprint().to_hex())
        .unwrap_or_else(|e| format!("invalid: {e}"));
    let mut tally = Tally::default();
    let mut rec = Recorder::new(args.trace);
    let budget = Duration::from_secs_f64(args.seconds);
    let Measured { reps, peak_rss_mib, traced, traced_digests } =
        measure(workload, budget, args.trace.then_some(&mut rec), &mut tally);
    let setups: Vec<f64> =
        reps.iter().flat_map(|r| r.setup_s.iter().map(|&s| r.calibrated(s))).collect();
    let setup_s = median(&setups);
    let study_s = median(&reps.iter().map(|r| r.calibrated(r.study_s)).collect::<Vec<_>>());
    let raw_setup_s = median(&reps.iter().flat_map(|r| r.setup_s.clone()).collect::<Vec<_>>());
    let raw_study_s = median(&reps.iter().map(|r| r.study_s).collect::<Vec<_>>());
    let kernel_s = median(&reps.iter().map(|r| r.kernel_s).collect::<Vec<_>>());
    let study_digest = reps.first().map(|r| r.digest.clone());
    let builds_in_study = reps.iter().map(|r| r.builds_in_study).max().unwrap_or(0);

    let mut replica_matches = false;
    let mut spans_file = None;
    let mut materialized_s = None;
    let mut metrics: Vec<Metric> = if args.trace {
        replica_matches = !traced_digests.is_empty()
            && traced_digests.iter().all(|d| Some(d) == study_digest.as_ref());
        let path = state.join(format!("spans-{}-seed{}.jsonl", workload.name(), args.seed));
        match std::fs::write(&path, rec.to_json_lines()) {
            Ok(()) => spans_file = Some(path),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
        let mut metrics = per_layer_metrics(&traced, raw_study_s);
        metrics.push(("artifact.builds_in_study".into(), builds_in_study as f64, "count"));
        metrics
    } else {
        if let Some(d) = &study_digest {
            replica_matches = check_pass(workload, d, &mut tally);
            if workload.streaming() {
                materialized_s = check_streaming_matches_materialized(workload, d, &mut tally);
            }
        }
        vec![
            ("setup_s".into(), setup_s, "s"),
            ("study_s".into(), study_s, "s"),
            ("peak_rss_mib".into(), peak_rss_mib, "MiB"),
        ]
    };
    if let Some(d) = &study_digest {
        check_digest_across_runs(workload, d, &mut tally);
    }
    let steal_s = match (steal_start, host::steal_seconds()) {
        (Some(start), Some(end)) => end - start,
        _ => 0.0,
    };
    if args.trace {
        metrics.push(("host.steal_s".into(), steal_s, "s"));
        metrics.push(("host.cores".into(), host::cores() as f64, "count"));
    }

    let failures: Vec<String> = tally.failures.iter().map(|f| json_string(f)).collect();
    println!(
        "{{\"diagnostics\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"reps\": {}, \
         \"setups\": {}, \"raw_setup_s\": {}, \"raw_study_s\": {}, \"kernel_s\": {}, \
         \"study_s_samples\": [{}], \"kernel_s_samples\": [{}], \"report_digest\": {}, \
         \"layer_pipeline_matches_study\": {}, \"materialized_study_s\": {}, \
         \"scenario_fingerprint\": {}, \"host_steal_s\": {}, \
         \"loadavg_1m_start\": {}, \"loadavg_1m_end\": {}, \"available_parallelism\": {}, \
         \"cpu_model\": {}, \"git_revision\": {}, \"spans_file\": {}, \"failures\": [{}]}}}}",
        json_string(workload.name()),
        args.seed,
        u8::from(args.trace),
        reps.len(),
        setups.len(),
        json_number(raw_setup_s),
        json_number(raw_study_s),
        json_number(kernel_s),
        reps.iter().map(|r| json_number(r.study_s)).collect::<Vec<_>>().join(", "),
        reps.iter().map(|r| json_number(r.kernel_s)).collect::<Vec<_>>().join(", "),
        json_string(&study_digest.unwrap_or_default()),
        replica_matches,
        materialized_s.map_or("null".to_string(), json_number),
        json_string(&fingerprint),
        json_number(steal_s),
        json_number(load_start.unwrap_or(-1.0)),
        json_number(host::load_average().unwrap_or(-1.0)),
        host::cores(),
        json_string(&host::cpu_model()),
        json_string(&host::git_revision()),
        json_string(&spans_file.map(|p| p.display().to_string()).unwrap_or_default()),
        failures.join(", "),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}
