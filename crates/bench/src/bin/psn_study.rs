//! `psn-study` — the config-driven study runner.
//!
//! One CLI replaces the fifteen hardcoded figure binaries:
//!
//! ```text
//! psn-study run --preset fig09                          # regenerate a paper figure
//! psn-study run --config scenarios/community_conference.toml --study forwarding
//! psn-study run --config a.toml --study forwarding --views delay-vs-success
//! psn-study run --config a.toml --study explosion --format json --out results/
//! psn-study run --study model                           # scenario-less study
//! psn-study sweep --config scenarios/sweep_community_2x2.toml --format json
//! psn-study sweep --config grid.toml --cache DIR --keep-going   # fault-tolerant grid
//! psn-study run --config a.toml --study forwarding --dry   # show the plan, run nothing
//! psn-study describe --config scenarios/scaled_1k.toml  # generate + summarise a scenario
//! psn-study list                                        # presets, studies, views, families
//! ```
//!
//! Reports are **typed** (`psn::report::ReportDoc`); `--format text|json|csv`
//! picks the rendering backend and `--out <dir>` writes the artifacts to
//! disk instead of stdout (CSV emits one file per table). `--profile
//! quick|paper` (default `quick`) sets the scale and `--threads N` (default
//! 0, one per core) the worker count; no environment variable changes what
//! a command line does. Scenario and sweep config files are TOML or JSON
//! (see `scenarios/` and the `psn_trace::scenario` / `psn_trace::sweep`
//! module docs).
//!
//! ## Exit codes
//!
//! Failures are typed all the way out of the process (see DESIGN.md §6d):
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | success |
//! | 2    | usage: bad flags, contradictory combinations |
//! | 3    | config: unreadable/invalid scenario or sweep file, plan errors |
//! | 4    | artifact/cache: the store or an output file could not be used |
//! | 5    | execution: a study cell failed or panicked (including cells   |
//! |      | reported by `sweep --keep-going`, after the report is emitted) |
//! | 141  | stdout closed before the output was written (a reader such as |
//! |      | `head` quit early); nothing is printed on stderr              |
//!
//! Every stdout write goes through one fallible writer (`out!`/`outln!`):
//! a closed reader ends the run quietly with 141, the status a shell
//! reports for a process killed by `SIGPIPE`, and any other write error
//! exits 4.
//!
//! ## Fault injection
//!
//! `--faults SITE:KIND[:NTH],…` arms deterministic failpoints for chaos
//! testing — e.g. `--faults disk.read-result:corrupt-bytes:1` corrupts the
//! first cached result read so the self-healing path (quarantine +
//! recompute) can be exercised on demand. See the `psn-fault` crate docs
//! for sites and kinds.

use std::path::PathBuf;
use std::process::ExitCode;

use psn::report::{ReportDoc, ReportFormat};
use psn::study::preset::{render_header, PresetId};
use psn::study::sweep::{run_sweep_with_policy, SweepReport, SweepSpec, MAX_AXIS_COUNT};
use psn::study::{
    parse_views, planned_result_fingerprints, run_study_with, ArtifactError, ArtifactStore,
    CacheSource, CellFailure, RunPolicy, StudyError, StudyId, StudyParams, StudyScenario,
    StudySpec,
};
use psn::ExperimentProfile;
use psn_trace::{NodeId, ScenarioConfig, ScenarioSweep};

fn usage() -> &'static str {
    "usage:\n  \
     psn-study run --preset <name> [--profile quick|paper] [--threads N] [--format text|json|csv] [--out DIR]\n  \
     \u{20}             [--dry] [--cache DIR]\n  \
     psn-study run --config <file>... --study <name> [--views a,b] [--seeds a,b,c] [--profile ...] [--threads N]\n  \
     \u{20}             [--k <path budget>] [--messages N] [--runs N] [--delta SECONDS] [--format text|json|csv]\n  \
     \u{20}             [--out DIR] [--dry] [--cache DIR] [--window N]\n  \
     psn-study sweep --config <sweep file> [--study <name>] [--views a,b] [--seeds a,b,c] [--profile ...]\n  \
     \u{20}             [--threads N] [--k ...] [--messages N] [--runs N] [--delta SECONDS] [--format text|json|csv]\n  \
     \u{20}             [--out DIR] [--dry] [--cache DIR] [--keep-going] [--window N]\n  \
     psn-study describe --config <file>...\n  \
     psn-study list\n\
     --dry: show the resolved plan (a sweep's cells), run nothing\n\
     profile: --profile quick (default; reduced scale) or paper (98 nodes, 3-hour traces)\n\
     threads: --threads N workers, at most 1024 (default 0 = one per core; never changes results)\n\
     caching: --cache DIR persists per-cell results (content-addressed; a rerun or an interrupted\n  \
     \u{20}             sweep is served from the cache, bit-identically); a cached sweep reports up\n  \
     \u{20}             front how many of its cells are already cached\n\
     streaming: --window N builds the space-time graph and history timeline in one bounded pass\n  \
     \u{20}             over the contact-event stream, keeping N slots hot and spilling cold slots\n  \
     \u{20}             to disk; reports are bit-identical to the default materialized engines —\n  \
     \u{20}             only peak memory changes\n\
     robustness: --keep-going finishes a sweep past failing cells and appends a typed failure\n  \
     \u{20}             summary (exit 5); rerun with the same --cache DIR to recompute only the\n  \
     \u{20}             failed cells; --faults SITE:KIND[:NTH],… arms deterministic failpoints for\n  \
     \u{20}             chaos testing\n\
     exit codes: 0 success, 2 usage, 3 config/plan, 4 artifact/cache, 5 execution failure,\n  \
     \u{20}             141 stdout closed early (e.g. piped into head)\n\
     run `psn-study list` for the registered presets, studies, views and scenario families"
}

/// A typed CLI failure: every error path out of `main` carries one of
/// these, and each variant owns a distinct exit code (documented in
/// [`usage`] and DESIGN.md §6d) so scripts and CI can tell a typo from a
/// corrupt cache from a panicked cell.
enum Failure {
    /// Bad flags or contradictory combinations — exit 2.
    Usage(String),
    /// A config/sweep file or the resolved plan is invalid — exit 3.
    Config(String),
    /// The artifact store (or an output file) failed — exit 4.
    Artifact(String),
    /// A study cell failed or panicked — exit 5.
    Execution(String),
    /// The reader of stdout went away — exit 141, with no message: the
    /// reader chose to stop reading.
    BrokenPipe,
}

impl Failure {
    fn exit_code(&self) -> u8 {
        match self {
            Failure::Usage(_) => 2,
            Failure::Config(_) => 3,
            Failure::Artifact(_) => 4,
            Failure::Execution(_) => 5,
            Failure::BrokenPipe => 141,
        }
    }

    fn message(&self) -> Option<&str> {
        match self {
            Failure::Usage(m)
            | Failure::Config(m)
            | Failure::Artifact(m)
            | Failure::Execution(m) => Some(m),
            Failure::BrokenPipe => None,
        }
    }
}

/// `print!` through [`write_stdout`]: evaluates to `Result<(), Failure>`.
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`]: evaluates to `Result<(), Failure>`.
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// The one stdout writer. It flushes every write, so a closed reader
/// surfaces here as [`Failure::BrokenPipe`] (not as a panic inside
/// `print!`, nor as an error lost at exit), and any other write error as
/// an artifact failure (exit 4).
fn write_stdout(text: std::fmt::Arguments<'_>) -> Result<(), Failure> {
    use std::io::Write;
    let mut stdout = std::io::stdout().lock();
    stdout.write_fmt(text).and_then(|()| stdout.flush()).map_err(|e| match e.kind() {
        std::io::ErrorKind::BrokenPipe => Failure::BrokenPipe,
        _ => Failure::Artifact(format!("writing to stdout: {e}")),
    })
}

impl From<ArtifactError> for Failure {
    fn from(e: ArtifactError) -> Self {
        Failure::Artifact(e.to_string())
    }
}

impl From<StudyError> for Failure {
    fn from(e: StudyError) -> Self {
        match e {
            StudyError::Plan(p) => Failure::Config(p.to_string()),
            StudyError::Artifact(a) => a.into(),
            StudyError::Cell(c) => Failure::Execution(format!(
                "{c}\n(rerun `sweep` with --keep-going to finish the \
                 remaining cells and get a failure summary)"
            )),
        }
    }
}

struct Args {
    preset: Option<String>,
    configs: Vec<PathBuf>,
    study: Option<String>,
    views: Option<String>,
    seeds: Vec<u64>,
    profile: ExperimentProfile,
    threads: usize,
    k: Option<usize>,
    messages: Option<usize>,
    runs: Option<usize>,
    delta: Option<f64>,
    window: Option<usize>,
    format: ReportFormat,
    out: Option<PathBuf>,
    dry: bool,
    cache: Option<PathBuf>,
    keep_going: bool,
    faults: Option<String>,
}

/// The most worker threads `--threads` accepts: the enumeration pool and
/// the simulator's lanes each start up to that many OS threads.
const MAX_THREADS: usize = 1024;

fn parse_args(mut argv: std::env::Args) -> Result<(String, Args), String> {
    let command = argv.next().ok_or_else(|| usage().to_string())?;
    let mut args = Args {
        preset: None,
        configs: Vec::new(),
        study: None,
        views: None,
        seeds: Vec::new(),
        profile: ExperimentProfile::Quick,
        threads: 0,
        k: None,
        messages: None,
        runs: None,
        delta: None,
        window: None,
        format: ReportFormat::Text,
        out: None,
        dry: false,
        cache: None,
        keep_going: false,
        faults: None,
    };
    let next_value = |argv: &mut std::env::Args, flag: &str| {
        argv.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--preset" => args.preset = Some(next_value(&mut argv, "--preset")?),
            "--config" => args.configs.push(PathBuf::from(next_value(&mut argv, "--config")?)),
            "--study" => args.study = Some(next_value(&mut argv, "--study")?),
            "--views" => args.views = Some(next_value(&mut argv, "--views")?),
            "--seeds" => {
                for part in next_value(&mut argv, "--seeds")?.split(',') {
                    let seed = part
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| format!("--seeds: invalid seed {part:?}"))?;
                    args.seeds.push(seed);
                }
            }
            "--profile" => {
                args.profile = match next_value(&mut argv, "--profile")?.as_str() {
                    "quick" => ExperimentProfile::Quick,
                    "paper" => ExperimentProfile::Paper,
                    other => return Err(format!("--profile: expected quick|paper, got {other:?}")),
                }
            }
            "--threads" => {
                args.threads = next_value(&mut argv, "--threads")?
                    .parse()
                    .ok()
                    .filter(|&threads| threads <= MAX_THREADS)
                    .ok_or_else(|| {
                        format!(
                            "--threads: expected a number from 0 (one per core) to {MAX_THREADS}"
                        )
                    })?
            }
            "--k" => {
                args.k = Some(
                    next_value(&mut argv, "--k")?
                        .parse()
                        .map_err(|_| "--k: expected a number".to_string())?,
                )
            }
            "--messages" => {
                args.messages = Some(
                    next_value(&mut argv, "--messages")?
                        .parse()
                        .map_err(|_| "--messages: expected a number".to_string())?,
                )
            }
            "--runs" => {
                args.runs = Some(
                    next_value(&mut argv, "--runs")?
                        .parse()
                        .map_err(|_| "--runs: expected a number".to_string())?,
                )
            }
            "--delta" => {
                args.delta = Some(
                    next_value(&mut argv, "--delta")?
                        .parse()
                        .map_err(|_| "--delta: expected a number of seconds".to_string())?,
                )
            }
            "--window" => {
                args.window = Some(
                    next_value(&mut argv, "--window")?
                        .parse()
                        .map_err(|_| "--window: expected a slot count".to_string())?,
                )
            }
            "--format" => {
                let name = next_value(&mut argv, "--format")?;
                args.format = ReportFormat::parse(&name).ok_or_else(|| {
                    let names: Vec<&str> = ReportFormat::all().iter().map(|f| f.name()).collect();
                    format!("--format: expected one of {}, got {name:?}", names.join("|"))
                })?;
            }
            "--out" => args.out = Some(PathBuf::from(next_value(&mut argv, "--out")?)),
            "--dry" => args.dry = true,
            "--cache" => args.cache = Some(PathBuf::from(next_value(&mut argv, "--cache")?)),
            "--keep-going" => args.keep_going = true,
            "--faults" => args.faults = Some(next_value(&mut argv, "--faults")?),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok((command, args))
}

fn load_scenarios(configs: &[PathBuf]) -> Result<Vec<StudyScenario>, Failure> {
    let loaded = configs
        .iter()
        .map(|path| {
            ScenarioConfig::from_path(path)
                .map_err(|e| Failure::Config(format!("{}: {e}", path.display())))
        })
        .collect::<Result<Vec<_>, _>>()?;
    // Reject duplicate names up front (report sections are keyed by name).
    let set = psn_trace::ScenarioSet::new(loaded).map_err(|e| Failure::Config(e.to_string()))?;
    Ok(set.scenarios().iter().cloned().map(StudyScenario::from).collect())
}

fn parse_study(name: &str) -> Result<StudyId, Failure> {
    StudyId::parse(name).ok_or_else(|| {
        let names: Vec<&str> = StudyId::all().iter().map(|s| s.name()).collect();
        Failure::Config(format!("unknown study {name:?} (registered: {})", names.join(", ")))
    })
}

fn build_params(args: &Args) -> Result<StudyParams, Failure> {
    // The count flags take the bound of their `params.*` sweep axes.
    let count = |axis: &str, value: usize| {
        if value == 0 || value > MAX_AXIS_COUNT {
            return Err(Failure::Usage(format!(
                "--{axis} must be between 1 and {MAX_AXIS_COUNT}, like a params.{axis} sweep axis"
            )));
        }
        Ok(value)
    };
    let mut params = StudyParams::for_profile(args.profile).with_threads(args.threads);
    if let Some(k) = args.k {
        params = params.with_k(count("k", k)?);
    }
    if let Some(messages) = args.messages {
        params = params.with_messages(count("messages", messages)?);
    }
    if let Some(runs) = args.runs {
        params = params.with_runs(count("runs", runs)?);
    }
    if let Some(delta) = args.delta {
        if !(delta > 0.0 && delta.is_finite()) {
            return Err(Failure::Usage("--delta must be a positive number of seconds".into()));
        }
        params = params.with_delta(delta);
    }
    if let Some(window) = args.window {
        // Streaming with N hot slots; results are bit-identical to the
        // materialized engines.
        if window == 0 {
            return Err(Failure::Usage("--window must be at least 1 slot".into()));
        }
        params = params.with_streaming_window(Some(window));
    }
    Ok(params)
}

fn build_spec(args: &Args) -> Result<StudySpec, Failure> {
    let study_name = args.study.as_deref().ok_or_else(|| {
        Failure::Usage("--study is required when running from --config files".into())
    })?;
    let study = parse_study(study_name)?;
    let scenarios = load_scenarios(&args.configs)?;
    let params = build_params(args)?;
    let mut spec = StudySpec::new(study, scenarios, params).with_extra_seeds(args.seeds.clone());
    if let Some(views) = &args.views {
        spec =
            spec.with_views(parse_views(study, views).map_err(|e| Failure::Config(e.to_string()))?);
    }
    Ok(spec)
}

/// Builds the artifact store the command runs against: disk-backed under
/// `--cache DIR`, otherwise a private in-memory store (runs within the
/// invocation still share artifacts).
fn build_store(args: &Args) -> Result<ArtifactStore, Failure> {
    match &args.cache {
        Some(dir) => Ok(ArtifactStore::with_disk(dir)?),
        None => Ok(ArtifactStore::in_memory()),
    }
}

/// Prints the sweep's per-cell cache provenance and store counters on
/// stderr — deliberately *not* into the report, whose bytes must be
/// identical between cold and warm runs.
fn report_sweep_cache(report: &SweepReport, store: &ArtifactStore) {
    let served = report.cells_served_from_cache();
    let memory = report.cache.iter().filter(|c| c.source == CacheSource::Memory).count();
    let disk = report.cache.iter().filter(|c| c.source == CacheSource::Disk).count();
    let computed = report.cache.len() - served;
    eprintln!(
        "cache: {served}/{} cells served from cache ({memory} memory, {disk} disk), \
         {computed} computed; store {}",
        report.cache.len(),
        store.stats().summary()
    );
}

/// Prints every failed cell on stderr (the typed failure-summary section
/// carries the same rows inside the report) and returns the execution
/// exit code. Only reachable under `--keep-going`.
fn report_failures(failures: &[CellFailure]) -> ExitCode {
    for failure in failures {
        eprintln!("failed: {failure}");
    }
    eprintln!(
        "{} cell(s) failed; the report contains a failure-summary section. \
         Rerun with the same --cache DIR to recompute only the failed cells.",
        failures.len()
    );
    ExitCode::from(5)
}

fn build_sweep_spec(args: &Args) -> Result<SweepSpec, Failure> {
    let config = match args.configs.as_slice() {
        [one] => one,
        [] => return Err(Failure::Usage("sweep needs exactly one --config <sweep file>".into())),
        _ => return Err(Failure::Usage("sweep takes a single --config sweep file".into())),
    };
    let mut sweep = ScenarioSweep::from_path(config)
        .map_err(|e| Failure::Config(format!("{}: {e}", config.display())))?;
    let study_name = args
        .study
        .as_deref()
        .or(sweep.study.as_deref())
        .ok_or_else(|| {
            Failure::Usage("sweep needs --study (or a `study` field in the sweep file)".into())
        })?
        .to_string();
    let study = parse_study(&study_name)?;
    if !args.seeds.is_empty() {
        // CLI seeds override the file's replication list.
        sweep.seeds = args.seeds.clone();
    }
    let params = build_params(args)?;
    let views = match &args.views {
        Some(views) => parse_views(study, views).map_err(|e| Failure::Config(e.to_string()))?,
        None => Vec::new(),
    };
    Ok(SweepSpec { study, sweep, views, params })
}

/// Emits a rendered document: to stdout by default (CSV artifacts get
/// `# == name ==` separators), or one file per artifact under `--out`.
/// `text_header` is prepended to text output only — JSON/CSV must stay
/// machine-parseable.
fn emit(doc: &ReportDoc, args: &Args, text_header: Option<&str>) -> Result<(), Failure> {
    let renderer = args.format.renderer();
    let mut artifacts = renderer.render(doc);
    if args.format == ReportFormat::Text {
        if let (Some(header), Some(first)) = (text_header, artifacts.first_mut()) {
            first.contents = format!("{header}{}", first.contents);
        }
    }
    match &args.out {
        None => {
            let many = artifacts.len() > 1;
            for artifact in &artifacts {
                if many {
                    outln!("# == {} ==", artifact.filename)?;
                }
                out!("{}", artifact.contents)?;
            }
        }
        Some(dir) => {
            for artifact in &artifacts {
                write_out(dir, &artifact.filename, &artifact.contents)?;
            }
        }
    }
    Ok(())
}

/// Emits a preset's text output (header included): to stdout, or as
/// `report.txt` under `--out`, the file the text backend names.
fn emit_text(args: &Args, contents: &str) -> Result<(), Failure> {
    match &args.out {
        None => out!("{contents}"),
        Some(dir) => write_out(dir, "report.txt", contents),
    }
}

/// Writes one rendered artifact into the `--out` directory.
fn write_out(dir: &PathBuf, filename: &str, contents: &str) -> Result<(), Failure> {
    std::fs::create_dir_all(dir)
        .map_err(|e| Failure::Artifact(format!("creating {}: {e}", dir.display())))?;
    let path: PathBuf = dir.join(filename);
    std::fs::write(&path, contents)
        .map_err(|e| Failure::Artifact(format!("writing {}: {e}", path.display())))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn cmd_run(args: &Args) -> Result<ExitCode, Failure> {
    if let Some(name) = &args.preset {
        // Presets are pinned invocations; flags that would alter the spec
        // are rejected rather than silently ignored.
        let incompatible = [
            ("--config", !args.configs.is_empty()),
            ("--study", args.study.is_some()),
            ("--views", args.views.is_some()),
            ("--seeds", !args.seeds.is_empty()),
            ("--k", args.k.is_some()),
            ("--messages", args.messages.is_some()),
            ("--runs", args.runs.is_some()),
            ("--delta", args.delta.is_some()),
            ("--window", args.window.is_some()),
        ];
        if let Some((flag, _)) = incompatible.iter().find(|(_, given)| *given) {
            return Err(Failure::Usage(format!(
                "{flag} cannot be combined with --preset (presets pin the spec; \
                 use `run --config … --study …` to customise)"
            )));
        }
        let preset = PresetId::parse(name).ok_or_else(|| {
            let names: Vec<&str> = PresetId::all().iter().map(|p| p.name()).collect();
            Failure::Config(format!("unknown preset {name:?} (registered: {})", names.join(", ")))
        })?;
        if args.dry {
            return match preset.spec(args.profile, args.threads) {
                Some(spec) => {
                    let plan = spec.plan().map_err(|e| Failure::Config(e.to_string()))?;
                    out!("{}", plan.describe()).map(|()| ExitCode::SUCCESS)
                }
                None => outln!("preset {name} renders a hardcoded example; nothing to plan")
                    .map(|()| ExitCode::SUCCESS),
            };
        }
        if preset.study().is_none() {
            // Fig. 2 prints a hardcoded example: no study, nothing to cache
            // and no typed report.
            if args.cache.is_some() {
                return Err(Failure::Usage(format!(
                    "--cache cannot be combined with --preset {name} (it renders a hardcoded \
                     example with no study to cache)"
                )));
            }
            if args.format != ReportFormat::Text {
                return Err(Failure::Config(format!(
                    "preset {name:?} is a hardcoded example with no typed report; use --format text"
                )));
            }
        }
        let store = build_store(args)?;
        let run = preset.run(args.profile, args.threads, &store)?;
        let Some(report) = &run.report else {
            return emit_text(args, &run.text()).map(|()| ExitCode::SUCCESS);
        };
        report_run_cache(args, report, &store);
        return match args.format {
            // The golden-pinned bytes: header + report, as the pre-refactor
            // binary printed them — with or without --out.
            ReportFormat::Text => emit_text(args, &run.text()),
            _ => emit(&report.doc, args, None),
        }
        .map(|()| ExitCode::SUCCESS);
    }
    let spec = build_spec(args)?;
    let plan = spec.plan().map_err(|e| Failure::Config(e.to_string()))?;
    if args.dry {
        return out!("{}", plan.describe()).map(|()| ExitCode::SUCCESS);
    }
    let store = build_store(args)?;
    let report = run_study_with(&plan, &store)?;
    report_run_cache(args, &report, &store);
    let title = format!("study {} ({} scenarios)", plan.study, plan.runs.len());
    emit(&report.doc, args, Some(&render_header(&title, args.profile))).map(|()| ExitCode::SUCCESS)
}

/// Prints the `run` command's cache provenance on stderr when a persistent
/// cache is in play (both the preset and config-file paths, every format).
fn report_run_cache(args: &Args, report: &psn::StudyReport, store: &ArtifactStore) {
    if args.cache.is_none() {
        return;
    }
    let served = report.cache.iter().filter(|c| c.source.is_cached()).count();
    eprintln!(
        "cache: {served}/{} runs served from cache; store {}",
        report.cache.len(),
        store.stats().summary()
    );
}

fn cmd_sweep(args: &Args) -> Result<ExitCode, Failure> {
    let spec = build_sweep_spec(args)?;
    let plan = spec.plan().map_err(|e| Failure::Config(e.to_string()))?;
    if args.dry {
        return out!(
            "sweep: {} ({} cells)\n{}",
            spec.sweep.name,
            plan.cells.len(),
            plan.plan.describe()
        )
        .map(|()| ExitCode::SUCCESS);
    }
    let store = build_store(args)?;
    if let Some(disk) = store.disk() {
        // Before running, report how much of the sweep is already
        // persisted; those cells are served from the cache (results are
        // content-addressed, so reuse is always safe).
        let cells = planned_result_fingerprints(&plan.plan);
        let done = cells.iter().filter(|(_, fp)| disk.result_exists(*fp)).count();
        eprintln!(
            "cache: {done}/{} cells already cached in {}",
            cells.len(),
            disk.root().display()
        );
    }
    let policy = if args.keep_going { RunPolicy::KeepGoing } else { RunPolicy::FailFast };
    let report = run_sweep_with_policy(&plan, &store, policy)?;
    report_sweep_cache(&report, &store);
    let title = format!(
        "sweep {} — study {} over {} cells",
        spec.sweep.name,
        plan.plan.study,
        plan.cells.len()
    );
    emit(&report.doc, args, Some(&render_header(&title, args.profile)))?;
    if !report.failures.is_empty() {
        return Ok(report_failures(&report.failures));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_describe(args: &Args) -> Result<ExitCode, Failure> {
    if args.configs.is_empty() {
        return Err(Failure::Usage("describe needs at least one --config".into()));
    }
    for scenario in load_scenarios(&args.configs)? {
        let config = &scenario.config;
        outln!("scenario: {} ({})", scenario.label, config.kind())?;
        outln!("  nodes: {}", config.node_count())?;
        outln!("  window: {:.0} s", config.window_seconds())?;
        outln!("  seed: {}", config.seed())?;
        let trace = config.generate();
        outln!("  contacts: {}", trace.contact_count())?;
        outln!("  mean contacts per node: {:.1}", trace.mean_contacts_per_node())?;
        outln!("  aggregate contact rate: {:.3} /s", trace.aggregate_contact_rate())?;
        // Busiest node via the per-node contact index (O(1) per lookup
        // after the one-off build).
        let busiest =
            (0..trace.node_count() as u32).map(|n| (trace.contact_count_of(NodeId(n)), n)).max();
        if let Some((count, node)) = busiest {
            outln!("  busiest node: n{node} ({count} contacts)")?;
        }
        if let ScenarioConfig::Community(c) = config {
            if let Some(frac) = psn_trace::generator::community::intra_community_fraction(c, &trace)
            {
                outln!("  intra-community contact fraction: {frac:.3}")?;
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_list() -> Result<(), Failure> {
    outln!("presets (run with `psn-study run --preset <name>`):")?;
    for preset in PresetId::all() {
        outln!("  {:<8} {}", preset.name(), preset.figure_title())?;
    }
    outln!("\nstudies (run with `psn-study run --config <file> --study <name>`):")?;
    for study in StudyId::all() {
        outln!("  {:<12} {}", study.name(), study.description())?;
        let views: Vec<&str> = study.views().iter().map(|v| v.name()).collect();
        outln!("  {:<12}   views: {}", "", views.join(", "))?;
    }
    outln!("\nscenario families (the `kind` field of a config file):")?;
    for kind in ScenarioConfig::kinds() {
        outln!("  {kind}")?;
    }
    outln!("\nsweeps: `psn-study sweep --config <file>` — a [base] scenario, [axes] value")?;
    outln!("  grids and optional seeds, crossed into one run per grid cell")?;
    outln!("\nformats: --format text (default; golden-pinned), json (psn-report/1), csv")?;
    outln!("  (one file per table); --out DIR writes files instead of stdout")?;
    outln!("\ncaching: --cache DIR persists per-cell results keyed by a structural config")?;
    outln!("  hash; reruns and interrupted sweeps are served bit-identically from the cache,")?;
    outln!("  and a cached sweep reports up front how many cells are already cached")?;
    outln!("\nrobustness: sweep --keep-going finishes past failing cells (failure summary,")?;
    outln!("  exit 5); --faults SITE:KIND[:NTH] arms deterministic failpoints")?;
    outln!("exit codes: 0 success, 2 usage, 3 config, 4 artifact/cache, 5 execution,")?;
    outln!("  141 stdout closed early")?;
    outln!("\nstreaming: --window N folds the contact-event stream into a bounded window of")?;
    outln!("  N hot slots (spilling cold ones); reports stay bit-identical, peak")?;
    outln!("  working-set bytes show in the --cache stderr summary")?;
    outln!("\nprofiles: --profile quick (default) or paper")?;
    outln!("threads: --threads N, at most {MAX_THREADS} (0 = one per core, the default; never")?;
    outln!("  changes results)")
}

fn main() -> ExitCode {
    let mut argv = std::env::args();
    argv.next(); // program name
    if std::env::args().nth(1).as_deref() == Some("help")
        || std::env::args().skip(1).any(|arg| arg == "--help" || arg == "-h")
    {
        return exit(outln!("{}", usage()).map(|()| ExitCode::SUCCESS));
    }
    let (command, args) = match parse_args(argv) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if args.keep_going && command != "sweep" {
        eprintln!("--keep-going applies to `sweep` only (finishing a grid past failing cells)");
        return ExitCode::from(2);
    }
    if let Some(spec) = &args.faults {
        // Explicitly armed failpoints (chaos testing).
        if let Err(e) = psn_fault::arm(spec) {
            eprintln!("--faults: {e}");
            return ExitCode::from(2);
        }
    }
    let result = match command.as_str() {
        "run" => cmd_run(&args),
        "sweep" => cmd_sweep(&args),
        "describe" => cmd_describe(&args),
        "list" => cmd_list().map(|()| ExitCode::SUCCESS),
        other => Err(Failure::Usage(format!("unknown command {other:?}\n{}", usage()))),
    };
    exit(result)
}

/// The process exit code of a command's outcome, with a failure's message
/// (if it has one) on stderr.
fn exit(result: Result<ExitCode, Failure>) -> ExitCode {
    result.unwrap_or_else(|failure| {
        if let Some(message) = failure.message() {
            eprintln!("{message}");
        }
        ExitCode::from(failure.exit_code())
    })
}
