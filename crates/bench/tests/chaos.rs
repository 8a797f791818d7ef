//! Chaos suite: deterministic fault injection against the study pipeline
//! and the `psn-study` CLI — the acceptance criteria of the failure model
//! (DESIGN.md §6d), pinned as tests:
//!
//! * **differential byte-identity** — any run that completes under a
//!   single injected fault (transient IO error, corrupted cache file,
//!   corrupted decode) produces output byte-identical to the fault-free
//!   run;
//! * **self-healing cache** — a corrupted cached artifact is quarantined
//!   into `corrupt/` and transparently rebuilt, never served and never
//!   fatal;
//! * **panic isolation** — an injected worker panic becomes a typed
//!   [`psn::study::CellFailure`]; `sweep --keep-going` finishes the grid,
//!   appends the failure-summary section and exits 5; a rerun over the
//!   same cache (`--resume`) recomputes only the failed cells,
//!   bit-identically;
//! * **exit-code taxonomy** — usage (2), config (3), artifact (4) and
//!   execution (5) failures are distinguishable from scripts.
//!
//! Library-level tests arm failpoints through [`psn_fault::arm_guard`],
//! which serializes them behind a process-wide lock so concurrent tests
//! never observe each other's fault plans. CLI-level tests inject via
//! `--faults`/`PSN_FAULTS` into child processes, whose plans are private.

use std::path::PathBuf;
use std::process::{Command, Output};

use psn::study::{
    run_study, run_study_with, run_study_with_policy, ArtifactStore, CacheSource, RunPolicy,
    StudyError, StudyId, StudyParams, StudyScenario, StudySpec,
};
use psn::ExperimentProfile;
use psn_artifact::codec::encode_trace;
use psn_trace::generator::CommunityConfig;
use psn_trace::ScenarioConfig;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("psn-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn chaos_config(seed: u64) -> ScenarioConfig {
    ScenarioConfig::Community(CommunityConfig {
        name: format!("chaos-{seed}"),
        communities: 2,
        nodes_per_community: 8,
        window_seconds: 2400.0,
        max_node_rate: 0.2,
        intra_inter_ratio: 4.0,
        mean_contact_duration: 40.0,
        contact_duration_cv: 0.5,
        seed,
    })
}

fn quick_spec(seeds: &[u64]) -> StudySpec {
    let scenarios = seeds.iter().map(|&s| StudyScenario::from(chaos_config(s))).collect();
    let params = StudyParams::for_profile(ExperimentProfile::Quick)
        .with_threads(1)
        .with_messages(4)
        .with_runs(1);
    StudySpec::new(StudyId::Activity, scenarios, params)
}

// ---------------------------------------------------------------------------
// Library level: the artifact store under injected faults.
// ---------------------------------------------------------------------------

#[test]
fn single_read_faults_self_heal_and_serve_byte_identical_traces() {
    let dir = temp_dir("trace-heal");
    let config = chaos_config(1);
    let identity = config.canonical_identity();

    let baseline = {
        let store = ArtifactStore::with_disk(&dir).unwrap();
        let (trace, source) = store.scenario_trace(&config).unwrap();
        assert_eq!(source, CacheSource::Built);
        encode_trace(&trace, &identity)
    };

    for spec in [
        // A transient read error: absorbed by the bounded retry, the
        // cached bytes are served on the second attempt.
        "disk.read-trace:io-error:1",
        // Corrupted cached bytes: the decode fails, the file is
        // quarantined and the trace rebuilt deterministically.
        "disk.read-trace:corrupt-bytes:1",
        // Corruption between read and decode (torn page, bad RAM): same
        // quarantine-and-rebuild path.
        "codec.decode-trace:corrupt-bytes:1",
    ] {
        {
            let _guard = psn_fault::arm_guard(spec);
            let store = ArtifactStore::with_disk(&dir).unwrap();
            let (trace, _) = store.scenario_trace(&config).unwrap();
            assert_eq!(
                encode_trace(&trace, &identity),
                baseline,
                "{spec}: healed run must be byte-identical"
            );
            if spec.contains("corrupt") {
                assert!(
                    store.stats().quarantines > 0,
                    "{spec}: corruption must be quarantined, stats: {:?}",
                    store.stats()
                );
                let corrupt = dir.join("corrupt");
                assert!(
                    corrupt.read_dir().map(|mut d| d.next().is_some()).unwrap_or(false),
                    "{spec}: quarantined file must land in corrupt/"
                );
            }
        }
        // Faults disarmed: the rebuilt cache entry serves cleanly from
        // disk — corruption never leaves a sticky miss behind.
        let store = ArtifactStore::with_disk(&dir).unwrap();
        let (trace, source) = store.scenario_trace(&config).unwrap();
        assert_eq!(source, CacheSource::Disk, "{spec}: cache must have healed");
        assert_eq!(encode_trace(&trace, &identity), baseline, "{spec}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persistent_write_failures_degrade_to_uncached_not_fatal() {
    let dir = temp_dir("trace-writefail");
    let config = chaos_config(2);
    let identity = config.canonical_identity();
    let expected = encode_trace(&config.generate(), &identity);

    {
        let _guard = psn_fault::arm_guard("disk.write-trace:io-error:*");
        let store = ArtifactStore::with_disk(&dir).unwrap();
        let (trace, source) = store.scenario_trace(&config).unwrap();
        assert_eq!(source, CacheSource::Built);
        assert_eq!(encode_trace(&trace, &identity), expected);
    }
    // Nothing was persisted, so the next store rebuilds — a degraded
    // cache is a performance bug, never a correctness one.
    let store = ArtifactStore::with_disk(&dir).unwrap();
    let (trace, source) = store.scenario_trace(&config).unwrap();
    assert_eq!(source, CacheSource::Built);
    assert_eq!(encode_trace(&trace, &identity), expected);

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Library level: the study pipeline under injected panics.
// ---------------------------------------------------------------------------

#[test]
fn fail_fast_surfaces_an_injected_panic_as_a_typed_cell_failure() {
    let _guard = psn_fault::arm_guard("queue.study-run:panic:1");
    let plan = quick_spec(&[21]).plan().unwrap();
    let err = run_study_with(&plan, &ArtifactStore::in_memory())
        .expect_err("the injected panic must become a typed error");
    match err {
        StudyError::Cell(failure) => {
            assert!(failure.panicked, "injected panic must be flagged: {failure}");
            assert!(
                failure.message.contains("injected fault"),
                "panic payload must survive isolation: {failure}"
            );
        }
        other => panic!("expected StudyError::Cell, got {other}"),
    }
}

#[test]
fn an_injected_enumeration_panic_fails_its_cell_at_one_and_two_threads() {
    let scenarios = vec![StudyScenario::from(chaos_config(41))];
    for threads in [1, 2] {
        let params = StudyParams::for_profile(ExperimentProfile::Quick)
            .with_threads(threads)
            .with_messages(4)
            .with_runs(1);
        let plan = StudySpec::new(StudyId::Explosion, scenarios.clone(), params).plan().unwrap();
        let _guard = psn_fault::arm_guard("queue.explosion:panic:1");
        match run_study_with(&plan, &ArtifactStore::in_memory()) {
            Err(StudyError::Cell(failure)) => {
                assert!(failure.panicked, "{threads} threads: {failure}");
                assert!(
                    failure.message.contains("injected fault: panic at queue.explosion"),
                    "{threads} threads: {failure}"
                );
            }
            Err(other) => panic!("{threads} threads: expected StudyError::Cell, got {other}"),
            Ok(_) => panic!("{threads} threads: the armed queue.explosion site never fired"),
        }
    }
}

#[test]
fn keep_going_finishes_the_grid_and_resume_recomputes_only_failed_cells() {
    let dir = temp_dir("keepgoing");
    let plan = quick_spec(&[31, 32]).plan().unwrap();

    // Hold the fault lock for the whole test so the clean baseline and
    // the resume run cannot race another test's armed plan.
    let guard = psn_fault::arm_guard("queue.study-run:panic:2");

    // --keep-going semantics: the second cell panics, the grid still
    // finishes, the failure is recorded and the typed failure-summary
    // section is appended.
    let wounded = run_study_with_policy(
        &plan,
        &ArtifactStore::with_disk(&dir).unwrap(),
        RunPolicy::KeepGoing,
    )
    .unwrap();
    assert_eq!(wounded.failures.len(), 1, "{:?}", wounded.failures);
    assert!(wounded.failures[0].panicked);
    assert_eq!(wounded.failures[0].label, plan.runs[1].label);
    assert_eq!(wounded.doc.sections.last().unwrap().view, "failure-summary");

    psn_fault::disarm();
    let clean = run_study(&plan);
    assert!(clean.failures.is_empty());

    // Resume over the same disk cache with faults disarmed: the
    // surviving cell is served from disk, only the failed cell is
    // recomputed, and the result is byte-identical to the clean run.
    let resumed = run_study_with(&plan, &ArtifactStore::with_disk(&dir).unwrap()).unwrap();
    assert!(resumed.failures.is_empty());
    assert_eq!(resumed.cache[0].source, CacheSource::Disk, "{:?}", resumed.cache);
    assert_eq!(resumed.cache[1].source, CacheSource::Built, "{:?}", resumed.cache);
    assert_eq!(resumed.doc, clean.doc);
    assert_eq!(resumed.render(), clean.render());

    drop(guard);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// CLI level: child processes with private fault plans.
// ---------------------------------------------------------------------------

fn repo_path(relative: &str) -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(relative)
}

fn psn_study(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_psn-study"))
        .args(args)
        .output()
        .expect("psn-study binary runs")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("psn-study exits normally")
}

#[test]
fn cli_chaos_sweep_corruption_plus_panic_keep_going_then_clean_resume() {
    // The CI chaos step: a 2x2 cached sweep survives a corrupted cache
    // file plus one panicked worker under --keep-going, reports both, and
    // a clean rerun over the same cache recovers bit-identically.
    let dir = temp_dir("cli-sweep");
    let config = repo_path("scenarios/sweep_community_2x2.toml");
    let sweep_args = [
        "sweep",
        "--config",
        config.to_str().unwrap(),
        "--format",
        "json",
        "--threads",
        "1",
        "--cache",
        dir.to_str().unwrap(),
    ];

    // The fault-free reference document.
    let baseline = psn_study(&[
        "sweep",
        "--config",
        config.to_str().unwrap(),
        "--format",
        "json",
        "--threads",
        "1",
        "--no-cache",
    ]);
    assert_eq!(exit_code(&baseline), 0, "{}", String::from_utf8_lossy(&baseline.stderr));

    // An interrupted first pass: one worker panic under --keep-going. The
    // other three cells finish and are persisted; the process exits 5
    // *after* emitting the report with its failure-summary section.
    let wounded = psn_study(
        &[&sweep_args[..], &["--keep-going", "--faults", "queue.study-run:panic:2"]].concat(),
    );
    let wounded_err = String::from_utf8_lossy(&wounded.stderr);
    assert_eq!(exit_code(&wounded), 5, "{wounded_err}");
    assert!(wounded_err.contains("failed:"), "{wounded_err}");
    assert!(wounded_err.contains("1 cell(s) failed"), "{wounded_err}");
    let wounded_out = String::from_utf8_lossy(&wounded.stdout);
    assert!(wounded_out.contains("failure-summary"), "{wounded_out}");

    // Injected disk corruption on top: scribble over one surviving cell's
    // cached result.
    let mut corrupted = 0;
    for entry in std::fs::read_dir(dir.join("results")).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) == Some("json") && corrupted == 0 {
            std::fs::write(&path, b"{ not json").unwrap();
            corrupted += 1;
        }
    }
    assert_eq!(corrupted, 1, "expected a cached cell result to corrupt");

    // Clean resume: the corrupt cell is quarantined and rebuilt, the
    // panicked cell is recomputed, the others come from the cache — and
    // the report is byte-identical to the fault-free run (no failure
    // section).
    let resumed = psn_study(&[&sweep_args[..], &["--resume"]].concat());
    let resumed_err = String::from_utf8_lossy(&resumed.stderr);
    assert_eq!(exit_code(&resumed), 0, "{resumed_err}");
    assert!(resumed_err.contains("resume: 3/4 cells already cached"), "{resumed_err}");
    assert!(resumed_err.contains("quarantined corrupt artifact"), "{resumed_err}");
    assert_eq!(
        baseline.stdout, resumed.stdout,
        "recovered sweep must be byte-identical to the fault-free run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_single_transient_faults_leave_the_report_byte_identical() {
    let dir = temp_dir("cli-transient");
    let config = repo_path("scenarios/sweep_community_2x2.toml");
    let sweep_args = [
        "sweep",
        "--config",
        config.to_str().unwrap(),
        "--format",
        "json",
        "--threads",
        "1",
        "--cache",
        dir.to_str().unwrap(),
    ];

    let cold = psn_study(&sweep_args);
    assert_eq!(exit_code(&cold), 0, "{}", String::from_utf8_lossy(&cold.stderr));

    // A transient sidecar read error heals inside the bounded retry.
    let flaky =
        psn_study(&[&sweep_args[..], &["--faults", "disk.read-result:io-error:1"]].concat());
    assert_eq!(exit_code(&flaky), 0, "{}", String::from_utf8_lossy(&flaky.stderr));
    assert_eq!(cold.stdout, flaky.stdout, "retry-healed run must be byte-identical");

    // Persistent sidecar corruption (armed via the PSN_FAULTS env var)
    // forces every cell to miss and rebuild — still byte-identical.
    let rebuilt = Command::new(env!("CARGO_BIN_EXE_psn-study"))
        .args(sweep_args)
        .env("PSN_FAULTS", "disk.read-result:corrupt-bytes:*")
        .output()
        .expect("psn-study binary runs");
    assert_eq!(exit_code(&rebuilt), 0, "{}", String::from_utf8_lossy(&rebuilt.stderr));
    assert_eq!(cold.stdout, rebuilt.stdout, "rebuilt run must be byte-identical");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_exit_codes_distinguish_failure_classes() {
    let sweep = repo_path("scenarios/sweep_community_2x2.toml");
    let sweep = sweep.to_str().unwrap();

    // 2 — usage: unknown flag, malformed fault spec, misplaced flag.
    assert_eq!(exit_code(&psn_study(&["run", "--bogus"])), 2);
    assert_eq!(exit_code(&psn_study(&["sweep", "--config", sweep, "--faults", "nope"])), 2);
    assert_eq!(exit_code(&psn_study(&["run", "--study", "model", "--keep-going"])), 2);

    // 3 — config: unknown study, invalid TOML (the message names the file
    // and the offending key).
    let unknown = psn_study(&["run", "--config", sweep, "--study", "nope"]);
    assert_eq!(exit_code(&unknown), 3);
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("unknown study"));

    let bad = std::env::temp_dir().join(format!("psn-chaos-bad-{}.toml", std::process::id()));
    std::fs::write(&bad, "kind = \"community\"\ncommunities = \"several\"\n").unwrap();
    let invalid = psn_study(&["run", "--config", bad.to_str().unwrap(), "--study", "activity"]);
    assert_eq!(exit_code(&invalid), 3, "{}", String::from_utf8_lossy(&invalid.stderr));
    let invalid_err = String::from_utf8_lossy(&invalid.stderr);
    assert!(invalid_err.contains("communities"), "{invalid_err}");
    let _ = std::fs::remove_file(&bad);

    // 4 — artifact: the cache root cannot be created (it is a file).
    let blocked = std::env::temp_dir().join(format!("psn-chaos-file-{}", std::process::id()));
    std::fs::write(&blocked, b"not a directory").unwrap();
    let cache = psn_study(&["sweep", "--config", sweep, "--cache", blocked.to_str().unwrap()]);
    assert_eq!(exit_code(&cache), 4, "{}", String::from_utf8_lossy(&cache.stderr));
    let _ = std::fs::remove_file(&blocked);

    // 5 — execution: a panicked cell under the default fail-fast policy.
    let panicked = psn_study(&[
        "sweep",
        "--config",
        sweep,
        "--threads",
        "1",
        "--faults",
        "queue.study-run:panic:1",
    ]);
    assert_eq!(exit_code(&panicked), 5, "{}", String::from_utf8_lossy(&panicked.stderr));
    let panicked_err = String::from_utf8_lossy(&panicked.stderr);
    assert!(panicked_err.contains("panicked"), "{panicked_err}");
    assert!(panicked_err.contains("--keep-going"), "{panicked_err}");
}

/// Arrays nested far deeper than the JSON reader's bound: without the
/// bound, reading them overflows the stack and aborts the process.
fn deeply_nested(depth: usize) -> String {
    format!("{}{}", "[".repeat(depth), "]".repeat(depth))
}

#[test]
fn cli_a_deeply_nested_cached_payload_is_quarantined_and_rebuilt() {
    let dir = temp_dir("cli-nested");
    let config = repo_path("scenarios/homogeneous.toml");
    let args = [
        "run",
        "--config",
        config.to_str().unwrap(),
        "--study",
        "activity",
        "--cache",
        dir.to_str().unwrap(),
    ];
    let cold = psn_study(&args);
    assert_eq!(exit_code(&cold), 0, "{}", String::from_utf8_lossy(&cold.stderr));

    let payloads: Vec<PathBuf> = std::fs::read_dir(dir.join("results"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    assert_eq!(payloads.len(), 1, "one activity cell caches one result payload");
    std::fs::write(&payloads[0], deeply_nested(200_000)).unwrap();

    let healed = psn_study(&args);
    let healed_err = String::from_utf8_lossy(&healed.stderr);
    assert_eq!(exit_code(&healed), 0, "{healed_err}");
    assert!(healed_err.contains("nesting bound"), "{healed_err}");
    assert_eq!(cold.stdout, healed.stdout, "the rebuilt report must be byte-identical");
    let quarantined = dir.join("corrupt").join(payloads[0].file_name().unwrap());
    assert!(quarantined.exists(), "the nested payload must land in corrupt/");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Tokens spliced into the shipped configs: overflowing and non-finite
/// numbers, string and escape openers, nulls, brackets and line structure.
const FUZZ_TOKENS: &[&str] = &[
    "inf",
    "-1",
    "0",
    "1e999",
    "4294967296",
    "null",
    "\"",
    "\\u",
    "\\ud800",
    "[",
    "]",
    "{",
    "}",
    "[[1]]",
    "[\"a\"]",
    "=",
    ",",
    ":",
    "#",
    "\n",
    "\n[",
];

#[test]
fn cli_mutated_configs_exit_0_2_or_3_never_abort() {
    // Every outside input either succeeds or fails with a typed error:
    // `plan` and `sweep --dry` read the config and plan without running,
    // so each mutant must exit 0, 2 (usage) or 3 (config). A signal (an
    // abort such as a stack overflow) or a panic's 101 fails the test;
    // `catch_unwind` in process cannot see the former.
    let dir = temp_dir("cli-fuzz");
    std::fs::create_dir_all(&dir).unwrap();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(repo_path("scenarios"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    paths.sort();
    assert!(paths.len() >= 6, "expected the shipped scenario files");

    // A fixed-seed xorshift keeps the mutant set identical on every run.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    let mut mutants: Vec<(String, String)> = Vec::new();
    for path in &paths {
        let ext = path.extension().unwrap().to_str().unwrap().to_string();
        let seed: Vec<char> = std::fs::read_to_string(path).unwrap().chars().collect();
        for _ in 0..8 {
            let mut text = seed.clone();
            for _ in 0..1 + next(3) {
                let at = next(text.len() + 1);
                let token: Vec<char> = FUZZ_TOKENS[next(FUZZ_TOKENS.len())].chars().collect();
                // Splice the token in, or let it replace a few chars.
                let end = (at + next(2) * token.len()).min(text.len());
                text.splice(at..end, token);
            }
            mutants.push((ext.clone(), text.into_iter().collect()));
        }
    }
    let depth = 200_000;
    mutants.extend([
        ("json".to_string(), format!("{}1{}", "{\"a\": ".repeat(depth), "}".repeat(depth))),
        (
            "json".to_string(),
            format!("{{\"kind\": \"scaled\", \"nodes\": {}}}", deeply_nested(depth)),
        ),
        ("toml".to_string(), format!("kind = \"scaled\"\nnodes = {}\n", deeply_nested(depth))),
    ]);

    for (i, (ext, text)) in mutants.iter().enumerate() {
        let path = dir.join(format!("mutant-{i}.{ext}"));
        std::fs::write(&path, text).unwrap();
        let config = path.to_str().unwrap();
        for args in [
            &["plan", "--config", config, "--study", "activity"][..],
            &["sweep", "--config", config, "--dry"][..],
        ] {
            let out = psn_study(args);
            let code = out.status.code();
            assert!(
                matches!(code, Some(0 | 2 | 3)),
                "{args:?} exited {code:?} (want 0, 2 or 3) on:\n{}\nstderr: {}",
                text.chars().take(2000).collect::<String>(),
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}
