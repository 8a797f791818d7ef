//! Chaos suite: deterministic fault injection against the study pipeline
//! and the `psn-study` CLI — the acceptance criteria of the failure model
//! (DESIGN.md §6d), pinned as tests:
//!
//! * **differential byte-identity** — any run that completes under a
//!   single injected fault (transient IO error, corrupted cache file)
//!   produces output byte-identical to the fault-free run;
//! * **self-healing cache** — a corrupted cached result is quarantined
//!   into `corrupt/` and transparently rebuilt, never served and never
//!   fatal;
//! * **panic isolation** — an injected worker panic becomes a typed
//!   [`psn::study::CellFailure`]; `sweep --keep-going` finishes the grid,
//!   appends the failure-summary section and exits 5; a rerun over the
//!   same cache recomputes only the failed cells,
//!   bit-identically;
//! * **exit-code taxonomy** — usage (2), config (3), artifact (4) and
//!   execution (5) failures are distinguishable from scripts.
//!
//! Library-level tests arm failpoints through [`psn_fault::arm_guard`],
//! which serializes them behind a process-wide lock so concurrent tests
//! never observe each other's fault plans. CLI-level tests inject via
//! `--faults` into child processes, whose plans are private.

use std::path::PathBuf;
use std::process::{Command, Output};

use psn::study::{
    run_study, run_study_with, run_study_with_policy, ArtifactStore, CacheSource, RunPolicy,
    StudyError, StudyId, StudyParams, StudyScenario, StudySpec,
};
use psn::ExperimentProfile;
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
fn single_read_faults_self_heal_and_serve_byte_identical_results() {
    let dir = temp_dir("result-heal");
    let plan = quick_spec(&[1]).plan().unwrap();
    // Hold the fault lock throughout, arming one spec at a time, so no
    // other test's plan can fire inside these runs.
    let guard = psn_fault::arm_guard("");

    let baseline = {
        let cold = run_study_with(&plan, &ArtifactStore::with_disk(&dir).unwrap()).unwrap();
        assert_eq!(cold.cache[0].source, CacheSource::Built);
        cold.render()
    };

    for spec in [
        // A transient read error: absorbed by the bounded retry, the
        // cached result is served on the second attempt.
        "disk.read-result:io-error:1",
        // Corrupted sidecar bytes: the identity check fails, payload and
        // sidecar are quarantined and the cell is recomputed
        // deterministically.
        "disk.read-result:corrupt-bytes:1",
    ] {
        {
            psn_fault::arm(spec).unwrap();
            let store = ArtifactStore::with_disk(&dir).unwrap();
            let report = run_study_with(&plan, &store).unwrap();
            psn_fault::disarm();
            assert_eq!(report.render(), baseline, "{spec}: healed run must be byte-identical");
            let stats = store.stats();
            if spec.contains("corrupt") {
                assert_eq!(report.cache[0].source, CacheSource::Built, "{spec}");
                assert!(
                    stats.quarantines > 0,
                    "{spec}: corruption must be quarantined, stats: {stats:?}"
                );
                let corrupt = dir.join("corrupt");
                assert!(
                    corrupt.read_dir().map(|mut d| d.next().is_some()).unwrap_or(false),
                    "{spec}: quarantined file must land in corrupt/"
                );
            } else {
                assert_eq!(report.cache[0].source, CacheSource::Disk, "{spec}");
                assert!(stats.io_retries > 0, "{spec}: the retry must absorb it, {stats:?}");
            }
        }
        // Faults disarmed: the cached result serves cleanly from disk —
        // corruption never leaves a sticky miss behind.
        let report = run_study_with(&plan, &ArtifactStore::with_disk(&dir).unwrap()).unwrap();
        assert_eq!(report.cache[0].source, CacheSource::Disk, "{spec}: cache must have healed");
        assert_eq!(report.render(), baseline, "{spec}");
    }

    drop(guard);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persistent_write_failures_degrade_to_uncached_not_fatal() {
    let dir = temp_dir("result-writefail");
    let plan = quick_spec(&[2]).plan().unwrap();
    let guard = psn_fault::arm_guard("disk.write-result:io-error:*");

    let store = ArtifactStore::with_disk(&dir).unwrap();
    let failed = run_study_with(&plan, &store).unwrap();
    assert_eq!(failed.cache[0].source, CacheSource::Built);
    let stats = store.stats();
    assert_eq!(stats.disk_writes, 0, "{stats:?}");
    assert!(stats.io_retries > 0, "every write attempt is retried first, {stats:?}");
    psn_fault::disarm();
    assert_eq!(
        failed.render(),
        run_study_with(&plan, &ArtifactStore::in_memory()).unwrap().render()
    );

    // Nothing was persisted, so the next store recomputes — a degraded
    // cache is a performance bug, never a correctness one — and this
    // time the result is written and then served.
    for expected in [CacheSource::Built, CacheSource::Disk] {
        let report = run_study_with(&plan, &ArtifactStore::with_disk(&dir).unwrap()).unwrap();
        assert_eq!(report.cache[0].source, expected);
        assert_eq!(report.render(), failed.render());
    }

    drop(guard);
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
    let resumed = psn_study(&sweep_args);
    let resumed_err = String::from_utf8_lossy(&resumed.stderr);
    assert_eq!(exit_code(&resumed), 0, "{resumed_err}");
    assert!(resumed_err.contains("cache: 3/4 cells already cached"), "{resumed_err}");
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

    // Persistent sidecar corruption forces every cell to miss and
    // rebuild — still byte-identical.
    let rebuilt =
        psn_study(&[&sweep_args[..], &["--faults", "disk.read-result:corrupt-bytes:*"]].concat());
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

    // A text preset runs its study through the same store, so its panicked
    // cell is the same typed failure, not a process abort (exit 101).
    let preset = psn_study(&[
        "run",
        "--preset",
        "fig07",
        "--threads",
        "1",
        "--faults",
        "queue.study-run:panic:1",
    ]);
    assert_eq!(exit_code(&preset), 5, "{}", String::from_utf8_lossy(&preset.stderr));
    assert!(preset.stdout.is_empty(), "a failed preset renders nothing");
}

#[test]
fn cli_a_huge_node_count_is_a_config_error_before_allocation() {
    // Two billion nodes would ask for 12·n² bytes of pair tables; without
    // the validator's bound the process allocates until it aborts.
    let huge = std::env::temp_dir().join(format!("psn-chaos-huge-{}.toml", std::process::id()));
    let homogeneous = std::fs::read_to_string(repo_path("scenarios/homogeneous.toml")).unwrap();
    let text: String = homogeneous
        .lines()
        .map(|l| if l.starts_with("nodes = ") { "nodes = 2000000000" } else { l })
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("nodes = 2000000000"), "the shipped scenario names its node count");
    std::fs::write(&huge, text).unwrap();
    for study in ["activity", "forwarding"] {
        let out =
            psn_study(&["run", "--dry", "--config", huge.to_str().unwrap(), "--study", study]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(exit_code(&out), 3, "{err}");
        assert!(err.contains("\"nodes\" must be at most 16384"), "{err}");
    }
    let _ = std::fs::remove_file(&huge);
}

#[test]
fn cli_an_unbounded_slot_or_bin_count_is_a_config_error_before_allocation() {
    // A 1e12 s window asks the summary for 1.7e10 per-minute bins, and
    // Δ = 1 µs cuts the shipped three hours into 1.1e10 slots. Without the
    // bound both plan fine and `run` aborts on the allocation.
    let wide = std::env::temp_dir().join(format!("psn-chaos-wide-{}.toml", std::process::id()));
    let shipped = repo_path("scenarios/homogeneous.toml");
    let homogeneous = std::fs::read_to_string(&shipped).unwrap();
    let text: String = homogeneous
        .lines()
        .map(|l| if l.starts_with("window_seconds = ") { "window_seconds = 1e12" } else { l })
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("window_seconds = 1e12"), "the shipped scenario names its window");
    std::fs::write(&wide, text).unwrap();
    let (wide, shipped) = (wide.to_str().unwrap(), shipped.to_str().unwrap());
    let cases: [(&[&str], &str); 2] = [
        (&["--config", wide, "--study", "forwarding"], "\"window_seconds\" must be at most"),
        (&["--config", shipped, "--study", "forwarding", "--delta", "0.000001"], "\"delta\""),
    ];
    for (args, named) in cases {
        for command in [&["run", "--dry"][..], &["run"]] {
            let out = psn_study(&[command, args].concat());
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(exit_code(&out), 3, "{command:?} {args:?}: {err}");
            assert!(err.contains(named), "{command:?} {args:?}: {err}");
            assert!(out.stdout.is_empty(), "{command:?} {args:?} printed a plan or report");
        }
    }
    let _ = std::fs::remove_file(wide);
}

#[test]
fn cli_k_takes_the_bound_of_a_params_k_sweep_axis() {
    // A `params.k` axis stops at u32::MAX; `--k` used to accept any usize.
    // One past the bound, and usize::MAX, are usage errors naming `--k`
    // before anything is planned or run; the bound itself plans.
    let shipped = repo_path("scenarios/homogeneous.toml");
    let shipped = shipped.to_str().unwrap();
    let base = ["--config", shipped, "--study", "explosion", "--k"];
    for k in ["4294967296", "18446744073709551615", "0"] {
        for command in [&["run", "--dry"][..], &["run"]] {
            let out = psn_study(&[command, &base, &[k]].concat());
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(exit_code(&out), 2, "{command:?} --k {k}: {err}");
            assert!(
                err.contains("--k") && err.contains("4294967295"),
                "{command:?} --k {k}: {err}"
            );
            assert!(out.stdout.is_empty(), "{command:?} --k {k} printed a plan or report");
        }
    }
    let out = psn_study(&[&["run", "--dry"][..], &base, &["4294967295"]].concat());
    assert_eq!(exit_code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));

    // `--messages` and `--runs` take the bound of their axes too. Only
    // `run --dry` is driven: a `run` that slipped past the bound would try
    // to simulate billions of messages.
    for (flag, study) in [("--messages", "explosion"), ("--runs", "forwarding")] {
        let base = ["run", "--dry", "--config", shipped, "--study", study, flag];
        for value in ["4294967296", "5000000000", "18446744073709551615", "0"] {
            let out = psn_study(&[&base[..], &[value]].concat());
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(exit_code(&out), 2, "{flag} {value}: {err}");
            assert!(err.contains(flag) && err.contains("4294967295"), "{flag} {value}: {err}");
            assert!(out.stdout.is_empty(), "{flag} {value} printed a plan");
        }
        let out = psn_study(&[&base[..], &["4294967295"]].concat());
        assert_eq!(exit_code(&out), 0, "{flag}: {}", String::from_utf8_lossy(&out.stderr));
    }
}

#[test]
fn cli_threads_above_the_bound_are_a_usage_error_before_anything_starts() {
    // The enumeration pool and the simulator's lanes start up to
    // `--threads` OS threads, so the flag is bounded at parse time. Only
    // `--dry` runs are driven: nothing here may start a study.
    let shipped = repo_path("scenarios/homogeneous.toml");
    let sweep = repo_path("scenarios/sweep_community_2x2.toml");
    let (shipped, sweep) = (shipped.to_str().unwrap(), sweep.to_str().unwrap());
    let commands: [&[&str]; 3] = [
        &["run", "--dry", "--config", shipped, "--study", "forwarding"],
        &["run", "--dry", "--preset", "fig09"],
        &["sweep", "--dry", "--config", sweep],
    ];
    for command in commands {
        for threads in ["1025", "100000", "18446744073709551616"] {
            let out = psn_study(&[command, &["--threads", threads]].concat());
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(exit_code(&out), 2, "{command:?} --threads {threads}: {err}");
            assert!(err.contains("--threads") && err.contains("1024"), "{threads}: {err}");
            assert!(out.stdout.is_empty(), "{command:?} --threads {threads} printed a plan");
        }
        for threads in ["0", "1024"] {
            let out = psn_study(&[command, &["--threads", threads]].concat());
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(exit_code(&out), 0, "{command:?} --threads {threads}: {err}");
        }
    }
}

#[test]
fn cli_activity_without_a_defined_stationarity_check_still_reports() {
    // A 25-minute window holds fewer one-minute bins than the 30-minute
    // tail, and a vanishing contact rate leaves a window without contacts:
    // either way the cv and tail ratio are undefined, not a panicked cell.
    let scenarios = [("short", "1500.0", "0.05"), ("empty", "3600.0", "0.000000001")];
    for (tag, window, rate) in scenarios {
        let path = std::env::temp_dir()
            .join(format!("psn-chaos-activity-{tag}-{}.toml", std::process::id()));
        let text = format!(
            "kind = \"homogeneous\"\nnodes = 8\nwindow_seconds = {window}\n\
             node_contact_rate = {rate}\nmean_contact_duration = 120.0\nseed = 51\n"
        );
        std::fs::write(&path, text).unwrap();
        let config = path.to_str().unwrap();
        let out = psn_study(&["run", "--config", config, "--study", "activity", "--threads", "1"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(exit_code(&out), 0, "{tag}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(stdout.contains("(cv, tail ratio undefined)"), "{tag}: {stdout}");
        assert!(stdout.contains("Figure 7"), "{tag}: the contact-count CDF still renders");
        let json =
            psn_study(&["run", "--config", config, "--study", "activity", "--format", "json"]);
        let json = String::from_utf8_lossy(&json.stdout);
        assert!(!json.contains("\"tail_ratio\""), "{tag}: an undefined stat is left out: {json}");
        let _ = std::fs::remove_file(&path);
    }
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
    // `run --dry` and `sweep --dry` read the config and plan without running,
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
            &["run", "--dry", "--config", config, "--study", "activity"][..],
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
