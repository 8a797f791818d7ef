//! CLI-level coverage of the artifact-cache acceptance criteria — the
//! exact invocation the CI cache step runs, pinned as a test:
//!
//! * `psn-study sweep --config scenarios/sweep_community_2x2.toml --cache
//!   DIR` run twice emits **byte-identical** JSON, with the second run's
//!   stderr reporting every cell served from the cache;
//! * a cached sweep reports the cached-cell count up front, and a run
//!   without `--cache` still produces the identical document;
//! * a text preset run twice against `--cache` prints its golden bytes
//!   both times, the second served from the cache;
//! * a cache written when traces were still persisted serves its results
//!   and keeps its `traces/` directory as it was;
//! * contradictory or incomplete flags fail with a usage error;
//! * the environment never changes what a command line does.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_path(relative: &str) -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(relative)
}

fn psn_study(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_psn-study"))
        .args(args)
        .output()
        .expect("psn-study binary runs")
}

#[test]
fn help_prints_the_usage_and_unknown_commands_stay_usage_errors() {
    for args in [&["--help"][..], &["-h"], &["help"], &["run", "--preset", "fig04", "--help"]] {
        let flag = args.join(" ");
        let out = psn_study(args);
        assert_eq!(out.status.code(), Some(0), "{flag}: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage:") && stdout.contains("exit codes:"), "{flag}: {stdout}");
        assert!(out.stderr.is_empty(), "{flag}: {}", String::from_utf8_lossy(&out.stderr));
    }
    let unknown = psn_study(&["halp"]);
    assert_eq!(unknown.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("unknown command \"halp\""));
    assert!(unknown.stdout.is_empty());
}

#[test]
fn a_closed_stdout_ends_quietly_with_141_and_other_write_errors_exit_4() {
    // The reader is closed before the child starts, so its first write
    // fails with a broken pipe whatever the timing: a report, a listing
    // and the usage text each take one of the write paths.
    let runs = [&["run", "--preset", "fig01"][..], &["list"], &["--help"]];
    for args in runs {
        let flag = args.join(" ");
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_psn-study"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("psn-study binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(141), "{flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
        assert!(stderr.is_empty(), "{flag}: a closed reader is not an error to report: {stderr}");
    }
    // Any other write error is an output failure, exit 4, named on stderr.
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        return;
    };
    let out = Command::new(env!("CARGO_BIN_EXE_psn-study"))
        .arg("list")
        .stdout(full)
        .output()
        .expect("psn-study binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(stderr.contains("writing to stdout") && !stderr.contains("panicked"), "{stderr}");
}

#[test]
fn repeated_cached_sweeps_are_byte_identical_and_fully_cache_served() {
    let dir = std::env::temp_dir().join(format!("psn-cache-cli-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = repo_path("scenarios/sweep_community_2x2.toml");
    let sweep_args = [
        "sweep",
        "--config",
        config.to_str().unwrap(),
        "--format",
        "json",
        "--threads",
        "2",
        "--cache",
        dir.to_str().unwrap(),
    ];

    // Each cached sweep reports the cached-cell count before running.
    let cold = psn_study(&sweep_args);
    assert!(cold.status.success(), "{}", String::from_utf8_lossy(&cold.stderr));
    let cold_err = String::from_utf8_lossy(&cold.stderr);
    assert!(cold_err.contains("cache: 0/4 cells already cached"), "{cold_err}");
    assert!(cold_err.contains("0/4 cells served from cache"), "{cold_err}");

    let warm = psn_study(&sweep_args);
    assert!(warm.status.success(), "{}", String::from_utf8_lossy(&warm.stderr));
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(warm_err.contains("cache: 4/4 cells already cached"), "{warm_err}");
    assert!(warm_err.contains("4/4 cells served from cache"), "{warm_err}");
    assert_eq!(cold.stdout, warm.stdout, "repeated cached sweeps must be byte-identical");

    // Without --cache everything is computed, yet the document is the same.
    let uncached = psn_study(&[
        "sweep",
        "--config",
        config.to_str().unwrap(),
        "--format",
        "json",
        "--threads",
        "2",
    ]);
    assert!(uncached.status.success());
    assert_eq!(cold.stdout, uncached.stdout, "caching must be observationally invisible");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file under `root`, by path relative to it, with its bytes.
fn files(root: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    let mut pending = vec![root.to_path_buf()];
    while let Some(dir) = pending.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                out.push((path.strip_prefix(root).unwrap().to_path_buf(), bytes));
            }
        }
    }
    out.sort();
    out
}

#[test]
fn a_cache_with_a_leftover_traces_directory_serves_its_results_and_keeps_it() {
    // `cache/` in the fixture was written by the build that still
    // persisted traces (the fixture's TOML names the command): FORMAT is
    // `psn-artifact/1`, as now, and `traces/` holds two trace files.
    let fixture = repo_path("crates/bench/tests/fixtures/cache_psn_artifact_1");
    let written = files(&fixture.join("cache"));
    assert_eq!(written.iter().filter(|(path, _)| path.starts_with("traces")).count(), 2);
    let dir = std::env::temp_dir().join(format!("psn-cache-leftover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for (path, bytes) in &written {
        std::fs::create_dir_all(dir.join(path).parent().unwrap()).unwrap();
        std::fs::write(dir.join(path), bytes).unwrap();
    }

    let config = fixture.join("tiny_sweep.toml");
    let config = config.to_str().unwrap();
    let sweep =
        ["sweep", "--config", config, "--format", "json", "--threads", "1", "--profile", "quick"];
    let warm = psn_study(&[&sweep[..], &["--cache", dir.to_str().unwrap()]].concat());
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert_eq!(warm.status.code(), Some(0), "{warm_err}");
    assert!(warm_err.contains("cache: 2/2 cells already cached"), "{warm_err}");
    assert!(warm_err.contains("2/2 cells served from cache (0 memory, 2 disk)"), "{warm_err}");

    let uncached = psn_study(&sweep);
    assert_eq!(uncached.status.code(), Some(0), "{}", String::from_utf8_lossy(&uncached.stderr));
    assert!(warm.stdout == uncached.stdout, "served results differ from a fresh computation");
    assert!(
        files(&dir) == written,
        "the warm run wrote, moved or quarantined a file, traces/ included"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn contradictory_and_incomplete_cache_flags_are_rejected() {
    let config = repo_path("scenarios/sweep_community_2x2.toml");
    let config = config.to_str().unwrap();
    // `--cache` without its directory is incomplete.
    let bare = psn_study(&["sweep", "--config", config, "--cache"]);
    assert_eq!(bare.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bare.stderr).contains("--cache needs a value"));
    // A preset pins its spec, so a streaming window contradicts it.
    let windowed = psn_study(&["run", "--preset", "fig04", "--window", "8", "--dry"]);
    assert_eq!(windowed.status.code(), Some(2));
    let windowed_err = String::from_utf8_lossy(&windowed.stderr);
    assert!(windowed_err.contains("--window cannot be combined with --preset"), "{windowed_err}");
    // The store has two modes, in memory and `--cache DIR`, and `--window N`
    // is the one streaming switch: no other cache or streaming flag exists.
    for flag in ["--no-cache", "--resume", "--streaming"] {
        let out = psn_study(&["sweep", "--config", config, "--dry", flag]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown argument \"{flag}\"")), "{flag}: {err}");
        assert!(out.stdout.is_empty(), "{flag}");
    }
}

#[test]
fn help_and_list_name_only_the_current_surface() {
    let help = String::from_utf8_lossy(&psn_study(&["--help"]).stdout).into_owned();
    let list = psn_study(&["list"]);
    assert_eq!(list.status.code(), Some(0));
    let list = String::from_utf8_lossy(&list.stdout).into_owned();
    for text in [&help, &list] {
        for gone in ["PSN_", "--no-cache", "--resume", "--streaming", "psn-study plan", "[was:"] {
            assert!(!text.contains(gone), "{gone:?} is still documented:\n{text}");
        }
        assert!(!text.contains("persists traces"), "traces are not persisted:\n{text}");
        assert!(text.contains("1024"), "the --threads bound is documented:\n{text}");
    }
    // Presets answer to their names only, not to the former binary names.
    let alias = psn_study(&["run", "--preset", "fig01_contact_timeseries", "--dry"]);
    assert_eq!(alias.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&alias.stderr).contains("unknown preset"));
    // `run --dry` shows a plan; there is no separate `plan` command.
    let plan = psn_study(&["plan", "--preset", "fig04"]);
    assert_eq!(plan.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&plan.stderr).contains("unknown command \"plan\""));
}

#[test]
fn the_environment_does_not_change_a_run() {
    // Profile, threads and failpoints are flags; none of these variables
    // may turn a quick fig01 run into a paper-scale or failing one.
    let golden = std::fs::read(repo_path("crates/bench/golden/fig01_contact_timeseries.txt"))
        .expect("fig01 golden capture");
    let out = Command::new(env!("CARGO_BIN_EXE_psn-study"))
        .args(["run", "--preset", "fig01"])
        .env("PSN_PROFILE", "paper")
        .env("PSN_THREADS", "1")
        .env("PSN_FAULTS", "queue.study-run:panic:1")
        .output()
        .expect("psn-study binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(out.stdout == golden, "fig01 under PSN_* variables differs from its golden capture");
}

#[test]
fn a_text_preset_run_twice_against_a_cache_matches_its_golden() {
    // Text presets resolve through the artifact store like every other
    // format: both runs print the golden bytes, and the second is served
    // from the cache (Fig. 1 runs four datasets).
    let dir = std::env::temp_dir().join(format!("psn-cache-text-preset-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let golden = std::fs::read(repo_path("crates/bench/golden/fig01_contact_timeseries.txt"))
        .expect("fig01 golden capture");
    let args = ["run", "--preset", "fig01", "--threads", "2", "--cache", dir.to_str().unwrap()];
    for served in ["0/4 runs served from cache", "4/4 runs served from cache"] {
        let out = psn_study(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{stderr}");
        assert!(out.stdout == golden, "cached fig01 text differs from its golden capture");
        assert!(stderr.contains(served), "expected {served:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Fig. 2 is a hardcoded example with no study: nothing to cache.
    let out = psn_study(&["run", "--preset", "fig02", "--cache", dir.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--cache") && stderr.contains("fig02"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing is rendered");
    assert!(!dir.exists(), "no cache directory is created");
}
