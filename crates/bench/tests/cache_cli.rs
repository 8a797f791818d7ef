//! CLI-level coverage of the artifact-cache acceptance criteria — the
//! exact invocation the CI cache step runs, pinned as a test:
//!
//! * `psn-study sweep --config scenarios/sweep_community_2x2.toml --cache
//!   DIR` run twice emits **byte-identical** JSON, with the second run's
//!   stderr reporting every cell served from the cache;
//! * `--resume` reports the cached-cell count up front and `--no-cache`
//!   still produces the identical document;
//! * contradictory flags fail with a usage error.

use std::path::PathBuf;
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

    let cold = psn_study(&sweep_args);
    assert!(cold.status.success(), "{}", String::from_utf8_lossy(&cold.stderr));
    let cold_err = String::from_utf8_lossy(&cold.stderr);
    assert!(cold_err.contains("0/4 cells served from cache"), "{cold_err}");

    let warm = psn_study(&sweep_args);
    assert!(warm.status.success(), "{}", String::from_utf8_lossy(&warm.stderr));
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(warm_err.contains("4/4 cells served from cache"), "{warm_err}");
    assert_eq!(cold.stdout, warm.stdout, "repeated cached sweeps must be byte-identical");

    // --resume reports the cached-cell count before running.
    let resumed = psn_study(&[&sweep_args[..], &["--resume"]].concat());
    assert!(resumed.status.success());
    let resumed_err = String::from_utf8_lossy(&resumed.stderr);
    assert!(resumed_err.contains("resume: 4/4 cells already cached"), "{resumed_err}");
    assert_eq!(cold.stdout, resumed.stdout);

    // --no-cache computes everything yet produces the identical document.
    let uncached = psn_study(&[
        "sweep",
        "--config",
        config.to_str().unwrap(),
        "--format",
        "json",
        "--threads",
        "2",
        "--no-cache",
    ]);
    assert!(uncached.status.success());
    assert_eq!(cold.stdout, uncached.stdout, "caching must be observationally invisible");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn contradictory_and_incomplete_cache_flags_are_rejected() {
    let config = repo_path("scenarios/sweep_community_2x2.toml");
    let both = psn_study(&[
        "sweep",
        "--config",
        config.to_str().unwrap(),
        "--cache",
        "/tmp/x",
        "--no-cache",
    ]);
    assert!(!both.status.success());
    assert!(String::from_utf8_lossy(&both.stderr).contains("contradictory"));

    let resume_without_cache =
        psn_study(&["sweep", "--config", config.to_str().unwrap(), "--resume"]);
    assert!(!resume_without_cache.status.success());
    assert!(String::from_utf8_lossy(&resume_without_cache.stderr).contains("--resume needs"));
}

#[test]
fn cache_with_a_text_format_preset_is_a_usage_error() {
    // The text preset path renders outside the artifact store; it used to
    // exit 0 and create no cache directory.
    let dir = std::env::temp_dir().join(format!("psn-cache-text-preset-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = psn_study(&["run", "--preset", "fig02", "--cache", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--cache") && stderr.contains("--preset"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing is rendered");
    assert!(!dir.exists(), "no cache directory is created");

    // A non-text preset honors the cache.
    let json = psn_study(&[
        "run",
        "--preset",
        "fig07",
        "--format",
        "json",
        "--cache",
        dir.to_str().unwrap(),
    ]);
    assert!(json.status.success(), "{}", String::from_utf8_lossy(&json.stderr));
    assert!(dir.exists(), "the json preset run populates the cache");
    let _ = std::fs::remove_dir_all(&dir);
}
