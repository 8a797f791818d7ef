//! # psn-analyze
//!
//! Repo-specific static analysis for the PSN workspace: every guarantee
//! the reproduction rests on — bit-identical reports across engines,
//! threads, cache tiers and injected faults — is otherwise enforced only
//! dynamically, by differential tests that must happen to cover the
//! mutation. This crate checks the underlying *static* invariants at CI
//! time:
//!
//! | lint | invariant |
//! |------|-----------|
//! | `cache-key` (L1) | every `StudyParams`/`ScenarioConfig` field is fingerprinted or pragma-excluded |
//! | `determinism` (L2) | no hash-ordered containers, wall-clock or env reads on report paths |
//! | `failpoint-registry` (L3) | failpoint sites ↔ `psn_fault::sites` ↔ DESIGN.md table, no orphans |
//! | `panic-hygiene` (L4) | no unwrap/expect/panic outside tests without a documented contract |
//! | `relaxed-ordering` (L5) | every `Ordering::Relaxed` carries a justification comment |
//!
//! The scanner is hand-rolled (line-based, comment/string aware, brace
//! matched) because the workspace builds offline without `syn` — the same
//! idiom as the TOML/JSON document model in `psn_trace::scenario`. That
//! is exactly enough for a rustfmt-formatted codebase and keeps the
//! analyzer dependency-free.
//!
//! Run it as `psn-analyze check [--deny-all] [--root DIR]`; CI gates on
//! `--deny-all`. Escape hatches are deliberate and textual so they show
//! up in review: `// psn-analyze: cache-excluded(<reason>)`,
//! `unordered-ok(…)`, `wallclock-ok(…)`, `allow-panic(…)` and
//! `// relaxed: <reason>`.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

mod lints;
pub mod scan;

pub use scan::{Line, SourceFile};

/// The lint families, in catalog order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintId {
    /// L1 — cache-key completeness.
    CacheKey,
    /// L2 — determinism on report paths.
    Determinism,
    /// L3 — failpoint site registry.
    FailpointRegistry,
    /// L4 — panic hygiene.
    PanicHygiene,
    /// L5 — atomic-ordering audit.
    RelaxedOrdering,
}

impl LintId {
    /// Every lint, in catalog order.
    pub const ALL: [LintId; 5] = [
        LintId::CacheKey,
        LintId::Determinism,
        LintId::FailpointRegistry,
        LintId::PanicHygiene,
        LintId::RelaxedOrdering,
    ];

    /// The lint's short name (stable; used in output and docs).
    pub fn name(self) -> &'static str {
        match self {
            LintId::CacheKey => "cache-key",
            LintId::Determinism => "determinism",
            LintId::FailpointRegistry => "failpoint-registry",
            LintId::PanicHygiene => "panic-hygiene",
            LintId::RelaxedOrdering => "relaxed-ordering",
        }
    }

    /// One-line description of the invariant the lint guards.
    pub fn description(self) -> &'static str {
        match self {
            LintId::CacheKey => {
                "every StudyParams / ScenarioConfig field is fingerprinted, or carries \
                 `psn-analyze: cache-excluded(<reason>)` — forgotten fields serve wrong cached cells"
            }
            LintId::Determinism => {
                "no HashMap/HashSet, wall-clock or env reads in report-reachable crates — \
                 iteration order must never reach output bytes \
                 (escapes: unordered-ok, wallclock-ok)"
            }
            LintId::FailpointRegistry => {
                "failpoint call sites use psn_fault::sites constants; registry, sites::ALL and \
                 the DESIGN.md table stay in sync — no orphan sites, no dead entries"
            }
            LintId::PanicHygiene => {
                "no unwrap/expect/panic outside #[cfg(test)] in contract crates; panic! needs a \
                 `# Panics` doc or `psn-analyze: allow-panic(<reason>)`; lib.rs declares the \
                 clippy deny"
            }
            LintId::RelaxedOrdering => {
                "every Ordering::Relaxed carries a `// relaxed: <reason>` justification comment"
            }
        }
    }
}

impl fmt::Display for LintId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which lint fired.
    pub lint: LintId,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation and its fix.
    pub message: String,
}

impl Finding {
    pub(crate) fn new(lint: LintId, file: &str, line: usize, message: String) -> Finding {
        Finding { lint, file: file.to_string(), line, message }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}:{}: {}", self.lint, self.file, self.line, self.message)
    }
}

/// A scanned workspace: every `crates/*/src/**/*.rs` file plus DESIGN.md.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// The scanned source files, in path order.
    pub files: Vec<SourceFile>,
    /// DESIGN.md, when present (the failpoint table lives there).
    pub design_md: Option<String>,
}

impl Workspace {
    /// Loads and scans the workspace rooted at `root` (the directory
    /// holding the top-level `Cargo.toml` and `crates/`).
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let crates_dir = root.join("crates");
        if !crates_dir.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} has no crates/ directory — not the workspace root", root.display()),
            ));
        }
        let mut paths: Vec<PathBuf> = Vec::new();
        let mut crate_dirs: Vec<PathBuf> =
            std::fs::read_dir(&crates_dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let src = dir.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut paths)?;
            }
        }
        paths.sort();
        let mut files = Vec::with_capacity(paths.len());
        for path in paths {
            let text = std::fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            files.push(SourceFile::scan(rel, &text));
        }
        let design_md = std::fs::read_to_string(root.join("DESIGN.md")).ok();
        Ok(Workspace { files, design_md })
    }

    /// Builds a workspace from in-memory `(relative path, contents)`
    /// sources — the fixture entry point for the analyzer's own tests.
    pub fn from_sources<I, S, T>(sources: I, design_md: Option<String>) -> Workspace
    where
        I: IntoIterator<Item = (S, T)>,
        S: Into<String>,
        T: AsRef<str>,
    {
        let files =
            sources.into_iter().map(|(rel, text)| SourceFile::scan(rel.into(), text.as_ref()));
        Workspace { files: files.collect(), design_md }
    }

    /// Runs every lint family and returns the findings sorted by
    /// (file, line, lint).
    pub fn check(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        lints::cache_key(self, &mut out);
        lints::determinism(self, &mut out);
        lints::failpoint_registry(self, &mut out);
        lints::panic_hygiene(self, &mut out);
        lints::relaxed_ordering(self, &mut out);
        out.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
        out
    }

    /// Total number of scanned lines (for the summary footer).
    pub fn line_count(&self) -> usize {
        self.files.iter().map(|f| f.lines.len()).sum()
    }
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    /// A minimal well-formed fault registry fixture.
    const FAULT_OK: &str = r#"
pub mod sites {
    /// Site one.
    pub const DISK_READ: &str = "disk.read";
    /// Site two.
    pub const QUEUE_RUN: &str = "queue.run";
    /// All sites.
    pub const ALL: &[&str] = &[DISK_READ, QUEUE_RUN];
}
"#;

    const CALLERS_OK: &str = "
fn read() {
    psn_fault::inject_io(psn_fault::sites::DISK_READ, &mut buf)?;
}
fn run() {
    let results = psn_fault::run_jobs(
        psn_fault::sites::QUEUE_RUN,
        workers,
        jobs.len(),
        |_| (),
        |_, i, _| work(&jobs[i]),
        Result::is_err,
    );
}
";

    fn only(findings: &[Finding], lint: LintId) -> Vec<&Finding> {
        findings.iter().filter(|f| f.lint == lint).collect()
    }

    #[test]
    fn cache_key_fires_on_unhashed_field_and_passes_when_hashed() {
        let firing = "
pub struct StudyParams {
    /// Hashed.
    pub delta: f64,
    /// Forgotten!
    pub new_knob: u64,
    // psn-analyze: cache-excluded(worker count never changes results)
    pub threads: usize,
}
impl StudyParams {
    fn hash_into(&self, hasher: &mut H) {
        hasher.write_f64(self.delta);
    }
}
";
        let ws = Workspace::from_sources([("crates/core/src/study/mod.rs", firing)], None);
        let f = ws.check();
        let hits = only(&f, LintId::CacheKey);
        assert_eq!(hits.len(), 1, "{f:?}");
        assert!(hits[0].message.contains("new_knob"));
        assert_eq!(hits[0].line, 6);

        let clean = firing.replace("    /// Forgotten!\n    pub new_knob: u64,\n", "");
        let ws = Workspace::from_sources([("crates/core/src/study/mod.rs", clean)], None);
        assert!(only(&ws.check(), LintId::CacheKey).is_empty());
    }

    #[test]
    fn cache_key_rejects_contradictory_pragma() {
        let src = "
pub struct StudyParams {
    // psn-analyze: cache-excluded(but it is hashed anyway)
    pub delta: f64,
}
impl StudyParams {
    fn hash_into(&self, hasher: &mut H) {
        hasher.write_f64(self.delta);
    }
}
";
        let ws = Workspace::from_sources([("crates/core/src/study/mod.rs", src)], None);
        let f = ws.check();
        assert_eq!(only(&f, LintId::CacheKey).len(), 1, "{f:?}");
        assert!(f[0].message.contains("marked cache-excluded but hash_into reads it"));
    }

    #[test]
    fn cache_key_checks_scenario_to_doc_coverage() {
        let scenario = r#"
pub enum ScenarioConfig {
    /// The homogeneous family.
    Homogeneous(HomogeneousConfig),
}
impl ScenarioConfig {
    pub(crate) fn to_doc(&self) -> doc::Table {
        let mut top = doc::Table::new("scenario");
        match self {
            ScenarioConfig::Homogeneous(c) => {
                top.set_u64("nodes", c.nodes as u64);
            }
        }
        top
    }
}
"#;
        let config = "
pub struct HomogeneousConfig {
    /// Serialized.
    pub nodes: usize,
    /// Not serialized!
    pub secret_rate: f64,
}
";
        let ws = Workspace::from_sources(
            [
                ("crates/trace/src/scenario.rs", scenario),
                ("crates/trace/src/generator/config.rs", config),
            ],
            None,
        );
        let f = ws.check();
        let hits = only(&f, LintId::CacheKey);
        assert_eq!(hits.len(), 1, "{f:?}");
        assert!(hits[0].message.contains("HomogeneousConfig.secret_rate"));
    }

    #[test]
    fn determinism_fires_in_scope_and_respects_pragma_and_tests() {
        let src = "
use std::collections::HashMap;
fn build() {
    // psn-analyze: unordered-ok(drained through a sorted Vec before output)
    let ok: HashMap<u32, u32> = HashMap::new();
    let t = std::time::Instant::now();
}
#[cfg(test)]
mod tests {
    fn t() {
        let m: std::collections::HashMap<u32, u32> = Default::default();
    }
}
";
        let ws = Workspace::from_sources([("crates/core/src/lib.rs", src)], None);
        let f = ws.check();
        let hits = only(&f, LintId::Determinism);
        // The import line fires, the pragma'd construction does not, the
        // Instant::now fires, the test use does not.
        assert_eq!(hits.len(), 2, "{f:?}");
        assert_eq!(hits[0].line, 2);
        assert!(hits[1].message.contains("Instant::now"));

        // Out-of-scope crates (bench) are exempt.
        let ws = Workspace::from_sources([("crates/bench/src/lib.rs", src)], None);
        assert!(only(&ws.check(), LintId::Determinism).is_empty());
    }

    #[test]
    fn determinism_flags_env_reads_outside_config() {
        let src = "fn f() { let v = std::env::var(\"X\"); }\n";
        let ws = Workspace::from_sources([("crates/core/src/study/mod.rs", src)], None);
        assert_eq!(only(&ws.check(), LintId::Determinism).len(), 1);
        let ws = Workspace::from_sources([("crates/core/src/config.rs", src)], None);
        assert!(only(&ws.check(), LintId::Determinism).is_empty());
    }

    #[test]
    fn failpoint_registry_passes_when_in_sync() {
        let ws = Workspace::from_sources(
            [
                ("crates/fault/src/lib.rs", FAULT_OK),
                ("crates/artifact/src/disk.rs", CALLERS_OK),
            ],
            Some(
                "### Failpoint site registry\n\n| site | where |\n|---|---|\n| `disk.read` | x |\n| `queue.run` | y |\n"
                    .to_string(),
            ),
        );
        let f = ws.check();
        assert!(only(&f, LintId::FailpointRegistry).is_empty(), "{f:?}");
    }

    #[test]
    fn failpoint_registry_fires_on_orphan_literal_dead_entry_and_doc_drift() {
        let callers = "
fn read() {
    psn_fault::inject_io(\"disk.read\", &mut buf)?;
}
fn run() {
    psn_fault::run_jobs(
        \"queue.run\",
        workers,
        jobs.len(),
        |_| (),
        |_, i, _| work(&jobs[i]),
        Result::is_err,
    );
}
";
        let ws = Workspace::from_sources(
            [("crates/fault/src/lib.rs", FAULT_OK), ("crates/artifact/src/disk.rs", callers)],
            Some(
                "### Failpoint site registry\n\n| `disk.read` | x |\n| `stale.site` | y |\n"
                    .to_string(),
            ),
        );
        let f = ws.check();
        let hits = only(&f, LintId::FailpointRegistry);
        let text: Vec<&str> = hits.iter().map(|h| h.message.as_str()).collect();
        assert!(text.iter().any(|m| m.contains("orphan failpoint site: inject_io(")), "{text:?}");
        assert!(
            text.iter().any(|m| m.contains("orphan failpoint site: run_jobs(")),
            "a literal site passed to the pool on a wrapped line is an orphan too: {text:?}"
        );
        assert!(text.iter().any(|m| m.contains("dead registry entry")), "{text:?}");
        assert!(
            text.iter().any(|m| m.contains("`queue.run`") && m.contains("missing")),
            "{text:?}"
        );
        assert!(text.iter().any(|m| m.contains("`stale.site`")), "{text:?}");
    }

    #[test]
    fn failpoint_registry_requires_all_listing() {
        let fault = r#"
pub mod sites {
    pub const DISK_READ: &str = "disk.read";
    pub const FORGOTTEN: &str = "queue.forgotten";
    pub const ALL: &[&str] = &[DISK_READ];
}
"#;
        let callers = "
fn f() {
    psn_fault::inject_io(psn_fault::sites::DISK_READ, &mut b)?;
    psn_fault::run_jobs(psn_fault::sites::FORGOTTEN, 1, 1, |_| (), |_, _, _| (), |_| false);
}
";
        let ws = Workspace::from_sources(
            [("crates/fault/src/lib.rs", fault), ("crates/core/src/x.rs", callers)],
            None,
        );
        let f = ws.check();
        let hits = only(&f, LintId::FailpointRegistry);
        assert_eq!(hits.len(), 1, "{f:?}");
        assert!(hits[0].message.contains("missing from sites::ALL"));
    }

    #[test]
    fn panic_hygiene_fires_and_honors_panics_doc_and_tests() {
        let src = "
#![deny(clippy::unwrap_used, clippy::expect_used)]

/// Documented contract.
///
/// # Panics
///
/// Panics when the invariant is violated.
pub fn documented(x: Option<u32>) -> u32 {
    match x {
        Some(v) => v,
        None => panic!(\"invariant\"),
    }
}

pub fn bare(x: Option<u32>) -> u32 {
    x.unwrap()
}

pub fn undocumented() {
    panic!(\"boom\");
}

#[cfg(test)]
mod tests {
    fn t() {
        None::<u32>.unwrap();
        panic!(\"fine in tests\");
    }
}
";
        let ws = Workspace::from_sources([("crates/core/src/lib.rs", src)], None);
        let f = ws.check();
        let hits = only(&f, LintId::PanicHygiene);
        assert_eq!(hits.len(), 2, "{f:?}");
        assert!(hits[0].message.contains(".unwrap()"));
        assert!(hits[1].message.contains("# Panics"));
    }

    #[test]
    fn panic_hygiene_requires_lib_deny() {
        let ws = Workspace::from_sources([("crates/fault/src/lib.rs", "pub fn fine() {}\n")], None);
        let f = ws.check();
        let hits = only(&f, LintId::PanicHygiene);
        assert_eq!(hits.len(), 1, "{f:?}");
        assert!(hits[0].message.contains("deny(clippy::unwrap_used"));
    }

    #[test]
    fn relaxed_ordering_requires_justification() {
        let src = "
fn f(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
    // relaxed: stats counter, orders nothing.
    c.fetch_add(1, Ordering::Relaxed);
}
";
        let ws = Workspace::from_sources([("crates/bench/src/lib.rs", src)], None);
        let f = ws.check();
        let hits = only(&f, LintId::RelaxedOrdering);
        assert_eq!(hits.len(), 1, "{f:?}");
        assert_eq!(hits[0].line, 3);
    }

    #[test]
    fn findings_render_with_location() {
        let f = Finding::new(LintId::Determinism, "crates/x/src/lib.rs", 7, "msg".to_string());
        assert_eq!(f.to_string(), "determinism: crates/x/src/lib.rs:7: msg");
        assert_eq!(LintId::ALL.len(), 5);
        for lint in LintId::ALL {
            assert!(!lint.description().is_empty());
        }
    }
}
