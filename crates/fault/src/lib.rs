//! # psn-fault
//!
//! Deterministic, zero-cost-when-disabled **failpoints** for the study
//! pipeline's chaos tests and for reproducing failure scenarios from the
//! command line.
//!
//! A failpoint is a *named site* compiled into production code — the
//! artifact disk tier, the binary codec, the slot spill, the worker pool —
//! that normally does nothing. Arming a site makes its `nth` execution fail in
//! a chosen way:
//!
//! ```text
//! PSN_FAULTS=disk.read-trace:corrupt-bytes:1,queue.study-run:panic:3
//! ```
//!
//! arms two sites: the first trace read returns corrupted bytes, and the
//! third job taken off the study work queue panics. Each armed spec fires
//! **exactly once** (on its `nth` hit) unless `nth` is `*`, which fires on
//! every hit. Fault kinds:
//!
//! | kind            | effect at the site                                   |
//! |-----------------|------------------------------------------------------|
//! | `io-error`      | the operation reports an injected [`std::io::Error`] |
//! | `corrupt-bytes` | the site's byte buffer is deterministically flipped  |
//! | `delay`         | the site sleeps 25 ms (widens race windows)          |
//! | `panic`         | the site panics (exercises unwind isolation)         |
//!
//! **Determinism:** hit counters are per-site and process-global, so a
//! single-threaded run fires faults at exactly the same operation every
//! time. (Under multiple workers the *site* is still deterministic; which
//! worker reaches it `nth` is scheduling-dependent — chaos tests that need
//! cell-exact targeting run with one worker.)
//!
//! **Cost when disabled:** one `Once` check plus one relaxed atomic load
//! per site execution — no locks, no allocation, no syscalls.
//!
//! Tests arm faults programmatically through [`arm_guard`], which holds a
//! process-wide lock so concurrent chaos tests cannot observe each other's
//! plans; the CLI arms them persistently through [`arm`].
//!
//! The crate also owns [`run_jobs`], the one panic-isolated worker pool
//! every parallel driver runs on. A job failpoint site is reachable only
//! through it.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, Once, OnceLock};

/// The environment variable the global plan is armed from (first use).
pub const ENV_VAR: &str = "PSN_FAULTS";

/// Canonical registry of every failpoint site compiled into the workspace.
///
/// Call sites must use these constants rather than string literals so the
/// `psn-analyze` failpoint lint (L3) can cross-check the sites referenced
/// in code against this registry and the DESIGN.md §6d table. Adding a
/// failpoint means adding a constant here, listing it in [`ALL`](sites::ALL)
/// and in the DESIGN.md table, and passing the constant at the new call
/// site — `psn-analyze` fails CI on any orphan site string or dead registry
/// entry.
pub mod sites {
    /// Trace bytes read from the disk tier, about to be decoded.
    pub const DISK_READ_TRACE: &str = "disk.read-trace";
    /// Encoded trace bytes about to be committed to the disk tier.
    pub const DISK_WRITE_TRACE: &str = "disk.write-trace";
    /// Report-cell JSON read from the disk tier.
    pub const DISK_READ_RESULT: &str = "disk.read-result";
    /// Report-cell JSON about to be committed to the disk tier.
    pub const DISK_WRITE_RESULT: &str = "disk.write-result";
    /// Binary trace-codec decode over a borrowed buffer.
    pub const CODEC_DECODE_TRACE: &str = "codec.decode-trace";
    /// A path-explosion enumeration job taken off the work queue.
    pub const QUEUE_EXPLOSION: &str = "queue.explosion";
    /// A forwarding-simulation job taken off the work queue.
    pub const QUEUE_FORWARDING: &str = "queue.forwarding";
    /// A study run taken off the sweep work queue.
    pub const QUEUE_STUDY_RUN: &str = "queue.study-run";
    /// A sealed slot's edge record about to be written to the spill tier.
    pub const SPILL_STORE_SLOT: &str = "spill.store-slot";
    /// A spilled slot's edge record read back for a cold-slot reload.
    pub const SPILL_LOAD_SLOT: &str = "spill.load-slot";

    /// Every registered site, for enumeration, docs and the `psn-analyze`
    /// self-check.
    pub const ALL: &[&str] = &[
        DISK_READ_TRACE,
        DISK_WRITE_TRACE,
        DISK_READ_RESULT,
        DISK_WRITE_RESULT,
        CODEC_DECODE_TRACE,
        QUEUE_EXPLOSION,
        QUEUE_FORWARDING,
        QUEUE_STUDY_RUN,
        SPILL_STORE_SLOT,
        SPILL_LOAD_SLOT,
    ];
}

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The site reports an injected [`std::io::Error`].
    IoError,
    /// The site's byte buffer is deterministically corrupted.
    CorruptBytes,
    /// The site sleeps briefly (25 ms).
    Delay,
    /// The site panics.
    Panic,
}

impl FaultKind {
    /// The spec spelling of the kind.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::IoError => "io-error",
            FaultKind::CorruptBytes => "corrupt-bytes",
            FaultKind::Delay => "delay",
            FaultKind::Panic => "panic",
        }
    }

    fn parse(name: &str) -> Option<FaultKind> {
        match name {
            "io-error" => Some(FaultKind::IoError),
            "corrupt-bytes" => Some(FaultKind::CorruptBytes),
            "delay" => Some(FaultKind::Delay),
            "panic" => Some(FaultKind::Panic),
            _ => None,
        }
    }
}

/// A malformed fault spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError {
    message: String,
}

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid fault spec: {}", self.message)
    }
}

impl std::error::Error for FaultSpecError {}

/// One armed failpoint: fires [`FaultKind`] on the `nth` hit of `site`
/// (or on every hit when `every` is set).
#[derive(Debug)]
struct ArmedSite {
    site: String,
    kind: FaultKind,
    nth: u64,
    every: bool,
    hits: AtomicU64,
}

impl ArmedSite {
    /// Parses `site:kind[:nth]` (`nth` defaults to 1; `*` = every hit).
    fn parse(spec: &str) -> Result<ArmedSite, FaultSpecError> {
        let err = |message: String| FaultSpecError { message };
        let mut parts = spec.split(':');
        let site = parts.next().unwrap_or_default().trim();
        if site.is_empty() {
            return Err(err(format!("{spec:?} has no site name (want site:kind[:nth])")));
        }
        let kind = parts
            .next()
            .ok_or_else(|| err(format!("{spec:?} has no fault kind (want site:kind[:nth])")))?;
        let kind = FaultKind::parse(kind.trim()).ok_or_else(|| {
            err(format!(
                "{spec:?}: unknown kind {kind:?} (want io-error, corrupt-bytes, delay or panic)"
            ))
        })?;
        let (nth, every) = match parts.next().map(str::trim) {
            None | Some("1") => (1, false),
            Some("*") => (0, true),
            Some(n) => {
                let nth =
                    n.parse::<u64>().ok().filter(|n| *n >= 1).ok_or_else(|| {
                        err(format!("{spec:?}: nth must be a positive count or *"))
                    })?;
                (nth, false)
            }
        };
        if parts.next().is_some() {
            return Err(err(format!("{spec:?} has trailing fields (want site:kind[:nth])")));
        }
        Ok(ArmedSite { site: site.to_string(), kind, nth, every, hits: AtomicU64::new(0) })
    }

    /// Records a hit; returns the kind if this hit fires.
    fn hit(&self) -> Option<FaultKind> {
        // relaxed: the counter is only ever read via this fetch_add; no
        // other memory is published under it.
        let count = self.hits.fetch_add(1, Ordering::Relaxed) + 1;
        (self.every || count == self.nth).then_some(self.kind)
    }
}

#[derive(Debug, Default)]
struct Plan {
    sites: Vec<ArmedSite>,
}

impl Plan {
    fn parse(specs: &str) -> Result<Plan, FaultSpecError> {
        let sites = specs
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(ArmedSite::parse)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Plan { sites })
    }
}

static ENV_INIT: Once = Once::new();
static ENABLED: AtomicBool = AtomicBool::new(false);
static PLAN: OnceLock<Mutex<Plan>> = OnceLock::new();

fn plan_cell() -> &'static Mutex<Plan> {
    PLAN.get_or_init(|| Mutex::new(Plan::default()))
}

fn lock_plan() -> MutexGuard<'static, Plan> {
    // A panic kind fired while the lock was held is impossible (the lock
    // is released before any injected effect), but recover defensively:
    // the plan is plain data.
    plan_cell().lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn install(plan: Plan) {
    let enabled = !plan.sites.is_empty();
    *lock_plan() = plan;
    // relaxed: a hint flag only — readers that observe it stale re-check
    // the plan under the mutex, which provides the ordering.
    ENABLED.store(enabled, Ordering::Relaxed);
}

fn ensure_env_init() {
    ENV_INIT.call_once(|| {
        if let Ok(specs) = std::env::var(ENV_VAR) {
            match Plan::parse(&specs) {
                Ok(plan) => install(plan),
                Err(e) => eprintln!("warning: ignoring {ENV_VAR}: {e}"),
            }
        }
    });
}

/// True when any failpoint is armed — the fast path every site checks.
pub fn enabled() -> bool {
    ensure_env_init();
    // relaxed: see `install` — the flag is advisory; the plan mutex orders
    // the data.
    ENABLED.load(Ordering::Relaxed)
}

/// Records a hit at `site` and returns the fault to inject, if an armed
/// spec fires on this hit. Call exactly once per site execution.
pub fn fire(site: &str) -> Option<FaultKind> {
    if !enabled() {
        return None;
    }
    let plan = lock_plan();
    plan.sites.iter().filter(|s| s.site == site).find_map(ArmedSite::hit)
}

/// Arms the global plan from a spec list (`site:kind[:nth],…`) —
/// persistent until replaced. The CLI's `--faults` flag lands here; tests
/// should prefer [`arm_guard`].
pub fn arm(specs: &str) -> Result<(), FaultSpecError> {
    ensure_env_init();
    install(Plan::parse(specs)?);
    Ok(())
}

/// Disarms every failpoint.
pub fn disarm() {
    ensure_env_init();
    install(Plan::default());
}

/// Serializes tests that arm faults; the guard restores a clean (disarmed)
/// state on drop.
pub struct ArmGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for ArmGuard {
    fn drop(&mut self) {
        disarm();
    }
}

static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Arms the global plan for the duration of a test: takes a process-wide
/// lock (so parallel chaos tests never see each other's plans), arms
/// `specs`, and disarms again when the guard drops.
///
/// # Panics
///
/// Panics on a malformed spec — arming happens in test setup, where a bad
/// spec is a test bug.
pub fn arm_guard(specs: &str) -> ArmGuard {
    let lock = TEST_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    ensure_env_init();
    match Plan::parse(specs) {
        Ok(plan) => install(plan),
        Err(e) => panic!("arm_guard({specs:?}): {e}"),
    }
    ArmGuard { _lock: lock }
}

/// Deterministically flips bytes in `buf` (every 16th byte, plus the last
/// one) so any checksummed or length-validated decoder rejects it. Empty
/// buffers stay empty — absent data is its own failure mode.
fn corrupt_in_place(buf: &mut [u8]) {
    let step = (buf.len() / 16).max(1);
    let mut i = 0;
    while i < buf.len() {
        buf[i] ^= 0xA5;
        i += step;
    }
    if let Some(last) = buf.last_mut() {
        *last ^= 0xA5;
    }
}

fn injected_io_error(site: &str) -> std::io::Error {
    std::io::Error::other(format!("injected fault: io-error at {site}"))
}

fn apply_delay() {
    std::thread::sleep(std::time::Duration::from_millis(25));
}

/// Failpoint for an IO site that moves a byte buffer (a file read about to
/// be decoded, or an encoded buffer about to be written). Returns the
/// injected error for `io-error`, corrupts `buf` for `corrupt-bytes`,
/// sleeps for `delay`, panics for `panic`, and is a no-op when disarmed.
///
/// # Panics
///
/// Panics when the armed kind is `panic` — that is the injected effect.
pub fn inject_io(site: &str, buf: &mut [u8]) -> std::io::Result<()> {
    match fire(site) {
        None => Ok(()),
        Some(FaultKind::IoError) => Err(injected_io_error(site)),
        Some(FaultKind::CorruptBytes) => {
            corrupt_in_place(buf);
            Ok(())
        }
        Some(FaultKind::Delay) => {
            apply_delay();
            Ok(())
        }
        Some(FaultKind::Panic) => panic!("injected fault: panic at {site}"),
    }
}

/// Failpoint for a bufferless IO operation (a rename, a directory
/// creation). `corrupt-bytes` degrades to an io-error — there are no bytes
/// to corrupt, and failing is the conservative reading.
///
/// # Panics
///
/// Panics when the armed kind is `panic` — that is the injected effect.
pub fn inject_io_op(site: &str) -> std::io::Result<()> {
    match fire(site) {
        None => Ok(()),
        Some(FaultKind::IoError) | Some(FaultKind::CorruptBytes) => Err(injected_io_error(site)),
        Some(FaultKind::Delay) => {
            apply_delay();
            Ok(())
        }
        Some(FaultKind::Panic) => panic!("injected fault: panic at {site}"),
    }
}

/// Extracts a human-readable message from a `catch_unwind` payload (the
/// `&str`/`String` panics produce; anything else gets a placeholder).
/// Used by [`run_jobs`], and by callers that catch a panic themselves.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Failpoint for a decode site over a borrowed buffer. Returns a
/// corrupted copy for `corrupt-bytes` (and for `io-error`, which a pure
/// decoder cannot report any other way), `None` when clean or after a
/// `delay`, and panics for `panic`.
///
/// # Panics
///
/// Panics when the armed kind is `panic` — that is the injected effect.
pub fn inject_decode(site: &str, bytes: &[u8]) -> Option<Vec<u8>> {
    match fire(site) {
        Some(FaultKind::CorruptBytes) | Some(FaultKind::IoError) => {
            let mut copy = bytes.to_vec();
            corrupt_in_place(&mut copy);
            Some(copy)
        }
        Some(FaultKind::Delay) => {
            apply_delay();
            None
        }
        Some(FaultKind::Panic) => panic!("injected fault: panic at {site}"),
        None => None,
    }
}

/// Failpoint for a work-queue job site. Only `panic` and `delay` make
/// sense here; the IO kinds are ignored rather than misreported. Reached
/// only through [`run_jobs`], which calls it at the start of every job.
///
/// # Panics
///
/// Panics when the armed kind is `panic` — that is the injected effect,
/// which the pool turns into the job's `Err`.
fn inject_job(site: &str) {
    match fire(site) {
        Some(FaultKind::Panic) => panic!("injected fault: panic at {site}"),
        Some(FaultKind::Delay) => apply_delay(),
        _ => {}
    }
}

/// The one panic-isolated worker pool: runs jobs `0..jobs` on up to
/// `workers` scoped threads and returns each job's result at its index.
///
/// * Workers claim job indices off one shared counter, so uneven job costs
///   balance themselves.
/// * Every job starts with the `site` failpoint, at every worker count.
/// * Every job runs under `catch_unwind`: a panic becomes `Err(message)`
///   at that job's index and never reaches a sibling worker.
/// * `init(worker)` builds a worker's state inside its first job (a
///   panicking `init` fails that job); the state is rebuilt after a job
///   of that worker panics.
/// * Once a result satisfies `stop`, workers claim no further jobs; a
///   running job can poll the flag it is handed (`true` = stopping) to
///   cut its own work short.
/// * With one worker (or one job) everything runs inline on the calling
///   thread.
///
/// Claims are handed out in index order, so the returned vector is
/// always a prefix of the jobs in job order: all of them, or — after
/// `stop` fired — every job that had been claimed by then.
pub fn run_jobs<S, T: Send>(
    site: &str,
    workers: usize,
    jobs: usize,
    init: impl Fn(usize) -> S + Sync,
    job: impl Fn(&mut S, usize, &AtomicBool) -> T + Sync,
    stop: impl Fn(&Result<T, String>) -> bool + Sync,
) -> Vec<Result<T, String>> {
    let next = AtomicUsize::new(0);
    let stopping = AtomicBool::new(false);
    let work = |worker: usize| {
        let mut state: Option<S> = None;
        let mut done = Vec::new();
        // relaxed: advisory stop flag; a stale read only costs one extra job.
        while !stopping.load(Ordering::Relaxed) {
            // relaxed: claim counter; each index is claimed once and results travel through the join, which orders the data.
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= jobs {
                break;
            }
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                inject_job(site);
                let state = state.get_or_insert_with(|| init(worker));
                job(state, index, &stopping)
            }))
            .map_err(|payload| {
                state = None;
                panic_message(payload.as_ref())
            });
            if stop(&result) {
                // relaxed: advisory stop flag; a stale read only costs one extra job.
                stopping.store(true, Ordering::Relaxed);
            }
            done.push((index, result));
        }
        done
    };
    let workers = workers.clamp(1, jobs.max(1));
    let mut done = if workers == 1 {
        work(0)
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..workers).map(|worker| scope.spawn(move || work(worker))).collect();
            handles
                .into_iter()
                .flat_map(|handle| {
                    // Job and `init` panics are caught above; a panic in
                    // `stop` or in the pool itself propagates unchanged.
                    handle.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                })
                .collect()
        })
    };
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn specs_parse_and_reject() {
        let site = ArmedSite::parse("disk.read-trace:corrupt-bytes:3").unwrap();
        assert_eq!((site.site.as_str(), site.kind), ("disk.read-trace", FaultKind::CorruptBytes));
        assert_eq!((site.nth, site.every), (3, false));

        let site = ArmedSite::parse("a:panic").unwrap();
        assert_eq!((site.nth, site.every), (1, false));
        let site = ArmedSite::parse("a:delay:*").unwrap();
        assert!(site.every);

        for bad in ["", "a", "a:nope", "a:panic:0", "a:panic:x", "a:panic:1:z", ":panic"] {
            assert!(ArmedSite::parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert!(Plan::parse("a:panic, b:io-error:2").unwrap().sites.len() == 2);
        assert!(Plan::parse("a:panic,,").unwrap().sites.len() == 1);
    }

    #[test]
    fn kinds_round_trip_names() {
        for kind in
            [FaultKind::IoError, FaultKind::CorruptBytes, FaultKind::Delay, FaultKind::Panic]
        {
            assert_eq!(FaultKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(FaultKind::parse("bogus"), None);
    }

    #[test]
    fn nth_fires_exactly_once_and_star_fires_always() {
        let _guard = arm_guard("t.nth:io-error:2,t.star:delay:*");
        assert_eq!(fire("t.nth"), None, "first hit must not fire");
        assert_eq!(fire("t.nth"), Some(FaultKind::IoError), "second hit fires");
        assert_eq!(fire("t.nth"), None, "spent spec never fires again");
        for _ in 0..3 {
            assert_eq!(fire("t.star"), Some(FaultKind::Delay));
        }
        assert_eq!(fire("t.other"), None, "unarmed sites never fire");
    }

    #[test]
    fn guard_disarms_on_drop() {
        {
            let _guard = arm_guard("t.drop:panic:1");
            assert!(enabled());
        }
        assert!(!enabled(), "dropping the guard disarms everything");
        assert_eq!(fire("t.drop"), None);
    }

    #[test]
    fn inject_io_maps_kinds() {
        let _guard = arm_guard("t.io:io-error:1,t.corrupt:corrupt-bytes:1,t.op:corrupt-bytes:1");
        let mut buf = vec![1u8, 2, 3, 4];
        assert!(inject_io("t.io", &mut buf).is_err());
        assert_eq!(buf, vec![1, 2, 3, 4], "io-error leaves the buffer alone");

        let clean = buf.clone();
        assert!(inject_io("t.corrupt", &mut buf).is_ok());
        assert_ne!(buf, clean, "corrupt-bytes must change the buffer");
        assert_eq!(buf.len(), clean.len(), "corruption flips, never truncates");

        assert!(inject_io_op("t.op").is_err(), "bufferless sites degrade corrupt to io-error");
        assert!(inject_io("t.unarmed", &mut buf).is_ok());
    }

    #[test]
    fn inject_job_panics_on_panic_kind() {
        let _guard = arm_guard("t.job:panic:1");
        let result = std::panic::catch_unwind(|| inject_job("t.job"));
        let payload = *result.expect_err("armed job site must panic").downcast::<String>().unwrap();
        assert!(payload.contains("injected fault: panic at t.job"), "{payload}");
        inject_job("t.job"); // spent — no panic
    }

    const WORKERS: [usize; 3] = [1, 2, 5];
    const JOB_COUNTS: [usize; 3] = [0, 3, 17];

    fn never(_: &Result<usize, String>) -> bool {
        false
    }

    #[test]
    fn pool_returns_every_result_at_its_job_index() {
        for workers in WORKERS {
            for jobs in JOB_COUNTS {
                // Every worker claims one job and then waits in `init` until
                // all have, so the jobs really spread over the workers; job 1
                // then finishes last, after every other job has reported in.
                let barrier = std::sync::Barrier::new(workers.min(jobs).max(1));
                let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
                let done_rx = Mutex::new(done_rx);
                let hold_job_1 = workers > 1 && jobs > 2;
                let results = run_jobs(
                    "t.pool-order",
                    workers,
                    jobs,
                    |_| {
                        barrier.wait();
                    },
                    |_, index, _| {
                        if hold_job_1 && index == 1 {
                            let rx = done_rx.lock().unwrap();
                            for _ in 0..jobs - 1 {
                                rx.recv().unwrap();
                            }
                        } else {
                            done_tx.send(()).unwrap();
                        }
                        index * 7
                    },
                    never,
                );
                let expected: Vec<Result<usize, String>> = (0..jobs).map(|i| Ok(i * 7)).collect();
                assert_eq!(results, expected, "{workers} workers, {jobs} jobs");
            }
        }
    }

    #[test]
    fn pool_isolates_a_panicking_job_to_its_own_index() {
        for workers in WORKERS {
            let results = run_jobs(
                "t.pool-panic",
                workers,
                8,
                |_| (),
                |_, index, _| {
                    assert_ne!(index, 3, "job three fails");
                    index
                },
                never,
            );
            assert_eq!(results.len(), 8, "{workers} workers");
            for (index, result) in results.iter().enumerate() {
                match result {
                    Err(message) => {
                        assert_eq!(index, 3, "{workers} workers: {message}");
                        assert!(message.contains("job three fails"), "{message}");
                    }
                    Ok(value) => assert_eq!(*value, index),
                }
            }
        }
    }

    #[test]
    fn pool_injects_the_site_failpoint_into_every_job_at_every_worker_count() {
        let _guard = arm_guard("t.pool-site:panic:*");
        for workers in WORKERS {
            let results = run_jobs("t.pool-site", workers, 6, |_| (), |_, index, _| index, never);
            assert_eq!(results.len(), 6);
            for result in results {
                let message = result.expect_err("every job hits the armed site");
                assert!(message.contains("injected fault: panic at t.pool-site"), "{message}");
            }
        }
    }

    #[test]
    fn pool_stops_claiming_once_stop_fires() {
        for workers in WORKERS {
            // Jobs past 5 cannot finish before job 5 raised the flag, so
            // each other worker holds at most one of them when it stops.
            let results = run_jobs(
                "t.pool-stop",
                workers,
                40,
                |_| (),
                |_, index, stopping| {
                    while workers > 1 && index > 5 && !stopping.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                    index
                },
                |result| *result == Ok(5),
            );
            assert!(
                (6..=5 + workers).contains(&results.len()),
                "{workers} workers ran {} jobs",
                results.len()
            );
            for (index, result) in results.into_iter().enumerate() {
                assert_eq!(result, Ok(index));
            }
        }
    }

    #[test]
    fn pool_builds_each_worker_state_once() {
        for workers in WORKERS {
            for jobs in JOB_COUNTS {
                let effective = workers.min(jobs);
                let inits = AtomicUsize::new(0);
                let barrier = std::sync::Barrier::new(effective.max(1));
                let results = run_jobs(
                    "t.pool-init",
                    workers,
                    jobs,
                    |worker| {
                        inits.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        (worker, 0usize)
                    },
                    |(worker, runs), _, _| {
                        *runs += 1;
                        (*worker, *runs)
                    },
                    |_| false,
                );
                assert_eq!(inits.load(Ordering::Relaxed), effective, "{workers}w {jobs}j");
                // Each worker's job counter counts up from 1 without a gap:
                // its state lived across all of its jobs.
                let mut runs_of = vec![0usize; effective];
                for result in results {
                    let (worker, runs) = result.unwrap();
                    runs_of[worker] += 1;
                    assert_eq!(runs, runs_of[worker], "{workers}w {jobs}j");
                }
                assert!(runs_of.iter().all(|&runs| runs >= 1), "{runs_of:?}");
            }
        }
    }

    #[test]
    fn corruption_is_deterministic() {
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        corrupt_in_place(&mut a);
        corrupt_in_place(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, vec![0u8; 64]);
        corrupt_in_place(&mut Vec::new()); // empty stays empty, no panic
    }
}
