//! The on-disk artifact tier (`--cache DIR`).
//!
//! Layout under the cache root:
//!
//! ```text
//! DIR/
//!   FORMAT              "psn-artifact/1" — refuses to open other versions
//!   results/<fp>.json   per-cell study results (psn-report/1 JSON)
//!   results/<fp>.meta   canonical identity of the result (collision check)
//!   corrupt/            quarantined artifacts (never read again)
//! ```
//!
//! Only results are persisted. A trace is a deterministic function of its
//! scenario config and rebuilds in milliseconds, and only a cell whose
//! result missed needs one, so traces (like graphs and timelines) live in
//! the memory tier alone. A `traces/` directory left by an older build of
//! the same layout is ignored, never read or removed.
//!
//! Files are named by fingerprint hex and written atomically (temp file +
//! rename), so an interrupted sweep leaves either a complete artifact or
//! none — a later sweep over the same cache can trust whatever it finds.
//!
//! The tier is **self-healing**: loads never fail the pipeline. A file
//! that is corrupt, truncated, version-skewed or identity-mismatched is
//! *quarantined* — moved into `corrupt/` with a stderr provenance line —
//! and reported as a miss, so the caller rebuilds and overwrites it and
//! the bad bytes are never read again (no rebuild-forever loop, and the
//! evidence survives for a postmortem). Transient IO errors get a bounded
//! retry with backoff before degrading to a miss (reads) or a warning
//! (writes): a cache that cannot write is just a smaller cache.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use psn_trace::Fingerprint;

use crate::error::ArtifactError;

/// The version string stored in `DIR/FORMAT`. Covers the directory layout
/// and the result-JSON envelope.
pub const LAYOUT_VERSION: &str = "psn-artifact/1";

/// IO attempts per operation (1 initial + retries) before giving up.
const IO_ATTEMPTS: u32 = 3;

/// A cache directory holding persisted artifacts.
#[derive(Debug)]
pub struct DiskTier {
    root: PathBuf,
    quarantines: AtomicU64,
    retries: AtomicU64,
}

impl DiskTier {
    /// Opens (creating if needed) a cache directory, refusing a directory
    /// written by a different layout version.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, ArtifactError> {
        let root = root.into();
        std::fs::create_dir_all(root.join("results")).map_err(|e| ArtifactError::Cache {
            path: root.clone(),
            message: format!("creating results/: {e}"),
        })?;
        let format_path = root.join("FORMAT");
        match std::fs::read_to_string(&format_path) {
            Ok(existing) => {
                if existing.trim() != LAYOUT_VERSION {
                    return Err(ArtifactError::Cache {
                        path: root,
                        message: format!(
                            "written by {:?}, this build speaks {LAYOUT_VERSION:?} — \
                             clear the directory or point --cache elsewhere",
                            existing.trim(),
                        ),
                    });
                }
            }
            Err(_) => {
                write_atomic(&format_path, LAYOUT_VERSION.as_bytes()).map_err(|e| {
                    ArtifactError::Cache {
                        path: root.clone(),
                        message: format!("writing FORMAT: {e}"),
                    }
                })?;
            }
        }
        Ok(Self { root, quarantines: AtomicU64::new(0), retries: AtomicU64::new(0) })
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Files quarantined into `corrupt/` by this tier so far.
    pub fn quarantine_count(&self) -> u64 {
        // relaxed: monotonic stats counter, read only for reporting; orders no data.
        self.quarantines.load(Ordering::Relaxed)
    }

    /// IO retries performed by this tier so far.
    pub fn retry_count(&self) -> u64 {
        // relaxed: monotonic stats counter, read only for reporting; orders no data.
        self.retries.load(Ordering::Relaxed)
    }

    fn result_path(&self, fp: Fingerprint) -> PathBuf {
        self.root.join("results").join(format!("{}.json", fp.to_hex()))
    }

    fn result_meta_path(&self, fp: Fingerprint) -> PathBuf {
        self.root.join("results").join(format!("{}.meta", fp.to_hex()))
    }

    /// Runs an IO operation with bounded retry and backoff. `NotFound` is
    /// a legitimate miss, never retried.
    fn with_retry<T>(&self, mut op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
        let mut delay_ms = 1u64;
        let mut attempt = 1;
        loop {
            match op() {
                Ok(value) => return Ok(value),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(e),
                Err(e) => {
                    if attempt >= IO_ATTEMPTS {
                        return Err(e);
                    }
                    // relaxed: monotonic stats counter, read only for reporting; orders no data.
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                    delay_ms *= 4;
                    attempt += 1;
                }
            }
        }
    }

    /// Moves a bad artifact file into `corrupt/`, preserving its name, and
    /// emits a provenance line on stderr. Failures to quarantine degrade
    /// to deletion (the file must never be served again); failures to
    /// delete are warned about and ignored — the next load will retry.
    fn quarantine(&self, path: &Path, reason: &str) {
        let corrupt_dir = self.root.join("corrupt");
        let _ = std::fs::create_dir_all(&corrupt_dir);
        let dest = match path.file_name() {
            Some(name) => corrupt_dir.join(name),
            None => return,
        };
        match std::fs::rename(path, &dest) {
            Ok(()) => {
                // relaxed: monotonic stats counter, read only for reporting; orders no data.
                self.quarantines.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "warning: quarantined corrupt artifact {} -> {} ({reason}); rebuilding",
                    path.display(),
                    dest.display()
                );
            }
            Err(_) => match std::fs::remove_file(path) {
                Ok(()) => {
                    // relaxed: monotonic stats counter, read only for reporting; orders no data.
                    self.quarantines.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "warning: removed corrupt artifact {} ({reason}); rebuilding",
                        path.display()
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => eprintln!(
                    "warning: could not quarantine corrupt artifact {} ({reason}): {e}",
                    path.display()
                ),
            },
        }
    }

    /// True if a complete result artifact exists for this fingerprint
    /// (used by a cached `sweep` to report what will be skipped).
    pub fn result_exists(&self, fp: Fingerprint) -> bool {
        self.result_path(fp).is_file() && self.result_meta_path(fp).is_file()
    }

    /// Loads a result artifact's payload text, collision-checking the
    /// identity sidecar. `None` is a miss. A sidecar that names a
    /// *different* identity means the fingerprint collided or the file was
    /// mis-filed, and one that is not UTF-8 is corrupt: either way both
    /// payload and sidecar are quarantined and the cell is rebuilt — never
    /// served. Only the IO is retried; bad bytes are not transient.
    pub fn load_result(&self, fp: Fingerprint, identity: &str) -> Option<String> {
        let meta_path = self.result_meta_path(fp);
        let payload_path = self.result_path(fp);
        let Ok(bytes) = self.with_retry(|| {
            let mut bytes = std::fs::read(&meta_path)?;
            psn_fault::inject_io(psn_fault::sites::DISK_READ_RESULT, &mut bytes)?;
            Ok(bytes)
        }) else {
            return None;
        };
        if bytes != identity.as_bytes() {
            let reason = match std::str::from_utf8(&bytes) {
                Ok(stored) => format!("identity mismatch: sidecar names {stored:?}"),
                Err(_) => "sidecar is not UTF-8".to_string(),
            };
            self.quarantine(&payload_path, &reason);
            self.quarantine(&meta_path, &reason);
            return None;
        }
        self.with_retry(|| std::fs::read_to_string(&payload_path)).ok()
    }

    /// Quarantines a result artifact whose *payload* failed downstream
    /// validation (e.g. the study layer could not parse the JSON). Both
    /// the payload and its sidecar are moved aside so the cell rebuilds.
    pub fn quarantine_result(&self, fp: Fingerprint, reason: &str) {
        self.quarantine(&self.result_path(fp), reason);
        self.quarantine(&self.result_meta_path(fp), reason);
    }

    /// Persists a result artifact and its identity sidecar. The payload is
    /// written before the sidecar, so a crash between the two leaves a
    /// miss, never a sidecar pointing at nothing.
    pub fn store_result(
        &self,
        fp: Fingerprint,
        identity: &str,
        text: &str,
    ) -> Result<(), ArtifactError> {
        let payload_path = self.result_path(fp);
        self.with_retry(|| {
            psn_fault::inject_io_op(psn_fault::sites::DISK_WRITE_RESULT)?;
            write_atomic(&payload_path, text.as_bytes())
        })
        .map_err(|e| ArtifactError::Io {
            context: format!("writing result artifact {}", fp.to_hex()),
            source: e,
        })?;
        let meta_path = self.result_meta_path(fp);
        self.with_retry(|| write_atomic(&meta_path, identity.as_bytes())).map_err(|e| {
            ArtifactError::Io {
                context: format!("writing result sidecar {}", fp.to_hex()),
                source: e,
            }
        })
    }
}

/// Writes a file atomically: temp file in the same directory, then rename.
/// The temp name keeps the full target file name (so `<fp>.json` and
/// `<fp>.meta` never share one) and the writer's pid (so concurrent
/// processes sharing a cache directory never interleave writes through
/// one temp file — last rename wins, each with complete bytes).
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| std::io::Error::other("artifact path has no file name"))?;
    let tmp = path.with_file_name(format!("{file_name}.{}.tmp", std::process::id()));
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("psn-artifact-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The entry names directly under `dir`, sorted.
    fn entries(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn results_round_trip_through_the_tier() {
        let dir = tempdir("roundtrip");
        let tier = DiskTier::open(&dir).unwrap();
        let fp = Fingerprint(42);

        assert_eq!(tier.load_result(fp, "cell-id"), None, "cold tier misses");
        assert!(!tier.result_exists(fp));
        tier.store_result(fp, "cell-id", "{\"payload\": 1}").unwrap();
        assert!(tier.result_exists(fp));
        assert_eq!(tier.load_result(fp, "cell-id"), Some("{\"payload\": 1}".into()));
        assert_eq!(entries(&dir), ["FORMAT", "results"], "only results are persisted");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn layout_version_is_enforced_and_corruption_quarantines() {
        let dir = tempdir("version");
        {
            let tier = DiskTier::open(&dir).unwrap();
            let fp = Fingerprint(3);
            tier.store_result(fp, "cell-id", "{\"payload\": 3}").unwrap();

            // Truncate the identity sidecar: the load quarantines it with
            // its payload and misses.
            let meta = tier.result_meta_path(fp);
            let payload = tier.result_path(fp);
            let bytes = std::fs::read(&meta).unwrap();
            std::fs::write(&meta, &bytes[..bytes.len() / 2]).unwrap();
            assert_eq!(tier.load_result(fp, "cell-id"), None);
            assert_eq!(tier.quarantine_count(), 2);
            for path in [&meta, &payload] {
                assert!(!path.exists(), "bad file moved aside");
                assert!(
                    dir.join("corrupt").join(path.file_name().unwrap()).exists(),
                    "bad file preserved under corrupt/"
                );
            }
            // The miss is sticky: the quarantined files are never re-read.
            assert_eq!(tier.load_result(fp, "cell-id"), None);
            assert_eq!(tier.quarantine_count(), 2);

            // Sidecar bytes that are not UTF-8 are corruption, not a
            // transient error: quarantined at once, never retried.
            let fp = Fingerprint(4);
            tier.store_result(fp, "cell-id", "{\"payload\": 4}").unwrap();
            std::fs::write(tier.result_meta_path(fp), [0xA5, 0xFF, 0x00]).unwrap();
            assert_eq!(tier.load_result(fp, "cell-id"), None);
            assert_eq!(tier.quarantine_count(), 4);
            assert_eq!(tier.retry_count(), 0);
            assert!(!tier.result_exists(fp));
        }

        // Reopening the same directory works; a foreign version is refused.
        assert!(DiskTier::open(&dir).is_ok());
        std::fs::write(dir.join("FORMAT"), "psn-artifact/999").unwrap();
        let err = DiskTier::open(&dir).unwrap_err().to_string();
        assert!(err.contains("psn-artifact/999"), "{err}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn result_sidecar_mismatch_quarantines_both_files() {
        let dir = tempdir("sidecar");
        let tier = DiskTier::open(&dir).unwrap();
        let fp = Fingerprint(7);
        tier.store_result(fp, "cell-id", "{\"payload\": 1}").unwrap();

        // A different identity under the same fingerprint is a collision:
        // quarantined, treated as a miss, and gone from the hot path.
        assert_eq!(tier.load_result(fp, "other-id"), None);
        assert_eq!(tier.quarantine_count(), 2, "payload and sidecar both quarantined");
        assert!(!tier.result_exists(fp));
        assert_eq!(tier.load_result(fp, "cell-id"), None, "original identity also misses now");

        // The slot is reusable: a fresh store under the new identity hits.
        tier.store_result(fp, "other-id", "{\"payload\": 2}").unwrap();
        assert_eq!(tier.load_result(fp, "other-id"), Some("{\"payload\": 2}".into()));

        let _ = std::fs::remove_dir_all(&dir);
    }
}
