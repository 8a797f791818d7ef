//! # psn-artifact
//!
//! Content-addressed memoization for the expensive intermediate artifacts
//! every study is a view over: the generated [`psn_trace::ContactTrace`],
//! its [`psn_spacetime::SpaceTimeGraph`], the
//! [`psn_forwarding::HistoryTimeline`], and whole per-cell study results.
//!
//! Every paper figure — and every cell of a parameter sweep — is a
//! deterministic function of `(scenario config, study parameters)`. The
//! study pipeline therefore addresses artifacts by the **structural
//! fingerprint** of what produced them ([`psn_trace::Fingerprint`], hashed
//! over the config document model so TOML/JSON spellings and field
//! orderings of one scenario share a key) and resolves them through an
//! [`ArtifactStore`]:
//!
//! * a **memory tier**: `Arc`-shared artifacts behind a mutex-protected
//!   map, with exactly-once builds under concurrency (workers that race on
//!   a key block on a latch instead of duplicating the build) and
//!   LRU eviction against a byte budget;
//! * an optional **disk tier** ([`DiskTier`], `--cache DIR` in the CLI):
//!   per-cell study results as `psn-report/1` JSON, each collision-checked
//!   against a canonical identity sidecar — this is what makes interrupted
//!   multi-thousand-cell sweeps restartable (rerun with the same `--cache`). Traces,
//!   graphs and timelines stay in memory: each is a deterministic function
//!   of its scenario config and rebuilds in milliseconds, and only a cell
//!   whose result missed ever needs one.
//!
//! Correctness stance: caching must be **observationally invisible**. A
//! warm run returns bit-identical reports to a cold one (the study layer
//! pins this with differential tests), every fingerprint hit re-checks the
//! full canonical identity so a hash collision fails loudly rather than
//! serving the wrong artifact, and on-disk results that fail their checks
//! (truncated write, corrupt bytes, identity mismatch) are quarantined into
//! `corrupt/` and rebuilt — never served, never fatal.
//!
//! Failure stance: every user-reachable failure is a typed
//! [`ArtifactError`], never a panic — this crate denies
//! `clippy::unwrap_used`/`expect_used` outside tests to keep it that way.
//! Failpoint sites (`disk.read-result`, `disk.write-result`,
//! `spill.store-slot`, `spill.load-slot`) let the chaos suite inject
//! deterministic IO errors, corruption, delays and panics via the CLI's
//! `--faults` (see [`psn_fault`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod disk;
pub mod error;
pub mod spill;
pub mod store;

pub use disk::DiskTier;
pub use error::ArtifactError;
pub use psn_trace::fingerprint::{Fingerprint, FingerprintHasher};
pub use spill::SlabSlotSpill;
pub use store::{ArtifactKey, ArtifactKind, ArtifactStore, BuiltArtifact, CacheSource, StoreStats};
