//! The typed error model for the artifact layer.
//!
//! Every user-reachable failure in the cache stack surfaces as an
//! [`ArtifactError`] instead of a panic, so the study pipeline can map it
//! to an exit code and an actionable message. The taxonomy is deliberately
//! small:
//!
//! * **identity mismatch** — a 128-bit fingerprint addressed two different
//!   canonical identities. In the memory tier this is corruption or a bug
//!   and the resolution fails loudly (but *typed*, without poisoning the
//!   store mutex); in the disk tier the offending file is quarantined and
//!   rebuilt instead (see [`crate::disk`]).
//! * **type mismatch** — one key resolved under two Rust types; a caller
//!   bug, reported rather than unwrapped.
//! * **cache** — the cache directory itself is unusable (cannot create,
//!   foreign layout version). Points at the path and says what to do.
//! * **io** — an IO failure that survived bounded retry.

use std::path::PathBuf;

use psn_trace::Fingerprint;

use crate::store::ArtifactKind;

/// A typed, user-reportable failure in the artifact layer.
#[derive(Debug)]
pub enum ArtifactError {
    /// One fingerprint addressed two different canonical identities —
    /// a hash collision, corruption, or a keying bug. Never served.
    IdentityMismatch {
        /// The artifact kind the key addressed.
        kind: ArtifactKind,
        /// The colliding fingerprint.
        fingerprint: Fingerprint,
        /// The identity already cached under the key.
        stored: String,
        /// The identity the caller asked for.
        requested: String,
    },
    /// One key resolved under two different Rust types (caller bug).
    TypeMismatch {
        /// The artifact kind the key addressed.
        kind: ArtifactKind,
        /// The offending fingerprint.
        fingerprint: Fingerprint,
    },
    /// The cache directory is unusable (creation failed, foreign layout
    /// version, ...).
    Cache {
        /// The cache root the failure concerns.
        path: PathBuf,
        /// What went wrong and what to do about it.
        message: String,
    },
    /// An IO operation failed even after bounded retry.
    Io {
        /// What the store was doing (e.g. `"writing result artifact <fp>"`).
        context: String,
        /// The underlying IO error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::IdentityMismatch { kind, fingerprint, stored, requested } => write!(
                f,
                "fingerprint collision on {} artifact {}: cached identity {stored:?} != \
                 requested {requested:?} — refusing to serve the wrong artifact",
                kind.name(),
                fingerprint.to_hex()
            ),
            ArtifactError::TypeMismatch { kind, fingerprint } => write!(
                f,
                "{} artifact {} was cached under a different type (caller bug)",
                kind.name(),
                fingerprint.to_hex()
            ),
            ArtifactError::Cache { path, message } => {
                write!(f, "cache directory {}: {message}", path.display())
            }
            ArtifactError::Io { context, source } => write!(f, "{context}: {source}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}
