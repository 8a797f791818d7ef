//! Shared plumbing for the `psn-study` CLI.
//!
//! The experiment entry point is the **`psn-study` binary** (see DESIGN.md
//! for the experiment index):
//!
//! * `psn-study run --preset fig09` — regenerate one paper figure;
//! * `psn-study run --config scenarios/community_conference.toml --study
//!   forwarding` — run a named study over any scenario config file;
//! * `psn-study list` — presets, studies and scenario families;
//! * `psn-study describe --config <file>` — generate a scenario and print
//!   its summary statistics.
//!
//! Presets also answer to the names of the former per-figure binaries
//! (`psn-study run --preset fig09_delay_success`). Everything honours two
//! environment variables:
//!
//! * `PSN_PROFILE` — `paper` (98 nodes, 3-hour traces, k = 2000, one
//!   message every 4 seconds for two hours, 10 runs; slow, use a release
//!   build) or `quick` (default; reduced scale with the same structure);
//! * `PSN_THREADS` — worker threads for path enumeration and the
//!   forwarding simulator (default: one per available core). Thread count
//!   never changes results, only wall-clock time.
//!
//! Outputs are plain-text/CSV series on stdout; redirect to a file to
//! archive a run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use psn::prelude::*;

/// Reads the experiment profile from the `PSN_PROFILE` environment variable
/// (`paper` or `quick`, default `quick`).
pub fn profile_from_env() -> ExperimentProfile {
    match std::env::var("PSN_PROFILE").unwrap_or_default().to_lowercase().as_str() {
        "paper" => ExperimentProfile::Paper,
        _ => ExperimentProfile::Quick,
    }
}

/// Number of worker threads to use for per-message path enumeration and
/// the forwarding simulator (`PSN_THREADS`, default: one per core).
pub fn threads_from_env() -> usize {
    std::env::var("PSN_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psn::study::preset::PresetId;

    #[test]
    fn default_profile_is_quick() {
        // The test environment does not set PSN_PROFILE.
        if std::env::var("PSN_PROFILE").is_err() {
            assert_eq!(profile_from_env(), ExperimentProfile::Quick);
        }
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(threads_from_env() >= 1);
    }

    #[test]
    fn every_preset_name_resolves() {
        for preset in PresetId::all() {
            assert!(PresetId::parse(preset.binary_name()).is_some());
        }
    }
}
