//! Experiment drivers — one module per group of figures in the paper.
//!
//! | Module | Paper figures | Content |
//! |---|---|---|
//! | [`activity`] | Fig. 1, Fig. 7 | contact time-series per dataset, per-node contact-count CDFs |
//! | [`explosion`] | Fig. 4, 5, 6, 8 | optimal-duration / time-to-explosion CDFs, scatter, growth curves, pair-type split |
//! | [`forwarding`] | Fig. 9, 10, 11, 13 | success-rate vs delay per algorithm, delay CDFs, reception times, pair-type breakdown |
//! | [`paths_taken`] | Fig. 12 | per-message path-arrival bursts and the arrival of each algorithm's chosen path |
//! | [`hop_rates`] | Fig. 14, 15 | mean contact rate per hop of near-optimal paths, per-hop rate-ratio box plots |
//! | [`model`] | §5.1 | agreement between the jump process, the ODE limit and the closed forms |
//!
//! The modules are scenario- and profile-agnostic: each study has one
//! engine entry point that reads a [`psn_trace::ContactSummary`] (folded
//! from a trace or a contact stream) plus the shared space-time graph and
//! history timeline. Studies run through the [`crate::study`] pipeline,
//! which feeds any [`psn_trace::ScenarioConfig`] through them with the
//! numbers of [`crate::study::StudyParams::for_profile`], so the
//! integration tests (quick) and the paper-scale figure presets share one
//! code path.

pub mod activity;
pub mod explosion;
pub mod forwarding;
pub mod hop_rates;
pub mod model;
pub mod paths_taken;

pub use activity::ActivityReport;
pub use explosion::{ExplosionStudy, PairTypeScatter};
pub use forwarding::ForwardingStudy;
pub use hop_rates::{run_hop_rate_study, HopRateStudy};
pub use model::{run_model_validation, ModelValidation};
pub use paths_taken::{run_paths_taken, PathsTakenCase};
