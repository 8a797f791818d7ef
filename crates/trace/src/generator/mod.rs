//! Synthetic contact-trace generators.
//!
//! The real iMote traces used by the paper are not redistributable, so this
//! module generates synthetic traces that reproduce the statistical
//! properties the paper's analysis rests on:
//!
//! 1. **Poisson pairwise contacts** — contact opportunities between a pair
//!    of nodes form a Poisson process ([`homogeneous`], the assumption of
//!    the paper's analytic model in §5.1).
//! 2. **Heterogeneous per-node contact rates** — per-node contact counts
//!    whose distribution is approximately uniform on `(0, max)`
//!    ([`heterogeneous`]), the key empirical observation of §5.2 (Fig. 7).
//! 3. **Conference structure** — a population of mobile participants plus
//!    stationary booth nodes, mild session/break modulation of aggregate
//!    activity and an optional end-of-window drop-off, matching the shape of
//!    Fig. 1 ([`conference`]).
//! 4. **Inquiry-scan observation** — an optional observation step that
//!    re-samples each continuous co-location interval at the iMotes'
//!    120-second inquiry granularity ([`scan`]).
//!
//! Two further families extend the paper's setting along the scenario axes
//! related work identifies as decisive for forwarding performance:
//!
//! 5. **Community structure** — nodes partitioned into communities with a
//!    configurable intra/inter contact-rate ratio ([`community`]);
//! 6. **Scaled populations** — 500–5000 nodes with the per-node rate
//!    structure preserved via propensity scaling, generated in
//!    `O(contacts · log N)` by sampling the aggregate superposition process
//!    ([`scaled`]).
//!
//! Each family is one deterministic random-number program (`program`):
//! a setup in the family's module, then its draws. The [`crate::scenario`]
//! module unifies every family behind one declarative, TOML/JSON-loadable
//! [`crate::scenario::ScenarioConfig`] type, whose `generate()` and
//! `stream()` run the same program, so every experiment and benchmark in
//! the workspace is reproducible from a seed.

pub mod community;
pub mod conference;
pub mod config;
pub mod heterogeneous;
pub mod homogeneous;
pub(crate) mod program;
pub mod sampling;
pub mod scaled;
pub mod scan;

pub use config::{
    ActivityProfile, CommunityConfig, ConferenceConfig, HeterogeneousConfig, HomogeneousConfig,
    ScaledConfig,
};
pub use scan::scan_observe;
