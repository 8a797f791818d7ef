//! # psn-spacetime
//!
//! Space-time graph construction and valid-path enumeration for Pocket
//! Switched Networks — the core machinery of "Diversity of Forwarding Paths
//! in Pocket Switched Networks" (Erramilli et al., 2007), §4.
//!
//! The paper studies the *solution space* a forwarding algorithm searches:
//! for a message `(σ, δ, t₁)`, which time-respecting paths exist from the
//! source to the destination, and when does each reach the destination? To
//! answer that it:
//!
//! 1. discretizes time into Δ = 10 s slots and builds a **space-time graph**
//!    whose vertices are `(node, slot)` pairs, with zero-weight edges
//!    between nodes in contact during a slot and unit-weight edges from each
//!    node to itself in the next slot ([`graph::SpaceTimeGraph`]);
//! 2. defines **valid paths** — loop-free, respecting *minimal progress*
//!    (a node holding a message always delivers it when it meets the
//!    destination) and *first preference* ([`validity`]);
//! 3. enumerates, per message, the k shortest valid paths reaching each node
//!    per slot with a dynamic program ([`enumerate::PathEnumerator`],
//!    Fig. 3 of the paper), stopping once `k` paths reach the destination in
//!    a single slot;
//! 4. summarizes the result as the **path-explosion profile** of the
//!    message: the optimal delivery time T₁, the time Tₙ of the n-th path,
//!    the explosion time T₂₀₀₀ and the time-to-explosion TE = T₂₀₀₀ − T₁
//!    ([`explosion`]).
//!
//! The crate also provides a fast epidemic-delivery computation
//! ([`reachability`]) used as the optimal baseline by the forwarding
//! simulator, and the message model shared by all experiments
//! ([`message`]).
//!
//! ## The arena enumeration engine
//!
//! The enumerator stores in-flight paths in a parent-pointer [`arena`]
//! ([`PathArena`]) rather than as owned hop vectors. The design invariants:
//!
//! * **append-only** — arena entries are never mutated or freed while a
//!   message is being enumerated, so `u32` handles stay valid and path
//!   prefixes are shared structurally; extending a path is an O(1) push
//!   instead of an O(length) clone;
//! * **per-message lifetime** — the arena (inside an
//!   [`EnumerationScratch`]) is cleared between messages, and delivered
//!   paths are materialized to owned [`Path`]s (only up to the configured
//!   `stored_path_limit`) before the next message starts;
//! * **admit-then-extend** — paths are extended depth-major, the order in
//!   which each node's k-shortest selection ranks arrivals, so a node can
//!   admit or close each candidate exactly when it arrives. Only admitted
//!   candidates are put in the arena, and every one of them is kept. Each
//!   extended path's nodes are stamped into an epoch-stamped array by one
//!   parent walk, so loop avoidance is exact at any node count (see
//!   [`enumerate`]).
//!
//! [`SpaceTimeGraph`] precomputes per-slot component member lists and
//! active-node lists at build time, so the enumerator's hot loop borrows
//! slices instead of rescanning all nodes. The pre-arena algorithm is
//! retained as [`PathEnumerator::enumerate_reference`]; property tests
//! assert the two engines produce identical output, and the `enumeration`
//! Criterion bench (`cargo bench --bench enumeration`, see the `psn-bench`
//! crate) measures the speedup — use
//! `PSN_BENCH_MESSAGES=2 cargo bench --bench enumeration -- --quick` for a
//! smoke run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod enumerate;
pub mod explosion;
pub mod graph;
pub mod message;
pub mod path;
pub mod reachability;
pub mod validity;
pub mod windowed;

pub use arena::{PathArena, PathRef};
pub use enumerate::{EnumerationConfig, EnumerationResult, EnumerationScratch, PathEnumerator};
pub use explosion::{ExplosionProfile, ExplosionSummary, PATHS_FOR_EXPLOSION};
pub use graph::{Slot, SpaceTimeGraph, DEFAULT_DELTA};
pub use message::{Message, MessageGenerator, MessageWorkloadConfig};
pub use path::{Hop, Path};
pub use reachability::{epidemic_delivery_time, EpidemicOutcome};
pub use windowed::{
    stream_graph, GraphRef, IncrementalSlotter, MemorySpill, SharedGraph, SlotGuard, SlotSpill,
    SpillError, StreamBuildError, WindowedSpaceTimeGraph,
};
