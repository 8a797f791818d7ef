//! # psn-forwarding
//!
//! Trace-driven forwarding simulator and forwarding algorithms for Pocket
//! Switched Networks — the experimental apparatus of §6 of "Diversity of
//! Forwarding Paths in Pocket Switched Networks" (Erramilli et al., 2007).
//!
//! The paper compares six forwarding algorithms chosen to span the design
//! space (destination aware vs. unaware, single-hop vs. multi-hop knowledge,
//! complete history vs. recent history vs. future knowledge):
//!
//! | Algorithm | Destination aware | Knowledge |
//! |---|---|---|
//! | Epidemic (flooding) | no | none |
//! | FRESH | yes | most recent encounter with the destination |
//! | Greedy | yes | number of past encounters with the destination |
//! | Greedy Total | no | total contacts over the whole trace (oracle) |
//! | Greedy Online | no | contacts observed so far |
//! | Dynamic Programming (MEED-style) | yes | expected pairwise delays over the whole trace (oracle) |
//!
//! All of them are implemented against the [`algorithm::ForwardingAlgorithm`]
//! trait and run in the slot-based [`simulator::Simulator`], which follows
//! the paper's methodology: infinite buffers, nodes keep every message they
//! receive until the end of the simulation, messages are generated as a
//! Poisson process (one per 4 seconds) during the first two hours of each
//! three-hour trace, and results are averaged over independent runs.
//! [`metrics`] computes the success rate and average delay of §4.1 plus the
//! per-pair-type breakdowns of Fig. 13, and [`pairtype`] classifies messages
//! by the contact-rate class of their endpoints.
//!
//! The simulator has two engines producing bit-identical outcomes: the
//! slot-major engine ([`simulator::Simulator::run`] /
//! [`simulator::Simulator::run_many`]), in which each worker lane walks the
//! busy slots once against one precomputed read-only
//! [`timeline::HistoryTimeline`], serving every message of every algorithm ×
//! run job at each slot and evaluating utility-representable algorithms via
//! [`algorithm::ForwardingAlgorithm::copy_utility`] tables, and the retained
//! serial sweep ([`simulator::Simulator::run_reference`]) that replays a
//! mutable [`history::ContactHistory`] — the behavioural baseline the
//! differential tests pin the slot-major engine to.
//! [`simulator::Simulator::run_batch`] lets a job that needs only delivery
//! times skip hop-path recording ([`simulator::Recording::DeliveryOnly`]).
//! See the [`simulator`] module docs for the design.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod algorithms;
pub mod history;
pub mod metrics;
pub mod oracle;
pub mod pairtype;
pub mod simulator;
pub mod timeline;

pub use algorithm::{ForwardingAlgorithm, ForwardingContext};
pub use algorithms::{standard_algorithms, AlgorithmKind};
pub use history::{ContactHistory, ContactKnowledge};
pub use metrics::{AlgorithmMetrics, MessageOutcome, PairTypeMetrics};
pub use oracle::TraceOracle;
pub use pairtype::{classify_message, PairType};
pub use simulator::{Recording, SimulationResult, Simulator, SimulatorConfig};
pub use timeline::{HistoryTimeline, HistoryView, TimelineBuilder};
