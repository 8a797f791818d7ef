//! The trace-driven forwarding simulator.
//!
//! The simulator replays a contact trace slot by slot (the same Δ
//! discretization as the space-time graph, 10 s by default) and applies a
//! forwarding algorithm to every contact, following the paper's methodology
//! (§6.1):
//!
//! * nodes have infinite buffers and keep every message (copy) they receive
//!   until the end of the simulation;
//! * delivery respects minimal progress: whenever any node holding a copy is
//!   in contact with the destination, the message is delivered;
//! * within a slot, messages may traverse several contacts (the zero-weight
//!   multi-hop of the space-time graph): the simulator sweeps the slot's
//!   contacts until no more copies move, so Epidemic achieves exactly the
//!   optimal delivery times computed by [`psn_spacetime::reachability`];
//! * the algorithm's `should_forward` rule decides replication on every
//!   contact between a holder and a non-destination peer that lacks a copy.
//!
//! Besides delivery times the simulator records, per message, the hop path
//! along which the *first delivered copy* travelled, which the experiments
//! use for the per-hop contact-rate analyses (Figs. 14, 15) — unless the
//! job is [`Recording::DeliveryOnly`], for views that read only delivery
//! times.
//!
//! # Engines
//!
//! Two engines produce bit-identical [`MessageOutcome`]s (pinned by
//! differential tests):
//!
//! * [`Simulator::run`] / [`Simulator::run_many`] / [`Simulator::run_batch`]
//!   — the **slot-major engine**. Contact history depends only on the
//!   trace, so it is precomputed once as a shared read-only
//!   [`HistoryTimeline`], the engine's only slot input: busy slots, slot end
//!   times and each slot's edge list all come from it, so the engine holds
//!   no space-time graph. Each outcome is written once: before the work
//!   starts every job's result is filled with the undelivered outcome of
//!   each of its messages — what an undelivered message finishes as under
//!   either [`Recording`] — and each outcome slot is handed to exactly one
//!   of two kinds of job of one [`psn_fault::run_jobs`] pool, which writes
//!   a delivery into it:
//!   - **backward passes** answer the delivery-only messages of a
//!     destination-unaware group (see *Backward passes* below);
//!   - **lanes** take everything else. The remaining slots are dealt, as
//!     disjoint chunks of about a 64th of a lane's share (single messages
//!     in small batches), round-robin in job-major order to one lane per
//!     worker thread. Each lane walks [`HistoryTimeline::busy_slots`] once,
//!     in ascending order, serving every message of every job at each slot.
//!
//!   Within a lane:
//!   - a message sleeps in a per-slot wake list until one of its holders
//!     has a contact ([`HistoryTimeline::next_active_slot`]), so idle,
//!     delivered and not-yet-created messages cost nothing;
//!   - besides its outcome slot, a batch holds per message one record of
//!     its destination, group and holder bitmask; only a path-recording
//!     message also holds one provenance entry per node that received a
//!     copy;
//!   - exact actionability prechecks on the timeline's bitmasks decide
//!     whether a slot is swept at all; the per-node neighbor rows they
//!     read are one block per lane, rewritten at each busy slot from the
//!     timeline's edge list ([`HistoryTimeline::slot_edges`]), so no
//!     per-slot `O(n²)` state is kept anywhere;
//!   - after a message's first step, a slot carried over from the previous
//!     busy slot runs that precheck only if it brings the message something
//!     new: a holder starting an encounter
//!     ([`HistoryTimeline::start_mask`]), or a changed dynamic utility at a
//!     holder or a holder's neighbor. Otherwise the message already sits at
//!     the slot's fixpoint, and the step is a few word ANDs;
//!   - utilities are compared per message, on the holders' neighbors only:
//!     destination-unaware ones from one table per (lane, algorithm, slot),
//!     filled on first need (once per walk when static); destination-aware
//!     ones from one row per destination, filled on first need and
//!     refreshed each slot only at the destination's neighbours, which the
//!     `copy_utility` contract makes exact. The node → incident-edge
//!     bitmask the ordered sweep runs on is built at most once per (lane,
//!     slot) and dropped after the slot;
//!   - the sweep visits only holder-incident edges, in (pass, edge index,
//!     direction) order — the decision sequence of a full-pass rescan;
//!   - a delivery-only message runs no sweep at all: where the precheck
//!     says the slot acts, it jumps to the slot's order-free fixpoint — the
//!     same holder set, and a delivery in the same slot — records no
//!     provenance and finishes with no path.
//! * [`Simulator::run_reference`] — the original serial sweep retained as
//!   the behavioural baseline: one mutable [`ContactHistory`] advanced slot
//!   by slot, an `O(n)` adjacency rescan per slot of a space-time graph the
//!   caller passes in, and a global `O(messages × edges)` fixpoint sweep.
//!   Kept for differential testing, mirroring
//!   `PathEnumerator::enumerate_reference` from the enumeration engine; it
//!   reads neither the timeline nor its edge lists.
//!
//! The lanes agree with the reference because a message's copy-state
//! evolves under a deterministic function of (its own state, the slot's
//! edge list in normalized order, the read-only context), and messages
//! never interact: sweeping one message to its own fixpoint makes exactly
//! the same forwarding decisions as sweeping all messages to the global
//! fixpoint, in whatever order, on whichever lane.
//!
//! ## Backward passes
//!
//! Under a destination-unaware rule — Epidemic, Greedy Total and Greedy
//! Online in the paper — whether a copy moves from `h` to `p` in slot `t`
//! depends only on `(h, p, t)`. Let `C_t(v)` be the within-slot forwarding
//! closure of `v`: `v` plus every node a copy at `v` reaches through slot
//! `t`'s forwarding edges. Then a holder set `H` grows in slot `t` to the
//! **union** `⋃_{h∈H} C_t(h)`, and it delivers in `t` iff that union
//! touches a neighbour of the destination `d` (a closure through `d`
//! passes a neighbour of `d` first). Every later slot treats the grown set
//! the same way, so by induction the message's delivery slot is the
//! minimum, over its holders, of the delivery slot of a copy held by one
//! holder alone. That single-holder slot `D_t(v, d)`, for a copy at `v` at
//! the start of slot `t`, obeys a backward recurrence:
//!
//! `D_t(v, d) = t` if some node of `C_t(v)` neighbours `d` in `t`, else
//! `min_{w ∈ C_t(v)} D_{t+1}(w, d)`.
//!
//! A pass keeps `D` as a node × destination table of slot indices
//! (`u32::MAX` for never) and sweeps the busy slots once, descending: at each slot
//! every node next to a tracked destination takes that slot, then every
//! node takes the minimum over its closure — the components of the slot's
//! mutual forwarding edges (all of them, for Epidemic) plus a relaxation
//! of one-way edges to a fixpoint under a direct rule, or the
//! utility-increasing edges in descending order of the sender's utility
//! (a reverse topological order, so one pass suffices) under a
//! destination-unaware utility. A message created in slot `c` reads its
//! source's entry once the sweep has passed every slot from `c` on; the
//! sweep stops below the earliest creation slot. The holder set of a
//! message to its own source contains the destination; the recurrence
//! covers it unchanged. Destinations are processed in blocks of columns
//! (`PASS_TABLE_BYTES`: one block on paper-scale traces, 64 columns —
//! 4 MiB — at 16 384 nodes), each block one pool job.
//!
//! **Routing rule.** A group's delivery-only messages take the passes iff
//! its rule ignores the destination and its delivery-only message count
//! times the trace's node count reaches 2^17 (`takes_pass`). It reads only
//! what the batch shows: the algorithm's decision mode and the message and
//! node counts. A pass costs one sweep of the busy slots per block whatever
//! the message count, and a lane costs per message served, more on larger
//! traces; the threshold is fitted to where the pass overtook the lanes on
//! five traces of 98 to 1 000 nodes (`PASS_MIN_NODE_MESSAGES`). So the
//! paper workload (about 18 000 delivery-only messages per algorithm on 98
//! nodes) takes the pass and a few messages on a large trace (11 per
//! algorithm on 1 000 nodes) stay in the lanes. Path-recording jobs and
//! destination-aware groups always stay in the lanes: a pass yields
//! delivery times only.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

use psn_spacetime::{GraphRef, Hop, Message, Path, SharedGraph};
use psn_trace::stream::{slot_count, slot_end_time, slot_of_time};
use psn_trace::{ContactTrace, NodeId, Seconds, TimeWindow};

use crate::algorithm::{ForwardingAlgorithm, ForwardingContext};
use crate::history::ContactHistory;
use crate::metrics::MessageOutcome;
use crate::oracle::TraceOracle;
use crate::timeline::HistoryTimeline;

/// Configuration of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatorConfig {
    /// Slot length in seconds (the paper's Δ = 10 s).
    pub delta: Seconds,
    /// Worker threads (lanes) for the slot-major engine; `0` (the default)
    /// uses one per available core. The thread count never affects
    /// results — only wall-clock time.
    pub threads: usize,
}

impl Default for SimulatorConfig {
    fn default() -> Self {
        Self { delta: 10.0, threads: 0 }
    }
}

/// The result of simulating one algorithm over one trace and message set.
#[derive(Debug, Clone)]
pub struct SimulationResult {
    /// Name of the algorithm that produced the result.
    pub algorithm: String,
    /// Per-message outcomes, in the same order as the input messages.
    pub outcomes: Vec<MessageOutcome>,
}

impl SimulationResult {
    /// Number of simulated messages.
    pub fn message_count(&self) -> usize {
        self.outcomes.len()
    }
}

/// What a job of [`Simulator::run_batch`] records per message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recording {
    /// Delivery times and the hop path of the first delivered copy, as
    /// [`Simulator::run_reference`] records them.
    HopPaths,
    /// Delivery times only: every outcome's `path` is `None`. The engine
    /// skips the ordered sweep and jumps to each slot's order-free
    /// fixpoint, which yields the same delivery times — or, for a
    /// destination-unaware algorithm with enough such messages, answers
    /// them all with one backward pass (see the module's "Engines").
    DeliveryOnly,
}

/// Per-message, per-node copy state of the reference engine.
struct MessageState {
    /// Which nodes currently hold a copy.
    holders: Vec<bool>,
    /// How each holder obtained its copy: `(previous node, receive time)`;
    /// the source's entry is `None`.
    received_from: Vec<Option<(NodeId, Seconds)>>,
    /// Delivery time, once delivered.
    delivered_at: Option<Seconds>,
    /// The node that handed the delivered copy to the destination.
    delivered_by: Option<NodeId>,
    /// True once the creation slot has been reached and the source holds the
    /// message.
    active: bool,
}

impl MessageState {
    fn new(node_count: usize) -> Self {
        Self {
            holders: vec![false; node_count],
            received_from: vec![None; node_count],
            delivered_at: None,
            delivered_by: None,
            active: false,
        }
    }
}

/// How the slot-major engine evaluates one algorithm's forwarding
/// decisions, derived once per batch from
/// [`ForwardingAlgorithm::copy_utility`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DecisionMode {
    /// No utility decomposition: call `should_forward` per decision.
    Direct,
    /// Destination-unaware utilities: one table per slot, shared by every
    /// message of the algorithm. With `is_static` (utilities never consult
    /// the history) one table serves the whole walk.
    Shared {
        /// See [`ForwardingAlgorithm::utility_is_static`].
        is_static: bool,
    },
    /// Destination-aware utilities: one row per destination, filled on
    /// first need and then refreshed only for nodes that contact the
    /// destination (the `copy_utility` contract guarantees nothing else can
    /// change them). With `is_static` the per-slot refresh is skipped.
    PerDestination {
        /// See [`ForwardingAlgorithm::utility_is_static`].
        is_static: bool,
    },
}

/// Sets `node`'s bit in a node bitmask.
#[inline]
fn set_bit(mask: &mut [u64], node: NodeId) {
    mask[node.index() / 64] |= 1u64 << (node.index() % 64);
}

/// True iff `node`'s bit is set in a node bitmask.
#[inline]
fn has_bit(mask: &[u64], node: NodeId) -> bool {
    mask[node.index() / 64] >> (node.index() % 64) & 1 != 0
}

/// True iff two node bitmasks share a set bit; length mismatches treat the
/// missing tail as zero.
#[inline]
fn masks_intersect(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// The nodes whose bits are set in a bitmask given word by word, ascending.
#[inline]
fn nodes_of(words: impl IntoIterator<Item = u64>) -> impl Iterator<Item = NodeId> {
    words.into_iter().enumerate().flat_map(|(word, mut bits)| {
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let node = NodeId((word * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
                node
            })
        })
    })
}

/// One busy slot's edge list and activity, encounter-start and neighbor
/// bitmasks: all but the rows sliced out of the timeline, the rows
/// expanded by the lane ([`NeighborRows`]).
#[derive(Clone, Copy)]
struct SlotMasks<'t> {
    slot: usize,
    words: usize,
    /// [`HistoryTimeline::slot_edges`].
    edges: &'t [(NodeId, NodeId)],
    /// [`HistoryTimeline::active_mask`].
    active: &'t [u64],
    /// [`HistoryTimeline::start_mask`].
    starts: &'t [u64],
    /// Node-major neighbor rows of the slot, stride `words`: bit `p` of
    /// row `v` is set iff `(v, p)` share a contact edge in it.
    neighbors: &'t [u64],
}

impl<'t> SlotMasks<'t> {
    fn of(timeline: &'t HistoryTimeline, slot: usize, neighbors: &'t [u64]) -> Self {
        Self {
            slot,
            words: timeline.node_count().div_ceil(64),
            edges: timeline.slot_edges(slot),
            active: timeline.active_mask(slot),
            starts: timeline.start_mask(slot),
            neighbors,
        }
    }

    /// `node`'s neighbors in the slot.
    #[inline]
    fn of_node(&self, node: NodeId) -> &'t [u64] {
        &self.neighbors[node.index() * self.words..][..self.words]
    }
}

/// A lane's one `n × ⌈n/64⌉`-word block of per-node neighbor rows,
/// rewritten at each busy slot from [`HistoryTimeline::slot_edges`]: the
/// previous slot's bits are cleared edge by edge and the new slot's set, so
/// entering a slot costs `O(edges)`, not `O(n²)` bits, and the timeline
/// keeps no per-slot rows of its own.
struct NeighborRows<'t> {
    words: usize,
    rows: Vec<u64>,
    /// The edges whose bits `rows` holds.
    edges: &'t [(NodeId, NodeId)],
}

impl<'t> NeighborRows<'t> {
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        Self { words, rows: vec![0; n * words], edges: &[] }
    }

    /// Rewrites the rows to `slot`'s neighborhoods and returns them.
    fn enter(&mut self, timeline: &'t HistoryTimeline, slot: usize) -> &[u64] {
        let words = self.words;
        for &(a, b) in self.edges {
            self.rows[a.index() * words + b.index() / 64] = 0;
            self.rows[b.index() * words + a.index() / 64] = 0;
        }
        self.edges = timeline.slot_edges(slot);
        for &(a, b) in self.edges {
            self.rows[a.index() * words + b.index() / 64] |= 1u64 << (b.index() % 64);
            self.rows[b.index() * words + a.index() / 64] |= 1u64 << (a.index() % 64);
        }
        &self.rows
    }
}

/// The exact sweep-actionability precheck under a utility order (a
/// destination's row, or a destination-unaware slot table), run entirely
/// on the slot's per-node neighbor bitmasks:
/// true iff some holder sits next to the destination (delivery) or some
/// active holder has a strictly-higher-utility non-holder neighbor (a
/// forward). Only the holder's non-holder neighbors have their utilities
/// read at all.
fn utility_actionable(
    masks: &SlotMasks<'_>,
    held: &[u64],
    destination: NodeId,
    utilities: &[f64],
) -> bool {
    // Slot neighbors are mutual, so delivery is the destination's row
    // against the holder mask.
    if masks_intersect(masks.of_node(destination), held) {
        return true;
    }
    for (word, (&act, &h)) in masks.active.iter().zip(held).enumerate() {
        let mut bits = act & h;
        while bits != 0 {
            let holder = NodeId((word * 64) as u32 + bits.trailing_zeros());
            bits &= bits - 1;
            let own = utilities[holder.index()];
            for (peer_word, (&nb, &nb_held)) in masks.of_node(holder).iter().zip(held).enumerate() {
                let mut peers = nb & !nb_held;
                while peers != 0 {
                    let peer = peer_word * 64 + peers.trailing_zeros() as usize;
                    peers &= peers - 1;
                    if utilities[peer] > own {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// Indexes a slot's edges by endpoint: node-major rows of
/// `edges.len().div_ceil(64)` words in which bit `i` of row `v` is set iff
/// edge `i` touches `v`.
fn build_incidence(edges: &[(NodeId, NodeId)], n: usize, incidence: &mut Vec<u64>) {
    let edge_words = edges.len().div_ceil(64);
    incidence.clear();
    incidence.resize(n * edge_words, 0);
    for (i, &(a, b)) in edges.iter().enumerate() {
        let bit = 1u64 << (i % 64);
        incidence[a.index() * edge_words + i / 64] |= bit;
        incidence[b.index() * edge_words + i / 64] |= bit;
    }
}

/// One copy transfer: `to` received its copy from `from` during `slot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Move {
    to: NodeId,
    from: NodeId,
    slot: u32,
}

/// One slot's fixpoint sweep for one message; returns the node that handed
/// the copy to the destination, on delivery.
///
/// Event-driven, yet the same decision sequence as rescanning the slot's
/// normalized edge list until a pass moves no copy. That rescan decides
/// an (edge, direction) only where the sending endpoint holds a copy, and
/// a decision it already made with the sender holding cannot change in a
/// later pass (holders only grow, and `forward` is fixed within a slot).
/// So pass 0 visits every edge incident to a holder at the start of the
/// slot, and a node that receives a copy at edge `i` schedules its edges
/// after `i` into the current pass and those before `i` into the next;
/// each pass visits its edges in ascending index, both directions in
/// normalized order. `incidence` comes from [`build_incidence`];
/// `frontier` and `next` are scratch.
#[allow(clippy::too_many_arguments)]
#[inline]
fn sweep(
    edges: &[(NodeId, NodeId)],
    incidence: &[u64],
    held: &mut [u64],
    active: &[u64],
    destination: NodeId,
    slot: u32,
    moves: &mut Vec<Move>,
    frontier: &mut Vec<u64>,
    next: &mut Vec<u64>,
    mut forward: impl FnMut(NodeId, NodeId) -> bool,
) -> Option<NodeId> {
    let edge_words = edges.len().div_ceil(64);
    frontier.clear();
    frontier.resize(edge_words, 0);
    next.clear();
    next.resize(edge_words, 0);
    // Seed with the edges between a holder and a non-holder: only holders
    // active this slot have edges, and an edge with both ends holding
    // decides nothing unless the destination itself holds (a message to
    // its own source). `next` counts a second holder end meanwhile.
    for (word, (&act, &h)) in active.iter().zip(&*held).enumerate() {
        let mut bits = act & h;
        while bits != 0 {
            let v = word * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let row = &incidence[v * edge_words..][..edge_words];
            for ((once, twice), &r) in frontier.iter_mut().zip(next.iter_mut()).zip(row) {
                *twice |= *once & r;
                *once |= r;
            }
        }
    }
    if !has_bit(held, destination) {
        for (once, twice) in frontier.iter_mut().zip(next.iter()) {
            *once &= !twice;
        }
    }
    next.fill(0);
    loop {
        for word in 0..edge_words {
            let mut bits = std::mem::take(&mut frontier[word]);
            while bits != 0 {
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                let (a, b) = edges[word * 64 + bit as usize];
                for (from, to) in [(a, b), (b, a)] {
                    if !has_bit(held, from) {
                        continue;
                    }
                    if to == destination {
                        return Some(from);
                    }
                    if has_bit(held, to) || !forward(from, to) {
                        continue;
                    }
                    set_bit(held, to);
                    moves.push(Move { to, from, slot });
                    let row = &incidence[to.index() * edge_words..][..edge_words];
                    let below = (1u64 << bit) - 1;
                    bits |= row[word] & !below & !(1u64 << bit);
                    next[word] |= row[word] & below;
                    for k in 0..word {
                        next[k] |= row[k];
                    }
                    for k in word + 1..edge_words {
                        frontier[k] |= row[k];
                    }
                }
            }
        }
        if next.iter().all(|&w| w == 0) {
            return None;
        }
        // The finished pass left `frontier` empty.
        std::mem::swap(frontier, next);
    }
}

/// One slot's order-free fixpoint for a delivery-only message: grows
/// `held` by every node a holder reaches through the slot's forwarding
/// edges, and returns true iff the grown set neighbours the destination —
/// exactly when the ordered [`sweep`] delivers. `forward` is fixed within a
/// slot and holders only grow, so the order of the decisions changes only
/// who handed whom a copy, never the fixpoint; and a fixpoint that passes
/// through the destination already neighbours it, so the walk never enters
/// the destination and stops at the first holder next to it. A worklist
/// seeded with the active holders walks the lane's neighbor rows;
/// `worklist` is scratch.
fn fixpoint(
    masks: &SlotMasks<'_>,
    held: &mut [u64],
    destination: NodeId,
    worklist: &mut Vec<NodeId>,
    mut forward: impl FnMut(NodeId, NodeId) -> bool,
) -> bool {
    let target = masks.of_node(destination);
    if masks_intersect(target, held) {
        return true;
    }
    worklist.clear();
    worklist.extend(nodes_of(masks.active.iter().zip(&*held).map(|(act, h)| act & h)));
    while let Some(from) = worklist.pop() {
        for (word, &nb) in masks.of_node(from).iter().enumerate() {
            let mut peers = nb & !held[word];
            while peers != 0 {
                let to = NodeId((word * 64) as u32 + peers.trailing_zeros());
                peers &= peers - 1;
                if !forward(from, to) {
                    continue;
                }
                if has_bit(target, to) {
                    return true;
                }
                set_bit(held, to);
                worklist.push(to);
            }
        }
    }
    false
}

/// One group's step counters over a batch. In the lanes: messages served,
/// how many of those steps ran the exact precheck rather than the change
/// test alone, and how many ran the ordered sweep and how many copy moves
/// it recorded. In the backward passes ([`Pass`]): messages answered, and
/// the busy slots and contact edges swept, summed over column blocks.
#[derive(Debug, Clone, Copy, Default)]
struct StepCounts {
    visits: u64,
    prechecks: u64,
    sweeps: u64,
    moves: u64,
    pass_messages: u64,
    pass_slots: u64,
    pass_edges: u64,
}

impl std::ops::AddAssign for StepCounts {
    fn add_assign(&mut self, other: Self) {
        self.visits += other.visits;
        self.prechecks += other.prechecks;
        self.sweeps += other.sweeps;
        self.moves += other.moves;
        self.pass_messages += other.pass_messages;
        self.pass_slots += other.pass_slots;
        self.pass_edges += other.pass_edges;
    }
}

/// One algorithm of a `run_many` batch, with a lane's tables for it. Jobs
/// that run the same algorithm object share a group: every table is a
/// function of (algorithm, slot[, destination]) alone.
struct Group<'a> {
    algorithm: &'a dyn ForwardingAlgorithm,
    mode: DecisionMode,
    /// See [`ForwardingAlgorithm::utility_requires_destination_contact`]:
    /// a slot in which no node that ever meets the destination is active
    /// cannot matter to the message.
    gated: bool,
    /// Destination-unaware utilities at `utilities_slot` (for a static
    /// algorithm, at every slot).
    utilities: Vec<f64>,
    /// The slot dynamic destination-unaware `utilities` were filled at.
    utilities_slot: Option<usize>,
    /// Destination-aware utility rows, indexed by destination; empty until
    /// a message to that destination first needs it.
    rows: Vec<Vec<f64>>,
    /// Bitmask of the destinations with a filled row.
    filled: Vec<u64>,
    /// Dynamic destination-unaware utilities: the nodes a change can matter
    /// to at `utilities_slot` — those whose utility changed since the
    /// previous slot, plus their neighbors in this one. See
    /// [`Group::brings_news`].
    touched: Vec<u64>,
    /// Dynamic destination-aware rows: the same bitmask per filled
    /// destination for the current slot, allocated with the row and
    /// nonzero only for the destinations in `touched_rows`.
    row_touched: Vec<Vec<u64>>,
    /// Bitmask of the destinations whose row changed in the current slot:
    /// the `row_touched` entries the next refresh clears.
    touched_rows: Vec<u64>,
    counts: StepCounts,
}

impl<'a> Group<'a> {
    fn new(algorithm: &'a dyn ForwardingAlgorithm, mode: DecisionMode, n: usize) -> Self {
        let words = n.div_ceil(64);
        Self {
            algorithm,
            mode,
            gated: matches!(mode, DecisionMode::PerDestination { .. })
                && algorithm.utility_requires_destination_contact(),
            utilities: Vec::new(),
            utilities_slot: None,
            rows: if matches!(mode, DecisionMode::PerDestination { .. }) {
                vec![Vec::new(); n]
            } else {
                Vec::new()
            },
            filled: vec![0; words],
            touched: if mode == (DecisionMode::Shared { is_static: false }) {
                vec![0; words]
            } else {
                Vec::new()
            },
            row_touched: if mode == (DecisionMode::PerDestination { is_static: false }) {
                vec![Vec::new(); n]
            } else {
                Vec::new()
            },
            touched_rows: vec![0; words],
            counts: StepCounts::default(),
        }
    }

    /// `copy_utility` of every node at `ctx`'s slot.
    fn fill(&self, ctx: &ForwardingContext<'_>, n: usize, destination: NodeId) -> Vec<f64> {
        (0..n as u32)
            .map(|v| {
                self.algorithm
                    .copy_utility(ctx, NodeId(v), destination)
                    .unwrap_or_else(|| unreachable!("copy_utility is uniformly Some"))
            })
            .collect()
    }

    /// Brings every filled destination row up to date at `masks.slot`: a
    /// destination-aware utility changes only where the node meets the
    /// destination, so only the destination's neighbors are re-evaluated.
    /// Notes in `row_touched` each entry whose value changed, with its
    /// neighbors.
    fn refresh_rows(&mut self, masks: &SlotMasks<'_>, ctx: &ForwardingContext<'_>) {
        if self.mode != (DecisionMode::PerDestination { is_static: false }) {
            return;
        }
        for d in nodes_of(self.touched_rows.iter().copied()) {
            self.row_touched[d.index()].fill(0);
        }
        self.touched_rows.fill(0);
        for d in nodes_of(masks.active.iter().zip(&self.filled).map(|(act, f)| act & f)) {
            let row = &mut self.rows[d.index()];
            let touched = &mut self.row_touched[d.index()];
            for p in nodes_of(masks.of_node(d).iter().copied()) {
                let utility = self
                    .algorithm
                    .copy_utility(ctx, p, d)
                    .unwrap_or_else(|| unreachable!("copy_utility is uniformly Some"));
                if std::mem::replace(&mut row[p.index()], utility) != utility {
                    touch(touched, masks, p);
                    set_bit(&mut self.touched_rows, d);
                }
            }
        }
    }

    /// Brings the destination-unaware utilities up to `masks.slot`: filled
    /// once for a static algorithm; for a dynamic one at most once per
    /// slot, noting in `touched` every node whose utility changed since the
    /// fill at `slot − 1`, with its neighbors — or every node, when the
    /// previous fill is older.
    fn fill_shared(
        &mut self,
        ctx: &ForwardingContext<'_>,
        masks: &SlotMasks<'_>,
        n: usize,
        destination: NodeId,
    ) {
        match self.mode {
            DecisionMode::Shared { is_static: true } if self.utilities.is_empty() => {
                self.utilities = self.fill(ctx, n, destination);
            }
            DecisionMode::Shared { is_static: false }
                if self.utilities_slot != Some(masks.slot) =>
            {
                let fresh = self.fill(ctx, n, destination);
                if self.utilities_slot.is_some_and(|s| s + 1 == masks.slot) {
                    self.touched.fill(0);
                    for (v, (old, new)) in self.utilities.iter().zip(&fresh).enumerate() {
                        if old != new {
                            touch(&mut self.touched, masks, NodeId(v as u32));
                        }
                    }
                } else {
                    self.touched.fill(!0);
                }
                self.utilities = fresh;
                self.utilities_slot = Some(masks.slot);
            }
            _ => {}
        }
    }

    /// The change test that stands in for the exact precheck once a
    /// message has had its first step: true iff slot `masks.slot` brings a
    /// message of this group (holder mask `held`) something new — a holder
    /// starts an encounter, or (dynamic utilities) a utility changed at a
    /// holder or at a holder's neighbor. Destination-unaware tables must
    /// have been brought to the slot by [`Group::fill_shared`].
    ///
    /// When it is false the exact precheck would reject the slot too:
    ///
    /// * **A step leaves a fixpoint.** After a non-delivering step at
    ///   `s − 1` the message sits at that slot's fixpoint: no edge from a
    ///   holder reaches the destination or a non-holder of strictly higher
    ///   utility. An edge that continues into `s` (same pair, consecutive
    ///   slots) with an unchanged utility at both ends therefore still
    ///   cannot act, and copies move only along holder-incident edges. So
    ///   only a new edge (trigger i: its holder end is in the slot's
    ///   encounter-start mask) or a changed utility at either end of a
    ///   continuing one (triggers ii and iii: the changed node or its
    ///   neighbor is a holder) can make the slot actionable; static
    ///   utilities never change.
    /// * **A message not served at `s − 1` gets the full precheck.** The
    ///   lane serves a message at every busy slot where a holder is active,
    ///   so one woken from a wake list (rather than carried over from the
    ///   previous busy slot) had no active holder at `s − 1`, and every
    ///   holder edge at `s` is new; its first step has no previous fixpoint
    ///   at all. [`Lane::step`] runs the exact precheck for both.
    /// * **A destination row filled late is covered by the ever-met
    ///   gate.** Row changes are noted only for rows filled before the
    ///   slot. A destination-aware utility changes only at the
    ///   destination's neighbors; a holder there has a new edge to the
    ///   destination (a continuing one would have delivered at `s − 1`).
    ///   So take a continuing edge `(h, x)` whose `x` meets the
    ///   destination at `s`. At the first slot of the edge's run by whose
    ///   end `h` held the copy, the message took the exact precheck (its
    ///   first step, a wake, a new edge, or `h` receiving its copy in a
    ///   sweep) with `x` active. `x` is in the destination's ever-met mask,
    ///   so even a gated precheck
    ///   ([`ForwardingAlgorithm::utility_requires_destination_contact`])
    ///   passed the gate and filled the row then, before `s`.
    fn brings_news(&self, masks: &SlotMasks<'_>, held: &[u64], destination: NodeId) -> bool {
        masks_intersect(masks.starts, held)
            || match self.mode {
                DecisionMode::Direct => true,
                DecisionMode::Shared { is_static: true }
                | DecisionMode::PerDestination { is_static: true } => false,
                DecisionMode::Shared { is_static: false } => masks_intersect(&self.touched, held),
                DecisionMode::PerDestination { is_static: false } => {
                    masks_intersect(&self.row_touched[destination.index()], held)
                }
            }
    }

    /// The destination's utility row, exact at the current slot.
    fn row(&mut self, ctx: &ForwardingContext<'_>, n: usize, destination: NodeId) -> &[f64] {
        if self.rows[destination.index()].is_empty() {
            self.rows[destination.index()] = self.fill(ctx, n, destination);
            set_bit(&mut self.filled, destination);
            if let Some(touched) = self.row_touched.get_mut(destination.index()) {
                *touched = vec![0; n.div_ceil(64)];
            }
        }
        &self.rows[destination.index()]
    }
}

/// Marks `node` and its neighbors in the slot in a node bitmask.
#[inline]
fn touch(touched: &mut [u64], masks: &SlotMasks<'_>, node: NodeId) {
    set_bit(touched, node);
    for (t, &nb) in touched.iter_mut().zip(masks.of_node(node)) {
        *t |= nb;
    }
}

/// A chunk of one job's outcome slots, dealt to a lane (or, before
/// [`deal`], the whole job): each slot holds its message's undelivered
/// outcome until the lane delivers it.
struct Dealt<'r> {
    outcomes: &'r mut [MessageOutcome],
    group: usize,
    /// The job records hop paths ([`Recording::HopPaths`]).
    paths: bool,
}

/// Messages per dealt chunk: about [`CHUNKS_PER_LANE`] chunks per lane, so
/// uneven jobs still spread evenly, and single messages for small batches,
/// which deals them exactly like a message-by-message round robin.
fn chunk_len(total: usize, lanes: usize) -> usize {
    (total / (lanes.max(1) * CHUNKS_PER_LANE)).max(1)
}

/// See [`chunk_len`].
const CHUNKS_PER_LANE: usize = 64;

/// One result per job, each holding the undelivered outcome of every
/// message: what an undelivered message finishes as under either
/// [`Recording`], and the placeholder a lane overwrites on delivery.
fn undelivered(
    jobs: &[(&dyn ForwardingAlgorithm, &[Message], Recording)],
) -> Vec<SimulationResult> {
    jobs.iter()
        .map(|&(algorithm, messages, _)| SimulationResult {
            algorithm: algorithm.name().to_string(),
            outcomes: messages
                .iter()
                .map(|&message| MessageOutcome { message, delivered_at: None, path: None })
                .collect(),
        })
        .collect()
}

/// Deals the outcome slots of the lanes' jobs, each whole, to `lanes`
/// lanes as disjoint chunks of at most [`chunk_len`] slots, round-robin in
/// job-major order.
fn deal(jobs: Vec<Dealt<'_>>, lanes: usize) -> Vec<Vec<Dealt<'_>>> {
    let total = jobs.iter().map(|job| job.outcomes.len()).sum();
    let chunk = chunk_len(total, lanes);
    let mut dealt: Vec<Vec<Dealt<'_>>> = (0..lanes).map(|_| Vec::new()).collect();
    let chunks = jobs.into_iter().flat_map(|Dealt { outcomes, group, paths }| {
        outcomes.chunks_mut(chunk).map(move |outcomes| Dealt { outcomes, group, paths })
    });
    for (i, chunk) in chunks.enumerate() {
        dealt[i % lanes].push(chunk);
    }
    dealt
}

/// The entry of a [`Pass`] table from which no delivery is reachable.
const NEVER: u32 = u32::MAX;

/// The bytes a [`Pass`] table may take before its destinations are split
/// into blocks of columns: 4 MiB, but never fewer than 64 columns — one
/// block of every destination on paper-scale traces, 64 columns at
/// [`psn_trace::scenario::MAX_NODES`].
const PASS_TABLE_BYTES: usize = 4 << 20;

/// Destination columns per [`Pass`] block on `n` nodes.
fn pass_columns(n: usize) -> usize {
    (PASS_TABLE_BYTES / (n.max(1) * std::mem::size_of::<u32>())).max(64)
}

/// The routing rule's threshold on a group's delivery-only messages times
/// the trace's node count (see [`takes_pass`]).
///
/// Fitted to single-threaded runs of the forwarding study (views that read
/// delivery times only) with every destination-unaware group forced onto
/// one engine and then the other, on five traces. The pass overtook the
/// lanes at about 5 000 messages per group on the 98-node conference
/// (Infocom-like) trace, 1 700 on the 100-node community trace, under
/// 1 743 on the 98-node homogeneous trace, 430 on a 300-node and 150–200
/// on the 1 000-node scaled trace: products of messages and nodes of at
/// most about 200 000 on four traces (128 000 on the 300-node one) and
/// 490 000 on the fifth. Below
/// the threshold the lanes' cost per message stays under the pass's fixed
/// sweep; above it the lanes fall behind without bound (2.9 times the
/// pass's time at 4 854 messages on 1 000 nodes), so where the traces
/// disagree the threshold leans to the pass.
const PASS_MIN_NODE_MESSAGES: usize = 1 << 17;

/// The routing rule: a group's delivery-only messages take the backward
/// [`Pass`] instead of the lanes iff its forwarding rule ignores the
/// destination — a destination-unaware utility ([`DecisionMode::Shared`])
/// or a direct rule that is not [`ForwardingAlgorithm::destination_aware`]
/// — and its `load` of delivery-only messages times the node count `n`
/// reaches `threshold` ([`PASS_MIN_NODE_MESSAGES`] outside tests). A pass
/// costs a fixed sweep of the busy slots per block of destinations,
/// whatever the message count; a lane pays per message served, more per
/// message the more nodes there are. So the paper workload (about 18 000
/// messages per group over ten runs, on 98 nodes) takes the pass, and 11
/// messages per group on 1 000 nodes stay in the lanes.
fn takes_pass(
    algorithm: &dyn ForwardingAlgorithm,
    mode: DecisionMode,
    load: usize,
    n: usize,
    threshold: usize,
) -> bool {
    let unaware = match mode {
        DecisionMode::Shared { .. } => true,
        DecisionMode::Direct => !algorithm.destination_aware(),
        DecisionMode::PerDestination { .. } => false,
    };
    unaware && load > 0 && load.saturating_mul(n) >= threshold
}

/// One backward delivery-time pass: the delivery-only messages of a
/// destination-unaware group whose destinations fall in one block of
/// columns. It walks the busy slots once, descending, over a node ×
/// destination table of earliest delivery slots — see the module's
/// "Engines" section for why that is exact.
struct Pass<'r> {
    group: usize,
    /// The block's destinations, ascending: column `c` tracks `columns[c]`.
    columns: Vec<NodeId>,
    /// The outcome slots of the block's messages.
    outcomes: Vec<&'r mut MessageOutcome>,
}

/// Splits a pass group's delivery-only jobs into [`Pass`] blocks of at
/// most [`pass_columns`] destinations each.
fn plan_passes<'r>(group: usize, jobs: Vec<&'r mut [MessageOutcome]>, n: usize) -> Vec<Pass<'r>> {
    let mut seen = vec![0u64; n.div_ceil(64)];
    for outcome in jobs.iter().flat_map(|outcomes| outcomes.iter()) {
        set_bit(&mut seen, outcome.message.destination);
    }
    let destinations: Vec<NodeId> = nodes_of(seen).collect();
    let width = pass_columns(n);
    let mut block_of = vec![0; n];
    for (rank, destination) in destinations.iter().enumerate() {
        block_of[destination.index()] = rank / width;
    }
    let mut passes: Vec<Pass<'r>> = destinations
        .chunks(width)
        .map(|columns| Pass { group, columns: columns.to_vec(), outcomes: Vec::new() })
        .collect();
    for outcome in jobs.into_iter().flatten() {
        passes[block_of[outcome.message.destination.index()]].outcomes.push(outcome);
    }
    passes
}

/// Lowers row `into` of a node-major table of `cols`-wide rows to its
/// column-wise minimum with row `from`; true iff some entry fell.
#[inline]
fn min_into(table: &mut [u32], cols: usize, into: NodeId, from: NodeId) -> bool {
    let (i, f) = (into.index() * cols, from.index() * cols);
    let (into, from) = if i < f {
        let (low, high) = table.split_at_mut(f);
        (&mut low[i..i + cols], &high[..cols])
    } else {
        let (low, high) = table.split_at_mut(i);
        (&mut high[..cols], &low[f..f + cols])
    };
    let mut fell = false;
    for (entry, &other) in into.iter_mut().zip(from) {
        fell |= other < *entry;
        *entry = (*entry).min(other);
    }
    fell
}

/// Lowers every node's row to the minimum over its within-slot closure
/// under a destination-unaware utility order: a copy moves from `lo` to a
/// neighbor `hi` iff `u(hi) > u(lo)`. The utility-increasing edges run in
/// descending order of their sending end's utility — a reverse
/// topological order — so when row `lo` takes row `hi`'s minimum, every
/// edge out of `hi` (whose sending utility `u(hi)` is higher) has already
/// run and row `hi` is final. `directed` is scratch.
///
/// [`direct_closure_min`] with `forward = u(to) > u(from)` reaches the same
/// minima by relaxing every edge until nothing falls, round after round.
/// Run that way instead, the forwarding-paper benchmark's `study_s` rose
/// from 0.139 to 0.180 s (medians of 8 single-threaded runs, higher in
/// every run).
fn utility_closure_min(
    table: &mut [u32],
    cols: usize,
    edges: &[(NodeId, NodeId)],
    utilities: &[f64],
    directed: &mut Vec<(f64, NodeId, NodeId)>,
) {
    directed.clear();
    for &(a, b) in edges {
        let (ua, ub) = (utilities[a.index()], utilities[b.index()]);
        if ua > ub {
            directed.push((ub, b, a));
        } else if ub > ua {
            directed.push((ua, a, b));
        }
    }
    directed.sort_by(|x, y| y.0.total_cmp(&x.0));
    for &(_, lo, hi) in directed.iter() {
        min_into(table, cols, lo, hi);
    }
}

/// The root of `v`'s set in a union-find forest, halving the path.
fn find(parent: &mut [u32], mut v: u32) -> u32 {
    while parent[v as usize] != v {
        let up = parent[parent[v as usize] as usize];
        parent[v as usize] = up;
        v = up;
    }
    v
}

/// Lowers every node's row to the minimum over its within-slot closure
/// under a direct rule, `forward(from, to)`: the edges that forward both
/// ways join components, whose members share one minimum, and the one-way
/// edges relax until no entry falls (Epidemic has none, so one round
/// does). `active` holds every edge endpoint; `parent` is a union-find
/// forest that maps every node to itself on entry and again on return,
/// and `one_way` is scratch.
fn direct_closure_min(
    table: &mut [u32],
    cols: usize,
    edges: &[(NodeId, NodeId)],
    active: &[u64],
    mut forward: impl FnMut(NodeId, NodeId) -> bool,
    parent: &mut [u32],
    one_way: &mut Vec<(NodeId, NodeId)>,
) {
    one_way.clear();
    for &(a, b) in edges {
        match (forward(a, b), forward(b, a)) {
            (true, true) => {
                let (ra, rb) = (find(parent, a.0), find(parent, b.0));
                parent[ra.max(rb) as usize] = ra.min(rb);
            }
            (true, false) => one_way.push((a, b)),
            (false, true) => one_way.push((b, a)),
            (false, false) => {}
        }
    }
    let active = || nodes_of(active.iter().copied());
    loop {
        for v in active() {
            let root = find(parent, v.0);
            if root != v.0 {
                min_into(table, cols, NodeId(root), v);
            }
        }
        for v in active() {
            let root = find(parent, v.0) as usize;
            if root != v.index() {
                table.copy_within(root * cols..(root + 1) * cols, v.index() * cols);
            }
        }
        let mut fell = false;
        for &(from, to) in one_way.iter() {
            fell |= min_into(table, cols, from, to);
        }
        if !fell {
            break;
        }
    }
    for v in active() {
        parent[v.index()] = v.0;
    }
}

impl Pass<'_> {
    /// Sweeps the busy slots once, descending, and writes each message's
    /// delivery into its outcome slot. Returns the group's pass counters.
    fn run(
        self,
        sim: &Simulator,
        algorithm: &dyn ForwardingAlgorithm,
        mode: DecisionMode,
        busy: &[usize],
        stopping: &AtomicBool,
    ) -> StepCounts {
        let timeline = &*sim.timeline;
        let n = sim.node_count;
        let cols = self.columns.len();
        let mut column_of = vec![NEVER; n];
        for (c, destination) in self.columns.iter().enumerate() {
            column_of[destination.index()] = c as u32;
        }
        // Latest-created first: the sweep answers a message once it has
        // passed every slot from the message's creation on.
        let mut messages: Vec<(usize, &mut MessageOutcome)> = self
            .outcomes
            .into_iter()
            .map(|outcome| {
                (slot_of_time(sim.window, sim.config.delta, outcome.message.created_at), outcome)
            })
            .collect();
        messages.sort_by_key(|&(created, _)| std::cmp::Reverse(created));
        let mut counts =
            StepCounts { pass_messages: messages.len() as u64, ..StepCounts::default() };
        // Row `v`, column `c`: the earliest slot, among those swept, in
        // which a copy held by `v` alone at that slot's start reaches
        // `columns[c]`.
        let mut table = vec![NEVER; n * cols];
        let answer = |table: &[u32], (_, outcome): &mut (usize, &mut MessageOutcome)| {
            let message = outcome.message;
            let column = column_of[message.destination.index()] as usize;
            let slot = table[message.source.index() * cols + column];
            if slot != NEVER {
                outcome.delivered_at = Some(timeline.slot_end_time(slot as usize));
            }
        };
        let mut utilities: Vec<f64> = Vec::new();
        let mut directed = Vec::new();
        let mut parent: Vec<u32> = (0..n as u32).collect();
        let mut one_way = Vec::new();
        let mut answered = 0;
        for &slot in busy.iter().rev() {
            // relaxed: advisory stop flag; a stale read only costs one more slot.
            if stopping.load(Ordering::Relaxed) {
                return counts;
            }
            while let Some(message) = messages.get_mut(answered).filter(|(c, _)| *c > slot) {
                answer(&table, message);
                answered += 1;
            }
            if answered == messages.len() {
                break;
            }
            let edges = timeline.slot_edges(slot);
            counts.pass_slots += 1;
            counts.pass_edges += edges.len() as u64;
            // A holder next to a tracked destination delivers in the slot.
            for &(a, b) in edges {
                for (holder, peer) in [(a, b), (b, a)] {
                    let c = column_of[peer.index()];
                    if c != NEVER {
                        table[holder.index() * cols + c as usize] = slot as u32;
                    }
                }
            }
            let view = timeline.at_slot(slot);
            let ctx = ForwardingContext {
                history: &view,
                oracle: &sim.oracle,
                now: timeline.slot_end_time(slot),
            };
            let active = timeline.active_mask(slot);
            // A destination-unaware rule ignores the destination; each
            // call names the deciding node's own, which no contract
            // forbids.
            match mode {
                DecisionMode::Shared { is_static } => {
                    let utility = |v: NodeId| {
                        algorithm
                            .copy_utility(&ctx, v, v)
                            .unwrap_or_else(|| unreachable!("copy_utility is uniformly Some"))
                    };
                    // Only the slot's edge endpoints are read.
                    if !is_static {
                        utilities.resize(n, 0.0);
                        for v in nodes_of(active.iter().copied()) {
                            utilities[v.index()] = utility(v);
                        }
                    } else if utilities.is_empty() {
                        utilities = (0..n as u32).map(|v| utility(NodeId(v))).collect();
                    }
                    utility_closure_min(&mut table, cols, edges, &utilities, &mut directed);
                }
                DecisionMode::Direct => direct_closure_min(
                    &mut table,
                    cols,
                    edges,
                    active,
                    |from, to| algorithm.should_forward(&ctx, from, to, from),
                    &mut parent,
                    &mut one_way,
                ),
                DecisionMode::PerDestination { .. } => {
                    unreachable!("destination-aware groups stay in the lanes")
                }
            }
        }
        for message in &mut messages[answered..] {
            answer(&table, message);
        }
        counts
    }
}

/// One worker's share of a `run_many` batch and its single ascending walk
/// over the busy slots. Per-message state lives in parallel arrays indexed
/// by lane message, and each slot serves its due messages in ascending
/// index, so the walk streams through that state. The path-recording
/// messages come first, so message `m` records hop paths iff `m < paths`.
struct Lane<'a, 'r> {
    sim: &'a Simulator,
    n: usize,
    words: usize,
    groups: Vec<Group<'a>>,
    /// The dealt outcome slots, each chunk with the lane index of its
    /// first message, ascending: a delivery is written into its slot.
    chunks: Vec<(usize, &'r mut [MessageOutcome])>,
    /// The number of path-recording messages.
    paths: usize,
    /// What a step reads of every message, in one record of `1 + words`
    /// words: the destination (low half) and group (high half), then the
    /// holder bitmask.
    state: Vec<u64>,
    /// Provenance of every copy a live path-recording message has moved,
    /// one list per path-recording message.
    moves: Vec<Vec<Move>>,
    /// Bitmask over messages: due at the current slot.
    due: Vec<u64>,
    /// Bitmask over messages: due at the next busy slot.
    due_next: Vec<u64>,
    /// Bitmask over messages: due at the current slot through its wake
    /// list, so the exact precheck runs (see [`Group::brings_news`]).
    woken: Vec<u64>,
    /// Per slot: the messages to wake there, beyond the next busy slot.
    wake: Vec<Vec<u32>>,
    /// [`build_incidence`] of slot `indexed`, built on the slot's first
    /// sweep.
    incidence: Vec<u64>,
    indexed: Option<usize>,
    frontier: Vec<u64>,
    next: Vec<u64>,
    /// [`fixpoint`] scratch.
    worklist: Vec<NodeId>,
}

impl<'a, 'r> Lane<'a, 'r> {
    /// Takes a lane's dealt chunks, path-recording ones first, and
    /// schedules each message at the first slot from its creation where
    /// its source has a contact; a message whose source never has one
    /// keeps its undelivered outcome.
    fn new(
        sim: &'a Simulator,
        mut dealt: Vec<Dealt<'r>>,
        groups: &[(&'a dyn ForwardingAlgorithm, DecisionMode)],
    ) -> Self {
        let timeline = &*sim.timeline;
        let n = sim.node_count;
        let words = n.div_ceil(64);
        dealt.sort_by_key(|chunk| !chunk.paths);
        let paths =
            dealt.iter().filter(|chunk| chunk.paths).map(|chunk| chunk.outcomes.len()).sum();
        let count: usize = dealt.iter().map(|chunk| chunk.outcomes.len()).sum();
        let mut state = vec![0; count * (1 + words)];
        let mut wake = vec![Vec::new(); timeline.slot_count()];
        let mut records = state.chunks_exact_mut(1 + words);
        let mut chunks = Vec::with_capacity(dealt.len());
        let mut first = 0;
        for Dealt { outcomes, group, .. } in dealt {
            for (m, (outcome, record)) in outcomes.iter().zip(&mut records).enumerate() {
                let message = &outcome.message;
                record[0] = u64::from(message.destination.0) | (group as u64) << 32;
                set_bit(&mut record[1..], message.source);
                let created = slot_of_time(sim.window, sim.config.delta, message.created_at);
                if let Some(slot) = timeline.next_active_slot(message.source, created) {
                    wake[slot].push((first + m) as u32);
                }
            }
            let len = outcomes.len();
            chunks.push((first, outcomes));
            first += len;
        }
        Self {
            sim,
            n,
            words,
            groups: groups
                .iter()
                .map(|&(algorithm, mode)| Group::new(algorithm, mode, n))
                .collect(),
            chunks,
            paths,
            state,
            moves: vec![Vec::new(); paths],
            due: vec![0; count.div_ceil(64)],
            due_next: vec![0; count.div_ceil(64)],
            woken: vec![0; count.div_ceil(64)],
            wake,
            incidence: Vec::new(),
            indexed: None,
            frontier: Vec::new(),
            next: Vec::new(),
            worklist: Vec::new(),
        }
    }

    /// Walks the busy slots once, writing each delivery into its outcome
    /// slot (only those made before the pool started `stopping`), and
    /// returns each group's step counters.
    fn run(mut self, busy: &[usize], stopping: &AtomicBool) -> Vec<StepCounts> {
        let timeline = &*self.sim.timeline;
        let mut neighbors = NeighborRows::new(self.n);
        for (cursor, &slot) in busy.iter().enumerate() {
            // relaxed: advisory stop flag; a stale read only costs one more slot.
            if stopping.load(Ordering::Relaxed) {
                break;
            }
            let view = timeline.at_slot(slot);
            let ctx = ForwardingContext {
                history: &view,
                oracle: &self.sim.oracle,
                now: timeline.slot_end_time(slot),
            };
            let masks = SlotMasks::of(timeline, slot, neighbors.enter(timeline, slot));
            for group in &mut self.groups {
                group.refresh_rows(&masks, &ctx);
            }
            std::mem::swap(&mut self.due, &mut self.due_next);
            for m in std::mem::take(&mut self.wake[slot]) {
                self.due[m as usize / 64] |= 1u64 << (m % 64);
                self.woken[m as usize / 64] |= 1u64 << (m % 64);
            }
            let next_active = busy.get(cursor + 1).map_or(&[][..], |&s| timeline.active_mask(s));
            for word in 0..self.due.len() {
                let mut bits = std::mem::take(&mut self.due[word]);
                let woken = std::mem::take(&mut self.woken[word]);
                while bits != 0 {
                    let bit = bits.trailing_zeros();
                    bits &= bits - 1;
                    let m = word * 64 + bit as usize;
                    self.step(m, woken >> bit & 1 != 0, &masks, next_active, &ctx);
                }
            }
        }
        self.groups.iter().map(|group| group.counts).collect()
    }

    /// Serves message `m` at `masks.slot`, where one of its holders has a
    /// contact: if the precheck says a copy can move, sweeps the slot (a
    /// path-recording message) or jumps to its [`fixpoint`] (a
    /// delivery-only one), then finishes the message or schedules its next
    /// wake. A message carried over from the previous busy slot (not
    /// `woken`) gets the exact precheck only if [`Group::brings_news`] says
    /// the slot can change its answer.
    fn step(
        &mut self,
        m: usize,
        woken: bool,
        masks: &SlotMasks<'_>,
        next_active: &[u64],
        ctx: &ForwardingContext<'_>,
    ) {
        let slot = masks.slot;
        let paths = m < self.paths;
        let Lane {
            sim,
            n,
            words,
            groups,
            state,
            moves,
            incidence,
            indexed,
            frontier,
            next,
            worklist,
            ..
        } = &mut *self;
        let (n, words) = (*n, *words);
        let timeline = &*sim.timeline;
        let edges = masks.edges;
        let (record, held) = state[m * (1 + words)..][..1 + words].split_at_mut(1);
        let destination = NodeId(record[0] as u32);
        let group = &mut groups[(record[0] >> 32) as usize];
        let (mode, algorithm) = (group.mode, group.algorithm);
        group.fill_shared(ctx, masks, n, destination);
        let full = woken || group.brings_news(masks, held, destination);
        group.counts.visits += 1;
        group.counts.prechecks += u64::from(full);
        // The precheck says whether the slot's sweep can act; under a
        // utility order it is exact, and the sweep compares `utilities`.
        let (acts, utilities): (bool, &[f64]) = match mode {
            _ if !full => (false, &[]),
            // Every edge endpoint is active, so unless some active node
            // lacks a copy nothing can move. (The destination never holds
            // one, so a deliverable slot always has such a node.)
            DecisionMode::Direct => {
                (masks.active.iter().zip(&*held).any(|(act, h)| act & !h != 0), &[])
            }
            DecisionMode::Shared { .. } => {
                let utilities = &group.utilities;
                (utility_actionable(masks, held, destination, utilities), utilities)
            }
            DecisionMode::PerDestination { .. } => {
                if !group.gated
                    || masks_intersect(timeline.ever_met_mask(destination), masks.active)
                {
                    let utilities = group.row(ctx, n, destination);
                    (utility_actionable(masks, held, destination, utilities), utilities)
                } else {
                    (false, &[])
                }
            }
        };
        let forward = |from: NodeId, to: NodeId| match mode {
            DecisionMode::Direct => algorithm.should_forward(ctx, from, to, destination),
            _ => utilities[to.index()] > utilities[from.index()],
        };
        let (delivered, relay) = if !acts {
            (false, None)
        } else if !paths {
            (fixpoint(masks, held, destination, worklist, forward), None)
        } else {
            if *indexed != Some(slot) {
                build_incidence(edges, n, incidence);
                *indexed = Some(slot);
            }
            let moves = &mut moves[m];
            let recorded = moves.len();
            let relay = sweep(
                edges,
                incidence,
                held,
                masks.active,
                destination,
                slot as u32,
                moves,
                frontier,
                next,
                forward,
            );
            group.counts.sweeps += 1;
            group.counts.moves += (moves.len() - recorded) as u64;
            (relay.is_some(), relay)
        };
        if delivered {
            return self.finish(m, slot, relay);
        }
        // The next busy slot is the common case for a message whose
        // holders keep meeting people; otherwise jump via the skip index.
        let held = &self.state[m * (1 + words) + 1..][..words];
        if masks_intersect(next_active, held) {
            self.due_next[m / 64] |= 1u64 << (m % 64);
            return;
        }
        match nodes_of(held.iter().copied())
            .filter_map(|h| timeline.next_active_slot(h, slot + 1))
            .min()
        {
            Some(s) => self.wake[s].push(m as u32),
            // No holder is ever active again: undeliverable, so the slot
            // keeps its undelivered outcome and only the provenance goes.
            None => {
                if let Some(moves) = self.moves.get_mut(m) {
                    *moves = Vec::new();
                }
            }
        }
    }

    /// Writes message `m`'s delivery during `slot` into its outcome slot
    /// and releases its provenance. A path-recording message, delivered by
    /// `relay`, gets its hop path rebuilt from its moves; a delivery-only
    /// one gets none.
    fn finish(&mut self, m: usize, slot: usize, relay: Option<NodeId>) {
        let timeline = &*self.sim.timeline;
        let delivered_at = timeline.slot_end_time(slot);
        let chunk = self.chunks.partition_point(|&(first, _)| first <= m) - 1;
        let (first, outcomes) = &mut self.chunks[chunk];
        let outcome = &mut outcomes[m - *first];
        if m < self.paths {
            let moves = std::mem::take(&mut self.moves[m]);
            let relay = relay.unwrap_or_else(|| unreachable!("a sweep delivers through a relay"));
            *outcome = outcome_for(&outcome.message, Some((delivered_at, relay)), |node| {
                moves
                    .iter()
                    .find(|mv| mv.to == node)
                    .map(|mv| (mv.from, timeline.slot_end_time(mv.slot as usize)))
            });
        } else {
            outcome.delivered_at = Some(delivered_at);
        }
    }
}

/// Wraps up one message's outcome, reconstructing the delivered copy's hop
/// path backwards from the last relay through `received_from` (`(previous
/// node, receive time)` per holder, `None` for the source).
fn outcome_for(
    message: &Message,
    delivered: Option<(Seconds, NodeId)>,
    received_from: impl Fn(NodeId) -> Option<(NodeId, Seconds)>,
) -> MessageOutcome {
    let path = delivered.map(|(delivered_at, delivered_by)| {
        let mut hops = vec![Hop { node: message.destination, time: delivered_at }];
        let mut node = delivered_by;
        let mut receive_time = delivered_at;
        loop {
            match received_from(node) {
                Some((previous, t)) => {
                    hops.push(Hop { node, time: t.min(receive_time) });
                    receive_time = t;
                    node = previous;
                }
                None => {
                    hops.push(Hop { node, time: message.created_at.min(receive_time) });
                    break;
                }
            }
        }
        hops.reverse();
        Path::from_hops(hops)
    });
    MessageOutcome { message: *message, delivered_at: delivered.map(|(t, _)| t), path }
}

/// The slot-based trace-driven simulator.
///
/// Its one slot input is the history timeline (no space-time graph is
/// held), behind [`std::sync::Arc`] so the artifact store can build it once
/// per trace and share it across every simulator and study run over that
/// trace; [`Simulator::new`] folds a private copy.
#[derive(Debug)]
pub struct Simulator {
    node_count: usize,
    /// The trace's observation window, which message creation times are
    /// slotted against ([`psn_trace::stream::slot_of_time`]).
    window: TimeWindow,
    oracle: TraceOracle,
    timeline: std::sync::Arc<HistoryTimeline>,
    config: SimulatorConfig,
    /// [`PASS_MIN_NODE_MESSAGES`]; tests set 0 or `usize::MAX` to send every
    /// destination-unaware group's delivery-only jobs to one engine.
    pass_threshold: usize,
}

impl Simulator {
    /// Builds a simulator for a trace, folding its summary and timeline
    /// ([`HistoryTimeline::from_trace`]).
    pub fn new(trace: &ContactTrace, config: SimulatorConfig) -> Self {
        let timeline = std::sync::Arc::new(HistoryTimeline::from_trace(trace, config.delta));
        Self::from_oracle(trace.window(), TraceOracle::from_trace(trace), timeline, config)
    }

    /// Builds a simulator from a trace's observation `window`, its oracle
    /// and a timeline the artifact store memoizes or the study folds from
    /// the scenario's event stream. A study that owns the run's
    /// [`psn_trace::ContactSummary`] builds the oracle with
    /// [`TraceOracle::take_from_summary`], so the pair-count matrix becomes
    /// the delay matrix instead of being copied.
    ///
    /// # Panics
    ///
    /// Panics when the oracle or the timeline belongs to a different trace,
    /// or the timeline was slotted over another window or at another Δ — a
    /// mismatched cache key, never a data-dependent condition.
    pub fn from_oracle(
        window: TimeWindow,
        oracle: TraceOracle,
        timeline: std::sync::Arc<HistoryTimeline>,
        config: SimulatorConfig,
    ) -> Self {
        Self::assemble(oracle.node_count(), window, oracle, timeline, config)
    }

    /// [`Simulator::from_streamed_parts`] with the trace's node count and
    /// oracle: the graph is checked against the timeline and dropped. Kept
    /// for the perfbench harness until it builds its simulators with
    /// [`Simulator::from_oracle`].
    pub fn from_parts(
        trace: &ContactTrace,
        graph: impl Into<SharedGraph>,
        timeline: std::sync::Arc<HistoryTimeline>,
        config: SimulatorConfig,
    ) -> Self {
        let oracle = TraceOracle::from_trace(trace);
        Self::from_streamed_parts(trace.node_count(), oracle, graph, timeline, config)
    }

    /// Builds a simulator from a node count, an oracle, a graph and a
    /// timeline, taking the observation window from the graph. The graph is
    /// checked against the timeline (node count, Δ, slot count) and then
    /// dropped: the engine reads only the timeline. Kept for the perfbench
    /// harness until it builds its simulators with
    /// [`Simulator::from_oracle`].
    ///
    /// # Panics
    ///
    /// Panics when the parts disagree on node count or discretization — a
    /// mismatched cache key, never a data-dependent condition.
    pub fn from_streamed_parts(
        node_count: usize,
        oracle: TraceOracle,
        graph: impl Into<SharedGraph>,
        timeline: std::sync::Arc<HistoryTimeline>,
        config: SimulatorConfig,
    ) -> Self {
        let graph = graph.into();
        let graph = graph.as_graph_ref();
        assert!(graph.delta() == config.delta, "graph was slotted at another Δ");
        assert_eq!(graph.node_count(), timeline.node_count(), "graph belongs to another trace");
        assert_eq!(graph.slot_count(), timeline.slot_count(), "graph belongs to another trace");
        Self::assemble(node_count, graph.window(), oracle, timeline, config)
    }

    fn assemble(
        node_count: usize,
        window: TimeWindow,
        oracle: TraceOracle,
        timeline: std::sync::Arc<HistoryTimeline>,
        config: SimulatorConfig,
    ) -> Self {
        assert!(config.delta > 0.0, "slot length must be positive");
        assert_eq!(timeline.node_count(), node_count, "timeline belongs to a different trace");
        assert_eq!(oracle.node_count(), node_count, "oracle belongs to a different trace");
        let slots = slot_count(window, config.delta);
        assert!(
            timeline.slot_count() == slots
                && (0..slots)
                    .all(|s| timeline.slot_end_time(s) == slot_end_time(window, config.delta, s)),
            "timeline was slotted over another window or at another Δ than {}",
            config.delta
        );
        Self {
            node_count,
            window,
            oracle,
            timeline,
            config,
            pass_threshold: PASS_MIN_NODE_MESSAGES,
        }
    }

    /// Builds a simulator with the default Δ = 10 s.
    pub fn with_default_config(trace: &ContactTrace) -> Self {
        Self::new(trace, SimulatorConfig::default())
    }

    /// The slot length Δ the simulator and its timeline were slotted at.
    pub fn delta(&self) -> Seconds {
        self.config.delta
    }

    /// The number of worker threads (lanes) the slot-major engine will use.
    pub fn threads(&self) -> usize {
        if self.config.threads > 0 {
            self.config.threads
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }

    /// Runs `algorithm` over `messages` with the slot-major engine and returns
    /// per-message outcomes.
    pub fn run(
        &self,
        algorithm: &dyn ForwardingAlgorithm,
        messages: &[Message],
    ) -> SimulationResult {
        self.run_many(&[(algorithm, messages)])
            .pop()
            .unwrap_or_else(|| unreachable!("one job yields one result"))
    }

    /// Runs a batch of independent `(algorithm, message set)` jobs — e.g.
    /// every algorithm × run combination of a study — on the slot-major
    /// engine: the messages' outcome slots are dealt in chunks, round-robin
    /// in job-major order, to one lane per worker thread, and each lane
    /// walks the busy slots once, writing each delivery into its slot.
    /// Returns one result per job, in input order, bit-identical to running
    /// [`Simulator::run_reference`] on each job separately and independent
    /// of the thread count. Every job records hop paths; see
    /// [`Simulator::run_batch`] for jobs that need only delivery times.
    ///
    /// # Panics
    ///
    /// Every lane and every backward pass is a job of the panic-isolated
    /// [`psn_fault::run_jobs`] pool (with the `queue.forwarding`
    /// failpoint); a panic in any job stops the others at their next slot
    /// and is re-raised here, for the study layer to isolate; no partly
    /// written result is returned.
    pub fn run_many(
        &self,
        jobs: &[(&dyn ForwardingAlgorithm, &[Message])],
    ) -> Vec<SimulationResult> {
        let jobs: Vec<_> = jobs
            .iter()
            .map(|&(algorithm, messages)| (algorithm, messages, Recording::HopPaths))
            .collect();
        self.run_batch(&jobs)
    }

    /// [`Simulator::run_many`] with a [`Recording`] per job. A
    /// [`Recording::DeliveryOnly`] job's outcomes carry the delivery times
    /// [`Simulator::run_reference`] computes and no path, at a fraction of
    /// the cost: views that read only delivery times (success rate, delay,
    /// arrival offsets) should mark their jobs so. The delivery-only jobs
    /// of a destination-unaware algorithm with enough messages for the
    /// trace's size are answered by backward passes instead of the lanes
    /// (the module's "Routing rule").
    ///
    /// # Panics
    ///
    /// As [`Simulator::run_many`].
    pub fn run_batch(
        &self,
        jobs: &[(&dyn ForwardingAlgorithm, &[Message], Recording)],
    ) -> Vec<SimulationResult> {
        self.run_counted(jobs).0
    }

    /// [`Simulator::run_batch`], plus the step counters of every group (the
    /// distinct algorithm objects, in order of first appearance among the
    /// jobs) summed over the lanes and passes.
    fn run_counted(
        &self,
        jobs: &[(&dyn ForwardingAlgorithm, &[Message], Recording)],
    ) -> (Vec<SimulationResult>, Vec<StepCounts>) {
        let n = self.node_count;
        // Jobs that run the same algorithm object share a group and with
        // it every table; equal wide pointers call the same code on the
        // same data, so sharing is exact.
        let mut groups: Vec<(&dyn ForwardingAlgorithm, DecisionMode)> = Vec::new();
        let job_groups: Vec<usize> = jobs
            .iter()
            .map(|&(algorithm, _, _)| {
                groups.iter().position(|&(known, _)| std::ptr::eq(known, algorithm)).unwrap_or_else(
                    || {
                        groups.push((algorithm, self.decision_mode(algorithm)));
                        groups.len() - 1
                    },
                )
            })
            .collect();
        let mut load = vec![0; groups.len()];
        for (&(_, messages, recording), &group) in jobs.iter().zip(&job_groups) {
            if recording == Recording::DeliveryOnly {
                load[group] += messages.len();
            }
        }
        let to_pass: Vec<bool> = groups
            .iter()
            .zip(&load)
            .map(|(&(algorithm, mode), &load)| {
                takes_pass(algorithm, mode, load, n, self.pass_threshold)
            })
            .collect();

        let busy: Vec<usize> = self.timeline.busy_slots().collect();
        let mut results = undelivered(jobs);
        let mut lane_jobs: Vec<Dealt<'_>> = Vec::new();
        let mut pass_jobs: Vec<Vec<&mut [MessageOutcome]>> =
            groups.iter().map(|_| Vec::new()).collect();
        for ((result, &(_, _, recording)), &group) in results.iter_mut().zip(jobs).zip(&job_groups)
        {
            let outcomes = result.outcomes.as_mut_slice();
            if recording == Recording::DeliveryOnly && to_pass[group] {
                pass_jobs[group].push(outcomes);
            } else {
                lane_jobs.push(Dealt { outcomes, group, paths: recording == Recording::HopPaths });
            }
        }
        let lane_total: usize = lane_jobs.iter().map(|job| job.outcomes.len()).sum();
        let passes: Vec<Pass<'_>> = pass_jobs
            .into_iter()
            .enumerate()
            .flat_map(|(group, jobs)| plan_passes(group, jobs, n))
            .collect();
        // A batch with nothing for the passes runs at least one lane, even
        // an empty one, so the failpoint sees every batch.
        let lanes = if lane_total == 0 && !passes.is_empty() {
            0
        } else {
            self.threads().clamp(1, lane_total.max(1))
        };
        // The pool's job closure is shared by its workers, so each job's
        // work waits in a mutex of its own, taken out once: the passes
        // first, then the lanes.
        let passes: Vec<Mutex<Option<Pass<'_>>>> =
            passes.into_iter().map(|pass| Mutex::new(Some(pass))).collect();
        let dealt: Vec<Mutex<Vec<Dealt<'_>>>> =
            deal(lane_jobs, lanes).into_iter().map(Mutex::new).collect();
        let per_job = psn_fault::run_jobs(
            psn_fault::sites::QUEUE_FORWARDING,
            self.threads(),
            passes.len() + lanes,
            |_| (),
            |_, job, stopping| match job.checked_sub(passes.len()) {
                None => {
                    let pass = passes[job]
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .take()
                        .unwrap_or_else(|| unreachable!("each pass runs once"));
                    let group = pass.group;
                    let (algorithm, mode) = groups[group];
                    let mut counts = vec![StepCounts::default(); groups.len()];
                    counts[group] = pass.run(self, algorithm, mode, &busy, stopping);
                    counts
                }
                Some(lane) => {
                    let share = std::mem::take(
                        &mut *dealt[lane].lock().unwrap_or_else(PoisonError::into_inner),
                    );
                    Lane::new(self, share, &groups).run(&busy, stopping)
                }
            },
            Result::is_err,
        );
        drop((passes, dealt));
        // A failed job leaves placeholders in the slots it did not
        // finish: no result leaves the batch.
        if let Some(message) = per_job.iter().find_map(|job| job.as_ref().err()) {
            panic!("simulation worker panicked: {message}");
        }
        let mut counts = vec![StepCounts::default(); groups.len()];
        for job_counts in per_job.into_iter().flatten() {
            for (total, job) in counts.iter_mut().zip(job_counts) {
                *total += job;
            }
        }
        (results, counts)
    }

    /// Derives how decisions of `algorithm` are evaluated, by probing
    /// [`ForwardingAlgorithm::copy_utility`] (whose contract requires a
    /// uniform `Some`/`None` answer).
    fn decision_mode(&self, algorithm: &dyn ForwardingAlgorithm) -> DecisionMode {
        if self.node_count == 0 {
            return DecisionMode::Direct;
        }
        let view = self.timeline.at_slot(0);
        let ctx = ForwardingContext {
            history: &view,
            oracle: &self.oracle,
            now: self.timeline.slot_end_time(0),
        };
        let probe = NodeId(0);
        if algorithm.copy_utility(&ctx, probe, probe).is_none() {
            DecisionMode::Direct
        } else if algorithm.destination_aware() {
            DecisionMode::PerDestination { is_static: algorithm.utility_is_static() }
        } else {
            DecisionMode::Shared { is_static: algorithm.utility_is_static() }
        }
    }

    /// Runs `algorithm` over `messages` with the retained serial reference
    /// engine: a mutable [`ContactHistory`] replay with a per-slot adjacency
    /// rescan of `graph` — the trace's space-time graph at the simulator's
    /// Δ, which the caller builds — and a global fixpoint sweep over all
    /// messages. Slow but direct, and independent of the timeline the
    /// slot-major engine reads; that engine is pinned to its outcomes by
    /// differential tests. Only the oracle is shared.
    ///
    /// # Panics
    ///
    /// Panics when `graph` has another node count or Δ than the simulator.
    pub fn run_reference<'g>(
        &self,
        graph: impl Into<GraphRef<'g>>,
        algorithm: &dyn ForwardingAlgorithm,
        messages: &[Message],
    ) -> SimulationResult {
        let graph = graph.into();
        let n = self.node_count;
        assert_eq!(graph.node_count(), n, "graph belongs to a different trace");
        assert!(graph.delta() == self.config.delta, "graph was slotted at another Δ");
        let mut history = ContactHistory::new(n);
        let mut states: Vec<MessageState> = messages.iter().map(|_| MessageState::new(n)).collect();

        // Messages sorted by creation slot for activation.
        let mut activation_order: Vec<usize> = (0..messages.len()).collect();
        activation_order
            .sort_by(|&a, &b| messages[a].created_at.total_cmp(&messages[b].created_at));
        let mut next_activation = 0usize;

        for slot in 0..graph.slot_count() {
            let slot_time = graph.slot_end_time(slot);
            let slot_data = graph.slot(slot);

            // Activate messages created during this slot (their creation
            // time falls before the slot's end).
            while next_activation < activation_order.len() {
                let idx = activation_order[next_activation];
                let m = &messages[idx];
                if graph.slot_of_time(m.created_at) > slot {
                    break;
                }
                let state = &mut states[idx];
                state.active = true;
                state.holders[m.source.index()] = true;
                next_activation += 1;
            }

            // Collect this slot's contact edges and update history before
            // forwarding decisions (current contacts count as "now").
            let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
            for a_idx in 0..n {
                let a = NodeId(a_idx as u32);
                for &b in slot_data.neighbors(a) {
                    if a.0 < b.0 {
                        edges.push((a, b));
                        history.record_contact(a, b, slot, slot_time);
                    }
                }
            }
            if edges.is_empty() {
                continue;
            }

            let ctx = ForwardingContext { history: &history, oracle: &self.oracle, now: slot_time };

            // Sweep the slot's edges until no copy moves, so multi-hop
            // transfers within a slot are possible for every algorithm.
            loop {
                let mut changed = false;
                for (msg_idx, message) in messages.iter().enumerate() {
                    let state = &mut states[msg_idx];
                    if !state.active || state.delivered_at.is_some() {
                        continue;
                    }
                    for &(a, b) in &edges {
                        if state.delivered_at.is_some() {
                            break;
                        }
                        for (from, to) in [(a, b), (b, a)] {
                            if !state.holders[from.index()] {
                                continue;
                            }
                            if to == message.destination {
                                state.delivered_at = Some(slot_time);
                                state.delivered_by = Some(from);
                                break;
                            }
                            if state.holders[to.index()] {
                                continue;
                            }
                            if algorithm.should_forward(&ctx, from, to, message.destination) {
                                state.holders[to.index()] = true;
                                state.received_from[to.index()] = Some((from, slot_time));
                                changed = true;
                            }
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
        }

        let outcomes = messages
            .iter()
            .zip(&states)
            .map(|(message, state)| {
                outcome_for(message, state.delivered_at.zip(state.delivered_by), |node| {
                    state.received_from[node.index()]
                })
            })
            .collect();

        SimulationResult { algorithm: algorithm.name().to_string(), outcomes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{DynamicProgramming, Epidemic, Fresh, Greedy, GreedyTotal};
    use crate::{standard_algorithms, AlgorithmKind};
    use psn_spacetime::{epidemic_delivery_time, SpaceTimeGraph};
    use psn_trace::contact::Contact;
    use psn_trace::node::{NodeClass, NodeRegistry};
    use psn_trace::trace::TimeWindow;

    fn nid(v: u32) -> NodeId {
        NodeId(v)
    }

    /// A default simulator over `trace`, with the trace's space-time graph
    /// for `run_reference` and the graph-based oracles.
    fn with_graph(trace: &ContactTrace) -> (Simulator, SpaceTimeGraph) {
        (Simulator::with_default_config(trace), SpaceTimeGraph::build_default(trace))
    }

    fn trace_from(contacts: Vec<(u32, u32, f64, f64)>, nodes: usize, end: f64) -> ContactTrace {
        trace_in_window(contacts, nodes, TimeWindow::new(0.0, end))
    }

    fn trace_in_window(
        contacts: Vec<(u32, u32, f64, f64)>,
        nodes: usize,
        window: TimeWindow,
    ) -> ContactTrace {
        let mut reg = NodeRegistry::new();
        for _ in 0..nodes {
            reg.add(NodeClass::Mobile);
        }
        let cs = contacts
            .into_iter()
            .map(|(a, b, s, e)| Contact::new(nid(a), nid(b), s, e).unwrap())
            .collect();
        ContactTrace::from_contacts("sim-test", reg, window, cs).unwrap()
    }

    #[test]
    fn epidemic_matches_spacetime_optimum() {
        let trace = trace_from(
            vec![
                (0, 1, 1.0, 30.0),
                (0, 2, 5.0, 40.0),
                (1, 3, 35.0, 80.0),
                (2, 3, 45.0, 90.0),
                (3, 4, 100.0, 140.0),
                (2, 4, 110.0, 150.0),
            ],
            5,
            200.0,
        );
        let (sim, graph) = with_graph(&trace);
        let messages = vec![
            Message::new(nid(0), nid(4), 0.0),
            Message::new(nid(1), nid(4), 10.0),
            Message::new(nid(4), nid(0), 0.0),
            Message::new(nid(2), nid(1), 50.0),
        ];
        let result = sim.run(&Epidemic, &messages);
        for (outcome, message) in result.outcomes.iter().zip(&messages) {
            let optimal = epidemic_delivery_time(&graph, message);
            assert_eq!(outcome.delivered_at, optimal, "message {message}");
        }
        assert_eq!(result.algorithm, "Epidemic");
        assert_eq!(result.message_count(), 4);
    }

    #[test]
    fn delivered_paths_start_at_source_and_end_at_destination() {
        let trace =
            trace_from(vec![(0, 1, 1.0, 5.0), (1, 2, 21.0, 25.0), (2, 3, 41.0, 45.0)], 4, 100.0);
        let sim = Simulator::with_default_config(&trace);
        let message = Message::new(nid(0), nid(3), 0.0);
        let result = sim.run(&Epidemic, &[message]);
        let outcome = &result.outcomes[0];
        assert_eq!(outcome.delivered_at, Some(50.0));
        let path = outcome.path.as_ref().unwrap();
        assert_eq!(path.first().node, nid(0));
        assert_eq!(path.current_node(), nid(3));
        assert_eq!(path.nodes().collect::<Vec<_>>(), vec![nid(0), nid(1), nid(2), nid(3)]);
        assert!(path.is_loop_free());
        // Hop times are non-decreasing and end at the delivery time.
        assert_eq!(path.end_time(), 50.0);
    }

    #[test]
    fn undelivered_message_has_no_path() {
        let trace = trace_from(vec![(0, 1, 1.0, 5.0)], 3, 50.0);
        let sim = Simulator::with_default_config(&trace);
        let result = sim.run(&Epidemic, &[Message::new(nid(0), nid(2), 0.0)]);
        assert_eq!(result.outcomes[0].delivered_at, None);
        assert!(result.outcomes[0].path.is_none());
        assert!(!result.outcomes[0].delivered());
    }

    #[test]
    fn direct_source_destination_contact_always_delivers() {
        // Even an algorithm that never forwards (FRESH with no history)
        // delivers on direct contact thanks to minimal progress.
        let trace = trace_from(vec![(0, 1, 12.0, 20.0)], 2, 60.0);
        let sim = Simulator::with_default_config(&trace);
        let result = sim.run(&Fresh, &[Message::new(nid(0), nid(1), 0.0)]);
        assert_eq!(result.outcomes[0].delivered_at, Some(20.0));
        let path = result.outcomes[0].path.as_ref().unwrap();
        assert_eq!(path.len(), 2);
    }

    #[test]
    fn fresh_without_useful_history_never_relays() {
        // 0 meets 1, 1 meets 2 — but 1 has never met 2 before the moment it
        // could relay, so FRESH keeps the message at 0 and it is never
        // delivered (0 never meets 2 directly).
        let trace = trace_from(vec![(0, 1, 1.0, 5.0), (1, 2, 21.0, 25.0)], 3, 60.0);
        let sim = Simulator::with_default_config(&trace);
        let result = sim.run(&Fresh, &[Message::new(nid(0), nid(2), 0.0)]);
        assert_eq!(result.outcomes[0].delivered_at, None);
        // Epidemic delivers the same message.
        let epidemic = sim.run(&Epidemic, &[Message::new(nid(0), nid(2), 0.0)]);
        assert_eq!(epidemic.outcomes[0].delivered_at, Some(30.0));
    }

    #[test]
    fn fresh_uses_history_from_earlier_contacts() {
        // Node 1 meets the destination 2 early (before the message exists),
        // then meets the source 0, then meets 2 again: FRESH relays 0 -> 1
        // because 1's encounter with 2 is fresher than 0's (never).
        let trace =
            trace_from(vec![(1, 2, 1.0, 5.0), (0, 1, 41.0, 45.0), (1, 2, 81.0, 85.0)], 3, 120.0);
        let sim = Simulator::with_default_config(&trace);
        let result = sim.run(&Fresh, &[Message::new(nid(0), nid(2), 20.0)]);
        assert_eq!(result.outcomes[0].delivered_at, Some(90.0));
        let path = result.outcomes[0].path.as_ref().unwrap();
        assert_eq!(path.nodes().collect::<Vec<_>>(), vec![nid(0), nid(1), nid(2)]);
    }

    #[test]
    fn greedy_total_pushes_toward_hubs() {
        // Node 1 is the hub; Greedy Total forwards 0 -> 1 even though it is
        // destination unaware, and 1 later meets the destination 3.
        let trace = trace_from(
            vec![(1, 2, 1.0, 5.0), (1, 4, 11.0, 15.0), (0, 1, 41.0, 45.0), (1, 3, 81.0, 85.0)],
            5,
            120.0,
        );
        let sim = Simulator::with_default_config(&trace);
        let result = sim.run(&GreedyTotal, &[Message::new(nid(0), nid(3), 20.0)]);
        assert_eq!(result.outcomes[0].delivered_at, Some(90.0));
    }

    #[test]
    fn multi_hop_within_a_slot_is_possible() {
        // 0-1 and 1-2 overlap in one slot: epidemic crosses both in the same
        // slot, matching the space-time graph's zero-weight reachability.
        let trace = trace_from(vec![(0, 1, 1.0, 9.0), (1, 2, 2.0, 9.5)], 3, 30.0);
        let sim = Simulator::with_default_config(&trace);
        let result = sim.run(&Epidemic, &[Message::new(nid(0), nid(2), 0.0)]);
        assert_eq!(result.outcomes[0].delivered_at, Some(10.0));
    }

    #[test]
    fn messages_created_late_are_not_forwarded_early() {
        let trace = trace_from(vec![(0, 1, 1.0, 5.0), (0, 1, 51.0, 55.0)], 2, 100.0);
        let sim = Simulator::with_default_config(&trace);
        // Created at t=30: only the second contact can deliver it.
        let result = sim.run(&Epidemic, &[Message::new(nid(0), nid(1), 30.0)]);
        assert_eq!(result.outcomes[0].delivered_at, Some(60.0));
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_delta() {
        let trace = trace_from(vec![(0, 1, 0.0, 5.0)], 2, 10.0);
        Simulator::new(&trace, SimulatorConfig { delta: 0.0, ..SimulatorConfig::default() });
    }

    // ------------------------------------------------------------------
    // Differential property tests: the slot-major engine must reproduce
    // the retained serial reference engine bit-for-bit — for every
    // algorithm, on random traces, including nonzero window starts and
    // several lanes.
    // ------------------------------------------------------------------

    /// Deterministic pseudo-random trace over `[window.start, window.end]`:
    /// uniform endpoints and start times, mixed short/long durations so
    /// contacts both fit in one slot and span several.
    fn random_trace(
        seed: u64,
        nodes: usize,
        contact_count: usize,
        window: TimeWindow,
    ) -> ContactTrace {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let span = window.end - window.start;
        let mut contacts = Vec::with_capacity(contact_count);
        for _ in 0..contact_count {
            let a = rng.gen_range(0..nodes as u32);
            let mut b = rng.gen_range(0..nodes as u32);
            while b == a {
                b = rng.gen_range(0..nodes as u32);
            }
            let start = window.start + rng.gen_range(0.0..span * 0.9);
            let duration = rng.gen_range(1.0..span * 0.2);
            contacts.push((a, b, start, (start + duration).min(window.end)));
        }
        trace_in_window(contacts, nodes, window)
    }

    /// Deterministic pseudo-random message population with creation times
    /// across (and slightly beyond) the window.
    fn random_messages(seed: u64, nodes: usize, count: usize, window: TimeWindow) -> Vec<Message> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let span = window.end - window.start;
        (0..count)
            .map(|_| {
                let src = rng.gen_range(0..nodes as u32);
                let mut dst = rng.gen_range(0..nodes as u32);
                while dst == src {
                    dst = rng.gen_range(0..nodes as u32);
                }
                let created = window.start + rng.gen_range(0.0..span);
                Message::new(nid(src), nid(dst), created)
            })
            .collect()
    }

    fn assert_engines_agree(trace: &ContactTrace, messages: &[Message]) {
        let (sim, graph) = with_graph(trace);
        let algorithms = standard_algorithms();
        let jobs: Vec<(&dyn ForwardingAlgorithm, &[Message])> =
            algorithms.iter().map(|(_, a)| (a.as_ref(), messages)).collect();
        let parallel = sim.run_many(&jobs);
        for ((kind, algorithm), parallel_result) in algorithms.iter().zip(&parallel) {
            let reference = sim.run_reference(&graph, algorithm.as_ref(), messages);
            assert_eq!(reference.algorithm, parallel_result.algorithm);
            assert_eq!(
                reference.outcomes.len(),
                parallel_result.outcomes.len(),
                "{kind}: outcome counts differ"
            );
            for (i, (r, p)) in reference.outcomes.iter().zip(&parallel_result.outcomes).enumerate()
            {
                assert_eq!(r, p, "{kind}: outcome {i} differs for {}", r.message);
            }
        }
    }

    #[test]
    fn parallel_engine_matches_reference_on_random_traces() {
        for seed in 0..6u64 {
            let nodes = 5 + (seed as usize % 8);
            let window = TimeWindow::new(0.0, 500.0);
            let trace = random_trace(seed, nodes, 30 + 5 * seed as usize, window);
            let messages = random_messages(seed, nodes, 14, window);
            assert_engines_agree(&trace, &messages);
        }
    }

    #[test]
    fn parallel_engine_matches_reference_with_nonzero_window_start() {
        // Same bug family as PR 1's `slot_of_time` fix: everything must keep
        // lining up when the trace window does not begin at t = 0.
        for seed in 50..55u64 {
            let nodes = 6 + (seed as usize % 5);
            let window = TimeWindow::new(7200.0, 7800.0);
            let trace = random_trace(seed, nodes, 40, window);
            let messages = random_messages(seed, nodes, 12, window);
            assert_engines_agree(&trace, &messages);
        }
    }

    #[test]
    fn parallel_engine_is_invariant_to_thread_count_and_chunking() {
        let window = TimeWindow::new(300.0, 900.0);
        let trace = random_trace(99, 10, 60, window);
        let messages = random_messages(99, 10, 40, window);
        let algorithms = standard_algorithms();
        let baseline = Simulator::new(&trace, SimulatorConfig { delta: 10.0, threads: 1 });
        for threads in [2usize, 3, 7] {
            let sim = Simulator::new(&trace, SimulatorConfig { delta: 10.0, threads });
            assert_eq!(sim.threads(), threads);
            for (kind, algorithm) in &algorithms {
                let serial = baseline.run(algorithm.as_ref(), &messages);
                let sharded = sim.run(algorithm.as_ref(), &messages);
                for (r, p) in serial.outcomes.iter().zip(&sharded.outcomes) {
                    assert_eq!(r, p, "{kind} with {threads} threads");
                }
            }
        }
    }

    #[test]
    fn every_lane_count_matches_reference_across_threads() {
        // Forces the slot-major engine against the reference engine at one
        // and several lanes, on a nonzero window start.
        let window = TimeWindow::new(3600.0, 4200.0);
        let trace = random_trace(21, 12, 70, window);
        let messages = random_messages(21, 12, 24, window);
        let algorithms = standard_algorithms();
        let (reference_sim, graph) = with_graph(&trace);
        for (kind, algorithm) in &algorithms {
            let reference = reference_sim.run_reference(&graph, algorithm.as_ref(), &messages);
            for threads in [1usize, 2, 3] {
                let sim = Simulator::new(&trace, SimulatorConfig { delta: 10.0, threads });
                let result = sim.run(algorithm.as_ref(), &messages);
                assert_eq!(reference.outcomes, result.outcomes, "{kind} on {threads} lanes");
            }
        }
    }

    #[test]
    fn every_lane_count_agrees_on_a_trace_with_more_than_64_nodes() {
        // Node counts beyond one 64-bit mask word stress the wide-trace
        // paths; every lane count must stay bit-identical to the reference
        // engine.
        let window = TimeWindow::new(0.0, 800.0);
        let trace = random_trace(33, 70, 220, window);
        let messages = random_messages(33, 70, 20, window);
        let algorithms = standard_algorithms();
        let (reference_sim, graph) = with_graph(&trace);
        for (kind, algorithm) in &algorithms {
            let reference = reference_sim.run_reference(&graph, algorithm.as_ref(), &messages);
            for threads in [1usize, 2, 3] {
                let sim = Simulator::new(&trace, SimulatorConfig { delta: 10.0, threads });
                let result = sim.run(algorithm.as_ref(), &messages);
                assert_eq!(reference.outcomes, result.outcomes, "{kind} on {threads} lanes");
            }
        }
    }

    /// Each node's within-slot closure under `forward` by the naive
    /// fixpoint (start from the node, add every node one forwarding edge
    /// away until nothing changes), as node bitmask rows.
    fn naive_closures(
        n: usize,
        edges: &[(NodeId, NodeId)],
        forward: impl Fn(NodeId, NodeId) -> bool,
    ) -> Vec<u64> {
        let words = n.div_ceil(64);
        let mut reach = vec![0u64; n * words];
        for v in 0..n {
            reach[v * words + v / 64] |= 1u64 << (v % 64);
        }
        loop {
            let mut changed = false;
            for &(a, b) in edges {
                for (from, to) in [(a, b), (b, a)] {
                    if forward(from, to) {
                        for w in 0..words {
                            let add =
                                reach[to.index() * words + w] & !reach[from.index() * words + w];
                            if add != 0 {
                                reach[from.index() * words + w] |= add;
                                changed = true;
                            }
                        }
                    }
                }
            }
            if !changed {
                return reach;
            }
        }
    }

    #[test]
    fn reach_closure_matches_fixpoint_on_random_slots() {
        // Each pass closure routine must leave every row at the minimum of
        // the rows of the node's naive closure: `utility_closure_min`
        // under a utility order with ties (multi-hop chains and the
        // strictly-unequal filter), and `direct_closure_min` under a
        // random direct rule mixing mutual, one-way and dead edges, so
        // components, one-way chains and cycles through both occur.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC105);
            let n = 3 + (seed as usize % 70);
            let words = n.div_ceil(64);
            let cols = 1 + rng.gen_range(0..5usize);
            let utilities: Vec<f64> = (0..n).map(|_| f64::from(rng.gen_range(0..5u32))).collect();
            let mut edges = std::collections::BTreeSet::new();
            for _ in 0..rng.gen_range(0..3 * n) {
                let a = rng.gen_range(0..n as u32);
                let b = rng.gen_range(0..n as u32);
                if a != b {
                    edges.insert((NodeId(a.min(b)), NodeId(a.max(b))));
                }
            }
            let edges: Vec<(NodeId, NodeId)> = edges.into_iter().collect();
            let mut active = vec![0u64; words];
            for &(a, b) in &edges {
                set_bit(&mut active, a);
                set_bit(&mut active, b);
            }
            let allowed: std::collections::BTreeSet<(NodeId, NodeId)> = edges
                .iter()
                .flat_map(|&(a, b)| [(a, b), (b, a)])
                .filter(|_| rng.gen_bool(0.6))
                .collect();
            let before: Vec<u32> = (0..n * cols)
                .map(|_| if rng.gen_bool(0.3) { NEVER } else { rng.gen_range(0..50) })
                .collect();
            let uphill = |from: NodeId, to: NodeId| utilities[to.index()] > utilities[from.index()];
            let direct = |from: NodeId, to: NodeId| allowed.contains(&(from, to));

            let mut by_utility = before.clone();
            utility_closure_min(&mut by_utility, cols, &edges, &utilities, &mut Vec::new());
            let mut by_rule = before.clone();
            let mut parent: Vec<u32> = (0..n as u32).collect();
            direct_closure_min(
                &mut by_rule,
                cols,
                &edges,
                &active,
                direct,
                &mut parent,
                &mut Vec::new(),
            );
            assert!(parent.iter().enumerate().all(|(v, &p)| p as usize == v), "seed {seed}");
            for (table, closures, name) in [
                (&by_utility, naive_closures(n, &edges, uphill), "utility"),
                (&by_rule, naive_closures(n, &edges, direct), "direct"),
            ] {
                for v in 0..n {
                    for c in 0..cols {
                        let least = nodes_of(closures[v * words..][..words].iter().copied())
                            .map(|w| before[w.index() * cols + c])
                            .min();
                        assert_eq!(
                            Some(table[v * cols + c]),
                            least,
                            "{name}: seed {seed}, node {v}, column {c}"
                        );
                    }
                }
            }
        }
    }

    /// The full-pass fixpoint sweep that [`sweep`] must reproduce: rescan
    /// every edge in normalized order until a pass moves no copy.
    fn full_pass_sweep(
        edges: &[(NodeId, NodeId)],
        held: &mut [u64],
        destination: NodeId,
        slot: u32,
        moves: &mut Vec<Move>,
        forward: impl Fn(NodeId, NodeId) -> bool,
    ) -> Option<NodeId> {
        loop {
            let mut changed = false;
            for &(a, b) in edges {
                for (from, to) in [(a, b), (b, a)] {
                    if !has_bit(held, from) {
                        continue;
                    }
                    if to == destination {
                        return Some(from);
                    }
                    if has_bit(held, to) || !forward(from, to) {
                        continue;
                    }
                    set_bit(held, to);
                    moves.push(Move { to, from, slot });
                    changed = true;
                }
            }
            if !changed {
                return None;
            }
        }
    }

    #[test]
    fn event_driven_sweep_matches_full_pass_fixpoint_on_random_slots() {
        // Random slots with more than 64 nodes and more than 64 edges (so
        // both node and edge masks span several words), random holder sets
        // and random utility orders with ties: the event-driven sweep must
        // make the full-pass rescan's forwarding decisions in the same
        // order, and deliver through the same relay.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (mut delivered, mut multi_pass) = (0, 0);
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5EE9);
            let n = 65 + rng.gen_range(0..80usize);
            let words = n.div_ceil(64);
            let edge_count = 65 + rng.gen_range(0..2 * n);
            let mut edge_set = std::collections::BTreeSet::new();
            while edge_set.len() < edge_count {
                let a = rng.gen_range(0..n as u32);
                let b = rng.gen_range(0..n as u32);
                if a != b {
                    edge_set.insert((NodeId(a.min(b)), NodeId(a.max(b))));
                }
            }
            let edges: Vec<(NodeId, NodeId)> = edge_set.into_iter().collect();
            let utilities: Vec<f64> = (0..n).map(|_| f64::from(rng.gen_range(0..6u32))).collect();
            let destination = NodeId(rng.gen_range(0..n as u32));
            let mut held = vec![0u64; words];
            for _ in 0..rng.gen_range(1..8) {
                let v = NodeId(rng.gen_range(0..n as u32));
                if v != destination {
                    set_bit(&mut held, v);
                }
            }
            let mut active = vec![0u64; words];
            for &(a, b) in &edges {
                set_bit(&mut active, a);
                set_bit(&mut active, b);
            }
            let mut incidence = Vec::new();
            build_incidence(&edges, n, &mut incidence);
            let forward =
                |from: NodeId, to: NodeId| utilities[to.index()] > utilities[from.index()];

            let (mut fast_held, mut fast_moves) = (held.clone(), Vec::new());
            let fast = sweep(
                &edges,
                &incidence,
                &mut fast_held,
                &active,
                destination,
                7,
                &mut fast_moves,
                &mut Vec::new(),
                &mut Vec::new(),
                forward,
            );
            let (mut full_held, mut full_moves) = (held.clone(), Vec::new());
            let full =
                full_pass_sweep(&edges, &mut full_held, destination, 7, &mut full_moves, forward);
            assert_eq!(fast, full, "seed {seed}: delivered_by");
            assert_eq!(fast_moves, full_moves, "seed {seed}: provenance");
            assert_eq!(fast_held, full_held, "seed {seed}: holders");
            delivered += usize::from(full.is_some());
            // A move whose edge precedes the previous move's edge needed a
            // later pass.
            let edge_of = |m: &Move| {
                edges.iter().position(|&(a, b)| (a, b) == (m.to.min(m.from), m.to.max(m.from)))
            };
            multi_pass +=
                usize::from(full_moves.windows(2).any(|w| edge_of(&w[1]) < edge_of(&w[0])));
        }
        assert!(delivered > 30 && delivered < 270, "{delivered} of 300 slots delivered");
        assert!(multi_pass > 30, "only {multi_pass} slots needed a second pass");
    }

    #[test]
    fn engines_agree_on_clustered_trace_with_unreachable_destinations() {
        // Two contact clusters with no bridge: within-cluster messages
        // deliver, cross-cluster destinations are never met by any holder.
        // This drives the ever-met destination gate (FRESH and Greedy skip
        // every slot where no node that ever meets the destination is
        // active) and the per-destination utility rows across repeated
        // destinations — both must stay bit-identical to the reference
        // engine at one and several lanes.
        let window = TimeWindow::new(0.0, 700.0);
        let cluster_a = random_trace(61, 6, 40, window);
        let cluster_b = random_trace(62, 6, 40, window);
        let mut contacts: Vec<(u32, u32, f64, f64)> = Vec::new();
        for c in cluster_a.contacts() {
            contacts.push((c.a.0, c.b.0, c.start, c.end));
        }
        for c in cluster_b.contacts() {
            contacts.push((c.a.0 + 6, c.b.0 + 6, c.start, c.end));
        }
        let trace = trace_in_window(contacts, 12, window);
        // Within-cluster, cross-cluster, and repeated-destination messages.
        let mut messages = random_messages(61, 6, 10, window);
        messages.extend(
            random_messages(62, 6, 10, window)
                .into_iter()
                .map(|m| Message::new(nid(m.source.0 + 6), nid(m.destination.0 + 6), m.created_at)),
        );
        for (i, m) in random_messages(63, 6, 8, window).into_iter().enumerate() {
            // Source in one cluster, destination in the other: undeliverable.
            messages.push(Message::new(m.source, nid(m.destination.0 + 6), m.created_at));
            messages.push(Message::new(nid(6 + i as u32 % 6), m.destination, m.created_at));
        }
        let (reference_sim, graph) = with_graph(&trace);
        for (kind, algorithm) in &standard_algorithms() {
            let reference = reference_sim.run_reference(&graph, algorithm.as_ref(), &messages);
            for threads in [1usize, 2, 3] {
                let sim = Simulator::new(&trace, SimulatorConfig { delta: 10.0, threads });
                let result = sim.run(algorithm.as_ref(), &messages);
                assert_eq!(reference.outcomes, result.outcomes, "{kind} on {threads} lanes");
            }
        }
    }

    /// A simulator built through the perfbench-kept
    /// [`Simulator::from_streamed_parts`] around a window-`window_slots`
    /// `MemorySpill`-backed graph over `trace`, on `threads` lanes; the
    /// returned handle keeps the graph's spill counters readable.
    fn windowed_simulator(
        trace: &ContactTrace,
        window_slots: usize,
        threads: usize,
    ) -> (Simulator, std::sync::Arc<psn_spacetime::WindowedSpaceTimeGraph>) {
        let graph = std::sync::Arc::new(
            psn_spacetime::WindowedSpaceTimeGraph::stream_with(
                &mut psn_trace::TraceEventStream::new(trace, 10.0),
                window_slots,
                Box::new(psn_spacetime::MemorySpill::new()),
                |_, _| {},
            )
            .unwrap(),
        );
        let timeline = std::sync::Arc::new(HistoryTimeline::from_trace(trace, 10.0));
        let sim = Simulator::from_streamed_parts(
            trace.node_count(),
            TraceOracle::from_trace(trace),
            std::sync::Arc::clone(&graph),
            timeline,
            SimulatorConfig { delta: 10.0, threads },
        );
        (sim, graph)
    }

    /// The simulator kept no handle on `graph`, so nothing it runs can
    /// reload a slot; and nothing did.
    fn assert_graph_dropped(graph: &std::sync::Arc<psn_spacetime::WindowedSpaceTimeGraph>) {
        assert_eq!(std::sync::Arc::strong_count(graph), 1, "the simulator holds the graph");
        assert_eq!(graph.spill_loads(), 0, "the simulator reloaded graph slots");
    }

    #[test]
    fn slots_that_no_precheck_acts_on_are_never_reloaded() {
        // The source meets the destination once, before the message
        // exists, then meets a relay that never meets the destination in
        // twelve later slots. The source holds the copy and is active in
        // every one of those slots, and it has met the destination, so the
        // skip index and the ever-met gate both let each slot through; but
        // the relay's utility is worse under every algorithm below, so no
        // precheck is actionable. The engine reads only the timeline, so
        // no slot of the window-1 graph is reloaded at all.
        let mut contacts = vec![(0, 1, 5.0, 8.0)];
        contacts.extend((0..12).map(|i| (0, 2, 101.0 + 20.0 * i as f64, 105.0 + 20.0 * i as f64)));
        let trace = trace_from(contacts, 3, 400.0);
        let message = [Message::new(nid(0), nid(1), 50.0)];
        let (reference_sim, full) = with_graph(&trace);
        let visited = full.busy_slots().iter().filter(|&&s| s >= 5).count();
        assert!(visited >= 10, "only {visited} busy slots after creation");
        let algorithms: [Box<dyn ForwardingAlgorithm>; 3] =
            [Box::new(DynamicProgramming), Box::new(Fresh), Box::new(Greedy)];
        for algorithm in &algorithms {
            let (sim, graph) = windowed_simulator(&trace, 1, 1);
            assert!(graph.spill_stores() > 0, "the window-1 graph spilled nothing");
            let result = sim.run(algorithm.as_ref(), &message);
            assert_eq!(result.outcomes[0].delivered_at, None, "{}", algorithm.name());
            assert_eq!(
                result.outcomes,
                reference_sim.run_reference(&full, algorithm.as_ref(), &message).outcomes,
                "{}",
                algorithm.name()
            );
            assert_graph_dropped(&graph);
        }
    }

    #[test]
    fn windowed_outcomes_match_materialized_on_a_scaled_scenario() {
        // A 200-node scaled population at window 2 of 120 slots: nearly
        // every slot is cold in the graph handed to the perfbench-kept
        // constructor. Every algorithm must reproduce the materialized
        // outcomes at every lane count, and the graph is never read.
        let scenario = psn_trace::ScenarioConfig::from_toml_str(
            "kind = \"scaled\"\nname = \"scaled-200\"\nnodes = 200\nwindow_seconds = 1200.0\n\
             max_node_rate = 0.045\nmin_node_rate = 0.0006\nmean_contact_duration = 120.0\n\
             seed = 1001\n",
        )
        .unwrap();
        let trace = scenario.generate();
        assert_eq!(trace.node_count(), 200);
        let messages = random_messages(5, 200, 24, trace.window());
        for threads in [1usize, 2, 3] {
            let materialized = Simulator::new(&trace, SimulatorConfig { delta: 10.0, threads });
            let (windowed, graph) = windowed_simulator(&trace, 2, threads);
            let mut delivered = 0;
            for (kind, algorithm) in &standard_algorithms() {
                let expected = materialized.run(algorithm.as_ref(), &messages).outcomes;
                delivered += expected.iter().filter(|o| o.delivered_at.is_some()).count();
                assert_eq!(
                    expected,
                    windowed.run(algorithm.as_ref(), &messages).outcomes,
                    "{kind} on {threads} lanes"
                );
            }
            assert!(delivered > 0, "no message delivered on {threads} lanes");
            assert!(graph.spill_stores() > 0, "window 2 spilled nothing");
            assert_graph_dropped(&graph);
        }
    }

    #[test]
    fn a_whole_batch_over_a_windowed_graph_never_reloads_a_slot() {
        // All six algorithms in one batch on one lane, built around a
        // window-1 graph whose every busy slot but the last is cold: the
        // outcomes match the reference engine, and the walk, its sweeps
        // and its shared tables reload no slot at all.
        let window = TimeWindow::new(0.0, 900.0);
        let trace = random_trace(81, 14, 90, window);
        let messages = random_messages(81, 14, 30, window);
        let (reference_sim, full) = with_graph(&trace);
        let (sim, graph) = windowed_simulator(&trace, 1, 1);
        let algorithms = standard_algorithms();
        let jobs: Vec<(&dyn ForwardingAlgorithm, &[Message])> =
            algorithms.iter().map(|(_, a)| (a.as_ref(), messages.as_slice())).collect();
        for (result, (kind, algorithm)) in sim.run_many(&jobs).iter().zip(&algorithms) {
            let reference = reference_sim.run_reference(&full, algorithm.as_ref(), &messages);
            assert_eq!(reference.outcomes, result.outcomes, "{kind}");
        }
        assert_eq!(graph.spill_stores() + 1, full.busy_slots().len() as u64);
        assert_graph_dropped(&graph);
    }

    #[test]
    fn outcomes_are_independent_of_message_and_job_order() {
        // Shuffling the messages within each job and reversing the job
        // order permutes the outcomes and changes nothing else.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let window = TimeWindow::new(0.0, 600.0);
        let trace = random_trace(17, 10, 60, window);
        let message_sets: Vec<Vec<Message>> =
            (0..2u64).map(|run| random_messages(40 + run, 10, 16, window)).collect();
        let algorithms = standard_algorithms();
        let mut rng = StdRng::seed_from_u64(5);
        let permutations: Vec<Vec<usize>> = message_sets
            .iter()
            .map(|set| {
                let mut order: Vec<usize> = (0..set.len()).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
                order
            })
            .collect();
        let shuffled_sets: Vec<Vec<Message>> = message_sets
            .iter()
            .zip(&permutations)
            .map(|(set, order)| order.iter().map(|&i| set[i]).collect())
            .collect();
        let jobs_of = |sets: &[Vec<Message>]| -> Vec<(usize, usize)> {
            (0..algorithms.len()).flat_map(|a| (0..sets.len()).map(move |r| (a, r))).collect()
        };
        for threads in [1usize, 2, 3] {
            let sim = Simulator::new(&trace, SimulatorConfig { delta: 10.0, threads });
            let keys = jobs_of(&message_sets);
            let jobs: Vec<(&dyn ForwardingAlgorithm, &[Message])> = keys
                .iter()
                .map(|&(a, r)| (algorithms[a].1.as_ref(), message_sets[r].as_slice()))
                .collect();
            let reversed: Vec<(&dyn ForwardingAlgorithm, &[Message])> = keys
                .iter()
                .rev()
                .map(|&(a, r)| (algorithms[a].1.as_ref(), shuffled_sets[r].as_slice()))
                .collect();
            let baseline = sim.run_many(&jobs);
            let shuffled = sim.run_many(&reversed);
            for (j, &(_, r)) in keys.iter().enumerate() {
                let moved = &shuffled[keys.len() - 1 - j];
                assert_eq!(moved.algorithm, baseline[j].algorithm);
                let unshuffled: Vec<MessageOutcome> = {
                    let mut out = vec![None; moved.outcomes.len()];
                    for (k, &i) in permutations[r].iter().enumerate() {
                        out[i] = Some(moved.outcomes[k].clone());
                    }
                    out.into_iter().map(Option::unwrap).collect()
                };
                assert_eq!(unshuffled, baseline[j].outcomes, "job {j} on {threads} lanes");
            }
        }
    }

    #[test]
    fn empty_batches_empty_jobs_and_late_messages_return_reference_outcomes() {
        // The last busy slot is 2; both messages are created after it.
        let trace = trace_from(vec![(0, 1, 1.0, 5.0), (1, 2, 21.0, 25.0)], 3, 100.0);
        let late = [Message::new(nid(0), nid(2), 50.0), Message::new(nid(1), nid(2), 95.0)];
        for threads in [1usize, 2] {
            let sim = Simulator::new(&trace, SimulatorConfig { delta: 10.0, threads });
            assert!(sim.run_many(&[]).is_empty());
            let graph = SpaceTimeGraph::build_default(&trace);
            for (kind, algorithm) in &standard_algorithms() {
                let results =
                    sim.run_many(&[(algorithm.as_ref(), &[][..]), (algorithm.as_ref(), &late[..])]);
                assert_eq!(results.len(), 2);
                assert_eq!(results[0].algorithm, algorithm.name());
                assert!(results[0].outcomes.is_empty(), "{kind}");
                let reference = sim.run_reference(&graph, algorithm.as_ref(), &late);
                assert_eq!(results[1].outcomes, reference.outcomes, "{kind}");
                assert!(results[1].outcomes.iter().all(|o| !o.delivered()), "{kind}");
            }
        }
    }

    /// A long-contact conference population of `mobile + stationary` nodes
    /// over `window_seconds`: 120 s mean contacts (about twelve slots)
    /// sampled at a 120 s inquiry scan, like the paper-scale presets.
    fn conference_trace(
        mobile: usize,
        stationary: usize,
        window_seconds: f64,
        seed: u64,
    ) -> ContactTrace {
        psn_trace::ScenarioConfig::from_toml_str(&format!(
            "kind = \"conference\"\nname = \"conference-test\"\nmobile_nodes = {mobile}\n\
             stationary_nodes = {stationary}\nwindow_seconds = {window_seconds:.1}\n\
             max_node_rate = 0.046\nmin_node_rate = 0.0006\nmean_contact_duration = 120.0\n\
             contact_duration_cv = 1.0\ninquiry_scan_period = 120.0\nseed = {seed}\n"
        ))
        .unwrap()
        .generate()
    }

    /// All six algorithms in one `run_batch` at each lane count, each as a
    /// path-recording and a delivery-only job over the same messages (so
    /// the two share the algorithm's group and tables): the path job's
    /// outcomes equal `run_reference`'s, and the delivery-only job's carry
    /// the same delivery times and no path. Each batch runs twice: with
    /// every delivery-only job in the lanes, and with the destination-unaware
    /// groups' delivery-only jobs answered by the backward pass.
    fn assert_batch_matches_reference(trace: &ContactTrace, messages: &[Message], lanes: &[usize]) {
        let algorithms = standard_algorithms();
        let jobs: Vec<(&dyn ForwardingAlgorithm, &[Message], Recording)> = algorithms
            .iter()
            .flat_map(|(_, a)| {
                [Recording::HopPaths, Recording::DeliveryOnly]
                    .map(|recording| (a.as_ref() as &dyn ForwardingAlgorithm, messages, recording))
            })
            .collect();
        let (reference_sim, graph) = with_graph(trace);
        let references: Vec<SimulationResult> = algorithms
            .iter()
            .map(|(_, a)| reference_sim.run_reference(&graph, a.as_ref(), messages))
            .collect();
        for (kind, reference) in algorithms.iter().map(|(k, _)| k).zip(&references) {
            let delivered = reference.outcomes.iter().filter(|o| o.delivered()).count();
            assert!(delivered > messages.len() / 10, "{kind} delivers only {delivered}");
        }
        for (&threads, pass_threshold) in lanes.iter().flat_map(|t| [(t, usize::MAX), (t, 0)]) {
            let sim = Simulator {
                pass_threshold,
                ..Simulator::new(trace, SimulatorConfig { delta: 10.0, threads })
            };
            let engine = if pass_threshold == 0 { "pass" } else { "lanes" };
            let (results, counts) = sim.run_counted(&jobs);
            for ((kind, algorithm), ((pair, reference), counts)) in
                algorithms.iter().zip(results.chunks_exact(2).zip(&references).zip(&counts))
            {
                let passed = pass_threshold == 0 && !algorithm.destination_aware();
                let expected = if passed { messages.len() as u64 } else { 0 };
                assert_eq!(counts.pass_messages, expected, "{kind} on {threads} lanes ({engine})");
                let (with_paths, delivery_only) = (&pair[0].outcomes, &pair[1].outcomes);
                assert_eq!(delivery_only.len(), reference.outcomes.len(), "{kind}");
                for (i, (r, (p, d))) in
                    reference.outcomes.iter().zip(with_paths.iter().zip(delivery_only)).enumerate()
                {
                    assert_eq!(r, p, "{kind} on {threads} lanes: outcome {i} ({})", r.message);
                    assert_eq!(
                        (d.message, d.delivered_at),
                        (r.message, r.delivered_at),
                        "{kind} on {threads} lanes ({engine}): delivery-only outcome {i}"
                    );
                    assert!(d.path.is_none(), "{kind}: delivery-only outcome {i} has a path");
                }
            }
        }
    }

    #[test]
    fn batch_matches_reference_on_a_long_contact_conference() {
        // Contacts last about twelve slots, so most slots a message visits
        // continue the encounters of the previous one: the change-driven
        // prechecks skip them, and every encounter start, row change and
        // online-count change has to wake the right messages.
        let trace = conference_trace(32, 8, 3600.0, 7);
        assert_eq!(trace.node_count(), 40);
        let messages = random_messages(7, 40, 320, trace.window());
        assert_batch_matches_reference(&trace, &messages, &[1, 2]);
    }

    #[test]
    fn batch_matches_reference_on_a_long_contact_conference_beyond_64_nodes() {
        let trace = conference_trace(60, 10, 1800.0, 8);
        assert!(trace.node_count() > 64, "needs a multi-word node mask");
        let messages = random_messages(8, trace.node_count(), 160, trace.window());
        assert_batch_matches_reference(&trace, &messages, &[1, 2]);
    }

    #[test]
    fn epidemic_delivery_equals_spacetime_reachability_on_a_conference() {
        // An oracle that shares no code with the engine: Epidemic finds the
        // earliest space-time path, which `epidemic_delivery_time` computes
        // by reachability over the graph.
        let trace = conference_trace(32, 8, 3600.0, 11);
        let messages = random_messages(11, 40, 240, trace.window());
        let graph = SpaceTimeGraph::build_default(&trace);
        for threads in [1usize, 2] {
            let sim = Simulator::new(&trace, SimulatorConfig { delta: 10.0, threads });
            let result = sim.run(&Epidemic, &messages);
            let mut delivered = 0;
            for (outcome, message) in result.outcomes.iter().zip(&messages) {
                let optimal = epidemic_delivery_time(&graph, message);
                assert_eq!(outcome.delivered_at, optimal, "{message} on {threads} lanes");
                delivered += usize::from(optimal.is_some());
            }
            assert!(delivered > messages.len() / 2, "only {delivered} deliverable messages");
        }
    }

    /// Bursts of six busy slots every 200 s, separated by idle gaps. Each
    /// busy slot draws its own one-slot contacts, so consecutive busy slots
    /// have different neighborhoods; a few contacts span two to four slots,
    /// so some neighbors carry over while others come and go.
    fn bursty_trace(seed: u64, nodes: usize, per_slot: usize) -> ContactTrace {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut contacts = Vec::new();
        for burst in 0..10 {
            for slot in 0..6 {
                let start = f64::from(burst * 200 + slot * 10);
                for i in 0..per_slot {
                    let a = rng.gen_range(0..nodes as u32 - 1);
                    let b = rng.gen_range(a + 1..nodes as u32);
                    let begin = start + rng.gen_range(1.0..4.0);
                    let end = if i % 8 == 0 {
                        begin + f64::from(rng.gen_range(1..4u32)) * 10.0
                    } else {
                        begin + rng.gen_range(1.0..5.0)
                    };
                    contacts.push((a, b, begin, end));
                }
            }
        }
        trace_from(contacts, nodes, 2000.0)
    }

    #[test]
    fn lane_neighbor_rows_match_every_busy_slot_in_walk_order() {
        // The lane rewrites one block of rows per busy slot, clearing the
        // previous slot's bits; every row must equal the slot's adjacency,
        // however the neighborhoods changed since the last busy slot.
        let trace = bursty_trace(4, 70, 30);
        let (sim, graph) = with_graph(&trace);
        let timeline = &*sim.timeline;
        assert_eq!(timeline.busy_slots().collect::<Vec<_>>(), graph.busy_slots());
        let n = graph.node_count();
        let words = n.div_ceil(64);
        let mut rows = NeighborRows::new(n);
        let mut gaps = 0;
        for (i, &slot) in graph.busy_slots().iter().enumerate() {
            gaps += usize::from(i > 0 && graph.busy_slots()[i - 1] + 1 != slot);
            let block = rows.enter(timeline, slot).to_vec();
            let adjacency = graph.slot(slot);
            for v in 0..n as u32 {
                let expected: Vec<NodeId> = adjacency.neighbors(nid(v)).to_vec();
                let row = &block[v as usize * words..][..words];
                assert_eq!(
                    nodes_of(row.iter().copied()).collect::<Vec<_>>(),
                    expected,
                    "row of node {v} at slot {slot}"
                );
            }
        }
        assert!(gaps >= 9, "the trace needs idle gaps between bursts, has {gaps}");
    }

    #[test]
    fn batch_matches_reference_when_neighborhoods_change_every_busy_slot() {
        // Neighborhoods change between consecutive busy slots and across
        // the idle gaps between bursts, on one and several mask words.
        for (seed, nodes, per_slot) in [(1u64, 24usize, 10usize), (2, 70, 40)] {
            let trace = bursty_trace(seed, nodes, per_slot);
            let window = TimeWindow::new(0.0, 1600.0);
            let messages = random_messages(seed, nodes, 90, window);
            assert_batch_matches_reference(&trace, &messages, &[1, 2, 3]);
        }
    }

    #[test]
    fn change_driven_prechecks_stay_a_small_share_of_visits() {
        // A guard on the counters, not on time: on long contacts, a message
        // carried over from the previous busy slot runs the exact precheck
        // only when the slot brings it a new encounter or a changed
        // utility. Epidemic keeps the full precheck at every visit.
        let trace = conference_trace(32, 8, 3600.0, 7);
        let messages = random_messages(7, 40, 320, trace.window());
        let algorithms = standard_algorithms();
        let jobs: Vec<(&dyn ForwardingAlgorithm, &[Message], Recording)> = algorithms
            .iter()
            .map(|(_, a)| (a.as_ref(), messages.as_slice(), Recording::HopPaths))
            .collect();
        let sim = Simulator::new(&trace, SimulatorConfig { delta: 10.0, threads: 1 });
        let (_, counts) = sim.run_counted(&jobs);
        assert_eq!(counts.len(), algorithms.len());
        for ((kind, _), counts) in algorithms.iter().zip(&counts) {
            assert!(counts.visits > 2000, "{kind}: only {} visits", counts.visits);
            if *kind == AlgorithmKind::Epidemic {
                assert_eq!(counts.prechecks, counts.visits, "{kind}");
                continue;
            }
            // Measured: 10.0–12.1% per group on this scenario.
            let share = counts.prechecks as f64 / counts.visits as f64;
            assert!(
                share <= 0.2,
                "{kind}: {} exact prechecks in {} visits ({share:.3})",
                counts.prechecks,
                counts.visits
            );
        }
    }

    #[test]
    fn batch_matches_reference_on_random_traces_across_mask_widths() {
        // Narrow, exactly one-word and wide node masks with nonzero window
        // starts; contacts last up to 160 s, so slots hold many holders and
        // copies cross several hops within one slot.
        let narrow = TimeWindow::new(3600.0, 4400.0);
        let wide = TimeWindow::new(1800.0, 2600.0);
        for (seed, nodes, contacts, window) in
            [(71u64, 12usize, 90usize, narrow), (72, 64, 260, wide), (73, 90, 420, wide)]
        {
            let trace = random_trace(seed, nodes, contacts, window);
            let messages = random_messages(seed, nodes, 40, window);
            assert_batch_matches_reference(&trace, &messages, &[1, 2]);
        }
    }

    #[test]
    fn delivery_only_jobs_run_no_ordered_sweep() {
        // A guard on the counters: delivery-only jobs never sweep and so
        // record no move, while the same jobs recording paths do both. 320
        // delivery-only messages on 40 nodes fall below the routing rule's
        // threshold, so every group walks the lanes exactly as the
        // path-recording jobs do. With the threshold at zero the
        // destination-unaware groups are answered by the backward pass and
        // the lanes never visit them.
        let trace = conference_trace(32, 8, 3600.0, 7);
        let messages = random_messages(7, 40, 320, trace.window());
        let algorithms = standard_algorithms();
        let sim = Simulator::new(&trace, SimulatorConfig { delta: 10.0, threads: 1 });
        let counts_of = |sim: &Simulator, recording| {
            let jobs: Vec<(&dyn ForwardingAlgorithm, &[Message], Recording)> = algorithms
                .iter()
                .map(|(_, a)| (a.as_ref(), messages.as_slice(), recording))
                .collect();
            sim.run_counted(&jobs).1
        };
        let delivery_only = counts_of(&sim, Recording::DeliveryOnly);
        let with_paths = counts_of(&sim, Recording::HopPaths);
        let passed = counts_of(&Simulator { pass_threshold: 0, ..sim }, Recording::DeliveryOnly);
        for ((kind, _), ((fast, full), passed)) in
            algorithms.iter().zip(delivery_only.iter().zip(&with_paths).zip(&passed))
        {
            assert_eq!((fast.sweeps, fast.moves), (0, 0), "{kind}");
            assert!(full.sweeps > 0 && full.moves > 0, "{kind}: {full:?}");
            assert_eq!((fast.pass_messages, full.pass_messages), (0, 0), "{kind}");
            // The fixpoint leaves the holder set the sweep leaves, so the
            // walk and its prechecks do not move.
            assert_eq!((fast.visits, fast.prechecks), (full.visits, full.prechecks), "{kind}");
            assert_eq!((passed.sweeps, passed.moves), (0, 0), "{kind}");
            if matches!(
                kind,
                AlgorithmKind::Epidemic | AlgorithmKind::GreedyTotal | AlgorithmKind::GreedyOnline
            ) {
                assert_eq!((passed.visits, passed.prechecks), (0, 0), "{kind}");
                assert_eq!(passed.pass_messages, messages.len() as u64, "{kind}");
                assert!(passed.pass_slots > 0 && passed.pass_edges > 0, "{kind}: {passed:?}");
            } else {
                assert_eq!((passed.visits, passed.pass_messages), (fast.visits, 0), "{kind}");
            }
        }
    }

    #[test]
    fn relabelling_nodes_changes_no_delivery_time() {
        // Renaming every node under a seeded permutation — the trace's
        // contact endpoints and every message's source and destination —
        // reorders each slot's normalized edge list, so the sweep decides
        // in another order and may hand copies along other relays; the
        // delivery times must not move, in either `run_batch` recording
        // or in the reference engine. Dynamic Programming is left out: its
        // Floyd–Warshall delays sum in node order, so a relabelling may
        // move their last bits and with them a utility tie.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for (seed, nodes, contacts, window) in [
            (91u64, 14usize, 100usize, TimeWindow::new(600.0, 1400.0)),
            (92, 80, 380, TimeWindow::new(7200.0, 8000.0)),
        ] {
            let trace = random_trace(seed, nodes, contacts, window);
            let messages = random_messages(seed, nodes, 40, window);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9E1A);
            let mut label: Vec<u32> = (0..nodes as u32).collect();
            for i in (1..nodes).rev() {
                label.swap(i, rng.gen_range(0..=i));
            }
            let relabel = |v: NodeId| nid(label[v.index()]);
            let relabelled_trace = trace_in_window(
                trace
                    .contacts()
                    .iter()
                    .map(|c| (relabel(c.a).0, relabel(c.b).0, c.start, c.end))
                    .collect(),
                nodes,
                window,
            );
            let relabelled_messages: Vec<Message> = messages
                .iter()
                .map(|m| Message::new(relabel(m.source), relabel(m.destination), m.created_at))
                .collect();
            let (sim, graph) = with_graph(&trace);
            let (relabelled_sim, relabelled_graph) = with_graph(&relabelled_trace);
            let delivery_times = |result: &SimulationResult| -> Vec<Option<Seconds>> {
                result.outcomes.iter().map(|o| o.delivered_at).collect()
            };
            let mut delivered = 0;
            for (kind, algorithm) in &standard_algorithms() {
                if *kind == AlgorithmKind::DynamicProgramming {
                    continue;
                }
                let algorithm = algorithm.as_ref();
                let expected = delivery_times(&sim.run_reference(&graph, algorithm, &messages));
                delivered += expected.iter().flatten().count();
                let runs = [
                    relabelled_sim.run_reference(
                        &relabelled_graph,
                        algorithm,
                        &relabelled_messages,
                    ),
                    relabelled_sim.run(algorithm, &relabelled_messages),
                    relabelled_sim
                        .run_batch(&[(algorithm, &relabelled_messages, Recording::DeliveryOnly)])
                        .remove(0),
                ];
                for (run, name) in runs.iter().zip(["reference", "hop paths", "delivery only"]) {
                    assert_eq!(delivery_times(run), expected, "{kind} ({name}), {nodes} nodes");
                }
            }
            assert!(delivered > messages.len(), "only {delivered} deliveries over five algorithms");
        }
    }

    /// A random trace and message set with integer-valued times, every
    /// one shifted by `shift` seconds: contacts and creation times land on
    /// slot boundaries often, and a whole-slot shift stays exact.
    fn integer_workload(
        seed: u64,
        start: f64,
        shift: f64,
    ) -> (ContactTrace, Vec<Message>, TimeWindow) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes = rng.gen_range(3..12u32);
        let span = 600.0;
        let window = TimeWindow::new(start + shift, start + shift + span);
        let contacts = (0..rng.gen_range(5..50))
            .map(|_| {
                let a = rng.gen_range(0..nodes);
                let b = (a + rng.gen_range(1..nodes)) % nodes;
                let begin = f64::from(rng.gen_range(0..590u32));
                let length = f64::from(rng.gen_range(0..60u32));
                (a, b, window.start + begin, window.start + (begin + length).min(span))
            })
            .collect();
        let messages = (0..rng.gen_range(1..16))
            .map(|_| {
                let source = rng.gen_range(0..nodes);
                let destination = (source + rng.gen_range(1..nodes)) % nodes;
                let created = window.start + f64::from(rng.gen_range(0..600u32));
                Message::new(nid(source), nid(destination), created)
            })
            .collect();
        (trace_in_window(contacts, nodes as usize, window), messages, window)
    }

    /// What a whole-slot time shift must leave unchanged in an outcome:
    /// delivery, the hop nodes, the delay and each hop's offset from the
    /// creation time.
    fn shift_free(outcome: &MessageOutcome) -> (Option<Seconds>, Vec<(NodeId, Seconds)>) {
        let created = outcome.message.created_at;
        let hops = outcome.path.as_ref().map_or_else(Vec::new, |path| {
            path.hops().iter().map(|hop| (hop.node, hop.time - created)).collect()
        });
        (outcome.delivered_at.map(|t| t - created), hops)
    }

    proptest::proptest! {
        #[test]
        fn a_whole_slot_time_shift_changes_no_delivery_path_or_delay(
            seed in 0u64..1_000_000,
            start in 0u32..40,
            slots in 1u32..100_000,
        ) {
            // Shifting every contact, the window and every creation time by
            // k·Δ moves every slot boundary with them, so both engines must
            // make the same decisions: same delivered flags, hop nodes and
            // delays. Integer-valued times keep the shift exact.
            let start = f64::from(start) * 7.0;
            let shift = f64::from(slots) * 10.0;
            let (trace, messages, _) = integer_workload(seed, start, 0.0);
            let (shifted, shifted_messages, window) = integer_workload(seed, start, shift);
            assert_eq!(shifted.window(), window);
            let (sim, graph) = with_graph(&trace);
            let (shifted_sim, shifted_graph) = with_graph(&shifted);
            for (kind, algorithm) in &standard_algorithms() {
                let runs = [
                    sim.run(algorithm.as_ref(), &messages),
                    sim.run_reference(&graph, algorithm.as_ref(), &messages),
                    shifted_sim.run(algorithm.as_ref(), &shifted_messages),
                    shifted_sim.run_reference(&shifted_graph, algorithm.as_ref(), &shifted_messages),
                ];
                let base: Vec<_> = runs[0].outcomes.iter().map(shift_free).collect();
                for (run, name) in runs.iter().zip(["engine", "reference", "shifted engine", "shifted reference"]) {
                    let got: Vec<_> = run.outcomes.iter().map(shift_free).collect();
                    proptest::prop_assert_eq!(&got, &base, "{} {}, shift {}", kind, name, shift);
                }
            }
        }
    }

    /// Message-set sizes of [`uneven_batch`].
    const UNEVEN_SIZES: [usize; 5] = [150, 1, 96, 0, 260];

    /// Uneven jobs over one random trace: empty jobs, a one-message job,
    /// both recordings, and two jobs (one per recording) that share one
    /// algorithm object with a third over other messages.
    fn uneven_batch(
        algorithms: &[(AlgorithmKind, Box<dyn ForwardingAlgorithm>)],
        sets: &[Vec<Message>],
    ) -> Vec<(usize, usize, Recording)> {
        let shapes = [
            (0, 0, Recording::HopPaths),
            (1, 1, Recording::DeliveryOnly),
            (2, 2, Recording::HopPaths),
            (3, 0, Recording::DeliveryOnly),
            (2, 3, Recording::DeliveryOnly),
            (4, 4, Recording::HopPaths),
            (5, 1, Recording::HopPaths),
            (2, 1, Recording::HopPaths),
            (0, 4, Recording::DeliveryOnly),
        ];
        assert!(shapes.iter().all(|&(a, set, _)| a < algorithms.len() && set < sets.len()));
        shapes.to_vec()
    }

    #[test]
    fn chunked_dealing_matches_reference_on_uneven_mixed_batches() {
        // Job sizes 0, 1, 96, 150 and 260 make chunks of 14, 7 and 4
        // messages at one, two and three lanes, and at three lanes the chunk count is not
        // a multiple of the lane count; every job must still equal its
        // reference run, whatever lane its chunks went to.
        let window = TimeWindow::new(600.0, 1400.0);
        let trace = random_trace(61, 20, 160, window);
        let sets: Vec<Vec<Message>> = UNEVEN_SIZES
            .iter()
            .enumerate()
            .map(|(i, &count)| random_messages(61 + i as u64, 20, count, window))
            .collect();
        let algorithms = standard_algorithms();
        let shapes = uneven_batch(&algorithms, &sets);
        let jobs: Vec<(&dyn ForwardingAlgorithm, &[Message], Recording)> = shapes
            .iter()
            .map(|&(a, set, recording)| (algorithms[a].1.as_ref(), sets[set].as_slice(), recording))
            .collect();
        let total: usize = jobs.iter().map(|(_, messages, _)| messages.len()).sum();
        let (reference_sim, graph) = with_graph(&trace);
        let references: Vec<SimulationResult> = jobs
            .iter()
            .map(|&(algorithm, messages, _)| {
                reference_sim.run_reference(&graph, algorithm, messages)
            })
            .collect();
        let delivered = references.iter().flat_map(|r| &r.outcomes).filter(|o| o.delivered());
        assert!(delivered.count() > total / 10, "the trace must deliver messages");
        let mut baseline: Option<Vec<SimulationResult>> = None;
        for lanes in [1usize, 2, 3] {
            let chunk = chunk_len(total, lanes);
            let chunks: usize = jobs.iter().map(|(_, m, _)| m.len().div_ceil(chunk)).sum();
            if lanes == 3 {
                assert!(chunk > 1 && !chunks.is_multiple_of(lanes), "{chunks} chunks of {chunk}");
            }
            let sim = Simulator::new(&trace, SimulatorConfig { delta: 10.0, threads: lanes });
            let results = sim.run_batch(&jobs);
            assert_eq!(results.len(), jobs.len());
            for (j, ((result, reference), &(_, _, recording))) in
                results.iter().zip(&references).zip(&jobs).enumerate()
            {
                assert_eq!(result.algorithm, reference.algorithm, "job {j}");
                match recording {
                    Recording::HopPaths => {
                        assert_eq!(result.outcomes, reference.outcomes, "job {j} on {lanes} lanes")
                    }
                    Recording::DeliveryOnly => {
                        let expected: Vec<MessageOutcome> = reference
                            .outcomes
                            .iter()
                            .map(|o| MessageOutcome { path: None, ..o.clone() })
                            .collect();
                        assert_eq!(result.outcomes, expected, "job {j} on {lanes} lanes");
                    }
                }
            }
            match &baseline {
                None => baseline = Some(results),
                Some(one_lane) => {
                    for (a, b) in one_lane.iter().zip(&results) {
                        assert_eq!(a.outcomes, b.outcomes, "{lanes} lanes against one");
                    }
                }
            }
        }
    }

    #[test]
    fn dealing_covers_every_slot_once_and_only_path_jobs_get_provenance() {
        let window = TimeWindow::new(0.0, 600.0);
        let trace = random_trace(62, 12, 60, window);
        let sets: Vec<Vec<Message>> = UNEVEN_SIZES
            .iter()
            .enumerate()
            .map(|(i, &count)| random_messages(62 + i as u64, 12, count, window))
            .collect();
        let algorithms = standard_algorithms();
        let shapes = uneven_batch(&algorithms, &sets);
        let sim = Simulator::new(&trace, SimulatorConfig { delta: 10.0, threads: 1 });
        for delivery_only in [false, true] {
            let jobs: Vec<(&dyn ForwardingAlgorithm, &[Message], Recording)> = shapes
                .iter()
                .map(|&(a, set, recording)| {
                    let recording = if delivery_only { Recording::DeliveryOnly } else { recording };
                    (algorithms[a].1.as_ref(), sets[set].as_slice(), recording)
                })
                .collect();
            let groups: Vec<(&dyn ForwardingAlgorithm, DecisionMode)> =
                jobs.iter().map(|&(a, _, _)| (a, sim.decision_mode(a))).collect();
            let total: usize = jobs.iter().map(|(_, m, _)| m.len()).sum();
            for lanes in [1usize, 2, 3] {
                let mut results = undelivered(&jobs);
                let starts: Vec<*const MessageOutcome> =
                    results.iter().map(|r| r.outcomes.as_ptr()).collect();
                let lane_jobs = results
                    .iter_mut()
                    .zip(&jobs)
                    .enumerate()
                    .map(|(job, (result, &(_, _, recording)))| Dealt {
                        outcomes: result.outcomes.as_mut_slice(),
                        group: job,
                        paths: recording == Recording::HopPaths,
                    })
                    .collect();
                let dealt = deal(lane_jobs, lanes);
                assert_eq!(dealt.len(), lanes);
                // Round-robin in job-major order: chunk i went to lane
                // i % lanes, each at most `chunk_len` slots, and together
                // they tile every job's outcomes in order.
                let mut order: Vec<(usize, usize, usize, usize)> = Vec::new();
                for (lane, share) in dealt.iter().enumerate() {
                    for (k, chunk) in share.iter().enumerate() {
                        assert!(chunk.outcomes.len() <= chunk_len(total, lanes));
                        assert!(!chunk.outcomes.is_empty());
                        let job = chunk.group;
                        let offset = (chunk.outcomes.as_ptr() as usize - starts[job] as usize)
                            / std::mem::size_of::<MessageOutcome>();
                        assert_eq!(chunk.paths, jobs[job].2 == Recording::HopPaths);
                        order.push((job, offset, k * lanes + lane, chunk.outcomes.len()));
                    }
                }
                order.sort_unstable();
                let mut next = vec![0; jobs.len()];
                for (i, &(job, offset, dealt_as, len)) in order.iter().enumerate() {
                    assert_eq!((offset, dealt_as), (next[job], i), "lanes {lanes}");
                    next[job] += len;
                }
                assert_eq!(next, jobs.iter().map(|(_, m, _)| m.len()).collect::<Vec<_>>());
                // A lane keeps one provenance list per path-recording
                // message it was dealt, and none at all for a
                // delivery-only batch.
                for share in dealt {
                    let paths: usize =
                        share.iter().filter(|c| c.paths).map(|c| c.outcomes.len()).sum();
                    let lane = Lane::new(&sim, share, &groups);
                    assert_eq!((lane.paths, lane.moves.len()), (paths, paths));
                    if delivery_only {
                        assert_eq!(lane.moves.capacity(), 0, "{lanes} lanes");
                    }
                }
            }
        }
    }

    /// The three destination-unaware algorithms of the paper.
    fn unaware_algorithms() -> Vec<(AlgorithmKind, Box<dyn ForwardingAlgorithm>)> {
        standard_algorithms()
            .into_iter()
            .filter(|(_, algorithm)| !algorithm.destination_aware())
            .collect()
    }

    /// A destination-unaware direct rule with one-way edges and cycles:
    /// whether a copy moves depends on both ends and on the history, and
    /// the two directions of an edge often disagree.
    struct Lopsided;

    impl ForwardingAlgorithm for Lopsided {
        fn name(&self) -> &str {
            "Lopsided"
        }
        fn destination_aware(&self) -> bool {
            false
        }
        fn should_forward(
            &self,
            ctx: &ForwardingContext<'_>,
            holder: NodeId,
            peer: NodeId,
            _destination: NodeId,
        ) -> bool {
            (u64::from(7 * peer.0 + 3 * holder.0) + ctx.history.total_contacts(peer)) % 5 < 2
        }
    }

    /// Runs every algorithm in `algorithms` as one delivery-only job over
    /// `messages` on each lane count, with the routing threshold at zero,
    /// checks that each group took the backward pass, and that its delivery
    /// times equal `run_reference`'s.
    fn assert_pass_matches_reference(
        trace: &ContactTrace,
        messages: &[Message],
        algorithms: &[&dyn ForwardingAlgorithm],
        lanes: &[usize],
    ) {
        let (reference_sim, graph) = with_graph(trace);
        let jobs: Vec<(&dyn ForwardingAlgorithm, &[Message], Recording)> =
            algorithms.iter().map(|&a| (a, messages, Recording::DeliveryOnly)).collect();
        for &threads in lanes {
            let sim = Simulator {
                pass_threshold: 0,
                ..Simulator::new(trace, SimulatorConfig { delta: 10.0, threads })
            };
            let (results, counts) = sim.run_counted(&jobs);
            for ((&algorithm, result), counts) in algorithms.iter().zip(&results).zip(&counts) {
                let name = algorithm.name();
                assert_eq!(counts.pass_messages, messages.len() as u64, "{name} took the lanes");
                assert_eq!(counts.visits, 0, "{name}");
                let reference = reference_sim.run_reference(&graph, algorithm, messages);
                let expected: Vec<MessageOutcome> = reference
                    .outcomes
                    .iter()
                    .map(|o| MessageOutcome { path: None, ..o.clone() })
                    .collect();
                assert_eq!(result.outcomes, expected, "{name} on {threads} lanes");
            }
        }
    }

    #[test]
    fn backward_pass_matches_reference_on_random_traces_beyond_64_nodes() {
        for (seed, nodes, contacts, window) in [
            (101u64, 70usize, 300usize, TimeWindow::new(0.0, 900.0)),
            (102, 130, 600, TimeWindow::new(5400.0, 6200.0)),
            (103, 20, 140, TimeWindow::new(3600.0, 4400.0)),
        ] {
            let trace = random_trace(seed, nodes, contacts, window);
            let messages = random_messages(seed, nodes, nodes + 30, window);
            let unaware = unaware_algorithms();
            let mut algorithms: Vec<&dyn ForwardingAlgorithm> =
                unaware.iter().map(|(_, a)| a.as_ref()).collect();
            algorithms.push(&Lopsided);
            assert_pass_matches_reference(&trace, &messages, &algorithms, &[1, 2, 3]);
        }
    }

    #[test]
    fn backward_pass_matches_reference_on_idle_sources_late_and_self_addressed_messages() {
        // Contacts only among the first 60 of 72 nodes and only in the
        // first 500 s of an 800 s window starting at 7200 s: the last 12
        // nodes are never active, and messages created after 7700 s come
        // after the last busy slot. Every node also sends itself one.
        let busy = TimeWindow::new(7200.0, 7700.0);
        let contacts = random_trace(111, 60, 320, busy)
            .contacts()
            .iter()
            .map(|c| (c.a.0, c.b.0, c.start, c.end))
            .collect();
        let window = TimeWindow::new(7200.0, 8000.0);
        let trace = trace_in_window(contacts, 72, window);
        let mut messages = random_messages(111, 72, 40, window);
        messages.extend(random_messages(112, 72, 20, TimeWindow::new(7750.0, 8000.0)));
        // `Message::new` refuses these, but the engines must agree on them.
        messages.extend((0..72).map(|v| Message {
            source: nid(v),
            destination: nid(v),
            created_at: 7200.0 + 5.0 * f64::from(v),
        }));
        messages.extend((60..72).map(|v| Message::new(nid(v), nid(v % 7), 7210.0)));
        messages.extend((0..12).map(|v| Message::new(nid(v), nid(60 + v), 7220.0)));
        let (reference_sim, graph) = with_graph(&trace);
        let epidemic = reference_sim.run_reference(&graph, &Epidemic, &messages);
        let delivered = epidemic.outcomes.iter().filter(|o| o.delivered()).count();
        let own = epidemic
            .outcomes
            .iter()
            .filter(|o| o.delivered() && o.message.source == o.message.destination);
        assert!(delivered > 40 && own.count() > 10, "{delivered} deliveries");
        let unaware = unaware_algorithms();
        let mut algorithms: Vec<&dyn ForwardingAlgorithm> =
            unaware.iter().map(|(_, a)| a.as_ref()).collect();
        algorithms.push(&Lopsided);
        assert_pass_matches_reference(&trace, &messages, &algorithms, &[1, 2, 3]);
    }

    #[test]
    fn mixed_batches_match_reference_on_both_sides_of_the_routing_rule() {
        // One algorithm object serves a path-recording job and two
        // delivery-only jobs. With the routing threshold at 65 messages
        // per node of the 40, the destination-unaware groups take the pass
        // with 60 + 10 delivery-only messages, which neither job reaches
        // alone, and stay in the lanes with 20 + 10. Either way every job
        // equals its reference run, at one, two and three lanes.
        let window = TimeWindow::new(1800.0, 2600.0);
        let trace = random_trace(121, 40, 260, window);
        let paths = random_messages(121, 40, 25, window);
        let (reference_sim, graph) = with_graph(&trace);
        let algorithms = standard_algorithms();
        for (delivery_only, expect_pass) in [(70usize, true), (30, false)] {
            let first = random_messages(122, 40, delivery_only - 10, window);
            let second = random_messages(123, 40, 10, window);
            let jobs: Vec<(&dyn ForwardingAlgorithm, &[Message], Recording)> = algorithms
                .iter()
                .flat_map(|(_, a)| {
                    let a: &dyn ForwardingAlgorithm = a.as_ref();
                    [
                        (a, first.as_slice(), Recording::DeliveryOnly),
                        (a, paths.as_slice(), Recording::HopPaths),
                        (a, second.as_slice(), Recording::DeliveryOnly),
                    ]
                })
                .collect();
            for lanes in [1usize, 2, 3] {
                let sim = Simulator {
                    pass_threshold: 40 * 65,
                    ..Simulator::new(&trace, SimulatorConfig { delta: 10.0, threads: lanes })
                };
                let (results, counts) = sim.run_counted(&jobs);
                for ((kind, algorithm), counts) in algorithms.iter().zip(&counts) {
                    let pass = expect_pass && !algorithm.destination_aware();
                    let expected = if pass { delivery_only as u64 } else { 0 };
                    assert_eq!(counts.pass_messages, expected, "{kind} on {lanes} lanes");
                }
                for (j, (result, &(algorithm, messages, recording))) in
                    results.iter().zip(&jobs).enumerate()
                {
                    let mut expected = reference_sim.run_reference(&graph, algorithm, messages);
                    if recording == Recording::DeliveryOnly {
                        expected.outcomes.iter_mut().for_each(|o| o.path = None);
                    }
                    assert_eq!(result.outcomes, expected.outcomes, "job {j} on {lanes} lanes");
                }
            }
        }
    }

    #[test]
    fn routing_sends_paper_like_batches_to_the_pass_and_small_ones_to_the_lanes() {
        // The threshold falls between two loads of one group.
        let epidemic: &dyn ForwardingAlgorithm = &Epidemic;
        let direct = DecisionMode::Direct;
        assert!(takes_pass(epidemic, direct, 1338, 98, PASS_MIN_NODE_MESSAGES));
        assert!(!takes_pass(epidemic, direct, 1337, 98, PASS_MIN_NODE_MESSAGES));
        assert!(!takes_pass(epidemic, direct, 0, 98, 0));
        assert!(takes_pass(epidemic, direct, usize::MAX, usize::MAX, PASS_MIN_NODE_MESSAGES));
        // A paper-like batch: six algorithms × three runs of 600
        // delivery-only messages on a 98-node conference, as many per
        // algorithm as one run of the paper's workload. The three
        // destination-unaware groups are answered by the pass, the others
        // by the lanes.
        let trace = conference_trace(78, 20, 1800.0, 131);
        let runs: Vec<Vec<Message>> =
            (0..3u64).map(|run| random_messages(131 + run, 98, 600, trace.window())).collect();
        let algorithms = standard_algorithms();
        let jobs: Vec<(&dyn ForwardingAlgorithm, &[Message], Recording)> = algorithms
            .iter()
            .flat_map(|(_, a)| {
                runs.iter().map(move |m| (a.as_ref() as _, m.as_slice(), Recording::DeliveryOnly))
            })
            .collect();
        let sim = Simulator::new(&trace, SimulatorConfig { delta: 10.0, threads: 2 });
        let (_, counts) = sim.run_counted(&jobs);
        for ((kind, algorithm), counts) in algorithms.iter().zip(&counts) {
            if algorithm.destination_aware() {
                assert_eq!(counts.pass_messages, 0, "{kind}");
                assert!(counts.visits > 0, "{kind}");
            } else {
                assert_eq!((counts.pass_messages, counts.visits), (1800, 0), "{kind}");
                assert!(counts.pass_slots > 0 && counts.pass_edges > 0, "{kind}: {counts:?}");
            }
        }
        // An 11-message batch per algorithm on 1 000 nodes, as the
        // streaming workload runs: every group stays in the lanes.
        let trace = psn_trace::ScenarioConfig::from_toml_str(
            "kind = \"scaled\"\nname = \"scaled-1k\"\nnodes = 1000\nwindow_seconds = 600.0\n\
             max_node_rate = 0.045\nmin_node_rate = 0.0006\nmean_contact_duration = 120.0\n\
             seed = 1001\n",
        )
        .unwrap()
        .generate();
        let messages = random_messages(132, 1000, 11, trace.window());
        let jobs: Vec<(&dyn ForwardingAlgorithm, &[Message], Recording)> = algorithms
            .iter()
            .map(|(_, a)| (a.as_ref(), messages.as_slice(), Recording::DeliveryOnly))
            .collect();
        let sim = Simulator::new(&trace, SimulatorConfig { delta: 10.0, threads: 1 });
        let (_, counts) = sim.run_counted(&jobs);
        for ((kind, _), counts) in algorithms.iter().zip(&counts) {
            assert_eq!((counts.pass_messages, counts.pass_slots), (0, 0), "{kind}");
        }
    }

    #[test]
    fn pass_blocks_bound_the_table_and_cover_every_destination_once() {
        // 64 columns at the node bound (4 MiB of table), one block of
        // every destination on paper-scale traces.
        assert_eq!(pass_columns(16_384), 64);
        assert_eq!(pass_columns(16_384) * 16_384 * 4, PASS_TABLE_BYTES);
        assert_eq!(pass_columns(1_000_000), 64);
        assert!(pass_columns(98) >= 98);
        // 20 000 nodes: 64-column blocks, so 150 destinations make three.
        let n = 20_000;
        let messages: Vec<Message> = (0..600u32)
            .map(|i| Message {
                source: nid(i),
                destination: nid((i * 7919) % 150 * 13),
                created_at: f64::from(i),
            })
            .collect();
        let mut outcomes: Vec<MessageOutcome> = messages
            .iter()
            .map(|&message| MessageOutcome { message, delivered_at: None, path: None })
            .collect();
        let (low, high) = outcomes.split_at_mut(250);
        let passes = plan_passes(4, vec![low, high], n);
        assert_eq!(passes.iter().map(|p| p.columns.len()).collect::<Vec<_>>(), [64, 64, 22]);
        let mut seen = std::collections::BTreeSet::new();
        let mut answered = 0;
        for pass in &passes {
            assert_eq!(pass.group, 4);
            assert!(pass.columns.windows(2).all(|w| w[0] < w[1]));
            assert!(pass.columns.iter().all(|&d| seen.insert(d)), "a destination in two blocks");
            for outcome in &pass.outcomes {
                assert!(pass.columns.contains(&outcome.message.destination));
            }
            answered += pass.outcomes.len();
        }
        assert_eq!((answered, seen.len()), (600, 150));
    }

    #[test]
    fn run_many_shards_algorithm_by_run_jobs() {
        let window = TimeWindow::new(0.0, 600.0);
        let trace = random_trace(7, 9, 45, window);
        let sim = Simulator::new(&trace, SimulatorConfig { delta: 10.0, threads: 4 });
        let graph = SpaceTimeGraph::build_default(&trace);
        let algorithms = standard_algorithms();
        let message_sets: Vec<Vec<Message>> =
            (0..3u64).map(|run| random_messages(run, 9, 10, window)).collect();
        // Flatten algorithm × run jobs like the study driver does.
        let jobs: Vec<(&dyn ForwardingAlgorithm, &[Message])> = algorithms
            .iter()
            .flat_map(|(_, a)| message_sets.iter().map(move |m| (a.as_ref() as _, m.as_slice())))
            .collect();
        let results = sim.run_many(&jobs);
        assert_eq!(results.len(), algorithms.len() * message_sets.len());
        for ((algorithm, messages), result) in jobs.iter().zip(&results) {
            assert_eq!(result.algorithm, algorithm.name());
            let reference = sim.run_reference(&graph, *algorithm, messages);
            assert_eq!(reference.outcomes, result.outcomes);
        }
    }
}
