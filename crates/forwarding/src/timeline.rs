//! Precomputed, shareable contact history.
//!
//! [`crate::history::ContactHistory`] is a *mutable* replay: the serial
//! reference simulator advances it slot by slot, so every (algorithm × run)
//! combination pays for its own replay and nothing can run concurrently.
//! But the history depends only on the trace — not on the algorithm, the
//! messages or the run — so the whole evolution can be computed **once** per
//! trace and then shared by reference across every simulation.
//!
//! [`HistoryTimeline`] stores that evolution as one list of encounters per
//! meeting pair and one list of cumulative-count events per node. An
//! encounter is a maximal run of consecutive contact slots of one pair (the
//! contiguity rule of the history module), kept as its first and last slot.
//! A [`HistoryView`] is a `Copy` handle pinning the timeline to one slot; it
//! answers the same queries as a `ContactHistory` that was advanced through
//! that slot — bit-identically, which the differential tests below pin
//! down:
//!
//! * `contacts_with` — the number of the pair's encounters that start at or
//!   before the view's slot;
//! * `last_contact_with` — the end time of the latest contact slot ≤ the
//!   view's slot: the last such encounter's last slot, or the view's slot
//!   itself while that encounter is still running — exactly what the replay
//!   records;
//! * `total_contacts` — the node's cumulative *encounter* count at that
//!   slot.
//!
//! Lookups are `O(log e)` in the number of encounters of one pair (or
//! encounter starts of one node), versus `O(1)` for the mutable arrays — in
//! exchange the structure is immutable, `Sync`, built once, and its history
//! lists cost `O(encounters)` memory rather than `O(n²)` per concurrent
//! simulation. A contact that lasts many slots is one 8-byte entry, not one
//! per slot.
//!
//! For the simulator's skip index and prechecks the timeline also keeps,
//! per busy slot, `⌈n/64⌉`-word activity and encounter-start bitmasks and
//! the slot's edge list ([`HistoryTimeline::slot_edges`]), and per node its
//! active slots. Nothing per slot is `O(n²)`: a simulator lane expands one
//! slot's edge list at a time into per-node neighbor rows. The only `O(n²)`
//! table is the `4·n²`-byte pair index.

use psn_spacetime::{IncrementalSlotter, SpaceTimeGraph};
use psn_trace::stream::{fold_trace, slot_end_time};
use psn_trace::{ContactStream, ContactTrace, NodeId, Seconds, StreamError};

use crate::history::ContactKnowledge;

/// Sentinel for "this pair never meets anywhere in the trace".
const NO_PAIR: u32 = u32::MAX;

/// One encounter of a pair: it is in contact in every slot of
/// `start..=end` and in neither `start − 1` nor `end + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Encounter {
    start: u32,
    end: u32,
}

/// One per-node history event: at `slot` the node's cumulative encounter
/// count (over all peers) rises to `encounters`.
#[derive(Debug, Clone, Copy)]
struct NodeEvent {
    slot: u32,
    encounters: u64,
}

/// The full, read-only evolution of contact history over a trace.
///
/// Built once per trace — from a contact stream or trace, or from a
/// [`SpaceTimeGraph`]'s deduplicated per-slot edge lists, bit-identically —
/// and shared by reference across all algorithm × run × message-batch
/// workers of the parallel simulator, whose only slot input it is.
/// Besides the `O(n²)`-word pair index, its size is linear in the contact
/// edges, slots and nodes of the trace (see [`HistoryTimeline::approx_bytes`]).
#[derive(Debug, Clone)]
pub struct HistoryTimeline {
    node_count: usize,
    /// [`psn_trace::stream::slot_end_time`] per slot, captured at build
    /// time so recency timestamps come from the one slot-time convention
    /// instead of a re-derived formula that could drift.
    slot_end_times: Vec<Seconds>,
    /// Dense symmetric pair → encounter-list index map (`NO_PAIR` = never
    /// meet). `O(n²)` words; for the paper's sub-thousand-node traces this
    /// is the fastest lookup and a few MB at worst.
    pair_index: Vec<u32>,
    /// Per meeting pair: its encounters, ascending.
    pair_encounters: Vec<Vec<Encounter>>,
    /// Per node: the slots where its cumulative encounter count changes.
    node_events: Vec<Vec<NodeEvent>>,
    /// Per node: every slot in which the node has at least one contact
    /// edge, ascending — the simulator's skip index. Unlike `node_events`
    /// (which only records encounter *starts*) this lists every active
    /// slot, so `next_active_slot` agrees exactly with a per-slot
    /// `Slot::has_contacts` scan.
    node_active_slots: Vec<Vec<u32>>,
    /// `⌈node_count / 64⌉` — stride of `slot_active_masks`.
    words_per_slot: usize,
    /// Slot-major activity bitmasks: bit `v` of words
    /// `[slot * words_per_slot, (slot + 1) * words_per_slot)` is set iff
    /// node `v` has a contact edge in `slot` — the transpose of
    /// `node_active_slots`, so the simulator can answer "is any holder
    /// active this slot?" with a few word intersections instead of a scan.
    /// Truncated after the last busy slot (missing words read as zero).
    slot_active_masks: Vec<u64>,
    /// Slot-major encounter-start bitmasks, same layout as
    /// `slot_active_masks`: bit `v` of slot `s` is set iff node `v` has a
    /// contact edge in `s` that it did not have in `s − 1` — the slots where
    /// `node_events` records an encounter start. See
    /// [`HistoryTimeline::start_mask`].
    slot_start_masks: Vec<u64>,
    /// Node-major ever-met bitmasks, stride `words_per_slot`: bit `p` of
    /// node `v`'s row is set iff `v` and `p` share at least one contact
    /// slot anywhere in the trace, or `p == v`. Derived from the pair
    /// index at seal time; see [`HistoryTimeline::ever_met_mask`].
    ever_met_masks: Vec<u64>,
    /// Every busy slot's contact edges, concatenated in slot order, each
    /// slot's list as folded (the graph's normalized order). `O(edges)`:
    /// the simulator expands one slot at a time into per-node neighbor
    /// rows instead of the timeline keeping an `O(n²)`-bit block per slot.
    /// See [`HistoryTimeline::slot_edges`].
    slot_edges: Vec<(NodeId, NodeId)>,
    /// Per slot: the end of its run in `slot_edges` (the start is the
    /// previous slot's end). Truncated after the last busy slot.
    slot_edge_ends: Vec<usize>,
}

/// Incremental [`HistoryTimeline`] construction: a fold over `(slot,
/// edges)` batches in ascending slot order.
///
/// Every route to a timeline runs this one fold, so they produce
/// bit-identical timelines: [`HistoryTimeline::build`] feeds it a graph's
/// busy slots, [`HistoryTimeline::from_stream`] the slots an
/// [`IncrementalSlotter`] seals from a contact stream (no graph at all), and
/// a streaming study that also needs a graph feeds it from the windowed
/// graph builder's sealed-slot tap, in the same single pass.
#[derive(Debug, Clone)]
pub struct TimelineBuilder {
    node_count: usize,
    pair_index: Vec<u32>,
    pair_encounters: Vec<Vec<Encounter>>,
    node_events: Vec<Vec<NodeEvent>>,
    node_active_slots: Vec<Vec<u32>>,
    words_per_slot: usize,
    slot_active_masks: Vec<u64>,
    slot_start_masks: Vec<u64>,
    slot_edges: Vec<(NodeId, NodeId)>,
    slot_edge_ends: Vec<usize>,
    /// Bytes held by the entries of the encounter, per-node and active-slot
    /// lists, kept current by `push_slot` so `approx_bytes` is `O(1)`.
    list_bytes: usize,
    /// Highest slot folded so far plus one; batches must arrive ascending.
    next_slot: usize,
}

impl TimelineBuilder {
    /// An empty builder over `node_count` nodes.
    pub fn new(node_count: usize) -> Self {
        Self {
            node_count,
            pair_index: vec![NO_PAIR; node_count * node_count],
            pair_encounters: Vec::new(),
            node_events: vec![Vec::new(); node_count],
            node_active_slots: vec![Vec::new(); node_count],
            words_per_slot: node_count.div_ceil(64),
            slot_active_masks: Vec::new(),
            slot_start_masks: Vec::new(),
            slot_edges: Vec::new(),
            slot_edge_ends: Vec::new(),
            list_bytes: 0,
            next_slot: 0,
        }
    }

    /// Folds the contact edges of one slot. Slots must be pushed in strictly
    /// ascending order (empty slots may simply be skipped — they contribute
    /// no events).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is below an already-pushed slot (the encounter
    /// contiguity rule depends on ascending order).
    pub fn push_slot(&mut self, slot: usize, edges: &[(NodeId, NodeId)]) {
        assert!(
            slot >= self.next_slot,
            "timeline slots must be folded in ascending order: got {slot} after {}",
            self.next_slot
        );
        self.next_slot = slot + 1;
        let n = self.node_count;
        let slot32 = u32::try_from(slot).unwrap_or_else(|_| unreachable!("slot index fits in u32"));
        if !edges.is_empty() {
            self.slot_active_masks.resize((slot + 1) * self.words_per_slot, 0);
            self.slot_start_masks.resize((slot + 1) * self.words_per_slot, 0);
            self.slot_edge_ends.resize(slot, self.slot_edges.len());
            self.slot_edges.extend_from_slice(edges);
            self.slot_edge_ends.push(self.slot_edges.len());
        }
        for &(a, b) in edges {
            for node in [a, b] {
                let active = &mut self.node_active_slots[node.index()];
                if active.last() != Some(&slot32) {
                    active.push(slot32);
                    self.list_bytes += std::mem::size_of::<u32>();
                }
                self.slot_active_masks[slot * self.words_per_slot + node.index() / 64] |=
                    1u64 << (node.index() % 64);
            }
            let key = a.index() * n + b.index();
            let pair = if self.pair_index[key] == NO_PAIR {
                let id = self.pair_encounters.len() as u32;
                self.pair_index[key] = id;
                self.pair_index[b.index() * n + a.index()] = id;
                self.pair_encounters.push(Vec::new());
                id
            } else {
                self.pair_index[key]
            };
            let encounters = &mut self.pair_encounters[pair as usize];
            // Same contiguity rule as `ContactHistory::record_contact`: an
            // encounter continues while the pair stays in contact in
            // consecutive slots.
            let new_encounter = match encounters.last_mut() {
                Some(last) if last.end + 1 == slot32 => {
                    last.end = slot32;
                    false
                }
                _ => {
                    encounters.push(Encounter { start: slot32, end: slot32 });
                    self.list_bytes += std::mem::size_of::<Encounter>();
                    true
                }
            };
            if new_encounter {
                for node in [a, b] {
                    self.slot_start_masks[slot * self.words_per_slot + node.index() / 64] |=
                        1u64 << (node.index() % 64);
                    let list = &mut self.node_events[node.index()];
                    match list.last_mut() {
                        Some(last) if last.slot == slot32 => last.encounters += 1,
                        _ => {
                            let base = list.last().map_or(0, |e| e.encounters);
                            list.push(NodeEvent { slot: slot32, encounters: base + 1 });
                            self.list_bytes += std::mem::size_of::<NodeEvent>();
                        }
                    }
                }
            }
        }
    }

    /// Approximate resident size in bytes of the builder's accumulated
    /// state — the streaming pipeline folds this into its peak working-set
    /// accounting after every sealed slot. `O(1)`: the list entries are a
    /// running total.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.pair_index.len() * std::mem::size_of::<u32>()
            + self.pair_encounters.len() * std::mem::size_of::<Vec<Encounter>>()
            + self.node_events.len() * std::mem::size_of::<Vec<NodeEvent>>()
            + self.node_active_slots.len() * std::mem::size_of::<Vec<u32>>()
            + self.list_bytes
            + self.slot_active_masks.len() * std::mem::size_of::<u64>()
            + self.slot_start_masks.len() * std::mem::size_of::<u64>()
            + self.slot_edges.len() * std::mem::size_of::<(NodeId, NodeId)>()
            + self.slot_edge_ends.len() * std::mem::size_of::<usize>()
    }

    /// Seals the fold into an immutable [`HistoryTimeline`].
    ///
    /// `slot_end_times` must hold the absolute end time of every slot of the
    /// trace (index = slot), under the one slot-time convention
    /// ([`psn_trace::stream::slot_end_time`], which both graph
    /// representations answer with).
    pub fn finish(self, slot_end_times: Vec<Seconds>) -> HistoryTimeline {
        let n = self.node_count;
        let words = self.words_per_slot;
        let mut ever_met_masks = vec![0u64; n * words];
        for v in 0..n {
            let row = &mut ever_met_masks[v * words..][..words];
            row[v / 64] |= 1u64 << (v % 64);
            for p in 0..n {
                if self.pair_index[v * n + p] != NO_PAIR {
                    row[p / 64] |= 1u64 << (p % 64);
                }
            }
        }
        HistoryTimeline {
            node_count: self.node_count,
            slot_end_times,
            pair_index: self.pair_index,
            pair_encounters: self.pair_encounters,
            node_events: self.node_events,
            node_active_slots: self.node_active_slots,
            words_per_slot: self.words_per_slot,
            slot_active_masks: self.slot_active_masks,
            slot_start_masks: self.slot_start_masks,
            ever_met_masks,
            slot_edges: self.slot_edges,
            slot_edge_ends: self.slot_edge_ends,
        }
    }
}

impl HistoryTimeline {
    /// Precomputes the history evolution for a trace's space-time graph.
    pub fn build(graph: &SpaceTimeGraph) -> Self {
        let mut builder = TimelineBuilder::new(graph.node_count());
        for &slot in graph.busy_slots() {
            builder.push_slot(slot, graph.edges(slot));
        }
        builder.finish((0..graph.slot_count()).map(|s| graph.slot_end_time(s)).collect())
    }

    /// Folds the history evolution straight from a contact-event stream,
    /// building no space-time graph: an [`IncrementalSlotter`] seals each
    /// slot's edge list — already in [`psn_spacetime::Slot::seal`]'s
    /// normalized order — into the [`TimelineBuilder`] fold.
    ///
    /// # Errors
    ///
    /// Whatever the stream reports: a failing source or a broken ordering
    /// contract.
    pub fn from_stream(stream: &mut impl ContactStream) -> Result<Self, StreamError> {
        let (window, delta, slots) = (stream.window(), stream.delta(), stream.slot_count());
        let mut slotter = IncrementalSlotter::new(slots);
        let mut builder = TimelineBuilder::new(stream.node_count());
        let mut seal = |slot: usize, edges: Vec<(NodeId, NodeId)>| -> Result<(), StreamError> {
            builder.push_slot(slot, &edges);
            Ok(())
        };
        while let Some(event) = stream.next_event()? {
            slotter.apply(&event, &mut seal)?;
        }
        slotter.finish(&mut seal)?;
        Ok(builder.finish((0..slots).map(|s| slot_end_time(window, delta, s)).collect()))
    }

    /// Folds the history evolution of a trace at slot length `delta`
    /// through [`HistoryTimeline::from_stream`] — bit-identical to
    /// [`HistoryTimeline::build`] over the trace's graph, without building
    /// one ([`psn_trace::stream::fold_trace`] streams an unsorted trace
    /// from a sorted copy).
    ///
    /// # Panics
    ///
    /// Panics if `delta` is not strictly positive and finite.
    pub fn from_trace(trace: &ContactTrace, delta: Seconds) -> Self {
        fold_trace(trace, delta, |events| Self::from_stream(events))
    }

    /// Number of nodes tracked.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of slots of the trace, busy or not.
    pub fn slot_count(&self) -> usize {
        self.slot_end_times.len()
    }

    /// The slots with at least one contact edge, ascending.
    pub fn busy_slots(&self) -> impl Iterator<Item = usize> + '_ {
        let mut start = 0;
        self.slot_edge_ends.iter().enumerate().filter_map(move |(slot, &end)| {
            let busy = end > start;
            start = end;
            busy.then_some(slot)
        })
    }

    /// Approximate resident size in bytes — the weight artifact stores use
    /// for byte-budget accounting. Dominated by the dense `O(n²)`
    /// pair-index map, the per-slot edge lists and the per-node event
    /// lists.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.slot_end_times.len() * std::mem::size_of::<Seconds>()
            + self.pair_index.len() * std::mem::size_of::<u32>()
            + self.pair_encounters.len() * std::mem::size_of::<Vec<Encounter>>()
            + self
                .pair_encounters
                .iter()
                .map(|e| e.len() * std::mem::size_of::<Encounter>())
                .sum::<usize>()
            + self.node_events.len() * std::mem::size_of::<Vec<NodeEvent>>()
            + self
                .node_events
                .iter()
                .map(|e| e.len() * std::mem::size_of::<NodeEvent>())
                .sum::<usize>()
            + self.node_active_slots.len() * std::mem::size_of::<Vec<u32>>()
            + self
                .node_active_slots
                .iter()
                .map(|e| e.len() * std::mem::size_of::<u32>())
                .sum::<usize>()
            + self.slot_active_masks.len() * std::mem::size_of::<u64>()
            + self.slot_start_masks.len() * std::mem::size_of::<u64>()
            + self.ever_met_masks.len() * std::mem::size_of::<u64>()
            + self.slot_edges.len() * std::mem::size_of::<(NodeId, NodeId)>()
            + self.slot_edge_ends.len() * std::mem::size_of::<usize>()
    }

    /// The activity bitmask of `slot`: bit `v` is set iff node `v` has at
    /// least one contact edge during it — exactly `Slot::has_contacts`
    /// (pinned by a differential test below). May be shorter than the full
    /// per-slot stride (or empty, for slots after the last busy one);
    /// missing words read as all-zero.
    pub fn active_mask(&self, slot: usize) -> &[u64] {
        let Some(start) = slot.checked_mul(self.words_per_slot) else {
            return &[];
        };
        let end = (start + self.words_per_slot).min(self.slot_active_masks.len());
        self.slot_active_masks.get(start..end).unwrap_or(&[])
    }

    /// The encounter-start bitmask of `slot`: bit `v` is set iff node `v`
    /// begins an encounter during it — it has a contact edge whose pair was
    /// not in contact in `slot − 1` (the contiguity rule of the encounter
    /// counts). Every edge of a slot whose predecessor is contact-free
    /// starts an encounter. Same layout and truncation as
    /// [`HistoryTimeline::active_mask`]; a subset of it.
    pub fn start_mask(&self, slot: usize) -> &[u64] {
        let Some(start) = slot.checked_mul(self.words_per_slot) else {
            return &[];
        };
        let end = (start + self.words_per_slot).min(self.slot_start_masks.len());
        self.slot_start_masks.get(start..end).unwrap_or(&[])
    }

    /// The contact edges of `slot`, in the order they were folded (the
    /// graph's normalized order) — exactly the graph's `edges(slot)`
    /// (pinned by a differential test below). Empty for contact-free slots
    /// and for slots after the last busy one.
    pub fn slot_edges(&self, slot: usize) -> &[(NodeId, NodeId)] {
        let Some(&end) = self.slot_edge_ends.get(slot) else {
            return &[];
        };
        let start = slot.checked_sub(1).map_or(0, |previous| self.slot_edge_ends[previous]);
        &self.slot_edges[start..end]
    }

    /// The first slot ≥ `from_slot` in which `node` has at least one
    /// contact edge, or `None` if the node never appears again — the
    /// per-node **skip index**. The simulator uses it to jump a message
    /// whose holders are all idle straight to the next slot where one of
    /// them can act, instead of scanning every intervening busy slot.
    ///
    /// Agrees exactly with scanning `Slot::has_contacts(node)` over the
    /// busy slots (pinned by a brute-force differential test below).
    pub fn next_active_slot(&self, node: NodeId, from_slot: usize) -> Option<usize> {
        let active = self.node_active_slots.get(node.index())?;
        let from = u32::try_from(from_slot).ok()?;
        let idx = active.partition_point(|&s| s < from);
        active.get(idx).map(|&s| s as usize)
    }

    /// Bitmask over the nodes whose activity can matter to a message
    /// destined to `node`: every peer that shares at least one contact
    /// slot with `node` anywhere in the trace, plus `node` itself. Same
    /// stride and truncation-free layout as one row of
    /// [`HistoryTimeline::active_mask`].
    ///
    /// The simulator uses it to skip slots for algorithms whose utility
    /// requires a past destination contact
    /// ([`crate::algorithm::ForwardingAlgorithm::utility_requires_destination_contact`]):
    /// in such slots, delivery needs the destination active and forwarding
    /// needs an active node that has met it, so a slot whose activity mask
    /// misses this whole set can be rejected with a word intersection.
    pub fn ever_met_mask(&self, node: NodeId) -> &[u64] {
        &self.ever_met_masks[node.index() * self.words_per_slot..][..self.words_per_slot]
    }

    /// A read-only view of the history as of the *end* of `slot` — i.e.
    /// including the contacts of `slot` itself, matching the reference
    /// simulator, which records a slot's contacts before making that slot's
    /// forwarding decisions.
    pub fn at_slot(&self, slot: usize) -> HistoryView<'_> {
        let slot = u32::try_from(slot).unwrap_or_else(|_| unreachable!("slot index fits in u32"));
        HistoryView { timeline: self, slot }
    }

    /// The absolute end time of `slot` — the timestamp the replay assigns
    /// to contacts observed during it ([`psn_trace::stream::slot_end_time`],
    /// captured at build time).
    pub fn slot_end_time(&self, slot: usize) -> Seconds {
        self.slot_end_times[slot]
    }

    /// The encounters of `a` and `b`, ascending; empty if they never meet.
    fn encounters_of(&self, a: NodeId, b: NodeId) -> &[Encounter] {
        match self.pair_index.get(a.index() * self.node_count + b.index()) {
            Some(&id) if id != NO_PAIR => &self.pair_encounters[id as usize],
            _ => &[],
        }
    }
}

/// [`HistoryTimeline`] pinned to one slot: the [`ContactKnowledge`] the
/// parallel simulator hands to forwarding decisions.
#[derive(Debug, Clone, Copy)]
pub struct HistoryView<'a> {
    timeline: &'a HistoryTimeline,
    slot: u32,
}

impl HistoryView<'_> {
    /// The encounters of `a` and `b` that start at or before the view's
    /// slot.
    fn encounters_so_far(&self, a: NodeId, b: NodeId) -> &[Encounter] {
        let encounters = self.timeline.encounters_of(a, b);
        &encounters[..encounters.partition_point(|e| e.start <= self.slot)]
    }
}

impl ContactKnowledge for HistoryView<'_> {
    fn last_contact_with(&self, node: NodeId, peer: NodeId) -> Option<Seconds> {
        let last = self.encounters_so_far(node, peer).last()?;
        Some(self.timeline.slot_end_time(last.end.min(self.slot) as usize))
    }

    fn contacts_with(&self, node: NodeId, peer: NodeId) -> u64 {
        self.encounters_so_far(node, peer).len() as u64
    }

    fn total_contacts(&self, node: NodeId) -> u64 {
        let events = &self.timeline.node_events[node.index()];
        let idx = events.partition_point(|e| e.slot <= self.slot);
        idx.checked_sub(1).map_or(0, |i| events[i].encounters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::ContactHistory;
    use psn_trace::contact::Contact;
    use psn_trace::node::{NodeClass, NodeRegistry};
    use psn_trace::trace::{ContactTrace, TimeWindow};
    use psn_trace::TraceEventStream;

    fn nid(v: u32) -> NodeId {
        NodeId(v)
    }

    fn trace_from(
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
        ContactTrace::from_contacts("timeline-test", reg, window, cs).unwrap()
    }

    /// Replays a `ContactHistory` over the graph's slots and checks every
    /// query of every (node, peer) pair against the timeline view after
    /// every slot — the timeline must be indistinguishable from the replay.
    fn assert_matches_replay(graph: &SpaceTimeGraph) {
        let n = graph.node_count();
        let timeline = HistoryTimeline::build(graph);
        assert_eq!(timeline.node_count(), n);
        let mut history = ContactHistory::new(n);
        for slot in 0..graph.slot_count() {
            let time = graph.slot_end_time(slot);
            for &(a, b) in graph.edges(slot) {
                history.record_contact(a, b, slot, time);
            }
            let view = timeline.at_slot(slot);
            for a in 0..n as u32 {
                let a = nid(a);
                assert_eq!(
                    view.total_contacts(a),
                    history.total_contacts(a),
                    "slot {slot}: total_contacts({a:?})"
                );
                for b in 0..n as u32 {
                    let b = nid(b);
                    assert_eq!(
                        view.last_contact_with(a, b),
                        history.last_contact_with(a, b),
                        "slot {slot}: last_contact_with({a:?}, {b:?})"
                    );
                    assert_eq!(
                        view.contacts_with(a, b),
                        history.contacts_with(a, b),
                        "slot {slot}: contacts_with({a:?}, {b:?})"
                    );
                    assert_eq!(
                        view.encounter_age(a, b, time),
                        history.encounter_age(a, b, time),
                        "slot {slot}: encounter_age({a:?}, {b:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn timeline_matches_replay_on_handcrafted_trace() {
        let trace = trace_from(
            vec![
                (0, 1, 1.0, 35.0),  // spans slots 0..=3: one encounter
                (0, 2, 5.0, 8.0),   // slot 0
                (0, 2, 41.0, 44.0), // slot 4: second encounter of 0-2
                (1, 3, 22.0, 28.0), // slot 2
                (1, 3, 31.0, 39.0), // slots 3 (contiguous with slot 2: same encounter)
                (2, 3, 95.0, 99.0), // slot 9
            ],
            5,
            TimeWindow::new(0.0, 100.0),
        );
        let graph = SpaceTimeGraph::build_default(&trace);
        assert_matches_replay(&graph);
    }

    #[test]
    fn timeline_matches_replay_with_nonzero_window_start() {
        let trace = trace_from(
            vec![
                (0, 1, 1005.0, 1008.0),
                (1, 2, 1012.0, 1047.0),
                (0, 2, 1051.0, 1053.0),
                (0, 1, 1071.0, 1074.0),
            ],
            3,
            TimeWindow::new(1000.0, 1080.0),
        );
        let graph = SpaceTimeGraph::build_default(&trace);
        assert_matches_replay(&graph);
    }

    #[test]
    fn timeline_matches_replay_on_random_traces() {
        use psn_trace::{DatasetId, SyntheticDataset};
        let mut ds = SyntheticDataset::quick_config(DatasetId::Infocom06Morning);
        ds.config.mobile_nodes = 14;
        ds.config.stationary_nodes = 3;
        ds.config.window_seconds = 600.0;
        let trace = ds.generate();
        let graph = SpaceTimeGraph::build_default(&trace);
        assert_matches_replay(&graph);
    }

    #[test]
    fn builder_byte_total_matches_a_recount_after_a_random_fold() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        fn list_bytes<T>(lists: &[Vec<T>]) -> usize {
            lists.iter().map(|l| l.len() * std::mem::size_of::<T>()).sum()
        }
        let mut rng = StdRng::seed_from_u64(0x7B);
        let n = 70;
        let mut builder = TimelineBuilder::new(n);
        let (mut slot, mut last_busy, mut folded) = (0, 0, 0);
        for _ in 0..200 {
            slot += rng.gen_range(0..3usize) + 1;
            let mut edges: Vec<(NodeId, NodeId)> = (0..rng.gen_range(0..12))
                .map(|_| {
                    let a = rng.gen_range(0..n as u32 - 1);
                    (nid(a), nid(rng.gen_range(a + 1..n as u32)))
                })
                .collect();
            edges.sort_unstable();
            edges.dedup();
            builder.push_slot(slot, &edges);
            let recount = list_bytes(&builder.pair_encounters)
                + list_bytes(&builder.node_events)
                + list_bytes(&builder.node_active_slots);
            assert_eq!(builder.list_bytes, recount, "after slot {slot}");
            folded += edges.len();
            if !edges.is_empty() {
                last_busy = slot;
            }
            let masks = builder.slot_active_masks.len() + builder.slot_start_masks.len();
            // Every folded edge once, and one end offset per slot up to the
            // last busy one.
            let offsets = if folded > 0 { last_busy + 1 } else { 0 };
            let edge_lists = folded * std::mem::size_of::<(NodeId, NodeId)>()
                + offsets * std::mem::size_of::<usize>();
            assert_eq!(builder.slot_edges.len(), folded, "after slot {slot}");
            assert_eq!(
                builder.approx_bytes(),
                std::mem::size_of::<TimelineBuilder>()
                    + builder.pair_index.len() * std::mem::size_of::<u32>()
                    + builder.pair_encounters.len() * std::mem::size_of::<Vec<Encounter>>()
                    + builder.node_events.len() * std::mem::size_of::<Vec<NodeEvent>>()
                    + builder.node_active_slots.len() * std::mem::size_of::<Vec<u32>>()
                    + recount
                    + masks * std::mem::size_of::<u64>()
                    + edge_lists,
                "builder bytes after slot {slot}"
            );
        }
        assert!(builder.list_bytes > 0);
        let words = n.div_ceil(64);
        let busy_words = (last_busy + 1) * words;
        assert_eq!(builder.slot_start_masks.len(), busy_words, "start masks span every slot");
        let builder_bytes = builder.approx_bytes();
        let slots = slot + 5;
        let timeline = builder.finish(vec![0.0; slots]);
        let listed: usize = (0..slots).map(|s| timeline.slot_edges(s).len()).sum();
        assert_eq!(listed, folded, "every folded edge is listed under its slot");
        assert_eq!(
            timeline.approx_bytes(),
            builder_bytes - std::mem::size_of::<TimelineBuilder>()
                + std::mem::size_of::<HistoryTimeline>()
                + slots * std::mem::size_of::<Seconds>()
                + n * words * std::mem::size_of::<u64>(),
            "the timeline counts every builder table (edge lists included) plus slot times \
             and ever-met masks"
        );
    }

    /// The encounters of a graph's trace: every edge of a slot whose pair
    /// is not in contact in the slot before.
    fn encounter_count(graph: &SpaceTimeGraph) -> usize {
        let mut previous: &[(NodeId, NodeId)] = &[];
        let mut encounters = 0;
        for slot in 0..graph.slot_count() {
            let edges = graph.edges(slot);
            encounters += edges.iter().filter(|e| !previous.contains(e)).count();
            previous = edges;
        }
        encounters
    }

    #[test]
    fn timeline_memory_beyond_the_pair_index_is_linear_in_edges_and_slots() {
        // A per-slot O(n²) structure on a 1000-node trace costs ~128 KB a
        // busy slot (one ⌈n/64⌉-word row per node), far above this bound.
        let trace = psn_trace::ScenarioConfig::from_toml_str(
            "kind = \"scaled\"\nname = \"timeline-memory\"\nnodes = 1000\n\
             window_seconds = 600.0\nseed = 5\n",
        )
        .unwrap()
        .generate();
        let graph = SpaceTimeGraph::build_default(&trace);
        let n = graph.node_count();
        assert_eq!(n, 1000);
        let timeline = HistoryTimeline::build(&graph);
        let edges: usize = graph.busy_slots().iter().map(|&s| graph.edges(s).len()).sum();
        let encounters = encounter_count(&graph);
        assert!(encounters > 0, "the trace has no contacts");
        let slots = graph.slot_count();
        // At most, per edge: its slot-list entry (8 B) and an active-slot
        // entry for each end (4 B each). Per encounter: its entry in the
        // pair's list (8 B), a node event for each end (16 B each) and a
        // pair's Vec header (24 B; a pair has at least one encounter). Per
        // slot: its end time, its end offset and two ⌈n/64⌉-word masks. Per
        // node: three Vec headers and its ever-met row.
        let words = n.div_ceil(64);
        let (per_edge, per_encounter) = (8 + 2 * 4, 8 + 2 * 16 + 24);
        let per_slot = 8 + 8 + 2 * words * 8;
        let per_node = 3 * 24 + words * 8;
        let bound =
            edges * per_edge + encounters * per_encounter + slots * per_slot + n * per_node + 4096;
        let beyond_pair_index = timeline.approx_bytes() - 4 * n * n;
        assert!(
            beyond_pair_index <= bound,
            "{beyond_pair_index} B beyond the pair index exceeds {bound} B \
             ({edges} edges, {encounters} encounters, {slots} slots, {n} nodes)"
        );
        // The bound has teeth twice over. One n × ⌈n/64⌉-word neighbor
        // block per busy slot on top of today's tables would break it, and
        // so would one 8-byte history event per contact slot of a pair in
        // place of one per encounter.
        let dense = graph.busy_slots().len() * n * words * 8;
        assert!(beyond_pair_index + dense > bound, "the bound misses a per-slot O(n²) block");
        let per_slot_events = (edges - encounters) * 8;
        assert!(
            beyond_pair_index + per_slot_events > bound,
            "the bound misses per-slot pair events: {beyond_pair_index} + {per_slot_events} B \
             within {bound} B"
        );
    }

    #[test]
    fn encounter_runs_match_replay_at_their_boundaries() {
        // Δ = 10 s over [0, 100): slots 0..=9.
        let trace = trace_from(
            vec![
                (0, 1, 0.0, 15.0),   // slots 0-1: a run from the first slot
                (0, 1, 31.0, 35.0),  // slot 3, after the gap at slot 2
                (0, 1, 91.0, 100.0), // slot 9: a run into the last slot
                (1, 2, 41.0, 55.0),  // slots 4-5
                (1, 2, 71.0, 74.0),  // slot 7, after the gap at slot 6
                (2, 3, 0.0, 100.0),  // every slot: one run over both ends
                (3, 4, 52.0, 53.0),  // slot 5, a single-slot run
                (3, 4, 61.0, 63.0),  // slot 6, contiguous: the same run
            ],
            5,
            TimeWindow::new(0.0, 100.0),
        );
        let graph = SpaceTimeGraph::build_default(&trace);
        assert_eq!(graph.slot_count(), 10);
        assert_matches_replay(&graph);
        let run = |start, end| Encounter { start, end };
        let streamed =
            HistoryTimeline::from_stream(&mut TraceEventStream::new(&trace, 10.0)).unwrap();
        for timeline in [HistoryTimeline::build(&graph), streamed] {
            let runs = |a, b| timeline.encounters_of(nid(a), nid(b)).to_vec();
            assert_eq!(runs(0, 1), [run(0, 1), run(3, 3), run(9, 9)]);
            assert_eq!(runs(1, 0), runs(0, 1));
            assert_eq!(runs(1, 2), [run(4, 5), run(7, 7)]);
            assert_eq!(runs(2, 3), [run(0, 9)]);
            assert_eq!(runs(3, 4), [run(5, 6)]);
            assert!(runs(0, 4).is_empty());
            let view = |slot| timeline.at_slot(slot);
            // Inside a run the recency is the view's own slot; after it, the
            // run's last slot.
            assert_eq!(view(1).last_contact_with(nid(0), nid(1)), Some(20.0));
            assert_eq!(view(2).last_contact_with(nid(0), nid(1)), Some(20.0));
            assert_eq!(view(2).contacts_with(nid(0), nid(1)), 1);
            assert_eq!(view(3).contacts_with(nid(0), nid(1)), 2);
            assert_eq!(view(9).contacts_with(nid(0), nid(1)), 3);
            assert_eq!(view(9).last_contact_with(nid(2), nid(3)), Some(100.0));
            assert_eq!(view(9).contacts_with(nid(2), nid(3)), 1);
        }
    }

    /// Brute-force pin of the skip index: `next_active_slot` must agree
    /// with scanning every slot's adjacency for every (node, from) pair,
    /// and the slot-major activity bitmasks must agree with
    /// `Slot::has_contacts` bit for bit.
    fn assert_skip_index_matches_scan(graph: &SpaceTimeGraph) {
        let timeline = HistoryTimeline::build(graph);
        for node in 0..graph.node_count() as u32 {
            let node = nid(node);
            for from in 0..=graph.slot_count() {
                let expected =
                    (from..graph.slot_count()).find(|&s| graph.slot(s).has_contacts(node));
                assert_eq!(
                    timeline.next_active_slot(node, from),
                    expected,
                    "next_active_slot({node:?}, {from})"
                );
            }
            for slot in 0..graph.slot_count() {
                let expected = graph.slot(slot).has_contacts(node);
                let mask = timeline.active_mask(slot);
                let bit = mask
                    .get(node.index() / 64)
                    .is_some_and(|&w| w & (1u64 << (node.index() % 64)) != 0);
                assert_eq!(bit, expected, "active_mask bit ({node:?}, {slot})");
            }
        }
    }

    #[test]
    fn skip_index_matches_slot_scan_on_handcrafted_trace() {
        let trace = trace_from(
            vec![
                (0, 1, 1.0, 35.0),
                (0, 2, 5.0, 8.0),
                (0, 2, 41.0, 44.0),
                (1, 3, 22.0, 28.0),
                (2, 3, 95.0, 99.0),
            ],
            5,
            TimeWindow::new(0.0, 100.0),
        );
        let graph = SpaceTimeGraph::build_default(&trace);
        assert_skip_index_matches_scan(&graph);
    }

    #[test]
    fn skip_index_matches_slot_scan_on_random_trace_with_nonzero_window() {
        use psn_trace::{DatasetId, SyntheticDataset};
        let mut ds = SyntheticDataset::quick_config(DatasetId::Infocom06Morning);
        ds.config.mobile_nodes = 11;
        ds.config.stationary_nodes = 2;
        ds.config.window_seconds = 500.0;
        let trace = ds.generate();
        let graph = SpaceTimeGraph::build_default(&trace);
        assert_skip_index_matches_scan(&graph);
    }

    #[test]
    fn skip_index_and_masks_match_slot_scan_beyond_64_nodes() {
        use psn_trace::{DatasetId, SyntheticDataset};
        let mut ds = SyntheticDataset::quick_config(DatasetId::Infocom06Morning);
        ds.config.mobile_nodes = 66;
        ds.config.stationary_nodes = 4;
        ds.config.window_seconds = 400.0;
        let trace = ds.generate();
        assert!(trace.node_count() > 64, "mask test needs a multi-word bitmask");
        let graph = SpaceTimeGraph::build_default(&trace);
        assert_skip_index_matches_scan(&graph);
    }

    /// Neighbor rows expanded from one slot's edge list: node-major, stride
    /// `⌈n/64⌉` words, bit `p` of row `v` set iff the list holds `(v, p)` or
    /// `(p, v)`.
    fn rows_from_edges(edges: &[(NodeId, NodeId)], n: usize) -> Vec<u64> {
        let words = n.div_ceil(64);
        let mut rows = vec![0u64; n * words];
        for &(a, b) in edges {
            rows[a.index() * words + b.index() / 64] |= 1u64 << (b.index() % 64);
            rows[b.index() * words + a.index() / 64] |= 1u64 << (a.index() % 64);
        }
        rows
    }

    /// Brute-force pin of the per-slot edge lists (as lists and as the
    /// neighbor rows they expand to) and the ever-met masks — every bit
    /// against a direct scan of the graph's slots.
    fn assert_pair_structures_match_scan(graph: &SpaceTimeGraph) {
        let n = graph.node_count();
        let words = n.div_ceil(64);
        let timeline = HistoryTimeline::build(graph);
        let met = |a: NodeId, b: NodeId| {
            (0..graph.slot_count()).any(|s| graph.slot(s).neighbors(a).contains(&b))
        };
        for slot in 0..graph.slot_count() + 2 {
            let edges = timeline.slot_edges(slot);
            let expected = if slot < graph.slot_count() { graph.edges(slot) } else { &[] };
            assert_eq!(edges, expected, "slot_edges({slot})");
        }
        for slot in 0..graph.slot_count() {
            let rows = rows_from_edges(timeline.slot_edges(slot), n);
            for a in 0..n as u32 {
                let a = nid(a);
                let row = &rows[a.index() * words..][..words];
                for b in 0..n as u32 {
                    let b = nid(b);
                    let bit = row[b.index() / 64] & (1u64 << (b.index() % 64)) != 0;
                    assert_eq!(
                        bit,
                        graph.slot(slot).neighbors(a).contains(&b),
                        "neighbor row bit ({a:?}, {b:?}, slot {slot})"
                    );
                }
            }
        }
        for a in 0..n as u32 {
            let a = nid(a);
            let ever = timeline.ever_met_mask(a);
            for b in 0..n as u32 {
                let b = nid(b);
                let bit =
                    ever.get(b.index() / 64).is_some_and(|&w| w & (1u64 << (b.index() % 64)) != 0);
                assert_eq!(bit, a == b || met(a, b), "ever_met_mask bit ({a:?}, {b:?})");
            }
        }
    }

    #[test]
    fn pair_structures_match_scan_on_handcrafted_trace() {
        let trace = trace_from(
            vec![
                (0, 1, 1.0, 35.0),
                (0, 2, 5.0, 8.0),
                (0, 2, 41.0, 44.0),
                (1, 3, 22.0, 28.0),
                (1, 3, 31.0, 39.0),
                (2, 3, 95.0, 99.0),
            ],
            5,
            TimeWindow::new(0.0, 100.0),
        );
        let graph = SpaceTimeGraph::build_default(&trace);
        assert_pair_structures_match_scan(&graph);
    }

    #[test]
    fn pair_structures_match_scan_on_random_trace_with_nonzero_window() {
        use psn_trace::{DatasetId, SyntheticDataset};
        let mut ds = SyntheticDataset::quick_config(DatasetId::Infocom06Morning);
        ds.config.mobile_nodes = 12;
        ds.config.stationary_nodes = 2;
        ds.config.window_seconds = 500.0;
        let trace = ds.generate();
        let graph = SpaceTimeGraph::build_default(&trace);
        assert_pair_structures_match_scan(&graph);
    }

    #[test]
    fn pair_structures_match_scan_beyond_64_nodes() {
        use psn_trace::{DatasetId, SyntheticDataset};
        let mut ds = SyntheticDataset::quick_config(DatasetId::Infocom06Morning);
        ds.config.mobile_nodes = 66;
        ds.config.stationary_nodes = 4;
        ds.config.window_seconds = 300.0;
        let trace = ds.generate();
        assert!(trace.node_count() > 64, "mask test needs a multi-word bitmask");
        let graph = SpaceTimeGraph::build_default(&trace);
        assert_pair_structures_match_scan(&graph);
    }

    /// Brute-force pin of the encounter-start masks: bit `v` of slot `s` is
    /// set iff `v` has an edge in `s` that is absent from `s − 1`, or `s − 1`
    /// is not busy — a direct scan of consecutive slots' edge sets.
    fn assert_start_masks_match_scan(graph: &SpaceTimeGraph) {
        let timeline = HistoryTimeline::build(graph);
        let mut starts = 0;
        for slot in 0..graph.slot_count() {
            let previous = slot
                .checked_sub(1)
                .filter(|s| graph.busy_slots().contains(s))
                .map(|s| graph.slot(s));
            for v in 0..graph.node_count() as u32 {
                let v = nid(v);
                let expected =
                    graph.slot(slot).neighbors(v).iter().any(|p| {
                        previous.as_ref().is_none_or(|prev| !prev.neighbors(v).contains(p))
                    });
                let bit = timeline
                    .start_mask(slot)
                    .get(v.index() / 64)
                    .is_some_and(|&w| w & (1u64 << (v.index() % 64)) != 0);
                assert_eq!(bit, expected, "start_mask bit ({v:?}, slot {slot})");
                starts += usize::from(bit);
            }
        }
        assert!(starts > 0, "the trace starts no encounter");
    }

    /// A trace of `contacts` random contacts among `nodes` nodes over
    /// `window`, half of them long enough to span several slots.
    fn random_trace(seed: u64, nodes: u32, contacts: usize, window: TimeWindow) -> ContactTrace {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let span = window.end - window.start;
        let contacts = (0..contacts)
            .map(|i| {
                let a = rng.gen_range(0..nodes - 1);
                let b = rng.gen_range(a + 1..nodes);
                let start: f64 = window.start + rng.gen_range(0.0..span * 0.95);
                let length: f64 =
                    if i % 2 == 0 { rng.gen_range(1.0..9.0) } else { rng.gen_range(10.0..90.0) };
                (a, b, start, (start + length).min(window.end))
            })
            .collect();
        trace_from(contacts, nodes as usize, window)
    }

    #[test]
    fn start_masks_match_consecutive_slot_scan_on_handcrafted_trace() {
        let trace = trace_from(
            vec![
                (0, 1, 1.0, 35.0),  // starts in slot 0, continues through 3
                (0, 2, 5.0, 8.0),   // slot 0
                (0, 2, 21.0, 24.0), // slot 2, after a gap: a new encounter
                (1, 3, 22.0, 28.0), // slot 2
                (1, 3, 31.0, 39.0), // slot 3: continues from slot 2
                (2, 3, 95.0, 99.0), // slot 9, after contact-free slots
            ],
            5,
            TimeWindow::new(0.0, 100.0),
        );
        let graph = SpaceTimeGraph::build_default(&trace);
        assert_start_masks_match_scan(&graph);
        let timeline = HistoryTimeline::build(&graph);
        // Slot 3: 0-1 and 1-3 both continue, so nobody starts anything.
        assert_eq!(timeline.start_mask(3), &[0]);
        assert_eq!(timeline.start_mask(2), &[0b1111]);
        assert_eq!(timeline.active_mask(3), &[0b1011]);
    }

    #[test]
    fn start_masks_match_consecutive_slot_scan_on_random_traces_with_nonzero_window() {
        for seed in 0..4 {
            let trace = random_trace(seed, 12, 80, TimeWindow::new(3600.0, 4400.0));
            assert_start_masks_match_scan(&SpaceTimeGraph::build_default(&trace));
        }
    }

    #[test]
    fn start_masks_match_consecutive_slot_scan_beyond_64_nodes() {
        let trace = random_trace(9, 70, 300, TimeWindow::new(500.0, 1100.0));
        assert_start_masks_match_scan(&SpaceTimeGraph::build_default(&trace));
    }

    #[test]
    fn streaming_fold_masks_match_the_materialized_build() {
        // The streaming pipeline folds the timeline from the windowed
        // builder's sealed-slot tap; every per-slot mask must equal the
        // materialized build's, on a trace wider than one mask word.
        let trace = random_trace(12, 70, 260, TimeWindow::new(1000.0, 1600.0));
        let graph = SpaceTimeGraph::build_default(&trace);
        let materialized = HistoryTimeline::build(&graph);
        let mut builder = TimelineBuilder::new(trace.node_count());
        let windowed = psn_spacetime::WindowedSpaceTimeGraph::stream_with(
            &mut psn_trace::TraceEventStream::new(&trace, 10.0),
            2,
            Box::new(psn_spacetime::MemorySpill::new()),
            |slot, sealed| builder.push_slot(slot, sealed.edges()),
        )
        .unwrap();
        let streamed =
            builder.finish((0..windowed.slot_count()).map(|s| windowed.slot_end_time(s)).collect());
        assert_eq!(streamed.approx_bytes(), materialized.approx_bytes());
        for slot in 0..graph.slot_count() + 1 {
            assert_eq!(streamed.start_mask(slot), materialized.start_mask(slot), "slot {slot}");
            assert_eq!(streamed.active_mask(slot), materialized.active_mask(slot), "slot {slot}");
            assert_eq!(streamed.slot_edges(slot), materialized.slot_edges(slot), "slot {slot}");
        }
    }

    #[test]
    fn graph_free_folds_match_the_graph_build() {
        // `from_trace` (the store's timeline artifact, `Simulator::new`)
        // and `from_stream` (the streaming forwarding study) fold the
        // slotter's edge lists and never build a graph; every table, slot
        // time and view must equal the build over the graph, on a trace
        // wider than one mask word with a nonzero window start.
        let trace = random_trace(12, 70, 260, TimeWindow::new(1000.0, 1600.0));
        let graph = SpaceTimeGraph::build_default(&trace);
        let expected = HistoryTimeline::build(&graph);
        let streamed =
            HistoryTimeline::from_stream(&mut TraceEventStream::new(&trace, 10.0)).unwrap();
        // Pushed out of start order: folded from a sorted copy.
        let mut unsorted = ContactTrace::new("unsorted", trace.nodes().clone(), trace.window());
        for c in trace.contacts().iter().rev() {
            unsorted.push(*c).unwrap();
        }
        for timeline in [
            HistoryTimeline::from_trace(&trace, 10.0),
            streamed,
            HistoryTimeline::from_trace(&unsorted, 10.0),
        ] {
            assert_eq!(timeline.approx_bytes(), expected.approx_bytes());
            assert_eq!(timeline.slot_count(), graph.slot_count());
            assert_eq!(timeline.busy_slots().collect::<Vec<_>>(), graph.busy_slots());
            for slot in 0..graph.slot_count() + 1 {
                assert_eq!(timeline.slot_edges(slot), expected.slot_edges(slot), "slot {slot}");
                assert_eq!(timeline.active_mask(slot), expected.active_mask(slot), "slot {slot}");
                assert_eq!(timeline.start_mask(slot), expected.start_mask(slot), "slot {slot}");
            }
            for slot in 0..graph.slot_count() {
                assert_eq!(timeline.slot_end_time(slot), graph.slot_end_time(slot));
                let (view, want) = (timeline.at_slot(slot), expected.at_slot(slot));
                for a in 0..trace.node_count() as u32 {
                    assert_eq!(view.total_contacts(nid(a)), want.total_contacts(nid(a)));
                    for b in 0..trace.node_count() as u32 {
                        let (a, b) = (nid(a), nid(b));
                        assert_eq!(view.contacts_with(a, b), want.contacts_with(a, b));
                        assert_eq!(view.last_contact_with(a, b), want.last_contact_with(a, b));
                    }
                }
            }
            for v in 0..trace.node_count() as u32 {
                assert_eq!(timeline.ever_met_mask(nid(v)), expected.ever_met_mask(nid(v)));
            }
        }
    }

    #[test]
    fn views_at_increasing_slots_are_monotone() {
        let trace = trace_from(
            vec![(0, 1, 1.0, 4.0), (0, 1, 21.0, 24.0), (0, 1, 41.0, 44.0)],
            2,
            TimeWindow::new(0.0, 60.0),
        );
        let graph = SpaceTimeGraph::build_default(&trace);
        let timeline = HistoryTimeline::build(&graph);
        let counts: Vec<u64> = (0..graph.slot_count())
            .map(|s| timeline.at_slot(s).contacts_with(nid(0), nid(1)))
            .collect();
        assert_eq!(counts, vec![1, 1, 2, 2, 3, 3]);
        // Before any contact the view knows nothing.
        let empty_trace = trace_from(vec![(0, 1, 31.0, 34.0)], 2, TimeWindow::new(0.0, 60.0));
        let g2 = SpaceTimeGraph::build_default(&empty_trace);
        let t2 = HistoryTimeline::build(&g2);
        assert_eq!(t2.at_slot(0).last_contact_with(nid(0), nid(1)), None);
        assert_eq!(t2.at_slot(0).total_contacts(nid(0)), 0);
        assert_eq!(t2.at_slot(3).last_contact_with(nid(0), nid(1)), Some(40.0));
    }
}
