//! k-shortest valid-path enumeration (the paper's Fig. 3 algorithm).
//!
//! For a message `(σ, δ, t₁)` the enumerator walks the space-time graph slot
//! by slot, maintaining for every node the (up to) `k` shortest valid paths
//! from `(σ, t₁)` that currently end at that node ("shortest" = fewest
//! hops, as in the paper). At each slot:
//!
//! * every stored path whose holder can reach the destination through
//!   zero-weight (same-slot) contact edges is **delivered** — appended with
//!   the destination hop and output with the slot's end time; the stored
//!   copy is dropped, because any continuation of it would violate the
//!   first-preference rule (its holder met the destination before the later
//!   delivery time);
//! * every other stored path is **extended** to each member of its holder's
//!   contact component that is not already on the path (loop avoidance) —
//!   one appended hop per reachable node, as in the paper's "extensions to
//!   vertices reachable via paths of zero weight";
//! * paths also implicitly **wait**: a stored path stays available at its
//!   holder for the next slot without gaining a hop;
//! * per node, only the `k` shortest of the retained + newly arrived paths
//!   survive to the next slot.
//!
//! Enumeration stops when at least `k` paths reach the destination within a
//! single slot (the paper's stopping rule), when the configured maximum
//! number of delivered paths has been collected, or when the trace ends.
//!
//! ## Drivers
//!
//! Messages are independent, so the slot loop can be driven two ways with
//! bit-identical results:
//!
//! * **message-major** ([`PathEnumerator::enumerate_with_scratch`]): sweep
//!   `start_slot..end` once per message — the natural shape for one-off
//!   queries and for materialized graphs, where a slot access is a borrow;
//! * **slot-major** ([`PathEnumerator::enumerate_batch`]): pin each slot
//!   once and step every active message against it. Over a bounded-window
//!   [`WindowedSpaceTimeGraph`](crate::WindowedSpaceTimeGraph) this
//!   collapses spill reload traffic from O(messages × busy slots) to
//!   O(busy slots) per batch, because the batch revisits a cold slot at
//!   most once however many messages need it.
//!
//! ## Engine
//!
//! In-flight paths live in a parent-pointer [`PathArena`]: extending a path
//! is an O(1) arena push (the prefix is shared, never cloned). Full hop
//! sequences are only materialized for the `stored_path_limit` sampled
//! deliveries — zero unless a caller reads them; the study layer samples
//! only for the hop-rate views — and all per-slot buffers live in a
//! reusable [`EnumerationScratch`].
//!
//! The per-node selection ranks a node's paths shortest-first, stored paths
//! ahead of arrivals of equal depth, and arrivals among themselves in the
//! order the paper's algorithm creates them: holders ascending, each
//! holder's paths in stored order, members in component order. A slot runs
//! three passes, arranged so that every candidate the engine materializes
//! is one the selection keeps:
//!
//! * **deliveries** — every holder in the destination's component delivers
//!   its stored paths (holders ascending; the delivery cap may stop the
//!   run here). A stored list is depth-sorted, so it is taken one depth
//!   group at a time, and the slot's deliveries are counted per depth and
//!   appended as [`Delivery`] runs in ascending hops: a result is in
//!   `(time, hops)` order as it is built, with no final sort;
//! * **first-preference screen** — every other holder drops the stored
//!   paths that carry a node of the destination's component. It is a pass
//!   of its own because admission (below) needs each node's post-screen
//!   stored list before the first extension is made;
//! * **depth-major extension** — paths are extended in order of depth, then
//!   holder, then stored order, then member. Among arrivals that is exactly
//!   the selection's order, so node `v` can decide each depth-`D` candidate
//!   on arrival: it is kept iff `k − |stored(v) of depth ≤ D| −
//!   |arrivals(v)| > 0`. That room never grows with `D`, so a member closed
//!   to one path stays closed for every later path of the slot. An admitted
//!   candidate is extended into the arena at once; a rejected one is never
//!   materialized. Membership questions about a path are answered by one
//!   O(depth) parent walk that stamps its nodes into an epoch-stamped
//!   array, so each loop-avoidance check is one array probe, exact at any
//!   node count. The holder and the source lie on every path and are never
//!   probed.
//!
//! Because every admitted arrival is selected, the per-node merge is a
//! splice: each depth group of arrivals goes in behind the stored paths of
//! depth at most its own (one `partition_point` per group), and the stored
//! paths pushed past `k` fall off the end.
//!
//! The pre-arena algorithm — one owned `Vec<Hop>` per in-flight path,
//! every candidate built, then a stable sort per node — is retained as
//! [`PathEnumerator::enumerate_reference`] and produces bit-identical
//! results; the property tests in this module hold the two
//! implementations against each other.

use psn_trace::{NodeId, Seconds};
use serde::{Deserialize, Serialize};

use crate::arena::{NodeMarks, PathArena, PathRef};
use crate::graph::Slot;
use crate::message::Message;
use crate::path::Path;
use crate::windowed::GraphRef;

/// Configuration of a path-enumeration run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnumerationConfig {
    /// `k`: the per-node path budget and the per-slot delivery count that
    /// stops enumeration. The paper uses 2000.
    pub k: usize,
    /// Hard cap on the total number of delivered paths recorded, to bound
    /// memory when a message's destination sits inside a very large contact
    /// component. `None` keeps every delivered path.
    pub max_delivered_paths: Option<usize>,
    /// Cap on the number of delivered paths for which the *full hop
    /// sequence* is retained (delivery times are always recorded). The
    /// per-hop analyses (Figs. 14 and 15) only need a sample of
    /// near-optimal paths.
    pub stored_path_limit: usize,
    /// Whether to enforce the first-preference rule (paper §4.1). Disabling
    /// it is only useful for the validity ablation benchmark, which shows
    /// how the path counts inflate when dominated paths are kept.
    pub enforce_first_preference: bool,
}

impl Default for EnumerationConfig {
    fn default() -> Self {
        Self {
            k: 2000,
            max_delivered_paths: Some(100_000),
            stored_path_limit: 4000,
            enforce_first_preference: true,
        }
    }
}

impl EnumerationConfig {
    /// The paper's configuration (k = 2000).
    pub fn paper() -> Self {
        Self::default()
    }

    /// A reduced configuration for tests and quick experiments. The caps
    /// derived from `k` saturate instead of wrapping.
    pub fn quick(k: usize) -> Self {
        Self {
            k,
            max_delivered_paths: Some(k.saturating_mul(50)),
            stored_path_limit: k.saturating_mul(4),
            enforce_first_preference: true,
        }
    }

    /// The same configuration with the first-preference rule disabled (the
    /// validity ablation).
    pub fn without_first_preference(mut self) -> Self {
        self.enforce_first_preference = false;
        self
    }
}

/// One delivery event: a valid path reached the destination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Delivery {
    /// Absolute delivery time (slot end time), seconds.
    pub time: Seconds,
    /// Number of hops (tuples) of the delivered path, including source and
    /// destination.
    pub hops: usize,
}

/// The result of enumerating paths for one message.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnumerationResult {
    /// The message that was enumerated.
    pub message: Message,
    /// Every recorded delivery in `(time, hops)` order: slot by slot, and
    /// within a slot (one delivery time) by ascending hop count.
    pub deliveries: Vec<Delivery>,
    /// Full hop sequences for the first `stored_path_limit` delivered paths.
    pub sample_paths: Vec<Path>,
    /// True if enumeration stopped because `k` or more paths arrived in one
    /// slot (the paper's explosion-detection stopping rule).
    pub exploded: bool,
    /// True if enumeration stopped because the total-delivery cap was hit.
    /// Both flags are set when the slot that hits the cap had already
    /// delivered `k` or more paths.
    pub truncated: bool,
    /// Number of slots processed.
    pub slots_processed: usize,
}

impl EnumerationResult {
    /// Number of recorded deliveries.
    pub fn delivered_count(&self) -> usize {
        self.deliveries.len()
    }

    /// Delivery time of the first (optimal) path, if any path was found.
    pub fn first_delivery_time(&self) -> Option<Seconds> {
        self.deliveries.first().map(|d| d.time)
    }

    /// Duration of the optimal path (T₁ in the paper): first delivery time
    /// minus message creation time.
    pub fn optimal_duration(&self) -> Option<Seconds> {
        self.first_delivery_time().map(|t| t - self.message.created_at)
    }

    /// Delivery time of the n-th path (1-based), if at least `n` paths were
    /// recorded.
    pub fn nth_delivery_time(&self, n: usize) -> Option<Seconds> {
        if n == 0 {
            return None;
        }
        self.deliveries.get(n - 1).map(|d| d.time)
    }

    /// Hop count of the optimal (first-delivered) path.
    pub fn optimal_hops(&self) -> Option<usize> {
        self.deliveries.first().map(|d| d.hops)
    }
}

/// Reusable per-message working memory of the arena engine.
///
/// All allocations the enumerator needs — the path arena, the per-node
/// stored/arrival lists, the near-destination flags — live here and are
/// recycled between messages. Callers that enumerate many messages (the
/// explosion and paths-taken drivers, perfbench) should create one
/// scratch per worker and use
/// [`PathEnumerator::enumerate_with_scratch`]; one-shot callers can use
/// [`PathEnumerator::enumerate`], which owns a temporary scratch.
#[derive(Debug, Clone, Default)]
pub struct EnumerationScratch {
    arena: PathArena,
    /// Arena refs of in-flight paths per node, sorted shortest-first.
    stored: Vec<Vec<PathRef>>,
    /// Admitted arrivals per node within the current slot, already in the
    /// arena, in selection order (depth, then creation order).
    arrivals: Vec<Vec<PathRef>>,
    /// Per-node admission room of the current extension pass: how many more
    /// arrivals of the pass's depth `v` can still keep. Valid only where
    /// `room_pass[v] == pass`; recomputed on first use in each pass.
    room: Vec<usize>,
    /// The pass `room[v]` was computed for.
    room_pass: Vec<u64>,
    /// Extension-pass counter; never reset, so a stale `room_pass` entry
    /// from an earlier slot or run can never match.
    pass: u64,
    /// `(path, member)` pairs the admission rule closed over this scratch's
    /// lifetime.
    bound_rejections: u64,
    /// Nodes of the stored path last walked (the loop-avoidance set).
    marks: NodeMarks,
    /// The current holder's component members still open to its paths, in
    /// component order.
    open_members: Vec<NodeId>,
    /// Holders extending this slot, with a cursor to the first stored path
    /// not yet extended.
    extenders: Vec<(u32, usize)>,
    /// Nodes that can reach the destination via zero-weight edges this slot.
    near_destination: Vec<bool>,
    /// The nodes flagged in `near_destination`, for O(set) clearing.
    near_list: Vec<u32>,
    /// Paths delivered this slot per depth, sized by the deepest one;
    /// emptied when the slot's delivery runs are appended.
    delivered_by_depth: Vec<usize>,
    /// Nodes with at least one arrival this slot.
    touched: Vec<u32>,
    /// Nodes with at least one stored path, ascending.
    holders: Vec<u32>,
    /// Double buffer for the per-slot holder-list refresh.
    holders_next: Vec<u32>,
    /// Output buffer of the per-node splice, swapped with the node's
    /// stored list.
    merged: Vec<PathRef>,
}

impl EnumerationScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of (stored path, component member) pairs the admission rule
    /// closed — the member had no room left for a path that deep — summed
    /// over every run this scratch served. A work counter for tests and
    /// profiling; it never reaches a result.
    pub fn bound_rejections(&self) -> u64 {
        self.bound_rejections
    }

    /// Resets for a new message over a graph with `n` nodes.
    ///
    /// The previous run leaves `arrivals` and `near_destination` clean
    /// (they are drained every slot via `touched` / `near_list`); only
    /// `stored` can carry paths across runs, and `holders` indexes exactly
    /// the nodes that might.
    fn reset(&mut self, n: usize) {
        self.arena.clear();
        if self.stored.len() < n {
            self.stored.resize_with(n, Vec::new);
            self.arrivals.resize_with(n, Vec::new);
            self.room.resize(n, 0);
            self.room_pass.resize(n, 0);
        }
        self.marks.ensure_nodes(n);
        if self.near_destination.len() < n {
            self.near_destination.resize(n, false);
        }
        for &h in &self.holders {
            self.stored[h as usize].clear();
        }
        self.holders.clear();
    }
}

/// Per-message progress of one enumeration run, shared by the
/// message-major and slot-major drivers. All algorithmic mutation happens
/// in [`PathEnumerator::step_slot`]; a driver only decides *when* each run
/// sees each slot, which is why the two drivers are bit-identical.
#[derive(Debug, Default)]
struct RunState {
    deliveries: Vec<Delivery>,
    sample_paths: Vec<Path>,
    exploded: bool,
    truncated: bool,
    /// The slot containing the message's creation time: the first slot this
    /// run may observe.
    start_slot: usize,
    slots_processed: usize,
    /// Set when the run stopped early (truncation or explosion); the driver
    /// must not step it again.
    done: bool,
}

/// The per-message k-shortest valid path enumerator.
///
/// Works over either space-time graph representation through [`GraphRef`]:
/// the fully materialized [`SpaceTimeGraph`](crate::SpaceTimeGraph) or the
/// bounded-window [`WindowedSpaceTimeGraph`](crate::WindowedSpaceTimeGraph).
/// The hot loop pins each slot once per iteration (a no-op borrow for the
/// materialized graph, a hot-set lookup or spill reload for the windowed
/// one) and reads every per-node query off that pinned slot.
#[derive(Debug, Clone)]
pub struct PathEnumerator<'a> {
    graph: GraphRef<'a>,
    config: EnumerationConfig,
}

impl<'a> PathEnumerator<'a> {
    /// Creates an enumerator over a space-time graph (either
    /// representation).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(graph: impl Into<GraphRef<'a>>, config: EnumerationConfig) -> Self {
        assert!(config.k > 0, "k must be at least 1");
        Self { graph: graph.into(), config }
    }

    /// The enumeration configuration.
    pub fn config(&self) -> &EnumerationConfig {
        &self.config
    }

    /// Enumerates valid paths for `message`, in delivery-time order.
    pub fn enumerate(&self, message: &Message) -> EnumerationResult {
        let mut scratch = EnumerationScratch::new();
        self.enumerate_with_scratch(message, &mut scratch)
    }

    /// Enumerates valid paths for `message`, reusing `scratch`'s buffers.
    /// Equivalent to [`enumerate`](Self::enumerate) but amortizes all
    /// allocations across messages.
    pub fn enumerate_with_scratch(
        &self,
        message: &Message,
        scratch: &mut EnumerationScratch,
    ) -> EnumerationResult {
        let graph = self.graph;
        let mut state = self.begin_run(message, scratch);
        for s in state.start_slot..graph.slot_count() {
            let slot_time = graph.slot_end_time(s);
            let slot = graph.slot(s);
            self.step_slot(message, scratch, &mut state, &slot, slot_time);
            if state.done {
                break;
            }
        }
        Self::finish_run(message, state)
    }

    /// Enumerates a batch of messages in one slot-major sweep, reusing (and
    /// growing on demand) a pool of one scratch per message.
    ///
    /// Result `i` is bit-identical to `enumerate(&messages[i])`: runs are
    /// fully independent — separate scratch, separate [`RunState`] — and
    /// each sees exactly the slot sequence the message-major driver would
    /// show it. Only the visit *order* changes: each slot is pinned once
    /// via [`GraphRef::slot`] and every active run steps against that one
    /// pinned slot. Over a [`WindowedSpaceTimeGraph`] this means a spilled
    /// slot is reloaded at most once per batch instead of once per message
    /// (the `spill_loads` counter pins the reduction in tests); over a
    /// materialized graph it is simply a different loop nesting.
    ///
    /// [`WindowedSpaceTimeGraph`]: crate::WindowedSpaceTimeGraph
    pub fn enumerate_batch(
        &self,
        messages: &[Message],
        scratches: &mut Vec<EnumerationScratch>,
    ) -> Vec<EnumerationResult> {
        let graph = self.graph;
        if messages.is_empty() {
            return Vec::new();
        }
        if scratches.len() < messages.len() {
            scratches.resize_with(messages.len(), EnumerationScratch::new);
        }
        let mut states: Vec<RunState> = messages
            .iter()
            .zip(scratches.iter_mut())
            .map(|(message, scratch)| self.begin_run(message, scratch))
            .collect();
        let first_slot = states.iter().map(|st| st.start_slot).min().unwrap_or(0);
        let mut active = states.len();
        for s in first_slot..graph.slot_count() {
            if active == 0 {
                break;
            }
            let slot_time = graph.slot_end_time(s);
            let slot = graph.slot(s);
            for ((message, scratch), state) in
                messages.iter().zip(scratches.iter_mut()).zip(states.iter_mut())
            {
                if state.done || s < state.start_slot {
                    continue;
                }
                self.step_slot(message, scratch, state, &slot, slot_time);
                if state.done {
                    active -= 1;
                }
            }
        }
        messages
            .iter()
            .zip(states)
            .map(|(message, state)| Self::finish_run(message, state))
            .collect()
    }

    /// Seeds `scratch` and a fresh [`RunState`] for one message: the
    /// trivial source path is stored at the source node and the sweep is
    /// positioned at the slot containing the creation time.
    fn begin_run(&self, message: &Message, scratch: &mut EnumerationScratch) -> RunState {
        scratch.reset(self.graph.node_count());
        let source_ref = scratch.arena.root(message.source, message.created_at);
        scratch.stored[message.source.index()].push(source_ref);
        scratch.holders.push(message.source.0);
        RunState { start_slot: self.graph.slot_of_time(message.created_at), ..RunState::default() }
    }

    /// Packages the run into its result. The deliveries need no sort:
    /// slots ascend, and each slot appends its runs in ascending hops.
    fn finish_run(message: &Message, state: RunState) -> EnumerationResult {
        EnumerationResult {
            message: *message,
            deliveries: state.deliveries,
            sample_paths: state.sample_paths,
            exploded: state.exploded,
            truncated: state.truncated,
            slots_processed: state.slots_processed,
        }
    }

    /// Advances one run through one slot: deliver, screen, extend, splice.
    /// `slot` must be the pinned slot `s` of this enumerator's graph and
    /// `slot_time` its end time; the caller guarantees
    /// `state.start_slot <= s` and `!state.done`, and slots are presented
    /// in strictly ascending order.
    fn step_slot(
        &self,
        message: &Message,
        scratch: &mut EnumerationScratch,
        state: &mut RunState,
        slot: &Slot,
        slot_time: Seconds,
    ) {
        let k = self.config.k;
        let destination = message.destination;
        let EnumerationScratch {
            arena,
            stored,
            arrivals,
            room,
            room_pass,
            pass,
            bound_rejections,
            marks,
            open_members,
            extenders,
            near_destination,
            near_list,
            delivered_by_depth,
            touched,
            holders,
            holders_next,
            merged,
        } = scratch;
        state.slots_processed += 1;
        let destination_active = slot.has_contacts(destination);

        // Nodes able to reach the destination through zero-weight edges
        // this slot (the destination's component, including itself). Any
        // path one of whose nodes lies in this set either delivers now
        // (if its current holder is in the set) or becomes invalid under
        // the first-preference rule: that earlier holder keeps a copy
        // forever and would have delivered it now, so any later delivery
        // of this path is dominated.
        if destination_active {
            for &m in slot.component_slice(destination) {
                near_destination[m.index()] = true;
                near_list.push(m.0);
            }
        }
        let delivers = |h: u32| near_destination[h as usize] && h != destination.0;

        // Pass 1: every stored path at a holder in the destination's
        // component is delivered now. Under the first-preference rule the
        // stored copies are also removed: continuing them would be
        // dominated by the delivery that just happened. Each stored list
        // is depth-sorted, so the pass takes it one depth group at a time,
        // in push order (holders ascending, stored order): the delivery cap
        // cuts a group where a path-by-path walk would, and only the
        // sampled paths are visited one by one.
        let cap = self.config.max_delivered_paths.unwrap_or(usize::MAX);
        let mut delivered_this_slot: usize = 0;
        'deliver: for &h in holders.iter().filter(|&&h| delivers(h)) {
            let paths = &stored[h as usize];
            let mut start = 0;
            while start < paths.len() {
                let depth = arena.depth(paths[start]) as usize;
                let group = paths[start..].partition_point(|&r| arena.depth(r) as usize == depth);
                let recorded = state.deliveries.len() + delivered_this_slot;
                // `max(1)`: the cap is checked after a path is recorded, so
                // a cap of zero still records the first one.
                let take = group.min(cap.saturating_sub(recorded).max(1));
                let samples = self
                    .config
                    .stored_path_limit
                    .saturating_sub(state.sample_paths.len())
                    .min(take);
                for &r in &paths[start..start + samples] {
                    state.sample_paths.push(arena.materialize_extended(r, destination, slot_time));
                }
                if delivered_by_depth.len() <= depth {
                    delivered_by_depth.resize(depth + 1, 0);
                }
                delivered_by_depth[depth] += take;
                delivered_this_slot += take;
                if recorded + take >= cap {
                    state.truncated = true;
                    break 'deliver;
                }
                start += group;
            }
            if self.config.enforce_first_preference {
                stored[h as usize].clear();
            }
        }
        // One run per hop count, ascending: all of a slot's deliveries
        // share its end time, so this is the slot's stretch of the
        // `(time, hops)` order the result promises.
        for (depth, &count) in delivered_by_depth.iter().enumerate() {
            let delivery = Delivery { time: slot_time, hops: depth + 1 };
            state.deliveries.extend(std::iter::repeat_n(delivery, count));
        }
        delivered_by_depth.clear();

        if !state.truncated {
            // Pass 2: every other holder drops the paths that carry a node
            // meeting the destination this slot (first preference: that
            // node still holds a copy and delivers it now). Holders left
            // with paths and a component member to extend to (not the
            // holder or the source, which lie on every path) extend in
            // pass 3. The destination is never an extension target: it is
            // either inactive or in the delivering component.
            let screen = destination_active && self.config.enforce_first_preference;
            extenders.clear();
            for &h in holders.iter().filter(|&&h| !delivers(h)) {
                let holder = NodeId(h);
                let paths = &mut stored[h as usize];
                if screen {
                    paths.retain(|&r| !arena.intersects(r, near_destination));
                }
                if !paths.is_empty()
                    && slot
                        .component_slice(holder)
                        .iter()
                        .any(|&v| v != holder && v != message.source)
                {
                    extenders.push((h, 0));
                }
            }

            // Pass 3: extension in depth-major order — parent depth
            // ascending, then holders ascending, then stored order, then
            // component order — which is the selection order of arrivals.
            // Each member admits a candidate iff it still has room at the
            // pass's depth, so every candidate extended here is kept.
            while let Some(parent_depth) =
                extenders.iter().map(|&(h, c)| arena.depth(stored[h as usize][c])).min()
            {
                *pass += 1;
                let child_depth = parent_depth + 1;
                for (h, cursor) in extenders.iter_mut() {
                    let holder = NodeId(*h);
                    let paths = &stored[*h as usize];
                    let start = *cursor;
                    if arena.depth(paths[start]) != parent_depth {
                        continue;
                    }
                    let end =
                        start + paths[start..].partition_point(|&r| arena.depth(r) == parent_depth);
                    *cursor = end;
                    open_members.clear();
                    let mut targets = 0;
                    for &v in slot.component_slice(holder) {
                        if v == holder || v == message.source {
                            continue;
                        }
                        targets += 1;
                        let vi = v.index();
                        if room_pass[vi] != *pass {
                            // The room at `v` for a path `child_depth` deep:
                            // its stored paths at most that deep, and every
                            // arrival so far, rank ahead of it.
                            let ahead = stored[vi]
                                .partition_point(|&r| arena.depth(r) <= child_depth)
                                + arrivals[vi].len();
                            room[vi] = k.saturating_sub(ahead);
                            room_pass[vi] = *pass;
                        }
                        if room[vi] > 0 {
                            open_members.push(v);
                        }
                    }
                    for i in start..end {
                        if open_members.is_empty() {
                            // Room never grows within a slot, so this
                            // path and every later one of the holder just
                            // wait.
                            *bound_rejections += ((paths.len() - i) * targets) as u64;
                            *cursor = paths.len();
                            break;
                        }
                        *bound_rejections += (targets - open_members.len()) as u64;
                        let r = paths[i];
                        arena.stamp(r, marks);
                        let mut still_open = 0;
                        for j in 0..open_members.len() {
                            let v = open_members[j];
                            let vi = v.index();
                            if !marks.contains(v) {
                                if arrivals[vi].is_empty() {
                                    touched.push(v.0);
                                }
                                arrivals[vi].push(arena.extend(r, v, slot_time));
                                room[vi] -= 1;
                                if room[vi] == 0 {
                                    continue;
                                }
                            }
                            open_members[still_open] = v;
                            still_open += 1;
                        }
                        open_members.truncate(still_open);
                    }
                }
                extenders.retain(|&(h, c)| c < stored[h as usize].len());
            }

            // Splice each touched node's arrivals into its stored list:
            // shortest-first, stored paths ahead of arrivals of equal
            // depth, arrivals in selection order — exactly the stable
            // depth sort of `stored ++ arrivals` the reference engine
            // truncates to `k`. Admission guarantees every arrival lands
            // among the first `k`; only stored paths fall off the end.
            touched.sort_unstable();
            for &t in touched.iter() {
                let (kept, inbox) = (&mut stored[t as usize], &mut arrivals[t as usize]);
                merged.clear();
                let (mut s, mut a) = (0, 0);
                while a < inbox.len() {
                    let depth = arena.depth(inbox[a]);
                    let group = a + inbox[a..].partition_point(|&r| arena.depth(r) == depth);
                    let before = s + kept[s..].partition_point(|&r| arena.depth(r) <= depth);
                    merged.extend_from_slice(&kept[s..before]);
                    merged.extend_from_slice(&inbox[a..group]);
                    (s, a) = (before, group);
                }
                debug_assert!(merged.len() <= k, "node {t} admitted an arrival it cannot keep");
                let tail = k.saturating_sub(merged.len()).min(kept.len() - s);
                merged.extend_from_slice(&kept[s..s + tail]);
                std::mem::swap(kept, merged);
                inbox.clear();
            }
            // Refresh the holder list: previous holders that still hold
            // paths plus newly touched nodes, ascending and deduplicated.
            holders_next.clear();
            merge_sorted_into(holders, touched, holders_next);
            std::mem::swap(holders, holders_next);
            holders.retain(|&h| !stored[h as usize].is_empty());
            touched.clear();
        }

        for &m in near_list.iter() {
            near_destination[m as usize] = false;
        }
        near_list.clear();

        // Both flags can be set: a slot that hits the delivery cap after
        // `k` or more deliveries exploded too.
        state.exploded = delivered_this_slot >= k;
        state.done = state.truncated || state.exploded;
    }

    /// The pre-arena reference implementation: every in-flight path is an
    /// owned [`Path`] and each extension clones the whole hop vector.
    ///
    /// Retained for differential testing: the property tests assert the
    /// arena engine reproduces its output exactly. New callers should use
    /// [`enumerate`](Self::enumerate).
    pub fn enumerate_reference(&self, message: &Message) -> EnumerationResult {
        let graph = self.graph;
        let k = self.config.k;
        let n = graph.node_count();
        let destination = message.destination;

        // Stored paths per node. The source starts with its trivial path.
        let mut stored: Vec<Vec<Path>> = vec![Vec::new(); n];
        stored[message.source.index()].push(Path::source(message.source, message.created_at));

        let mut deliveries: Vec<Delivery> = Vec::new();
        let mut sample_paths: Vec<Path> = Vec::new();
        let mut exploded = false;
        let mut truncated = false;

        let start_slot = graph.slot_of_time(message.created_at);
        let mut slots_processed = 0;

        'slots: for s in start_slot..graph.slot_count() {
            slots_processed += 1;
            let slot_time = graph.slot_end_time(s);
            let slot = graph.slot(s);
            let destination_active = slot.has_contacts(destination);

            let mut near_destination = vec![false; n];
            if destination_active {
                near_destination[destination.index()] = true;
                for m in slot.component_members(destination) {
                    near_destination[m.index()] = true;
                }
            }

            // Newly arrived paths per node this slot.
            let mut arrivals: Vec<Vec<Path>> = vec![Vec::new(); n];
            let mut delivered_this_slot: usize = 0;

            for holder_idx in 0..n {
                if stored[holder_idx].is_empty() {
                    continue;
                }
                let holder = NodeId(holder_idx as u32);
                let delivers =
                    destination_active && holder != destination && near_destination[holder_idx];

                if delivers {
                    let paths = if self.config.enforce_first_preference {
                        std::mem::take(&mut stored[holder_idx])
                    } else {
                        stored[holder_idx].clone()
                    };
                    for p in paths {
                        delivered_this_slot += 1;
                        let hops = p.len() + 1;
                        deliveries.push(Delivery { time: slot_time, hops });
                        if sample_paths.len() < self.config.stored_path_limit {
                            sample_paths.push(p.extended(destination, slot_time));
                        }
                        if let Some(cap) = self.config.max_delivered_paths {
                            if deliveries.len() >= cap {
                                truncated = true;
                                break;
                            }
                        }
                    }
                } else {
                    if destination_active && self.config.enforce_first_preference {
                        stored[holder_idx]
                            .retain(|p| !p.nodes().any(|node| near_destination[node.index()]));
                    }
                    if stored[holder_idx].is_empty() || !slot.has_contacts(holder) {
                        continue;
                    }
                    let members = slot.component_members(holder);
                    for p in &stored[holder_idx] {
                        for &v in &members {
                            if p.contains(v) {
                                continue;
                            }
                            arrivals[v.index()].push(p.extended(v, slot_time));
                        }
                    }
                }

                if truncated {
                    break;
                }
            }

            for idx in 0..n {
                if arrivals[idx].is_empty() {
                    continue;
                }
                let mut merged = std::mem::take(&mut stored[idx]);
                merged.append(&mut arrivals[idx]);
                merged.sort_by_key(|p| p.len());
                merged.truncate(k);
                stored[idx] = merged;
            }

            // Checked before truncation: a slot can do both.
            exploded = delivered_this_slot >= k;
            if truncated || exploded {
                break 'slots;
            }
        }

        deliveries.sort_by(|a, b| a.time.total_cmp(&b.time).then(a.hops.cmp(&b.hops)));

        EnumerationResult {
            message: *message,
            deliveries,
            sample_paths,
            exploded,
            truncated,
            slots_processed,
        }
    }
}

/// Merges two ascending `u32` slices into `out`, ascending and
/// deduplicated.
fn merge_sorted_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SpaceTimeGraph;
    use crate::validity::is_valid_path;
    use psn_trace::contact::Contact;
    use psn_trace::node::{NodeClass, NodeRegistry};
    use psn_trace::trace::{ContactTrace, TimeWindow};

    fn nid(v: u32) -> NodeId {
        NodeId(v)
    }

    fn trace_from(contacts: Vec<(u32, u32, f64, f64)>, nodes: usize, end: f64) -> ContactTrace {
        let mut reg = NodeRegistry::new();
        for _ in 0..nodes {
            reg.add(NodeClass::Mobile);
        }
        let cs = contacts
            .into_iter()
            .map(|(a, b, s, e)| Contact::new(nid(a), nid(b), s, e).unwrap())
            .collect();
        ContactTrace::from_contacts("enum-test", reg, TimeWindow::new(0.0, end), cs).unwrap()
    }

    #[test]
    fn two_hop_chain_is_found() {
        // 0 meets 1 in slot 0, 1 meets 2 in slot 2.
        let trace = trace_from(vec![(0, 1, 1.0, 5.0), (1, 2, 21.0, 25.0)], 3, 60.0);
        let graph = SpaceTimeGraph::build_default(&trace);
        let enumerator = PathEnumerator::new(&graph, EnumerationConfig::quick(10));
        let result = enumerator.enumerate(&Message::new(nid(0), nid(2), 0.0));
        assert_eq!(result.delivered_count(), 1);
        assert_eq!(result.first_delivery_time(), Some(30.0));
        assert_eq!(result.optimal_duration(), Some(30.0));
        assert_eq!(result.optimal_hops(), Some(3));
        assert_eq!(result.sample_paths.len(), 1);
        assert_eq!(
            result.sample_paths[0].nodes().collect::<Vec<_>>(),
            vec![nid(0), nid(1), nid(2)]
        );
    }

    #[test]
    fn direct_contact_delivers_in_its_slot() {
        let trace = trace_from(vec![(0, 1, 12.0, 18.0)], 2, 40.0);
        let graph = SpaceTimeGraph::build_default(&trace);
        let enumerator = PathEnumerator::new(&graph, EnumerationConfig::quick(5));
        let result = enumerator.enumerate(&Message::new(nid(0), nid(1), 0.0));
        assert_eq!(result.delivered_count(), 1);
        assert_eq!(result.first_delivery_time(), Some(20.0));
    }

    #[test]
    fn unreachable_destination_yields_no_paths() {
        let trace = trace_from(vec![(0, 1, 0.0, 5.0)], 3, 40.0);
        let graph = SpaceTimeGraph::build_default(&trace);
        let enumerator = PathEnumerator::new(&graph, EnumerationConfig::quick(5));
        let result = enumerator.enumerate(&Message::new(nid(0), nid(2), 0.0));
        assert_eq!(result.delivered_count(), 0);
        assert_eq!(result.optimal_duration(), None);
        assert!(!result.exploded);
    }

    #[test]
    fn message_created_after_contacts_sees_nothing() {
        let trace = trace_from(vec![(0, 1, 0.0, 5.0)], 2, 60.0);
        let graph = SpaceTimeGraph::build_default(&trace);
        let enumerator = PathEnumerator::new(&graph, EnumerationConfig::quick(5));
        let result = enumerator.enumerate(&Message::new(nid(0), nid(1), 30.0));
        assert_eq!(result.delivered_count(), 0);
    }

    #[test]
    fn multiple_disjoint_paths_are_counted_separately() {
        // Two relays: 0-1 and 0-2 in slot 0; 1-3 and 2-3 in slot 2.
        let trace = trace_from(
            vec![(0, 1, 1.0, 5.0), (0, 2, 2.0, 6.0), (1, 3, 21.0, 25.0), (2, 3, 22.0, 26.0)],
            4,
            60.0,
        );
        let graph = SpaceTimeGraph::build_default(&trace);
        let enumerator = PathEnumerator::new(&graph, EnumerationConfig::quick(10));
        let result = enumerator.enumerate(&Message::new(nid(0), nid(3), 0.0));
        // Paths: 0->1->3 and 0->2->3, both delivered at t=30.
        assert_eq!(result.delivered_count(), 2);
        assert!(result.deliveries.iter().all(|d| d.time == 30.0));
        assert!(result.deliveries.iter().all(|d| d.hops == 3));
    }

    #[test]
    fn first_preference_prevents_later_redelivery() {
        // 0 meets 1 (slot 0); 1 meets 2=destination (slot 1); 1 meets 3
        // (slot 2); 3 meets 2 (slot 3). The only valid path is 0->1->2 at
        // t=20; the longer 0->1->3->2 would require node 1 to skip its slot-1
        // meeting with the destination.
        let trace = trace_from(
            vec![(0, 1, 1.0, 5.0), (1, 2, 11.0, 15.0), (1, 3, 21.0, 25.0), (3, 2, 31.0, 35.0)],
            4,
            60.0,
        );
        let graph = SpaceTimeGraph::build_default(&trace);
        let enumerator = PathEnumerator::new(&graph, EnumerationConfig::quick(10));
        let result = enumerator.enumerate(&Message::new(nid(0), nid(2), 0.0));
        assert_eq!(result.delivered_count(), 1);
        assert_eq!(result.first_delivery_time(), Some(20.0));
    }

    #[test]
    fn all_sample_paths_are_valid() {
        // A denser scenario with several relays and repeat contacts.
        let trace = trace_from(
            vec![
                (0, 1, 1.0, 30.0),
                (0, 2, 5.0, 40.0),
                (1, 3, 35.0, 80.0),
                (2, 3, 45.0, 90.0),
                (1, 2, 50.0, 95.0),
                (3, 4, 100.0, 140.0),
                (2, 4, 110.0, 150.0),
                (0, 3, 120.0, 160.0),
            ],
            5,
            200.0,
        );
        let graph = SpaceTimeGraph::build_default(&trace);
        let enumerator = PathEnumerator::new(&graph, EnumerationConfig::quick(50));
        let message = Message::new(nid(0), nid(4), 0.0);
        let result = enumerator.enumerate(&message);
        assert!(result.delivered_count() >= 2);
        for p in &result.sample_paths {
            assert_eq!(
                is_valid_path(&graph, p, message.destination),
                Ok(()),
                "invalid path produced: {p}"
            );
            assert_eq!(p.first().node, message.source);
            assert_eq!(p.current_node(), message.destination);
        }
        // Deliveries are in non-decreasing time order.
        for w in result.deliveries.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn explosion_stopping_rule_triggers() {
        // A hub scenario: source meets many relays, all of which meet the
        // destination in the same later slot, so more than k paths arrive at
        // once.
        let mut contacts = vec![];
        for r in 1..=6u32 {
            contacts.push((0, r, 1.0, 8.0));
            contacts.push((r, 7, 21.0, 28.0));
        }
        let trace = trace_from(contacts, 8, 60.0);
        let graph = SpaceTimeGraph::build_default(&trace);
        let enumerator = PathEnumerator::new(&graph, EnumerationConfig::quick(3));
        let result = enumerator.enumerate(&Message::new(nid(0), nid(7), 0.0));
        assert!(result.exploded);
        assert!(result.delivered_count() >= 3);
    }

    #[test]
    fn delivery_cap_truncates() {
        let mut contacts = vec![];
        for r in 1..=6u32 {
            contacts.push((0, r, 1.0, 8.0));
            contacts.push((r, 7, 21.0, 28.0));
        }
        let trace = trace_from(contacts, 8, 60.0);
        let graph = SpaceTimeGraph::build_default(&trace);
        let config = EnumerationConfig {
            k: 100,
            max_delivered_paths: Some(2),
            stored_path_limit: 10,
            ..EnumerationConfig::default()
        };
        let enumerator = PathEnumerator::new(&graph, config.clone());
        let result = enumerator.enumerate(&Message::new(nid(0), nid(7), 0.0));
        assert!(result.truncated);
        // The clamp is exact: not one delivery past the cap is recorded,
        // even though the batch that hit the cap held more paths.
        assert_eq!(result.delivered_count(), config.max_delivered_paths.unwrap());
        assert!(!result.exploded);
    }

    #[test]
    fn delivery_cap_is_exact_across_holder_batches() {
        // Six relays hold one path each when the destination appears, so the
        // cap lands mid-way through the per-holder delivery sweep. Every cap
        // value must clamp exactly — no overshoot from paths already pushed
        // in the same or subsequent holder batches.
        let mut contacts = vec![];
        for r in 1..=6u32 {
            contacts.push((0, r, 1.0, 8.0));
            contacts.push((r, 7, 21.0, 28.0));
        }
        let trace = trace_from(contacts, 8, 60.0);
        let graph = SpaceTimeGraph::build_default(&trace);
        for cap in 1..=6 {
            let config = EnumerationConfig {
                k: 100,
                max_delivered_paths: Some(cap),
                stored_path_limit: 10,
                ..EnumerationConfig::default()
            };
            let enumerator = PathEnumerator::new(&graph, config);
            let result = enumerator.enumerate(&Message::new(nid(0), nid(7), 0.0));
            assert_eq!(result.delivered_count(), cap, "cap {cap} must clamp exactly");
            // The cap fires the moment the count reaches it, so the run is
            // flagged truncated even when the cap equals the total.
            assert!(result.truncated, "cap {cap}");
        }
    }

    #[test]
    fn delivery_cap_cuts_depth_groups_in_push_order() {
        // Relays 1–6 take [0, r] in slot 0; in slot 1 relays 1, 2 and 3
        // form a triangle, so each of them also holds two 3-hop paths
        // (node 1: [0,2,1] and [0,3,1]). In slot 2 all six meet the
        // destination 7 and deliver in push order — holders ascending,
        // each holder's list depth group by depth group — with delivered
        // hop counts 3,4,4, 3,4,4, 3,4,4, 3, 3, 3. Every cap cuts that
        // order where a path-by-path walk would: inside a depth group
        // (2, 5, 8), between groups (1, 4), across holders (3, 6, 10),
        // at the total (12) and past it (13); every sample limit around
        // the cap materializes the same paths as the reference engine.
        let mut contacts = vec![(1, 2, 11.0, 18.0), (2, 3, 11.0, 18.0), (1, 3, 11.0, 18.0)];
        for r in 1..=6u32 {
            contacts.push((0, r, 1.0, 8.0));
            contacts.push((r, 7, 21.0, 28.0));
        }
        let trace = trace_from(contacts, 8, 60.0);
        let graph = SpaceTimeGraph::build_default(&trace);
        let message = Message::new(nid(0), nid(7), 0.0);
        let push_order = [3, 4, 4, 3, 4, 4, 3, 4, 4, 3, 3, 3];
        let mut scratch = EnumerationScratch::new();
        for cap in 1..=push_order.len() + 1 {
            for limit in [0, 1, cap - 1, cap, cap + 1, push_order.len()] {
                let config = EnumerationConfig {
                    k: 100,
                    max_delivered_paths: Some(cap),
                    stored_path_limit: limit,
                    enforce_first_preference: true,
                };
                let enumerator = PathEnumerator::new(&graph, config);
                assert_equivalent(&enumerator, &graph, &message, &mut scratch);
                let result = enumerator.enumerate(&message);
                let mut expected = push_order[..cap.min(push_order.len())].to_vec();
                expected.sort_unstable();
                let hops: Vec<usize> = result.deliveries.iter().map(|d| d.hops).collect();
                assert_eq!(hops, expected, "cap {cap}, limit {limit}");
                assert!(result.deliveries.iter().all(|d| d.time == 30.0));
                assert_eq!(result.truncated, cap <= push_order.len(), "cap {cap}");
                assert_eq!(result.sample_paths.len(), limit.min(expected.len()), "cap {cap}");
                if let Some(first) = result.sample_paths.first() {
                    assert_eq!(first.nodes().collect::<Vec<_>>(), vec![nid(0), nid(1), nid(7)]);
                }
            }
        }
    }

    #[test]
    fn per_node_budget_keeps_shortest_paths() {
        // Node 3 can be reached directly from 0 (2 hops) or via 1 or 2
        // (3 hops). With k=1 only the shortest survives at each node, but
        // the direct delivery still happens first.
        let trace = trace_from(
            vec![
                (0, 1, 1.0, 5.0),
                (0, 2, 2.0, 6.0),
                (1, 4, 11.0, 15.0),
                (2, 4, 12.0, 16.0),
                (4, 3, 31.0, 35.0),
            ],
            5,
            60.0,
        );
        let graph = SpaceTimeGraph::build_default(&trace);
        let enumerator = PathEnumerator::new(&graph, EnumerationConfig::quick(1));
        let result = enumerator.enumerate(&Message::new(nid(0), nid(3), 0.0));
        // With k = 1 at most one path is stored at node 4, so exactly one
        // delivery occurs (and it has the minimum hop count).
        assert_eq!(result.delivered_count(), 1);
        assert_eq!(result.deliveries[0].hops, 4);
    }

    #[test]
    fn stored_path_limit_bounds_samples() {
        let mut contacts = vec![];
        for r in 1..=6u32 {
            contacts.push((0, r, 1.0, 8.0));
            contacts.push((r, 7, 21.0, 28.0));
        }
        let trace = trace_from(contacts, 8, 60.0);
        let graph = SpaceTimeGraph::build_default(&trace);
        let config = EnumerationConfig {
            k: 100,
            max_delivered_paths: None,
            stored_path_limit: 2,
            ..EnumerationConfig::default()
        };
        let enumerator = PathEnumerator::new(&graph, config);
        let result = enumerator.enumerate(&Message::new(nid(0), nid(7), 0.0));
        assert!(result.delivered_count() >= 6);
        assert_eq!(result.sample_paths.len(), 2);
        assert!(!result.truncated);
    }

    #[test]
    #[should_panic]
    fn zero_k_is_rejected() {
        let trace = trace_from(vec![(0, 1, 0.0, 5.0)], 2, 10.0);
        let graph = SpaceTimeGraph::build_default(&trace);
        PathEnumerator::new(&graph, EnumerationConfig { k: 0, ..EnumerationConfig::default() });
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let trace = trace_from(
            vec![(0, 1, 1.0, 5.0), (0, 2, 2.0, 6.0), (1, 3, 21.0, 25.0), (2, 3, 22.0, 26.0)],
            4,
            60.0,
        );
        let graph = SpaceTimeGraph::build_default(&trace);
        let enumerator = PathEnumerator::new(&graph, EnumerationConfig::quick(10));
        let mut scratch = EnumerationScratch::new();
        for message in [
            Message::new(nid(0), nid(3), 0.0),
            Message::new(nid(1), nid(2), 0.0),
            Message::new(nid(0), nid(3), 0.0),
            Message::new(nid(3), nid(0), 15.0),
        ] {
            let reused = enumerator.enumerate_with_scratch(&message, &mut scratch);
            let fresh = enumerator.enumerate(&message);
            assert_eq!(reused.deliveries, fresh.deliveries, "message {message}");
            assert_eq!(reused.sample_paths, fresh.sample_paths, "message {message}");
            assert_eq!(reused.exploded, fresh.exploded);
            assert_eq!(reused.truncated, fresh.truncated);
            assert_eq!(reused.slots_processed, fresh.slots_processed);
        }
    }

    // ------------------------------------------------------------------
    // Differential property tests: the arena engine must reproduce the
    // retained reference implementation exactly.
    // ------------------------------------------------------------------

    /// Deterministic pseudo-random trace: `contact_count` contacts with
    /// uniform endpoints and start times, geometric-ish durations.
    fn random_trace(seed: u64, nodes: usize, contact_count: usize, window: f64) -> ContactTrace {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut contacts = Vec::with_capacity(contact_count);
        for _ in 0..contact_count {
            let a = rng.gen_range(0..nodes as u32);
            let mut b = rng.gen_range(0..nodes as u32);
            while b == a {
                b = rng.gen_range(0..nodes as u32);
            }
            let start = rng.gen_range(0.0..window * 0.9);
            let duration = rng.gen_range(1.0..window * 0.15);
            contacts.push((a, b, start, (start + duration).min(window)));
        }
        trace_from(contacts, nodes, window)
    }

    fn assert_equivalent(
        enumerator: &PathEnumerator<'_>,
        graph: &SpaceTimeGraph,
        message: &Message,
        scratch: &mut EnumerationScratch,
    ) {
        let arena = enumerator.enumerate_with_scratch(message, scratch);
        let reference = enumerator.enumerate_reference(message);
        assert_eq!(arena.deliveries, reference.deliveries, "deliveries differ for {message}");
        assert_eq!(arena.exploded, reference.exploded, "explosion flag differs for {message}");
        assert_eq!(arena.truncated, reference.truncated, "truncation flag differs for {message}");
        assert_eq!(
            arena.slots_processed, reference.slots_processed,
            "slot count differs for {message}"
        );
        assert_eq!(
            arena.sample_paths, reference.sample_paths,
            "sampled hop sequences differ for {message}"
        );
        // Sampled paths must satisfy the full validity rules — except under
        // the ablation that deliberately disables first preference, where
        // dominated paths are the point.
        if enumerator.config().enforce_first_preference {
            for p in &arena.sample_paths {
                assert_eq!(
                    is_valid_path(graph, p, message.destination),
                    Ok(()),
                    "arena produced invalid path {p} for {message}"
                );
            }
        }
    }

    #[test]
    fn arena_matches_reference_on_random_small_traces() {
        // Small node counts: sparse components, few bound rejections.
        let mut scratch = EnumerationScratch::new();
        for seed in 0..12u64 {
            let nodes = 4 + (seed as usize % 9);
            let trace = random_trace(seed, nodes, 24 + 3 * seed as usize, 400.0);
            let graph = SpaceTimeGraph::build_default(&trace);
            for k in [1usize, 2, 7, 40] {
                let enumerator = PathEnumerator::new(&graph, EnumerationConfig::quick(k));
                for (src, dst) in [(0u32, 1u32), (1, 3), (2, 0)] {
                    let message = Message::new(nid(src), nid(dst), 10.0 * (seed % 5) as f64);
                    assert_equivalent(&enumerator, &graph, &message, &mut scratch);
                }
            }
        }
    }

    #[test]
    fn arena_matches_reference_beyond_64_nodes() {
        // More than 64 nodes: node ids past the width of any fixed-size
        // membership mask, checked by the stamp walk.
        let mut scratch = EnumerationScratch::new();
        for seed in 100..106u64 {
            let nodes = 66 + (seed as usize % 7);
            let trace = random_trace(seed, nodes, 160, 500.0);
            let graph = SpaceTimeGraph::build_default(&trace);
            let enumerator = PathEnumerator::new(&graph, EnumerationConfig::quick(12));
            // Endpoints on both sides of node id 64.
            for (src, dst) in [(0u32, 65u32), (65, 1), (10, 64)] {
                let message = Message::new(nid(src), nid(dst), 0.0);
                assert_equivalent(&enumerator, &graph, &message, &mut scratch);
            }
        }
    }

    #[test]
    fn arena_matches_reference_with_caps_and_ablation() {
        // Tight delivery caps, tight sample limits, and the disabled
        // first-preference ablation all hit distinct branches.
        let mut scratch = EnumerationScratch::new();
        for seed in 40..46u64 {
            let trace = random_trace(seed, 10, 60, 400.0);
            let graph = SpaceTimeGraph::build_default(&trace);
            for config in [
                EnumerationConfig {
                    k: 25,
                    max_delivered_paths: Some(7),
                    stored_path_limit: 3,
                    enforce_first_preference: true,
                },
                EnumerationConfig {
                    k: 5,
                    max_delivered_paths: Some(2),
                    stored_path_limit: 1,
                    enforce_first_preference: true,
                },
                EnumerationConfig::quick(8).without_first_preference(),
            ] {
                let enumerator = PathEnumerator::new(&graph, config);
                for (src, dst) in [(0u32, 9u32), (5, 2)] {
                    let message = Message::new(nid(src), nid(dst), 0.0);
                    assert_equivalent(&enumerator, &graph, &message, &mut scratch);
                }
            }
        }
    }

    #[test]
    fn arena_matches_reference_on_nonzero_window_start() {
        // Regression companion to the graph-level window-start fix: the two
        // engines must agree on absolute delivery times when the trace does
        // not start at zero.
        let mut reg = NodeRegistry::new();
        for _ in 0..3 {
            reg.add(NodeClass::Mobile);
        }
        let contacts = vec![
            Contact::new(nid(0), nid(1), 1001.0, 1005.0).unwrap(),
            Contact::new(nid(1), nid(2), 1021.0, 1025.0).unwrap(),
        ];
        let trace = ContactTrace::from_contacts(
            "offset-enum",
            reg,
            TimeWindow::new(1000.0, 1060.0),
            contacts,
        )
        .unwrap();
        let graph = SpaceTimeGraph::build_default(&trace);
        let enumerator = PathEnumerator::new(&graph, EnumerationConfig::quick(10));
        let message = Message::new(nid(0), nid(2), 1000.0);
        let mut scratch = EnumerationScratch::new();
        assert_equivalent(&enumerator, &graph, &message, &mut scratch);
        let result = enumerator.enumerate(&message);
        // The delivery lands at the end of the slot containing the 1-2
        // contact: slot 2 of a window starting at 1000 ends at 1030.
        assert_eq!(result.first_delivery_time(), Some(1030.0));
    }

    /// A dense trace over `nodes` nodes whose last node is a hard-to-reach
    /// destination. Nodes `0..nodes - 1` form large contact components in
    /// most slots, so for small `k` most members close to most paths long
    /// before the slot ends; the last node meets one random node three times,
    /// so runs toward it cross many slots before delivering, and the
    /// first-preference screen runs in the slots it is active.
    fn dense_trace(seed: u64, nodes: usize, window: f64) -> ContactTrace {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let core = nodes as u32 - 1;
        let mut contacts = Vec::new();
        for _ in 0..nodes * 6 {
            let a = rng.gen_range(0..core);
            let mut b = rng.gen_range(0..core);
            while b == a {
                b = rng.gen_range(0..core);
            }
            let start = rng.gen_range(0.0..window * 0.9);
            let duration: f64 = rng.gen_range(5.0..30.0);
            contacts.push((a, b, start, (start + duration).min(window)));
        }
        for share in [0.3, 0.6, 0.9] {
            let start = window * share;
            contacts.push((core, rng.gen_range(0..core), start, start + 4.0));
        }
        trace_from(contacts, nodes, window)
    }

    /// Configurations for the dense differential tests: plain small `k`,
    /// a delivery cap, and the first-preference ablation.
    fn dense_configs() -> Vec<EnumerationConfig> {
        let mut configs: Vec<EnumerationConfig> =
            [1usize, 2, 3, 8].into_iter().map(EnumerationConfig::quick).collect();
        configs.push(EnumerationConfig {
            k: 3,
            max_delivered_paths: Some(5),
            stored_path_limit: 2,
            enforce_first_preference: true,
        });
        configs.push(EnumerationConfig::quick(2).without_first_preference());
        configs
    }

    /// Messages toward the hard-to-reach last node and inside the dense
    /// core, created at staggered times.
    fn dense_messages(nodes: usize) -> Vec<Message> {
        let last = nodes as u32 - 1;
        vec![
            Message::new(nid(0), nid(last), 0.0),
            Message::new(nid(last / 2), nid(last), 20.0),
            Message::new(nid(1), nid(last - 1), 0.0),
            Message::new(nid(last - 2), nid(3), 40.0),
        ]
    }

    const DENSE_NODES: [usize; 4] = [60, 70, 130, 200];

    #[test]
    fn arena_matches_reference_on_dense_traces() {
        let mut scratch = EnumerationScratch::new();
        for (seed, nodes) in DENSE_NODES.into_iter().enumerate() {
            let trace = dense_trace(500 + seed as u64, nodes, 240.0);
            let graph = SpaceTimeGraph::build_default(&trace);
            for config in dense_configs() {
                let enumerator = PathEnumerator::new(&graph, config);
                for message in dense_messages(nodes) {
                    assert_equivalent(&enumerator, &graph, &message, &mut scratch);
                }
            }
        }
        assert!(scratch.bound_rejections() > 0, "dense traces must exercise the bound");
    }

    #[test]
    fn admission_bound_rejects_candidates_on_dense_graphs() {
        // Admission has no visible effect on results, so its counter is
        // what shows it is on.
        let trace = dense_trace(600, 70, 240.0);
        let graph = SpaceTimeGraph::build_default(&trace);
        let enumerator = PathEnumerator::new(&graph, EnumerationConfig::quick(3));
        let mut scratch = EnumerationScratch::new();
        let result =
            enumerator.enumerate_with_scratch(&Message::new(nid(0), nid(69), 0.0), &mut scratch);
        assert!(result.slots_processed > 1);
        assert!(
            scratch.bound_rejections() > 0,
            "no candidate was closed by admission on a dense graph"
        );
    }

    #[test]
    fn stamp_epoch_wraparound_matches_fresh_runs() {
        let nodes = 70;
        let trace = dense_trace(700, nodes, 240.0);
        let graph = SpaceTimeGraph::build_default(&trace);
        let enumerator = PathEnumerator::new(&graph, EnumerationConfig::quick(8));
        let mut scratch = EnumerationScratch::new();
        enumerator.enumerate_with_scratch(&Message::new(nid(0), nid(1), 0.0), &mut scratch);
        // Leave a stamp at epoch 1 on every node: a walk over a chain
        // through all of them. The epoch becomes 1 again right after the
        // wrap, so unless the wrap clears the marks, every node then reads
        // as already on the path and no extension happens.
        let mut everyone = scratch.arena.root(nid(0), 0.0);
        for v in 1..nodes as u32 {
            everyone = scratch.arena.extend(everyone, nid(v), 0.0);
        }
        scratch.marks.set_epoch(0);
        scratch.arena.stamp(everyone, &mut scratch.marks);
        let start = u32::MAX - 1;
        scratch.marks.set_epoch(start);
        for message in dense_messages(nodes) {
            let reused = enumerator.enumerate_with_scratch(&message, &mut scratch);
            let fresh = enumerator.enumerate(&message);
            assert_eq!(reused.deliveries, fresh.deliveries, "message {message}");
            assert_eq!(reused.sample_paths, fresh.sample_paths, "message {message}");
            assert_eq!(reused.exploded, fresh.exploded);
            assert_eq!(reused.truncated, fresh.truncated);
            assert_eq!(reused.slots_processed, fresh.slots_processed);
        }
        assert!(scratch.marks.epoch() < start, "the stamp epoch never wrapped");
    }

    #[test]
    fn screened_stored_paths_free_room_for_arrivals() {
        // k = 2. Node 2 stores two 3-hop paths, [0,1,2] and [0,5,2], when
        // node 1 meets the destination 4 in slot 3. The first-preference
        // screen drops [0,1,2] that slot, so the arrival [0,3,2] fills the
        // freed place even though node 2 entered the slot with a full list.
        // In slot 4 both of node 2's paths deliver.
        let trace = trace_from(
            vec![
                (0, 1, 1.0, 5.0),
                (0, 3, 1.0, 5.0),
                (0, 5, 1.0, 5.0),
                (1, 2, 11.0, 15.0),
                (5, 2, 21.0, 25.0),
                (1, 4, 31.0, 35.0),
                (3, 2, 32.0, 36.0),
                (2, 4, 41.0, 45.0),
            ],
            6,
            60.0,
        );
        let graph = SpaceTimeGraph::build_default(&trace);
        let enumerator = PathEnumerator::new(&graph, EnumerationConfig::quick(2));
        let message = Message::new(nid(0), nid(4), 0.0);
        let mut scratch = EnumerationScratch::new();
        assert_equivalent(&enumerator, &graph, &message, &mut scratch);
        let result = enumerator.enumerate(&message);
        let delivered: Vec<Vec<NodeId>> =
            result.sample_paths.iter().map(|p| p.nodes().collect()).collect();
        assert_eq!(
            delivered,
            vec![
                vec![nid(0), nid(1), nid(4)],
                vec![nid(0), nid(5), nid(2), nid(4)],
                vec![nid(0), nid(3), nid(2), nid(4)],
            ]
        );
        assert!(result.exploded);
    }

    #[test]
    fn a_capped_slot_with_k_deliveries_is_both_exploded_and_truncated() {
        // Six relays deliver in one slot: k = 3 explodes it, and the cap of
        // five stops it one path short of the six.
        let mut contacts = vec![];
        for r in 1..=6u32 {
            contacts.push((0, r, 1.0, 8.0));
            contacts.push((r, 7, 21.0, 28.0));
        }
        let trace = trace_from(contacts, 8, 60.0);
        let graph = SpaceTimeGraph::build_default(&trace);
        let config = EnumerationConfig {
            k: 3,
            max_delivered_paths: Some(5),
            stored_path_limit: 10,
            ..EnumerationConfig::default()
        };
        let enumerator = PathEnumerator::new(&graph, config);
        let message = Message::new(nid(0), nid(7), 0.0);
        for result in [enumerator.enumerate(&message), enumerator.enumerate_reference(&message)] {
            assert_eq!(result.delivered_count(), 5);
            assert!(result.exploded && result.truncated);
        }

        // On dense traces, in both engines, a run is exploded exactly when
        // its last delivering slot delivered `k` or more paths, whether or
        // not the cap stopped it there; k = 1 with a cap of one sets both
        // flags on every delivered message.
        let mut both = 0;
        let mut scratch = EnumerationScratch::new();
        for (seed, nodes) in DENSE_NODES.into_iter().enumerate() {
            let trace = dense_trace(900 + seed as u64, nodes, 240.0);
            let graph = SpaceTimeGraph::build_default(&trace);
            for (k, cap) in [(1, 1), (2, 3), (3, 4), (3, 8)] {
                let config = EnumerationConfig {
                    k,
                    max_delivered_paths: Some(cap),
                    stored_path_limit: 4,
                    enforce_first_preference: true,
                };
                let enumerator = PathEnumerator::new(&graph, config);
                for message in dense_messages(nodes) {
                    assert_equivalent(&enumerator, &graph, &message, &mut scratch);
                    let result = enumerator.enumerate_with_scratch(&message, &mut scratch);
                    let Some(last) = result.deliveries.last().map(|d| d.time) else {
                        continue;
                    };
                    let in_last = result.deliveries.iter().filter(|d| d.time == last).count();
                    assert_eq!(result.exploded, in_last >= k, "{message}, k {k}, cap {cap}");
                    both += usize::from(result.exploded && result.truncated);
                }
            }
        }
        assert!(both > 0, "no dense run hit the cap in an exploding slot");
    }

    #[test]
    fn first_delivery_time_equals_the_epidemic_optimum() {
        // T1, the duration of the optimal path, is the epidemic delivery
        // time: keeping at least one path per node loses no reachability,
        // and the first-preference screen only drops paths in a slot that
        // delivers. Node counts on both sides of 64, sparse and dense
        // traces, budgets from one path per node up.
        use crate::reachability::epidemic_delivery_time;
        let mut scratch = EnumerationScratch::new();
        let mut delivered = 0;
        for seed in 0..60u64 {
            let nodes = [9usize, 40, 70, 100][seed as usize % 4];
            let trace = if seed % 3 == 0 {
                dense_trace(2000 + seed, nodes, 240.0)
            } else {
                random_trace(2000 + seed, nodes, 3 * nodes, 500.0)
            };
            let graph = SpaceTimeGraph::build_default(&trace);
            let last = nodes as u32 - 1;
            let messages: Vec<Message> = (0..6u32)
                .filter_map(|i| {
                    let source = (i * 7 + seed as u32) % nodes as u32;
                    let destination = if i % 2 == 0 { last } else { (source + 1 + i) % last };
                    (source != destination)
                        .then(|| Message::new(nid(source), nid(destination), 15.0 * f64::from(i)))
                })
                .collect();
            for k in [1usize, 2, 8] {
                for config in [
                    EnumerationConfig::quick(k),
                    EnumerationConfig::quick(k).without_first_preference(),
                ] {
                    let enumerator = PathEnumerator::new(&graph, config);
                    for message in &messages {
                        let result = enumerator.enumerate_with_scratch(message, &mut scratch);
                        let optimum = epidemic_delivery_time(&graph, message);
                        assert_eq!(result.first_delivery_time(), optimum, "{message}, k {k}");
                        delivered += usize::from(optimum.is_some());
                    }
                }
            }
        }
        assert!(delivered > 1500, "only {delivered} cases delivered");
    }

    /// A random trace and message set with integer-valued times, every one
    /// shifted by `shift` seconds: contacts and creation times land on slot
    /// boundaries often, and a whole-slot shift stays exact.
    fn integer_workload(seed: u64, start: f64, shift: f64) -> (ContactTrace, Vec<Message>) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes = rng.gen_range(3..12u32);
        let span = 600.0;
        let window = TimeWindow::new(start + shift, start + shift + span);
        let mut registry = NodeRegistry::new();
        for _ in 0..nodes {
            registry.add(NodeClass::Mobile);
        }
        let contacts = (0..rng.gen_range(5..50))
            .map(|_| {
                let a = rng.gen_range(0..nodes);
                let b = (a + rng.gen_range(1..nodes)) % nodes;
                let begin = f64::from(rng.gen_range(0..590u32));
                let length = f64::from(rng.gen_range(0..60u32));
                let end = (begin + length).min(span);
                Contact::new(nid(a), nid(b), window.start + begin, window.start + end).unwrap()
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
        let trace = ContactTrace::from_contacts("shift", registry, window, contacts).unwrap();
        (trace, messages)
    }

    /// Deliveries as (delay, hops), sampled paths as (node, offset) hops.
    type ShiftFree = (Vec<(Seconds, usize)>, Vec<Vec<(NodeId, Seconds)>>, bool, bool, usize);

    /// What a whole-slot time shift must leave unchanged in a result: every
    /// delivery's delay and hop count, the sampled paths' hop nodes and hop
    /// offsets from the creation time, both flags and the slot count.
    fn shift_free(result: &EnumerationResult) -> ShiftFree {
        let created = result.message.created_at;
        (
            result.deliveries.iter().map(|d| (d.time - created, d.hops)).collect(),
            result
                .sample_paths
                .iter()
                .map(|p| p.hops().iter().map(|h| (h.node, h.time - created)).collect())
                .collect(),
            result.exploded,
            result.truncated,
            result.slots_processed,
        )
    }

    proptest::proptest! {
        #[test]
        fn a_whole_slot_time_shift_changes_no_enumerated_path_or_delay(
            seed in 0u64..1_000_000,
            start in 0u32..40,
            slots in 1u32..100_000,
            k in 1usize..8,
            first_preference in 0u8..2,
        ) {
            // Shifting every contact, the window and every creation time by
            // k·Δ moves every slot boundary with them, so all three drivers
            // must enumerate the same paths with the same delays.
            // Integer-valued times keep the shift exact.
            let start = f64::from(start) * 7.0;
            let shift = f64::from(slots) * 10.0;
            let mut config = EnumerationConfig::quick(k);
            config.enforce_first_preference = first_preference == 1;
            let mut base = None;
            for shift in [0.0, shift] {
                let (trace, messages) = integer_workload(seed, start, shift);
                let graph = SpaceTimeGraph::build_default(&trace);
                let enumerator = PathEnumerator::new(&graph, config.clone());
                let mut scratch = EnumerationScratch::new();
                let runs = [
                    messages.iter().map(|m| enumerator.enumerate_with_scratch(m, &mut scratch)).collect(),
                    enumerator.enumerate_batch(&messages, &mut Vec::new()),
                    messages.iter().map(|m| enumerator.enumerate_reference(m)).collect::<Vec<_>>(),
                ];
                for (run, name) in runs.iter().zip(["engine", "batch", "reference"]) {
                    let got: Vec<ShiftFree> = run.iter().map(shift_free).collect();
                    let expected = base.get_or_insert_with(|| got.clone());
                    proptest::prop_assert_eq!(&got, expected, "{}, shift {}", name, shift);
                }
            }
        }
    }

    type Workload = (ContactTrace, Vec<Message>);

    /// A small random trace and message set with integer-valued times, and
    /// the same workload with every node renamed under a seeded
    /// permutation (returned as the label map, old id → new id).
    fn relabelled_workload(seed: u64) -> (Workload, Workload, Vec<u32>) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes = rng.gen_range(3..8u32);
        let window = TimeWindow::new(0.0, 300.0);
        let contacts: Vec<(u32, u32, f64, f64)> = (0..rng.gen_range(4..30))
            .map(|_| {
                let a = rng.gen_range(0..nodes);
                let b = (a + rng.gen_range(1..nodes)) % nodes;
                let begin = f64::from(rng.gen_range(0..290u32));
                (a, b, begin, (begin + f64::from(rng.gen_range(0..40u32))).min(300.0))
            })
            .collect();
        let messages: Vec<(u32, u32, f64)> = (0..rng.gen_range(1..10))
            .map(|_| {
                let source = rng.gen_range(0..nodes);
                let destination = (source + rng.gen_range(1..nodes)) % nodes;
                (source, destination, f64::from(rng.gen_range(0..300u32)))
            })
            .collect();
        let mut label: Vec<u32> = (0..nodes).collect();
        for i in (1..label.len()).rev() {
            label.swap(i, rng.gen_range(0..=i));
        }
        let build = |map: &dyn Fn(u32) -> u32| {
            let mut registry = NodeRegistry::new();
            for _ in 0..nodes {
                registry.add(NodeClass::Mobile);
            }
            let contacts = contacts
                .iter()
                .map(|&(a, b, start, end)| {
                    Contact::new(nid(map(a)), nid(map(b)), start, end).unwrap()
                })
                .collect();
            let trace = ContactTrace::from_contacts("relabel", registry, window, contacts).unwrap();
            let messages = messages
                .iter()
                .map(|&(s, d, created)| Message::new(nid(map(s)), nid(map(d)), created))
                .collect();
            (trace, messages)
        };
        let relabelled = build(&|v| label[v as usize]);
        (build(&|v| v), relabelled, label)
    }

    /// Deliveries as (time, hops), both flags and the slot count.
    type LabelFree = (Vec<(Seconds, usize)>, bool, bool, usize);

    fn label_free(result: &EnumerationResult) -> LabelFree {
        (
            result.deliveries.iter().map(|d| (d.time, d.hops)).collect(),
            result.exploded,
            result.truncated,
            result.slots_processed,
        )
    }

    /// The sampled paths as sorted hop sequences, each node mapped through
    /// `map`: a relabelling may reorder the holders a slot delivers from.
    fn sorted_samples(
        result: &EnumerationResult,
        map: &dyn Fn(NodeId) -> u32,
    ) -> Vec<Vec<(u32, Seconds)>> {
        let mut paths: Vec<Vec<(u32, Seconds)>> = result
            .sample_paths
            .iter()
            .map(|p| p.hops().iter().map(|h| (map(h.node), h.time)).collect())
            .collect();
        paths.sort_by(|a, b| a.partial_cmp(b).unwrap());
        paths
    }

    proptest::proptest! {
        #[test]
        fn relabelling_nodes_changes_no_delivery_and_permutes_sample_hops(
            seed in 0u64..1_000_000,
            first_preference in 0u8..2,
        ) {
            // With budgets that never bind — k above any path count these
            // traces reach, no delivery cap, every delivered path sampled —
            // the enumeration is a function of the contact structure alone,
            // so renaming nodes may only rename the sampled hops. All three
            // entry points (single, batch, reference) are checked.
            let k = 1 << 20;
            let config = EnumerationConfig {
                k,
                max_delivered_paths: None,
                stored_path_limit: usize::MAX,
                enforce_first_preference: first_preference == 1,
            };
            let ((trace, messages), (relabelled_trace, relabelled_messages), label) =
                relabelled_workload(seed);
            let enumerate_all = |trace: &ContactTrace, messages: &[Message]| {
                let graph = SpaceTimeGraph::build_default(trace);
                let enumerator = PathEnumerator::new(&graph, config.clone());
                let mut scratch = EnumerationScratch::new();
                [
                    messages.iter().map(|m| enumerator.enumerate_with_scratch(m, &mut scratch)).collect(),
                    enumerator.enumerate_batch(messages, &mut Vec::new()),
                    messages.iter().map(|m| enumerator.enumerate_reference(m)).collect::<Vec<_>>(),
                ]
            };
            let base = enumerate_all(&trace, &messages);
            let relabelled = enumerate_all(&relabelled_trace, &relabelled_messages);
            for ((run, renamed), name) in base.iter().zip(&relabelled).zip(["engine", "batch", "reference"]) {
                for (result, renamed) in run.iter().zip(renamed) {
                    let message = &result.message;
                    proptest::prop_assert!(result.delivered_count() < k, "{}: k binds", name);
                    proptest::prop_assert_eq!(result.sample_paths.len(), result.delivered_count());
                    proptest::prop_assert_eq!(label_free(result), label_free(renamed), "{}: {}", name, message);
                    proptest::prop_assert_eq!(
                        sorted_samples(result, &|v| label[v.index()]),
                        sorted_samples(renamed, &|v| v.0),
                        "{}: {}", name, message
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Slot-major batch driver: must be bit-identical to the message-major
    // driver, and must touch each slot of a windowed graph once per batch.
    // ------------------------------------------------------------------

    fn assert_batch_matches_sequential(
        enumerator: &PathEnumerator<'_>,
        messages: &[Message],
        scratches: &mut Vec<EnumerationScratch>,
        scratch: &mut EnumerationScratch,
    ) {
        let batch = enumerator.enumerate_batch(messages, scratches);
        assert_eq!(batch.len(), messages.len());
        for (message, batched) in messages.iter().zip(&batch) {
            let single = enumerator.enumerate_with_scratch(message, scratch);
            assert_eq!(batched.deliveries, single.deliveries, "deliveries differ for {message}");
            assert_eq!(
                batched.sample_paths, single.sample_paths,
                "sample paths differ for {message}"
            );
            assert_eq!(batched.exploded, single.exploded, "explosion flag differs for {message}");
            assert_eq!(
                batched.truncated, single.truncated,
                "truncation flag differs for {message}"
            );
            assert_eq!(
                batched.slots_processed, single.slots_processed,
                "slot count differs for {message}"
            );
        }
    }

    #[test]
    fn batch_matches_sequential_on_random_traces() {
        let mut scratches = Vec::new();
        let mut scratch = EnumerationScratch::new();
        for seed in 200..208u64 {
            // Node counts on both sides of 64.
            let nodes = 6 + (seed as usize % 4) * 21;
            let trace = random_trace(seed, nodes, 140, 500.0);
            let graph = SpaceTimeGraph::build_default(&trace);
            for k in [1usize, 6, 24] {
                let enumerator = PathEnumerator::new(&graph, EnumerationConfig::quick(k));
                // Staggered creation times give every run a different
                // start slot, so the sweep joins runs mid-flight.
                let messages: Vec<Message> = (0..8u32)
                    .map(|i| {
                        Message::new(
                            nid((i * 3) % nodes as u32),
                            nid((i * 5 + 1) % nodes as u32),
                            25.0 * i as f64,
                        )
                    })
                    .filter(|m| m.source != m.destination)
                    .collect();
                assert_batch_matches_sequential(
                    &enumerator,
                    &messages,
                    &mut scratches,
                    &mut scratch,
                );
            }
        }
    }

    #[test]
    fn batch_matches_sequential_with_caps_and_ablation() {
        let mut scratches = Vec::new();
        let mut scratch = EnumerationScratch::new();
        for seed in 300..304u64 {
            let trace = random_trace(seed, 10, 60, 400.0);
            let graph = SpaceTimeGraph::build_default(&trace);
            for config in [
                EnumerationConfig {
                    k: 25,
                    max_delivered_paths: Some(7),
                    stored_path_limit: 3,
                    enforce_first_preference: true,
                },
                EnumerationConfig {
                    k: 5,
                    max_delivered_paths: Some(2),
                    stored_path_limit: 1,
                    enforce_first_preference: true,
                },
                EnumerationConfig::quick(8).without_first_preference(),
            ] {
                let enumerator = PathEnumerator::new(&graph, config);
                let messages: Vec<Message> = vec![
                    Message::new(nid(0), nid(9), 0.0),
                    Message::new(nid(5), nid(2), 0.0),
                    Message::new(nid(3), nid(7), 50.0),
                    Message::new(nid(9), nid(0), 120.0),
                ];
                assert_batch_matches_sequential(
                    &enumerator,
                    &messages,
                    &mut scratches,
                    &mut scratch,
                );
            }
        }
    }

    #[test]
    fn batch_matches_sequential_on_dense_traces() {
        let mut scratches = Vec::new();
        let mut scratch = EnumerationScratch::new();
        for (seed, nodes) in DENSE_NODES.into_iter().enumerate() {
            let trace = dense_trace(800 + seed as u64, nodes, 240.0);
            let graph = SpaceTimeGraph::build_default(&trace);
            for config in dense_configs() {
                let enumerator = PathEnumerator::new(&graph, config);
                let messages = dense_messages(nodes);
                assert_batch_matches_sequential(
                    &enumerator,
                    &messages,
                    &mut scratches,
                    &mut scratch,
                );
                for message in &messages {
                    let reference = enumerator.enumerate_reference(message);
                    let single = enumerator.enumerate_with_scratch(message, &mut scratch);
                    assert_eq!(single.deliveries, reference.deliveries, "{message}");
                    assert_eq!(single.sample_paths, reference.sample_paths, "{message}");
                    assert_eq!(single.exploded, reference.exploded, "{message}");
                    assert_eq!(single.truncated, reference.truncated, "{message}");
                    assert_eq!(single.slots_processed, reference.slots_processed, "{message}");
                }
            }
        }
    }

    #[test]
    fn batch_handles_empty_and_singleton_inputs() {
        let trace = trace_from(vec![(0, 1, 1.0, 5.0), (1, 2, 21.0, 25.0)], 3, 60.0);
        let graph = SpaceTimeGraph::build_default(&trace);
        let enumerator = PathEnumerator::new(&graph, EnumerationConfig::quick(10));
        let mut scratches = Vec::new();
        assert!(enumerator.enumerate_batch(&[], &mut scratches).is_empty());
        assert!(scratches.is_empty());
        let message = Message::new(nid(0), nid(2), 0.0);
        let batch = enumerator.enumerate_batch(std::slice::from_ref(&message), &mut scratches);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].deliveries, enumerator.enumerate(&message).deliveries);
        assert_eq!(scratches.len(), 1);
    }

    #[test]
    fn batched_sweep_reloads_each_slot_once_per_batch() {
        use crate::windowed::{MemorySpill, WindowedSpaceTimeGraph};
        use psn_trace::TraceEventStream;

        // A relay chain spread across many slots: messages toward the chain
        // tail sweep most of the trace before delivering, so message-major
        // enumeration re-walks (and re-loads) the same slots once per
        // message while the slot-major batch walks them once in total.
        let contacts: Vec<(u32, u32, f64, f64)> =
            (0..7u32).map(|i| (i, i + 1, 20.0 * i as f64 + 1.0, 20.0 * i as f64 + 5.0)).collect();
        let trace = trace_from(contacts, 8, 200.0);
        let messages: Vec<Message> = vec![
            Message::new(nid(0), nid(7), 0.0),
            Message::new(nid(1), nid(7), 0.0),
            Message::new(nid(0), nid(6), 0.0),
            Message::new(nid(2), nid(7), 0.0),
            Message::new(nid(0), nid(5), 0.0),
        ];
        let config = EnumerationConfig::quick(10);
        let windowed = |window_slots: usize| {
            WindowedSpaceTimeGraph::stream_with(
                &mut TraceEventStream::new(&trace, 10.0),
                window_slots,
                Box::new(MemorySpill::new()),
                |_, _| {},
            )
            .unwrap()
        };

        // Message-major: each message sweeps the busy prefix on its own.
        let graph_seq = windowed(2);
        let enumerator = PathEnumerator::new(&graph_seq, config.clone());
        let mut scratch = EnumerationScratch::new();
        let sequential: Vec<EnumerationResult> =
            messages.iter().map(|m| enumerator.enumerate_with_scratch(m, &mut scratch)).collect();
        let loads_sequential = graph_seq.spill_loads();

        // Slot-major batch over an identically shaped graph.
        let graph_batch = windowed(2);
        let enumerator = PathEnumerator::new(&graph_batch, config);
        let mut scratches = Vec::new();
        let batched = enumerator.enumerate_batch(&messages, &mut scratches);
        let loads_batched = graph_batch.spill_loads();

        for (single, batch) in sequential.iter().zip(&batched) {
            assert_eq!(single.deliveries, batch.deliveries);
            assert_eq!(single.sample_paths, batch.sample_paths);
            assert_eq!(single.slots_processed, batch.slots_processed);
        }
        // The batch pins every slot at most once, so its reload count is
        // bounded by the number of busy slots; the message-major driver
        // pays that cost nearly once per message.
        let busy = graph_batch.busy_slots().len() as u64;
        assert!(
            loads_batched <= busy,
            "batch reloaded {loads_batched} slots, expected at most {busy}"
        );
        assert!(
            loads_sequential >= 2 * loads_batched,
            "sequential loads {loads_sequential} should dwarf batched loads {loads_batched}"
        );
    }
}
