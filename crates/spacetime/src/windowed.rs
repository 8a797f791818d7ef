//! Incremental, bounded-memory space-time graph construction.
//!
//! [`SpaceTimeGraph::build`] materializes every slot of the trace before any
//! downstream work starts, so its working set is O(trace). This module is
//! the spacetime half of the streaming pipeline:
//!
//! * [`IncrementalSlotter`] folds slot-ordered [`ContactEvent`]s into sealed
//!   per-slot edge lists, maintaining only the *currently active* contact
//!   multiset between seals — O(active contacts) state;
//! * [`stream_graph`] drains a [`ContactStream`] into a full
//!   [`SpaceTimeGraph`], bit-identical to the materialized builder (the
//!   differential anchor for the incremental path);
//! * [`WindowedSpaceTimeGraph`] keeps a bounded sliding window of hot slots
//!   in memory and spills every sealed busy slot through a [`SlotSpill`]
//!   sink (the `psn-artifact` binary codec in production, an in-memory map
//!   in tests), reloading cold slots on demand — random access with an
//!   O(window) resident bound;
//! * [`GraphRef`] / [`SlotGuard`] / [`SharedGraph`] let every engine run
//!   unchanged against either representation: slot queries go through a
//!   guard hoisted once per slot-loop iteration, and both representations
//!   answer them from the *same* [`Slot`] type, so results are identical by
//!   construction.
//!
//! Spill reload is exact: a slot is stored as its final normalized edge
//! list, and [`Slot::seal`] deterministically rebuilds adjacency, component
//! labels and member tables from it, so a reloaded slot compares equal to
//! the one that was evicted.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use psn_trace::stream::{self, slot_count};
use psn_trace::{ContactEvent, ContactStream, NodeId, Seconds, StreamError, TimeWindow};

use crate::graph::{Slot, SpaceTimeGraph};

/// Errors raised by a [`SlotSpill`] sink.
#[derive(Debug, Clone, PartialEq)]
pub enum SpillError {
    /// An I/O failure in the spill backend.
    Io(String),
    /// The stored bytes could not be decoded back into a slot.
    Corrupt(String),
    /// A slot was requested that was never spilled.
    Missing(usize),
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillError::Io(e) => write!(f, "spill I/O error: {e}"),
            SpillError::Corrupt(e) => write!(f, "spilled slot is corrupt: {e}"),
            SpillError::Missing(s) => write!(f, "slot {s} was never spilled"),
        }
    }
}

impl std::error::Error for SpillError {}

/// A sink cold slots spill through. Stores the slot's final normalized edge
/// list; everything else in a [`Slot`] is deterministically rebuilt from it
/// on reload by [`Slot::seal`].
pub trait SlotSpill: Send + Sync + std::fmt::Debug {
    /// Persists the edge list of slot `index`.
    fn store(&self, index: usize, edges: &[(NodeId, NodeId)]) -> Result<(), SpillError>;
    /// Loads the edge list of slot `index` back.
    fn load(&self, index: usize) -> Result<Vec<(NodeId, NodeId)>, SpillError>;
    /// Bytes of reusable encode/decode scratch the backend holds — counted
    /// into [`WindowedSpaceTimeGraph::peak_bytes`] so the streaming
    /// working-set figure includes the spill tier's buffers.
    fn scratch_bytes(&self) -> usize {
        0
    }
}

/// An in-memory spill backend for tests and small runs.
#[derive(Debug, Default)]
pub struct MemorySpill {
    slots: Mutex<BTreeMap<usize, Vec<(NodeId, NodeId)>>>,
}

impl MemorySpill {
    /// Creates an empty in-memory spill.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SlotSpill for MemorySpill {
    fn store(&self, index: usize, edges: &[(NodeId, NodeId)]) -> Result<(), SpillError> {
        let mut slots = self.slots.lock().unwrap_or_else(|poison| poison.into_inner());
        slots.insert(index, edges.to_vec());
        Ok(())
    }

    fn load(&self, index: usize) -> Result<Vec<(NodeId, NodeId)>, SpillError> {
        let slots = self.slots.lock().unwrap_or_else(|poison| poison.into_inner());
        slots.get(&index).cloned().ok_or(SpillError::Missing(index))
    }
}

/// Errors raised while draining a stream into a graph.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamBuildError {
    /// The event source failed or violated its ordering contract.
    Stream(StreamError),
    /// The spill sink failed.
    Spill(SpillError),
}

impl std::fmt::Display for StreamBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamBuildError::Stream(e) => write!(f, "event stream error: {e}"),
            StreamBuildError::Spill(e) => write!(f, "slot spill error: {e}"),
        }
    }
}

impl std::error::Error for StreamBuildError {}

impl From<StreamError> for StreamBuildError {
    fn from(e: StreamError) -> Self {
        StreamBuildError::Stream(e)
    }
}

impl From<SpillError> for StreamBuildError {
    fn from(e: SpillError) -> Self {
        StreamBuildError::Spill(e)
    }
}

/// Folds slot-ordered contact events into sealed per-slot edge lists.
///
/// State between seals is the multiset of currently active contact edges
/// (refcounted, since overlapping contacts of one pair are distinct), so
/// memory is O(active contacts) regardless of trace length. Slots are sealed
/// strictly in ascending order through the `seal` callback; the callback
/// receives the slot index and the slot's edge list, one entry per active
/// pair, smaller endpoint first, ascending — already the normalized list
/// [`Slot::seal`] would keep, which is why the history timeline can fold
/// it without sealing a slot.
#[derive(Debug)]
pub struct IncrementalSlotter {
    num_slots: usize,
    next_slot: usize,
    active: BTreeMap<(u32, u32), u32>,
}

impl IncrementalSlotter {
    /// A slotter over `num_slots` slots (see
    /// [`psn_trace::stream::slot_count`]).
    pub fn new(num_slots: usize) -> Self {
        Self { num_slots, next_slot: 0, active: BTreeMap::new() }
    }

    /// The multiset of currently active edges, one entry per unique pair.
    fn snapshot(&self) -> Vec<(NodeId, NodeId)> {
        self.active.keys().map(|&(a, b)| (NodeId(a), NodeId(b))).collect()
    }

    fn seal_through<E>(
        &mut self,
        upto: usize,
        seal: &mut impl FnMut(usize, Vec<(NodeId, NodeId)>) -> Result<(), E>,
    ) -> Result<(), E> {
        let upto = upto.min(self.num_slots);
        while self.next_slot < upto {
            let edges = self.snapshot();
            seal(self.next_slot, edges)?;
            self.next_slot += 1;
        }
        Ok(())
    }

    /// Applies one event, sealing every slot strictly before the event's
    /// slot first. Events must arrive in non-decreasing slot order;
    /// regressions are rejected with [`StreamError::SlotRegression`] wrapped
    /// in [`StreamBuildError::Stream`].
    pub fn apply<E: From<StreamError>>(
        &mut self,
        event: &ContactEvent,
        seal: &mut impl FnMut(usize, Vec<(NodeId, NodeId)>) -> Result<(), E>,
    ) -> Result<(), E> {
        let slot = event.slot();
        if slot < self.next_slot {
            return Err(StreamError::SlotRegression { slot, expected_min: self.next_slot }.into());
        }
        self.seal_through(slot, seal)?;
        match *event {
            ContactEvent::Up { a, b, .. } => {
                let key = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
                *self.active.entry(key).or_insert(0) += 1;
            }
            ContactEvent::Down { a, b, .. } => {
                let key = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
                if let Some(count) = self.active.get_mut(&key) {
                    *count -= 1;
                    if *count == 0 {
                        self.active.remove(&key);
                    }
                }
            }
        }
        Ok(())
    }

    /// Seals every remaining slot through the end of the window.
    pub fn finish<E>(
        mut self,
        seal: &mut impl FnMut(usize, Vec<(NodeId, NodeId)>) -> Result<(), E>,
    ) -> Result<(), E> {
        self.seal_through(self.num_slots, seal)
    }

    /// Approximate bytes held by the active-contact multiset.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.active.len() * std::mem::size_of::<((u32, u32), u32)>()
    }
}

/// Drains `stream` into a fully materialized [`SpaceTimeGraph`] —
/// [`SpaceTimeGraph::build`] is this fold over a trace's event stream, so
/// a streamed source and its materialized trace give the same graph.
pub fn stream_graph<S: ContactStream>(stream: &mut S) -> Result<SpaceTimeGraph, StreamError> {
    let node_count = stream.node_count();
    let window = stream.window();
    let delta = stream.delta();
    let num_slots = slot_count(window, delta);
    let mut slots: Vec<Slot> = Vec::with_capacity(num_slots);
    let mut slotter = IncrementalSlotter::new(num_slots);
    let mut seal = |_s: usize, edges: Vec<(NodeId, NodeId)>| -> Result<(), StreamError> {
        slots.push(Slot::seal(node_count, edges));
        Ok(())
    };
    while let Some(event) = stream.next_event()? {
        slotter.apply(&event, &mut seal)?;
    }
    slotter.finish(&mut seal)?;
    Ok(SpaceTimeGraph::from_sealed_slots(delta, node_count, slots, window))
}

/// Hot-slot cache of a windowed graph: FIFO insertion order, bounded count.
///
/// Spilling is **lazy**: a sealed slot is written to the spill sink only
/// when it is about to be evicted (`spilled` records which slots have been
/// written, so a slot evicted twice is stored once). Slots that never leave
/// the hot window are never stored at all — the skip-spill path that makes
/// small graphs and covered sweeps spill-free.
#[derive(Debug, Default)]
struct HotSet {
    map: BTreeMap<usize, Arc<Slot>>,
    order: VecDeque<usize>,
    resident_bytes: usize,
    /// Per-slot "already persisted" flags, indexed by slot number.
    spilled: Vec<bool>,
}

impl HotSet {
    /// Evicts the FIFO (or, under a plan, LIFO) victim, persisting it first
    /// if it was never spilled. Returns the number of spill stores made.
    fn evict_one(&mut self, spill: &dyn SlotSpill, from_back: bool) -> Result<u64, SpillError> {
        let victim = if from_back { self.order.pop_back() } else { self.order.pop_front() };
        let Some(old) = victim else { return Ok(0) };
        let Some(evicted) = self.map.remove(&old) else { return Ok(0) };
        let mut stores = 0;
        if !self.spilled[old] {
            spill.store(old, evicted.edges())?;
            self.spilled[old] = true;
            stores = 1;
        }
        self.resident_bytes -= evicted.approx_bytes();
        Ok(stores)
    }
}

/// A space-time graph whose resident set is bounded by a slot window.
///
/// Built in one pass over a [`ContactStream`]; at most `window_slots` busy
/// slots stay hot in memory and a sealed busy slot is written to the
/// [`SlotSpill`] sink **lazily, on first eviction** — a slot the hot window
/// covers for the graph's whole lifetime is never stored, and a slot
/// re-evicted after a reload is never stored twice. Queries for cold slots
/// reload them from the spill (bit-exact, see [`Slot::seal`]); queries for
/// contact-free slots share one empty slot. All slot queries go through
/// [`WindowedSpaceTimeGraph::slot`], which returns an owned `Arc<Slot>`
/// guard.
#[derive(Debug)]
pub struct WindowedSpaceTimeGraph {
    delta: Seconds,
    node_count: usize,
    num_slots: usize,
    window: TimeWindow,
    busy_slots: Vec<usize>,
    total_edges: usize,
    window_slots: usize,
    empty: Arc<Slot>,
    spill: Box<dyn SlotSpill>,
    hot: Mutex<HotSet>,
    peak_bytes: AtomicUsize,
    spill_stores: AtomicU64,
    spill_loads: AtomicU64,
    /// A sequential (ascending-sweep) access plan is active — see
    /// [`WindowedSpaceTimeGraph::advise_sequential`].
    plan_active: AtomicBool,
    avoided_reloads: AtomicU64,
}

impl WindowedSpaceTimeGraph {
    /// Builds the windowed graph by draining `stream`, keeping at most
    /// `window_slots` busy slots hot (clamped to at least 1) and spilling
    /// evicted busy slots through `spill`.
    pub fn stream<S: ContactStream>(
        stream: &mut S,
        window_slots: usize,
        spill: Box<dyn SlotSpill>,
    ) -> Result<Self, StreamBuildError> {
        Self::stream_with(stream, window_slots, spill, |_, _| {})
    }

    /// Like [`WindowedSpaceTimeGraph::stream`], additionally invoking `tap`
    /// on every sealed *busy* slot, in ascending slot order, before it can
    /// be evicted — the hook the incremental history-timeline builder rides
    /// so graph and timeline are built in the same single pass.
    pub fn stream_with<S: ContactStream>(
        stream: &mut S,
        window_slots: usize,
        spill: Box<dyn SlotSpill>,
        mut tap: impl FnMut(usize, &Slot),
    ) -> Result<Self, StreamBuildError> {
        let node_count = stream.node_count();
        let window = stream.window();
        let delta = stream.delta();
        let num_slots = slot_count(window, delta);
        let window_slots = window_slots.max(1);
        let empty = Arc::new(Slot::empty(node_count));

        let mut slotter = IncrementalSlotter::new(num_slots);
        let mut busy_slots: Vec<usize> = Vec::new();
        let mut total_edges = 0usize;
        let mut hot = HotSet { spilled: vec![false; num_slots], ..HotSet::default() };
        let mut spill_stores = 0u64;
        let mut peak = 0usize;
        let base_bytes = std::mem::size_of::<Self>()
            + empty.approx_bytes()
            + num_slots * std::mem::size_of::<bool>();

        {
            let mut seal =
                |s: usize, edges: Vec<(NodeId, NodeId)>| -> Result<(), StreamBuildError> {
                    if edges.is_empty() {
                        return Ok(());
                    }
                    let slot = Arc::new(Slot::seal(node_count, edges));
                    tap(s, &slot);
                    busy_slots.push(s);
                    total_edges += slot.edge_count();
                    hot.resident_bytes += slot.approx_bytes();
                    hot.map.insert(s, slot);
                    hot.order.push_back(s);
                    // Lazy spill: slots are persisted at eviction, not at
                    // seal, so slots that stay hot for the graph's whole
                    // life are never written at all.
                    while hot.map.len() > window_slots {
                        spill_stores += hot.evict_one(spill.as_ref(), false)?;
                    }
                    let working = base_bytes
                        + hot.resident_bytes
                        + busy_slots.len() * std::mem::size_of::<usize>()
                        + spill.scratch_bytes();
                    peak = peak.max(working);
                    Ok(())
                };
            while let Some(event) = stream.next_event().map_err(StreamBuildError::Stream)? {
                slotter.apply(&event, &mut seal)?;
            }
            slotter.finish(&mut seal)?;
        }
        let working = base_bytes
            + hot.resident_bytes
            + busy_slots.len() * std::mem::size_of::<usize>()
            + spill.scratch_bytes();
        peak = peak.max(working);

        Ok(Self {
            delta,
            node_count,
            num_slots,
            window,
            busy_slots,
            total_edges,
            window_slots,
            empty,
            spill,
            hot: Mutex::new(hot),
            peak_bytes: AtomicUsize::new(peak),
            spill_stores: AtomicU64::new(spill_stores),
            spill_loads: AtomicU64::new(0),
            plan_active: AtomicBool::new(false),
            avoided_reloads: AtomicU64::new(0),
        })
    }

    /// The discretization step in seconds.
    pub fn delta(&self) -> Seconds {
        self.delta
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of time slots.
    pub fn slot_count(&self) -> usize {
        self.num_slots
    }

    /// The observation window.
    pub fn window(&self) -> TimeWindow {
        self.window
    }

    /// The slot index containing absolute time `t`, clamped
    /// ([`psn_trace::stream::slot_of_time`]).
    pub fn slot_of_time(&self, t: Seconds) -> usize {
        stream::slot_of_time(self.window, self.delta, t)
    }

    /// The absolute time at which slot `s` ends
    /// ([`psn_trace::stream::slot_end_time`]).
    pub fn slot_end_time(&self, s: usize) -> Seconds {
        stream::slot_end_time(self.window, self.delta, s)
    }

    /// Indices of slots with at least one contact edge, ascending.
    pub fn busy_slots(&self) -> &[usize] {
        &self.busy_slots
    }

    /// Total number of (contact, slot) incidences.
    pub fn total_edges(&self) -> usize {
        self.total_edges
    }

    /// Passes a reloaded edge list through if every endpoint is a node of
    /// this graph; a record that decodes cleanly can still name a node the
    /// graph does not have, which [`Slot::seal`] would index out of bounds.
    fn checked_node_ids(
        &self,
        slot: usize,
        edges: Vec<(NodeId, NodeId)>,
    ) -> Result<Vec<(NodeId, NodeId)>, SpillError> {
        match edges.iter().flat_map(|&(a, b)| [a, b]).find(|v| v.index() >= self.node_count) {
            Some(v) => Err(SpillError::Corrupt(format!(
                "slot {slot} names node {} but the graph has {} nodes",
                v.0, self.node_count
            ))),
            None => Ok(edges),
        }
    }

    /// The slot `s`, hot or reloaded from spill. Contact-free slots share
    /// one empty instance. A reloaded edge naming a node id at or beyond
    /// [`WindowedSpaceTimeGraph::node_count`] is a [`SpillError::Corrupt`].
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range or the spill backend fails — engines
    /// run slot queries in hot loops with no error channel, and the study
    /// layer already isolates per-cell panics.
    pub fn slot(&self, s: usize) -> Arc<Slot> {
        assert!(s < self.num_slots, "slot {s} out of range ({} slots)", self.num_slots);
        let Ok(busy_idx) = self.busy_slots.binary_search(&s) else {
            return Arc::clone(&self.empty);
        };
        // relaxed: advisory access-plan flag; the hot-set mutex orders the data it guards.
        let plan = self.plan_active.load(Ordering::Relaxed);
        let mut hot = self.hot.lock().unwrap_or_else(|poison| poison.into_inner());
        if let Some(slot) = hot.map.get(&s) {
            if plan {
                // Under the plan-less FIFO policy a repeated ascending
                // sweep evicts every slot before it comes round again, so a
                // plan-active hot hit is a reload the plan avoided.
                // relaxed: monotonic stats counter, read only for reporting; orders no data.
                self.avoided_reloads.fetch_add(1, Ordering::Relaxed);
            }
            return Arc::clone(slot);
        }
        let reload = |s: usize| -> Arc<Slot> {
            let edges = match self.spill.load(s).and_then(|edges| self.checked_node_ids(s, edges)) {
                Ok(edges) => edges,
                Err(e) => panic!("reloading spilled slot {s} failed: {e}"),
            };
            // relaxed: monotonic stats counter, read only for reporting; orders no data.
            self.spill_loads.fetch_add(1, Ordering::Relaxed);
            Arc::new(Slot::seal(self.node_count, edges))
        };
        let slot = reload(s);
        hot.resident_bytes += slot.approx_bytes();
        hot.map.insert(s, Arc::clone(&slot));
        hot.order.push_back(s);
        if plan {
            // Prefetch subsequent busy slots — the order an ascending
            // sweep will ask for them — into whatever capacity is free, so
            // the sweep's next queries are answered hot.
            for &next in &self.busy_slots[busy_idx + 1..] {
                if hot.map.len() >= self.window_slots {
                    break;
                }
                if hot.map.contains_key(&next) {
                    continue;
                }
                let prefetched = reload(next);
                hot.resident_bytes += prefetched.approx_bytes();
                hot.map.insert(next, prefetched);
                hot.order.push_back(next);
            }
        }
        while hot.map.len() > self.window_slots {
            // FIFO suits one-shot scans; under a sequential plan the cache
            // instead keeps its oldest entries (the sweep's prefix) and
            // drops the newest, so each sweep restart begins with hot
            // hits — the optimal policy for cyclic ascending scans.
            // Eviction consults the spilled set: a slot already persisted
            // (every reloaded slot is) costs zero extra stores, so steady
            // state sweeps churn the hot set without touching the sink.
            match hot.evict_one(self.spill.as_ref(), plan) {
                // relaxed: monotonic stats counter, read only for reporting; orders no data.
                Ok(stores) => {
                    self.spill_stores.fetch_add(stores, Ordering::Relaxed);
                }
                Err(e) => panic!("evicting slot to spill failed: {e}"),
            }
        }
        let working = std::mem::size_of::<Self>()
            + self.empty.approx_bytes()
            + self.busy_slots.len() * std::mem::size_of::<usize>()
            + self.num_slots * std::mem::size_of::<bool>()
            + hot.resident_bytes
            + self.spill.scratch_bytes();
        // relaxed: high-water-mark stats; fetch_max is atomic and the value is reporting-only.
        self.peak_bytes.fetch_max(working, Ordering::Relaxed);
        slot
    }

    /// Declares (or retracts) a **sequential access plan**: the caller is
    /// about to scan busy slots in ascending order, restarting from the
    /// bottom repeatedly — the enumerator's per-message sweep pattern,
    /// which thrashes the FIFO policy (each restart finds the cache full
    /// of the *previous* sweep's tail and misses every slot). While a plan
    /// is active the cache keeps the sweep's prefix resident, prefetches
    /// forward in sweep order, and counts hot hits as
    /// [`WindowedSpaceTimeGraph::avoided_reloads`].
    ///
    /// Purely a performance hint — slot contents are identical either way.
    pub fn advise_sequential(&self, active: bool) {
        // relaxed: advisory access-plan flag; see `slot`.
        self.plan_active.store(active, Ordering::Relaxed);
    }

    /// Number of slot queries served hot *because* a sequential plan was
    /// active — reloads avoided relative to the plan-less FIFO steady
    /// state, reported alongside [`WindowedSpaceTimeGraph::spill_loads`].
    pub fn avoided_reloads(&self) -> u64 {
        // relaxed: monotonic stats counter, read only for reporting; orders no data.
        self.avoided_reloads.load(Ordering::Relaxed)
    }

    /// Approximate *current* resident bytes: metadata, hot slots, and the
    /// spill backend's reusable scratch buffers.
    pub fn approx_bytes(&self) -> usize {
        let hot = self.hot.lock().unwrap_or_else(|poison| poison.into_inner());
        std::mem::size_of::<Self>()
            + self.empty.approx_bytes()
            + self.busy_slots.len() * std::mem::size_of::<usize>()
            + self.num_slots * std::mem::size_of::<bool>()
            + hot.resident_bytes
            + self.spill.scratch_bytes()
    }

    /// Peak resident bytes observed over build and queries so far.
    pub fn peak_bytes(&self) -> usize {
        // relaxed: monotonic stats counter, read only for reporting; orders no data.
        self.peak_bytes.load(Ordering::Relaxed)
    }

    /// Number of slot records written to the spill sink. Spilling is lazy
    /// (store on first eviction), so this stays at zero while the hot
    /// window covers every busy slot and never exceeds the busy-slot count.
    pub fn spill_stores(&self) -> u64 {
        // relaxed: monotonic stats counter, read only for reporting; orders no data.
        self.spill_stores.load(Ordering::Relaxed)
    }

    /// Number of cold-slot reloads served by the spill sink.
    pub fn spill_loads(&self) -> u64 {
        // relaxed: monotonic stats counter, read only for reporting; orders no data.
        self.spill_loads.load(Ordering::Relaxed)
    }
}

/// A borrowed slot view: either a direct borrow from a materialized graph
/// or a shared handle from a windowed one. Dereferences to [`Slot`], so
/// engine slot-loops are representation-agnostic.
#[derive(Debug)]
pub enum SlotGuard<'a> {
    /// Borrowed from a [`SpaceTimeGraph`].
    Borrowed(&'a Slot),
    /// Shared handle from a [`WindowedSpaceTimeGraph`].
    Shared(Arc<Slot>),
}

impl Deref for SlotGuard<'_> {
    type Target = Slot;

    fn deref(&self) -> &Slot {
        match self {
            SlotGuard::Borrowed(slot) => slot,
            SlotGuard::Shared(slot) => slot,
        }
    }
}

/// A by-reference view over either graph representation. `Copy`, so engines
/// store it directly; construct it with `From`/`Into` from `&SpaceTimeGraph`
/// or `&WindowedSpaceTimeGraph` (existing `&graph` call sites compile
/// unchanged through the `impl Into<GraphRef>` parameters).
#[derive(Debug, Clone, Copy)]
pub enum GraphRef<'a> {
    /// A fully materialized graph.
    Full(&'a SpaceTimeGraph),
    /// A windowed, spill-backed graph.
    Windowed(&'a WindowedSpaceTimeGraph),
}

impl<'a> From<&'a SpaceTimeGraph> for GraphRef<'a> {
    fn from(graph: &'a SpaceTimeGraph) -> Self {
        GraphRef::Full(graph)
    }
}

impl<'a> From<&'a WindowedSpaceTimeGraph> for GraphRef<'a> {
    fn from(graph: &'a WindowedSpaceTimeGraph) -> Self {
        GraphRef::Windowed(graph)
    }
}

impl<'a> From<&'a SharedGraph> for GraphRef<'a> {
    fn from(graph: &'a SharedGraph) -> Self {
        graph.as_graph_ref()
    }
}

impl<'a> GraphRef<'a> {
    /// The discretization step in seconds.
    pub fn delta(&self) -> Seconds {
        match self {
            GraphRef::Full(g) => g.delta(),
            GraphRef::Windowed(g) => g.delta(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        match self {
            GraphRef::Full(g) => g.node_count(),
            GraphRef::Windowed(g) => g.node_count(),
        }
    }

    /// Number of time slots.
    pub fn slot_count(&self) -> usize {
        match self {
            GraphRef::Full(g) => g.slot_count(),
            GraphRef::Windowed(g) => g.slot_count(),
        }
    }

    /// The observation window.
    pub fn window(&self) -> TimeWindow {
        match self {
            GraphRef::Full(g) => g.window(),
            GraphRef::Windowed(g) => g.window(),
        }
    }

    /// The slot index containing absolute time `t`, clamped.
    pub fn slot_of_time(&self, t: Seconds) -> usize {
        match self {
            GraphRef::Full(g) => g.slot_of_time(t),
            GraphRef::Windowed(g) => g.slot_of_time(t),
        }
    }

    /// The absolute time at which slot `s` ends.
    pub fn slot_end_time(&self, s: usize) -> Seconds {
        match self {
            GraphRef::Full(g) => g.slot_end_time(s),
            GraphRef::Windowed(g) => g.slot_end_time(s),
        }
    }

    /// Indices of slots with at least one contact edge, ascending.
    pub fn busy_slots(&self) -> &'a [usize] {
        match self {
            GraphRef::Full(g) => g.busy_slots(),
            GraphRef::Windowed(g) => g.busy_slots(),
        }
    }

    /// The slot `s`, as a representation-agnostic guard. Hoist one guard
    /// per slot-loop iteration; on the windowed representation each call
    /// may reload a cold slot.
    pub fn slot(&self, s: usize) -> SlotGuard<'a> {
        match self {
            GraphRef::Full(g) => SlotGuard::Borrowed(g.slot(s)),
            GraphRef::Windowed(g) => SlotGuard::Shared(g.slot(s)),
        }
    }

    /// Declares (or retracts) a sequential access plan — see
    /// [`WindowedSpaceTimeGraph::advise_sequential`]. A no-op on the fully
    /// materialized representation, so sweep drivers call it
    /// unconditionally.
    pub fn advise_sequential(&self, active: bool) {
        if let GraphRef::Windowed(g) = self {
            g.advise_sequential(active);
        }
    }
}

/// An owned, clonable handle over either graph representation — what
/// long-lived holders (the forwarding simulator, the artifact layer) store
/// instead of `Arc<SpaceTimeGraph>`.
#[derive(Debug, Clone)]
pub enum SharedGraph {
    /// A fully materialized graph.
    Full(Arc<SpaceTimeGraph>),
    /// A windowed, spill-backed graph.
    Windowed(Arc<WindowedSpaceTimeGraph>),
}

impl From<Arc<SpaceTimeGraph>> for SharedGraph {
    fn from(graph: Arc<SpaceTimeGraph>) -> Self {
        SharedGraph::Full(graph)
    }
}

impl From<Arc<WindowedSpaceTimeGraph>> for SharedGraph {
    fn from(graph: Arc<WindowedSpaceTimeGraph>) -> Self {
        SharedGraph::Windowed(graph)
    }
}

impl SharedGraph {
    /// Borrows the by-reference view.
    pub fn as_graph_ref(&self) -> GraphRef<'_> {
        match self {
            SharedGraph::Full(graph) => GraphRef::Full(graph),
            SharedGraph::Windowed(graph) => GraphRef::Windowed(graph),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psn_trace::contact::Contact;
    use psn_trace::node::{NodeClass, NodeRegistry};
    use psn_trace::trace::ContactTrace;
    use psn_trace::TraceEventStream;

    fn registry(n: usize) -> NodeRegistry {
        let mut r = NodeRegistry::new();
        for _ in 0..n {
            r.add(NodeClass::Mobile);
        }
        r
    }

    fn contact(a: u32, b: u32, s: f64, e: f64) -> Contact {
        Contact::new(NodeId(a), NodeId(b), s, e).unwrap()
    }

    fn sample_trace() -> ContactTrace {
        ContactTrace::from_contacts(
            "sample",
            registry(6),
            TimeWindow::new(0.0, 200.0),
            vec![
                contact(0, 1, 5.0, 35.0),
                contact(2, 3, 12.0, 13.0),
                contact(1, 2, 41.0, 44.0),
                contact(4, 5, 41.5, 95.0),
                contact(0, 4, 120.0, 121.0),
                contact(0, 1, 122.0, 128.0),
                contact(3, 5, 186.0, 199.0),
            ],
        )
        .unwrap()
    }

    fn graphs_equal(a: &SpaceTimeGraph, b: &SpaceTimeGraph) -> bool {
        if a.slot_count() != b.slot_count()
            || a.node_count() != b.node_count()
            || a.busy_slots() != b.busy_slots()
        {
            return false;
        }
        (0..a.slot_count()).all(|s| a.slot(s) == b.slot(s))
    }

    #[test]
    fn slotter_edges_are_the_sealed_slot_edges() {
        // The history timeline folds the slotter's edge lists without
        // sealing a `Slot`, so each list must already be `Slot::seal`'s
        // normalized one — smaller endpoint first, ascending, deduplicated —
        // however the contacts name their endpoints and overlap.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5107);
            let (n, slots) = (3 + rng.gen_range(0..70u32), 30usize);
            // (a, b, first slot, last slot), endpoints in either order and
            // the same pair often overlapping itself.
            let contacts: Vec<(u32, u32, usize, usize)> = (0..rng.gen_range(1..120))
                .map(|_| {
                    let a = rng.gen_range(0..n);
                    let b = (a + rng.gen_range(1..n)) % n;
                    let first = rng.gen_range(0..slots);
                    (a, b, first, (first + rng.gen_range(0..6usize)).min(slots - 1))
                })
                .collect();
            let mut events: Vec<ContactEvent> = contacts
                .iter()
                .flat_map(|&(a, b, first, last)| {
                    let (a, b) = (NodeId(a), NodeId(b));
                    let up = ContactEvent::Up {
                        slot: first,
                        last_slot: last,
                        a,
                        b,
                        start: 0.0,
                        end: 0.0,
                    };
                    let down = ContactEvent::Down { slot: last + 1, a, b };
                    std::iter::once(up).chain((last + 1 < slots).then_some(down))
                })
                .collect();
            events.sort_by_key(|e| (e.slot(), !e.is_down()));
            let mut sealed = Vec::new();
            let mut seal = |slot: usize, edges: Vec<(NodeId, NodeId)>| -> Result<(), StreamError> {
                sealed.push((slot, edges));
                Ok(())
            };
            let mut slotter = IncrementalSlotter::new(slots);
            for event in &events {
                slotter.apply(event, &mut seal).unwrap();
            }
            slotter.finish(&mut seal).unwrap();
            assert_eq!(sealed.len(), slots, "seed {seed}: one list per slot");
            for (slot, edges) in sealed {
                let raw: Vec<(NodeId, NodeId)> = contacts
                    .iter()
                    .filter(|&&(_, _, first, last)| (first..=last).contains(&slot))
                    .map(|&(a, b, _, _)| (NodeId(a), NodeId(b)))
                    .collect();
                assert_eq!(edges, Slot::seal(n as usize, raw).edges(), "seed {seed}, slot {slot}");
            }
        }
    }

    #[test]
    fn stream_graph_matches_materialized_build() {
        let trace = sample_trace();
        let materialized = SpaceTimeGraph::build_default(&trace);
        let streamed = stream_graph(&mut TraceEventStream::new(&trace, 10.0)).unwrap();
        assert!(graphs_equal(&materialized, &streamed));
        assert_eq!(materialized.total_edges(), streamed.total_edges());
    }

    #[test]
    fn stream_graph_matches_on_nonzero_window_start() {
        let trace = ContactTrace::from_contacts(
            "offset",
            registry(3),
            TimeWindow::new(500.0, 620.0),
            vec![
                contact(0, 1, 505.0, 535.0),
                contact(1, 2, 562.0, 563.0),
                contact(0, 2, 610.0, 620.0),
            ],
        )
        .unwrap();
        let materialized = SpaceTimeGraph::build_default(&trace);
        let streamed = stream_graph(&mut TraceEventStream::new(&trace, 10.0)).unwrap();
        assert!(graphs_equal(&materialized, &streamed));
    }

    #[test]
    fn stream_graph_matches_on_empty_trace() {
        let trace = ContactTrace::new("empty", registry(4), TimeWindow::new(0.0, 55.0));
        let materialized = SpaceTimeGraph::build_default(&trace);
        let streamed = stream_graph(&mut TraceEventStream::new(&trace, 10.0)).unwrap();
        assert!(graphs_equal(&materialized, &streamed));
        assert_eq!(streamed.slot_count(), 6);
    }

    #[test]
    fn windowed_graph_answers_every_slot_query_identically() {
        let trace = sample_trace();
        let full = SpaceTimeGraph::build_default(&trace);
        let windowed = WindowedSpaceTimeGraph::stream(
            &mut TraceEventStream::new(&trace, 10.0),
            2,
            Box::new(MemorySpill::new()),
        )
        .unwrap();
        assert_eq!(windowed.slot_count(), full.slot_count());
        assert_eq!(windowed.busy_slots(), full.busy_slots());
        assert_eq!(windowed.total_edges(), full.total_edges());
        // Every slot — hot, spilled, or empty — answers identically, in
        // both a forward and a backward scan (the backward scan hits spill
        // reloads for everything outside the final window).
        for s in (0..full.slot_count()).chain((0..full.slot_count()).rev()) {
            assert_eq!(&*windowed.slot(s), full.slot(s), "slot {s}");
        }
        assert!(windowed.spill_loads() > 0, "a 2-slot window must reload cold slots");
    }

    #[test]
    fn windowed_graph_bounds_hot_slots_and_tracks_peak() {
        let trace = sample_trace();
        let windowed = WindowedSpaceTimeGraph::stream(
            &mut TraceEventStream::new(&trace, 10.0),
            1,
            Box::new(MemorySpill::new()),
        )
        .unwrap();
        let resident = windowed.approx_bytes();
        assert!(windowed.peak_bytes() >= resident);
        // Lazy spill: every busy slot except the one still hot was evicted
        // (and therefore stored) during the build.
        assert_eq!(windowed.spill_stores(), windowed.busy_slots().len() as u64 - 1);
        // With a 1-slot window the resident set holds at most one busy slot.
        let one_slot_bound = std::mem::size_of::<WindowedSpaceTimeGraph>()
            + 2 * windowed.slot(0).approx_bytes() * 4
            + 1024;
        assert!(resident < one_slot_bound, "resident {resident} vs bound {one_slot_bound}");
    }

    #[test]
    fn hot_window_covering_all_busy_slots_never_spills() {
        let trace = sample_trace();
        let windowed = WindowedSpaceTimeGraph::stream(
            &mut TraceEventStream::new(&trace, 10.0),
            64,
            Box::new(MemorySpill::new()),
        )
        .unwrap();
        let full = SpaceTimeGraph::build_default(&trace);
        // Repeated full scans in both directions: everything answers hot.
        for s in (0..windowed.slot_count()).chain((0..windowed.slot_count()).rev()) {
            assert_eq!(&*windowed.slot(s), full.slot(s), "slot {s}");
        }
        assert_eq!(windowed.spill_stores(), 0, "skip-spill: nothing was ever evicted");
        assert_eq!(windowed.spill_loads(), 0);
    }

    #[test]
    fn re_evicted_slots_are_stored_exactly_once() {
        let trace = sample_trace();
        let windowed = WindowedSpaceTimeGraph::stream(
            &mut TraceEventStream::new(&trace, 10.0),
            2,
            Box::new(MemorySpill::new()),
        )
        .unwrap();
        let busy = windowed.busy_slots().len() as u64;
        assert_eq!(windowed.spill_stores(), busy - 2, "build evicts all but the hot window");
        // Churn the hot set with repeated ascending sweeps. The two
        // residual build slots get stored on their first eviction; every
        // other eviction is of an already-spilled reload, so the store
        // count saturates at the busy-slot count and stays there.
        for _ in 0..3 {
            for s in 0..windowed.slot_count() {
                windowed.slot(s);
            }
        }
        assert_eq!(windowed.spill_stores(), busy);
        let loads_before = windowed.spill_loads();
        windowed.advise_sequential(true);
        for _ in 0..3 {
            for s in 0..windowed.slot_count() {
                windowed.slot(s);
            }
        }
        windowed.advise_sequential(false);
        assert_eq!(
            windowed.spill_stores(),
            busy,
            "zero extra spill stores under a sequential access plan"
        );
        assert!(windowed.spill_loads() > loads_before, "cold reloads still happen");
    }

    /// A spill that reports a large reusable scratch buffer, for the
    /// accounting test below.
    #[derive(Debug, Default)]
    struct ScratchySpill {
        inner: MemorySpill,
    }

    impl SlotSpill for ScratchySpill {
        fn store(&self, index: usize, edges: &[(NodeId, NodeId)]) -> Result<(), SpillError> {
            self.inner.store(index, edges)
        }

        fn load(&self, index: usize) -> Result<Vec<(NodeId, NodeId)>, SpillError> {
            self.inner.load(index)
        }

        fn scratch_bytes(&self) -> usize {
            1 << 20
        }
    }

    #[test]
    fn peak_bytes_includes_spill_scratch_buffers() {
        let trace = sample_trace();
        let windowed = WindowedSpaceTimeGraph::stream(
            &mut TraceEventStream::new(&trace, 10.0),
            2,
            Box::new(ScratchySpill::default()),
        )
        .unwrap();
        assert!(
            windowed.peak_bytes() >= 1 << 20,
            "peak {} must count the spill scratch",
            windowed.peak_bytes()
        );
        assert!(windowed.approx_bytes() >= 1 << 20);
    }

    #[test]
    fn sequential_plan_avoids_reloads_on_repeated_sweeps() {
        // The enumerator's access pattern: full ascending sweeps over the
        // busy slots, restarted once per message. Under plain FIFO every
        // sweep after the first misses everything; with the plan active
        // the retained prefix answers hot.
        let sweeps = 4usize;
        let make = || {
            WindowedSpaceTimeGraph::stream(
                &mut TraceEventStream::new(&sample_trace(), 10.0),
                2,
                Box::new(MemorySpill::new()),
            )
            .unwrap()
        };
        let full = SpaceTimeGraph::build_default(&sample_trace());

        let plain = make();
        for _ in 0..sweeps {
            for s in 0..plain.slot_count() {
                assert_eq!(&*plain.slot(s), full.slot(s));
            }
        }
        assert_eq!(plain.avoided_reloads(), 0, "no plan, no avoided reloads");

        let planned = make();
        planned.advise_sequential(true);
        for _ in 0..sweeps {
            for s in 0..planned.slot_count() {
                // Contents are identical with the plan active — it is a
                // caching hint, not a semantic change.
                assert_eq!(&*planned.slot(s), full.slot(s));
            }
        }
        planned.advise_sequential(false);
        assert!(
            planned.spill_loads() < plain.spill_loads(),
            "plan loads {} vs plain loads {}",
            planned.spill_loads(),
            plain.spill_loads()
        );
        assert!(planned.avoided_reloads() > 0);
    }

    #[test]
    fn stream_with_taps_busy_slots_in_order() {
        let trace = sample_trace();
        let mut tapped = Vec::new();
        let windowed = WindowedSpaceTimeGraph::stream_with(
            &mut TraceEventStream::new(&trace, 10.0),
            2,
            Box::new(MemorySpill::new()),
            |s, slot| tapped.push((s, slot.edge_count())),
        )
        .unwrap();
        let expected: Vec<(usize, usize)> =
            windowed.busy_slots().iter().map(|&s| (s, windowed.slot(s).edge_count())).collect();
        assert_eq!(tapped, expected);
    }

    #[test]
    fn graph_ref_is_uniform_over_both_representations() {
        let trace = sample_trace();
        let full = SpaceTimeGraph::build_default(&trace);
        let windowed = WindowedSpaceTimeGraph::stream(
            &mut TraceEventStream::new(&trace, 10.0),
            3,
            Box::new(MemorySpill::new()),
        )
        .unwrap();
        let refs: [GraphRef<'_>; 2] = [(&full).into(), (&windowed).into()];
        for r in refs {
            assert_eq!(r.slot_count(), full.slot_count());
            assert_eq!(r.busy_slots(), full.busy_slots());
            assert_eq!(r.slot_of_time(41.0), 4);
            assert_eq!(r.slot_end_time(0), 10.0);
            let slot = r.slot(4);
            assert!(slot.has_contacts(NodeId(1)));
            assert_eq!(slot.edges(), full.slot(4).edges());
        }
        let shared: SharedGraph = Arc::new(full.clone()).into();
        assert_eq!(shared.as_graph_ref().slot_count(), full.slot_count());
        let shared_windowed: SharedGraph = Arc::new(windowed).into();
        assert_eq!(shared_windowed.as_graph_ref().window(), full.window());
    }

    #[test]
    fn slot_regression_is_rejected() {
        let mut slotter = IncrementalSlotter::new(10);
        let mut seal =
            |_s: usize, _e: Vec<(NodeId, NodeId)>| -> Result<(), StreamBuildError> { Ok(()) };
        let up = ContactEvent::Up {
            slot: 5,
            last_slot: 5,
            a: NodeId(0),
            b: NodeId(1),
            start: 50.0,
            end: 55.0,
        };
        slotter.apply(&up, &mut seal).unwrap();
        let stale = ContactEvent::Up {
            slot: 2,
            last_slot: 2,
            a: NodeId(0),
            b: NodeId(1),
            start: 20.0,
            end: 25.0,
        };
        assert!(matches!(
            slotter.apply(&stale, &mut seal),
            Err(StreamBuildError::Stream(StreamError::SlotRegression { slot: 2, expected_min: 5 }))
        ));
    }

    /// A spill whose reloads add an edge to a node outside the graph.
    #[derive(Debug, Default)]
    struct ForeignNodeSpill {
        inner: MemorySpill,
    }

    impl SlotSpill for ForeignNodeSpill {
        fn store(&self, index: usize, edges: &[(NodeId, NodeId)]) -> Result<(), SpillError> {
            self.inner.store(index, edges)
        }

        fn load(&self, index: usize) -> Result<Vec<(NodeId, NodeId)>, SpillError> {
            let mut edges = self.inner.load(index)?;
            edges.push((NodeId(1), NodeId(6)));
            Ok(edges)
        }
    }

    #[test]
    fn reloaded_edge_to_a_foreign_node_is_rejected_as_corrupt() {
        let trace = sample_trace();
        let windowed = WindowedSpaceTimeGraph::stream(
            &mut TraceEventStream::new(&trace, 10.0),
            1,
            Box::new(ForeignNodeSpill::default()),
        )
        .unwrap();
        let cold = windowed.busy_slots()[0];
        assert!(windowed.spill_stores() > 0, "window 1 must spill the first busy slot");
        assert_eq!(
            windowed.checked_node_ids(cold, vec![(NodeId(1), NodeId(6))]),
            Err(SpillError::Corrupt(format!("slot {cold} names node 6 but the graph has 6 nodes")))
        );
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| windowed.slot(cold)))
            .expect_err("a foreign node id must not seal");
        let message = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert_eq!(
            message,
            format!(
                "reloading spilled slot {cold} failed: spilled slot is corrupt: \
                 slot {cold} names node 6 but the graph has 6 nodes"
            )
        );
    }

    #[test]
    fn missing_spill_slot_reports_missing() {
        let spill = MemorySpill::new();
        assert_eq!(spill.load(3), Err(SpillError::Missing(3)));
        spill.store(3, &[(NodeId(0), NodeId(1))]).unwrap();
        assert_eq!(spill.load(3).unwrap(), vec![(NodeId(0), NodeId(1))]);
    }
}
