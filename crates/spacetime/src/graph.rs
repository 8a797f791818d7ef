//! The space-time graph.
//!
//! Following §4.1 of the paper (and Merugu/Ammar/Zegura's space-time routing
//! formulation it cites), time is discretized into slots of Δ seconds.
//! Vertices are `(node, slot)` pairs. There are two kinds of edges:
//!
//! * a **zero-weight contact edge** between `(x, T)` and `(y, T)` iff `x`
//!   and `y` were in contact at any time during `[T − Δ, T)`;
//! * a **unit-weight wait edge** from `(x, T)` to `(x, T + Δ)` for every
//!   node.
//!
//! Rather than materializing vertices, [`SpaceTimeGraph`] stores, for each
//! slot, the contact adjacency among nodes during that slot, plus the
//! connected components of that slot graph (zero-weight reachability). That
//! is all the path enumerator and the epidemic baseline need, and it keeps
//! the memory footprint proportional to the number of (contact × slot)
//! incidences.

use psn_trace::stream;
use psn_trace::{ContactTrace, NodeId, Seconds, TimeWindow};

/// The paper's default discretization step (10 seconds).
pub const DEFAULT_DELTA: Seconds = 10.0;

/// One time slot of the space-time graph.
///
/// The adjacency is one CSR block (compressed sparse rows): node `i`'s
/// neighbors are `neighbors[offsets[i]..offsets[i + 1]]`, so a slot costs
/// a handful of allocations however many nodes it covers. Besides the
/// adjacency and component labelling, each slot precomputes at build time
/// the views the enumerator's hot loop needs, so per-message work never
/// rescans all `n` nodes:
///
/// * `active` — the nodes with at least one contact this slot, ascending;
/// * `members` — the same nodes grouped contiguously by component label
///   (ascending within each group), with `spans[label]` delimiting each
///   group, so a component's member list is a borrowed slice.
#[derive(Debug, Clone, PartialEq)]
pub struct Slot {
    /// CSR row offsets, `n + 1` entries: node `i`'s neighbor list is
    /// `neighbors[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// Every node's neighbor list, concatenated in node order; each list
    /// is deduplicated and ascending.
    neighbors: Vec<NodeId>,
    /// Connected-component label per node under zero-weight edges. Isolated
    /// nodes get a unique singleton label.
    component: Vec<u32>,
    /// The slot's contact edges, normalized to `(low, high)` node order and
    /// sorted lexicographically — the order a full ascending adjacency scan
    /// would produce, so edge-driven consumers (the forwarding simulator)
    /// replay contacts in exactly the same sequence.
    edges: Vec<(NodeId, NodeId)>,
    /// Nodes with at least one contact this slot, ascending.
    active: Vec<NodeId>,
    /// Active nodes grouped by component label; each group ascending.
    members: Vec<NodeId>,
    /// Half-open `(start, end)` range into `members` per component label.
    /// Labels of isolated nodes get an empty range.
    spans: Vec<(u32, u32)>,
}

impl Slot {
    /// Seals a slot from its raw edge list — unnormalized, unsorted,
    /// possibly containing duplicates — exactly as
    /// [`SpaceTimeGraph::build`] does for each slot. This is the single
    /// sealing path shared by the materialized builder, the incremental
    /// stream builder and spill reload, so every route to a `Slot` yields
    /// bit-identical contents for the same edge multiset.
    pub fn seal(node_count: usize, mut edges: Vec<(NodeId, NodeId)>) -> Self {
        for edge in &mut edges {
            if edge.0 .0 > edge.1 .0 {
                *edge = (edge.1, edge.0);
            }
        }
        edges.sort_unstable();
        edges.dedup();

        // CSR fill. Count each row's degree into `offsets[i + 1]` and
        // prefix-sum, so `offsets[i]` is row `i`'s start; the fill then
        // uses `offsets[i]` as row `i`'s cursor, which leaves it at row
        // `i + 1`'s start, and one shift restores the row starts. Walking
        // the sorted, deduplicated `(low, high)` edges appends every
        // lower neighbor of a node (as `high`, ascending `low`) before any
        // higher one (as `low`, ascending `high`), so each row comes out
        // ascending and duplicate-free with no per-row sort.
        let n = node_count;
        let mut offsets = vec![0u32; n + 1];
        for &(a, b) in &edges {
            offsets[a.index() + 1] += 1;
            if a != b {
                offsets[b.index() + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut neighbors = vec![NodeId(0); offsets[n] as usize];
        for &(a, b) in &edges {
            neighbors[offsets[a.index()] as usize] = b;
            offsets[a.index()] += 1;
            if a != b {
                neighbors[offsets[b.index()] as usize] = a;
                offsets[b.index()] += 1;
            }
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        let row = |i: usize| offsets[i] as usize..offsets[i + 1] as usize;

        let active: Vec<NodeId> =
            (0..n).filter(|&i| !row(i).is_empty()).map(|i| NodeId(i as u32)).collect();

        // Component labels by iterative depth-first search, started at each
        // unlabelled node in ascending order, so label `c` is the `c`-th
        // component by smallest member. Isolated nodes take a label without
        // touching the stack; every node pushed is active and pushed once,
        // so the stack never outgrows `active` and its buffer becomes
        // `members` below.
        let mut component = vec![u32::MAX; n];
        let mut stack: Vec<NodeId> = Vec::with_capacity(active.len());
        let mut label_count = 0u32;
        for start in 0..n {
            if component[start] != u32::MAX {
                continue;
            }
            component[start] = label_count;
            if !row(start).is_empty() {
                stack.push(NodeId(start as u32));
            }
            while let Some(v) = stack.pop() {
                for &w in &neighbors[row(v.index())] {
                    if component[w.index()] == u32::MAX {
                        component[w.index()] = label_count;
                        stack.push(w);
                    }
                }
            }
            label_count += 1;
        }

        // Group active nodes by component label with a counting pass into
        // `spans`; the ascending fill keeps each group sorted and leaves
        // every span at its `(start, end)`.
        let mut spans = vec![(0u32, 0u32); label_count as usize];
        for node in &active {
            spans[component[node.index()] as usize].1 += 1;
        }
        let mut start = 0u32;
        for span in &mut spans {
            let size = span.1;
            *span = (start, start);
            start += size;
        }
        let mut members = stack;
        members.resize(active.len(), NodeId(0));
        for &node in &active {
            let span = &mut spans[component[node.index()] as usize];
            members[span.1 as usize] = node;
            span.1 += 1;
        }

        Self { offsets, neighbors, component, edges, active, members, spans }
    }

    /// A slot with no contacts over `node_count` nodes. Every node is
    /// isolated with its own singleton component label (`label = node id`),
    /// so one shared empty slot answers queries for *any* contact-free slot
    /// identically to a freshly built one.
    pub fn empty(node_count: usize) -> Self {
        Self::seal(node_count, Vec::new())
    }

    /// Number of nodes the slot covers.
    pub fn node_count(&self) -> usize {
        self.component.len()
    }

    /// Neighbors of `node` during this slot, deduplicated and ascending.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        &self.neighbors[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// True if `node` has at least one contact during this slot.
    pub fn has_contacts(&self, node: NodeId) -> bool {
        self.offsets[node.index()] != self.offsets[node.index() + 1]
    }

    /// Connected-component label of `node` under zero-weight edges.
    pub fn component(&self, node: NodeId) -> u32 {
        self.component[node.index()]
    }

    /// True if `a` and `b` can reach each other through zero-weight edges
    /// during this slot (same label and at least one contact each).
    pub fn same_component(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return true;
        }
        self.has_contacts(a)
            && self.has_contacts(b)
            && self.component[a.index()] == self.component[b.index()]
    }

    /// All members of `node`'s contact component *including* `node`,
    /// ascending; empty if `node` has no contacts this slot.
    pub fn component_slice(&self, node: NodeId) -> &[NodeId] {
        if !self.has_contacts(node) {
            return &[];
        }
        let (start, end) = self.spans[self.component[node.index()] as usize];
        &self.members[start as usize..end as usize]
    }

    /// Members of `node`'s contact component *excluding* `node` itself,
    /// as an owned vector (allocating; the hot paths use
    /// [`component_slice`](Self::component_slice) instead).
    pub fn component_members(&self, node: NodeId) -> Vec<NodeId> {
        self.component_slice(node).iter().copied().filter(|&m| m != node).collect()
    }

    /// Nodes with at least one contact this slot, ascending.
    pub fn active_nodes(&self) -> &[NodeId] {
        &self.active
    }

    /// The slot's contact edges, normalized to `(low, high)` order and
    /// sorted lexicographically.
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// Number of contact edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// True if the slot has no contact edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Approximate resident size in bytes of this slot's structures — the
    /// unit of account for window-budget and artifact-store bookkeeping.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.offsets.len() * std::mem::size_of::<u32>()
            + self.neighbors.len() * std::mem::size_of::<NodeId>()
            + self.component.len() * std::mem::size_of::<u32>()
            + self.edges.len() * std::mem::size_of::<(NodeId, NodeId)>()
            + (self.active.len() + self.members.len()) * std::mem::size_of::<NodeId>()
            + self.spans.len() * std::mem::size_of::<(u32, u32)>()
    }
}

/// The Δ-discretized space-time graph of a contact trace.
#[derive(Debug, Clone)]
pub struct SpaceTimeGraph {
    delta: Seconds,
    node_count: usize,
    slots: Vec<Slot>,
    /// Indices of slots with at least one contact edge, ascending.
    busy_slots: Vec<usize>,
    window: TimeWindow,
}

impl SpaceTimeGraph {
    /// Builds the space-time graph of `trace` with discretization step
    /// `delta` (seconds): the [`crate::stream_graph`] fold over the trace's
    /// event stream ([`stream::fold_trace`]).
    ///
    /// # Panics
    ///
    /// Panics if `delta` is not strictly positive.
    pub fn build(trace: &ContactTrace, delta: Seconds) -> Self {
        stream::fold_trace(trace, delta, |events| crate::stream_graph(events))
    }

    /// Builds the graph with the paper's Δ = 10 s.
    pub fn build_default(trace: &ContactTrace) -> Self {
        Self::build(trace, DEFAULT_DELTA)
    }

    /// Assembles a graph from already-sealed slots — the incremental stream
    /// builder's exit path. `slots` must have one entry per Δ-slot of the
    /// window; busy-slot indices are derived here.
    pub(crate) fn from_sealed_slots(
        delta: Seconds,
        node_count: usize,
        slots: Vec<Slot>,
        window: TimeWindow,
    ) -> Self {
        let busy_slots =
            slots.iter().enumerate().filter(|(_, s)| !s.is_empty()).map(|(i, _)| i).collect();
        Self { delta, node_count, slots, busy_slots, window }
    }

    /// Borrows slot `s` directly — the slot-local view engines hoist out of
    /// their per-slot loops so they run unchanged against windowed graphs.
    pub fn slot(&self, s: usize) -> &Slot {
        &self.slots[s]
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
        self.slots.len()
    }

    /// The observation window.
    pub fn window(&self) -> TimeWindow {
        self.window
    }

    /// The slot index containing absolute time `t`, clamped to the valid
    /// range ([`psn_trace::stream::slot_of_time`]).
    pub fn slot_of_time(&self, t: Seconds) -> usize {
        stream::slot_of_time(self.window, self.delta, t)
    }

    /// The absolute time at which slot `s` *ends* — the timestamp assigned
    /// to hops taken during that slot ([`psn_trace::stream::slot_end_time`]).
    pub fn slot_end_time(&self, s: usize) -> Seconds {
        stream::slot_end_time(self.window, self.delta, s)
    }

    /// Neighbors of `node` during slot `s` (nodes in contact with it at any
    /// time during the slot).
    pub fn neighbors(&self, s: usize, node: NodeId) -> &[NodeId] {
        self.slots[s].neighbors(node)
    }

    /// True if `node` has at least one contact during slot `s`.
    pub fn has_contacts(&self, s: usize, node: NodeId) -> bool {
        self.slots[s].has_contacts(node)
    }

    /// Connected-component label of `node` in slot `s` under zero-weight
    /// (contact) edges. Two nodes with the same label can exchange a message
    /// within the slot.
    pub fn component(&self, s: usize, node: NodeId) -> u32 {
        self.slots[s].component(node)
    }

    /// True if `a` and `b` can reach each other through zero-weight edges in
    /// slot `s` (they are in the same contact component and at least one of
    /// them has a contact).
    pub fn same_component(&self, s: usize, a: NodeId, b: NodeId) -> bool {
        self.slots[s].same_component(a, b)
    }

    /// All members of `node`'s contact component in slot `s` *including*
    /// `node` itself, as a borrowed slice of the per-slot component table
    /// precomputed at build time (ascending node ids). Empty if `node` has
    /// no contacts in the slot.
    pub fn component_slice(&self, s: usize, node: NodeId) -> &[NodeId] {
        self.slots[s].component_slice(node)
    }

    /// Nodes with at least one contact in slot `s`, ascending — the only
    /// nodes a path can move to (or from) during the slot.
    pub fn active_nodes(&self, s: usize) -> &[NodeId] {
        self.slots[s].active_nodes()
    }

    /// All members of `node`'s contact component in slot `s`, excluding
    /// `node` itself. Empty if `node` has no contacts in the slot.
    ///
    /// Allocates; hot paths should use [`component_slice`](Self::component_slice)
    /// instead, which returns a borrowed slice (including `node`).
    pub fn component_members(&self, s: usize, node: NodeId) -> Vec<NodeId> {
        self.slots[s].component_members(node)
    }

    /// Number of contact edges in slot `s`.
    pub fn edge_count(&self, s: usize) -> usize {
        self.slots[s].edge_count()
    }

    /// The contact edges of slot `s`, normalized to `(low, high)` node order
    /// and sorted lexicographically — the same sequence an ascending scan of
    /// every node's (sorted) neighbor list yields, so consumers that replay
    /// edges in order are deterministic and match the historical full-scan
    /// behaviour of the forwarding simulator.
    pub fn edges(&self, s: usize) -> &[(NodeId, NodeId)] {
        self.slots[s].edges()
    }

    /// Indices of slots containing at least one contact edge, ascending.
    /// Slot-driven replay loops (forwarding, history construction) iterate
    /// these instead of every slot, so empty stretches of the trace cost
    /// nothing.
    pub fn busy_slots(&self) -> &[usize] {
        &self.busy_slots
    }

    /// Approximate resident size in bytes — the weight artifact stores use
    /// for byte-budget accounting. Sums the per-slot adjacency, component,
    /// edge and member structures; exact allocator overhead is not modelled
    /// (eviction budgets only need the right order of magnitude).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.busy_slots.len() * std::mem::size_of::<usize>()
            + self.slots.iter().map(Slot::approx_bytes).sum::<usize>()
    }

    /// Total number of (contact, slot) incidences — a measure of graph size
    /// used by the benchmarks.
    pub fn total_edges(&self) -> usize {
        self.slots.iter().map(|s| s.edges.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psn_trace::contact::Contact;
    use psn_trace::node::{NodeClass, NodeRegistry};
    use psn_trace::trace::TimeWindow;

    /// Builds the paper's Fig. 2 example: three nodes; 1–2 in contact during
    /// the first slot, everyone in contact during the second slot.
    fn figure2_trace(delta: f64) -> ContactTrace {
        let mut reg = NodeRegistry::new();
        for _ in 0..3 {
            reg.add(NodeClass::Mobile);
        }
        let contacts = vec![
            Contact::new(NodeId(0), NodeId(1), 0.0, delta * 0.5).unwrap(),
            Contact::new(NodeId(0), NodeId(1), delta * 1.1, delta * 1.9).unwrap(),
            Contact::new(NodeId(0), NodeId(2), delta * 1.2, delta * 1.8).unwrap(),
            Contact::new(NodeId(1), NodeId(2), delta * 1.3, delta * 1.7).unwrap(),
        ];
        ContactTrace::from_contacts("figure2", reg, TimeWindow::new(0.0, delta * 2.0), contacts)
            .unwrap()
    }

    #[test]
    fn figure2_structure() {
        let trace = figure2_trace(10.0);
        let g = SpaceTimeGraph::build_default(&trace);
        assert_eq!(g.slot_count(), 2);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.delta(), 10.0);
        // Slot 0: only 1-2 (our ids 0-1) in contact.
        assert_eq!(g.neighbors(0, NodeId(0)), &[NodeId(1)]);
        assert_eq!(g.neighbors(0, NodeId(1)), &[NodeId(0)]);
        assert!(g.neighbors(0, NodeId(2)).is_empty());
        assert_eq!(g.edge_count(0), 1);
        // Slot 1: triangle.
        assert_eq!(g.neighbors(1, NodeId(0)).len(), 2);
        assert_eq!(g.edge_count(1), 3);
        assert!(g.same_component(1, NodeId(0), NodeId(2)));
        assert!(!g.same_component(0, NodeId(0), NodeId(2)));
    }

    #[test]
    fn a_trace_pushed_out_of_start_order_builds_the_same_graph() {
        let sorted = figure2_trace(10.0);
        let mut unsorted = ContactTrace::new("figure2", sorted.nodes().clone(), sorted.window());
        for c in sorted.contacts().iter().rev() {
            unsorted.push(*c).unwrap();
        }
        let (a, b) =
            (SpaceTimeGraph::build_default(&sorted), SpaceTimeGraph::build_default(&unsorted));
        assert_eq!(a.busy_slots(), b.busy_slots());
        for s in 0..a.slot_count() {
            assert_eq!(a.slot(s), b.slot(s), "slot {s}");
        }
    }

    #[test]
    fn slot_of_time_and_end_time() {
        let trace = figure2_trace(10.0);
        let g = SpaceTimeGraph::build_default(&trace);
        assert_eq!(g.slot_of_time(0.0), 0);
        assert_eq!(g.slot_of_time(9.99), 0);
        assert_eq!(g.slot_of_time(10.0), 1);
        assert_eq!(g.slot_of_time(1e9), 1); // clamped
        assert_eq!(g.slot_end_time(0), 10.0);
        assert_eq!(g.slot_end_time(1), 20.0);
        assert_eq!(g.window().end, 20.0);
    }

    #[test]
    fn contact_spanning_multiple_slots_appears_in_each() {
        let mut reg = NodeRegistry::new();
        reg.add(NodeClass::Mobile);
        reg.add(NodeClass::Mobile);
        let trace = ContactTrace::from_contacts(
            "span",
            reg,
            TimeWindow::new(0.0, 100.0),
            vec![Contact::new(NodeId(0), NodeId(1), 5.0, 35.0).unwrap()],
        )
        .unwrap();
        let g = SpaceTimeGraph::build_default(&trace);
        assert_eq!(g.slot_count(), 10);
        for s in 0..=3 {
            assert!(g.has_contacts(s, NodeId(0)), "slot {s}");
        }
        for s in 4..10 {
            assert!(!g.has_contacts(s, NodeId(0)), "slot {s}");
        }
        assert_eq!(g.total_edges(), 4);
    }

    #[test]
    fn duplicate_contacts_in_one_slot_are_merged() {
        let mut reg = NodeRegistry::new();
        reg.add(NodeClass::Mobile);
        reg.add(NodeClass::Mobile);
        let trace = ContactTrace::from_contacts(
            "dup",
            reg,
            TimeWindow::new(0.0, 10.0),
            vec![
                Contact::new(NodeId(0), NodeId(1), 1.0, 2.0).unwrap(),
                Contact::new(NodeId(1), NodeId(0), 3.0, 4.0).unwrap(),
            ],
        )
        .unwrap();
        let g = SpaceTimeGraph::build_default(&trace);
        assert_eq!(g.edge_count(0), 1);
        assert_eq!(g.neighbors(0, NodeId(0)), &[NodeId(1)]);
    }

    #[test]
    fn component_members_lists_reachable_nodes() {
        let trace = figure2_trace(10.0);
        let g = SpaceTimeGraph::build_default(&trace);
        let members = g.component_members(1, NodeId(0));
        assert_eq!(members, vec![NodeId(1), NodeId(2)]);
        assert!(g.component_members(0, NodeId(2)).is_empty());
        // Slot 0 component of node 0 excludes node 2.
        assert_eq!(g.component_members(0, NodeId(0)), vec![NodeId(1)]);
    }

    #[test]
    fn isolated_nodes_have_distinct_components() {
        let trace = figure2_trace(10.0);
        let g = SpaceTimeGraph::build_default(&trace);
        // In slot 0, node 2 is isolated; same_component with anyone is false.
        assert!(!g.same_component(0, NodeId(2), NodeId(0)));
        assert!(g.same_component(0, NodeId(2), NodeId(2)));
    }

    #[test]
    fn different_delta_changes_slot_count() {
        let trace = figure2_trace(10.0);
        let fine = SpaceTimeGraph::build(&trace, 5.0);
        let coarse = SpaceTimeGraph::build(&trace, 20.0);
        assert_eq!(fine.slot_count(), 4);
        assert_eq!(coarse.slot_count(), 1);
        // With one coarse slot everyone is in one component.
        assert!(coarse.same_component(0, NodeId(0), NodeId(2)));
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_delta() {
        let trace = figure2_trace(10.0);
        SpaceTimeGraph::build(&trace, 0.0);
    }

    #[test]
    fn nonzero_window_start_offsets_slot_times() {
        // Regression test: slot 0 of a window starting at t=1000 covers
        // [1000, 1010) and therefore *ends* at 1010, not at 10. Before the
        // fix `slot_end_time` returned `(s+1)·Δ` in absolute terms while
        // `build` slotted contacts relative to the window start, so every
        // delivery time in a nonzero-start trace was shifted by the start.
        let mut reg = NodeRegistry::new();
        reg.add(NodeClass::Mobile);
        reg.add(NodeClass::Mobile);
        let trace = ContactTrace::from_contacts(
            "offset-window",
            reg,
            TimeWindow::new(1000.0, 1050.0),
            vec![Contact::new(NodeId(0), NodeId(1), 1012.0, 1018.0).unwrap()],
        )
        .unwrap();
        let g = SpaceTimeGraph::build_default(&trace);
        assert_eq!(g.slot_count(), 5);
        assert_eq!(g.window().start, 1000.0);
        // The contact lands in slot 1 ([1010, 1020)), matching `build`.
        assert!(g.has_contacts(1, NodeId(0)));
        assert!(!g.has_contacts(0, NodeId(0)));
        // Times map back through the same offset convention.
        assert_eq!(g.slot_of_time(1000.0), 0);
        assert_eq!(g.slot_of_time(1012.0), 1);
        assert_eq!(g.slot_of_time(999.0), 0); // clamped below the window
        assert_eq!(g.slot_end_time(0), 1010.0);
        assert_eq!(g.slot_end_time(1), 1020.0);
        // End-time of the contact's slot stays inside the window.
        assert!(g.slot_end_time(1) <= g.window().end);
    }

    #[test]
    fn component_slice_groups_active_nodes() {
        let trace = figure2_trace(10.0);
        let g = SpaceTimeGraph::build_default(&trace);
        // Slot 0: only nodes 0 and 1 are active, in one component.
        assert_eq!(g.active_nodes(0), &[NodeId(0), NodeId(1)]);
        assert_eq!(g.component_slice(0, NodeId(0)), &[NodeId(0), NodeId(1)]);
        assert_eq!(g.component_slice(0, NodeId(1)), &[NodeId(0), NodeId(1)]);
        assert!(g.component_slice(0, NodeId(2)).is_empty());
        // Slot 1: the full triangle, ascending.
        assert_eq!(g.active_nodes(1), &[NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(g.component_slice(1, NodeId(2)), &[NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn component_slice_separates_components() {
        // Two disjoint pairs in one slot: 0-1 and 2-3.
        let mut reg = NodeRegistry::new();
        for _ in 0..5 {
            reg.add(NodeClass::Mobile);
        }
        let trace = ContactTrace::from_contacts(
            "pairs",
            reg,
            TimeWindow::new(0.0, 10.0),
            vec![
                Contact::new(NodeId(0), NodeId(1), 1.0, 2.0).unwrap(),
                Contact::new(NodeId(2), NodeId(3), 3.0, 4.0).unwrap(),
            ],
        )
        .unwrap();
        let g = SpaceTimeGraph::build_default(&trace);
        assert_eq!(g.component_slice(0, NodeId(0)), &[NodeId(0), NodeId(1)]);
        assert_eq!(g.component_slice(0, NodeId(3)), &[NodeId(2), NodeId(3)]);
        assert!(g.component_slice(0, NodeId(4)).is_empty());
        assert_eq!(g.active_nodes(0), &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        // The allocating compatibility API agrees with the slices.
        assert_eq!(g.component_members(0, NodeId(0)), vec![NodeId(1)]);
    }

    #[test]
    fn slot_edges_are_normalized_sorted_and_match_adjacency_scan_order() {
        let mut reg = NodeRegistry::new();
        for _ in 0..5 {
            reg.add(NodeClass::Mobile);
        }
        // Contacts given in reversed node order and shuffled time order.
        let trace = ContactTrace::from_contacts(
            "edges",
            reg,
            TimeWindow::new(0.0, 20.0),
            vec![
                Contact::new(NodeId(4), NodeId(1), 1.0, 2.0).unwrap(),
                Contact::new(NodeId(3), NodeId(0), 3.0, 4.0).unwrap(),
                Contact::new(NodeId(1), NodeId(0), 5.0, 6.0).unwrap(),
                Contact::new(NodeId(0), NodeId(1), 7.0, 8.0).unwrap(), // duplicate pair
                Contact::new(NodeId(2), NodeId(4), 12.0, 13.0).unwrap(),
            ],
        )
        .unwrap();
        let g = SpaceTimeGraph::build_default(&trace);
        assert_eq!(
            g.edges(0),
            &[(NodeId(0), NodeId(1)), (NodeId(0), NodeId(3)), (NodeId(1), NodeId(4))]
        );
        assert_eq!(g.edges(1), &[(NodeId(2), NodeId(4))]);
        // The edge list reproduces the ascending full-adjacency scan.
        for s in 0..g.slot_count() {
            let mut scanned = Vec::new();
            for a in 0..g.node_count() as u32 {
                let a = NodeId(a);
                for &b in g.neighbors(s, a) {
                    if a.0 < b.0 {
                        scanned.push((a, b));
                    }
                }
            }
            assert_eq!(g.edges(s), scanned.as_slice(), "slot {s}");
            assert_eq!(g.edge_count(s), scanned.len());
        }
    }

    #[test]
    fn busy_slots_index_skips_empty_slots() {
        let mut reg = NodeRegistry::new();
        reg.add(NodeClass::Mobile);
        reg.add(NodeClass::Mobile);
        let trace = ContactTrace::from_contacts(
            "busy",
            reg,
            TimeWindow::new(0.0, 100.0),
            vec![
                Contact::new(NodeId(0), NodeId(1), 5.0, 8.0).unwrap(),
                Contact::new(NodeId(0), NodeId(1), 71.0, 75.0).unwrap(),
            ],
        )
        .unwrap();
        let g = SpaceTimeGraph::build_default(&trace);
        assert_eq!(g.busy_slots(), &[0, 7]);
        for (s, _) in g.busy_slots().iter().map(|&s| (s, ())) {
            assert!(g.edge_count(s) > 0);
        }
        let empty = ContactTrace::new(
            "no-contacts",
            NodeRegistry::with_counts(2, 0),
            TimeWindow::new(0.0, 50.0),
        );
        assert!(SpaceTimeGraph::build_default(&empty).busy_slots().is_empty());
    }

    /// Brute-force model of [`Slot::seal`]: per-node `BTreeSet` adjacency
    /// and union-find components relabelled by first unlabelled node
    /// ascending.
    struct SealModel {
        adjacency: Vec<std::collections::BTreeSet<NodeId>>,
        label: Vec<u32>,
        edges: Vec<(NodeId, NodeId)>,
    }

    impl SealModel {
        fn new(n: usize, raw: &[(NodeId, NodeId)]) -> Self {
            fn find(parent: &mut [usize], mut v: usize) -> usize {
                while parent[v] != v {
                    parent[v] = parent[parent[v]];
                    v = parent[v];
                }
                v
            }
            let mut adjacency = vec![std::collections::BTreeSet::new(); n];
            let mut parent: Vec<usize> = (0..n).collect();
            let mut edges = std::collections::BTreeSet::new();
            for &(a, b) in raw {
                adjacency[a.index()].insert(b);
                adjacency[b.index()].insert(a);
                edges.insert((a.min(b), a.max(b)));
                let (ra, rb) = (find(&mut parent, a.index()), find(&mut parent, b.index()));
                parent[ra] = rb;
            }
            let mut root_label = vec![u32::MAX; n];
            let mut next = 0;
            let label = (0..n)
                .map(|v| {
                    let root = find(&mut parent, v);
                    if root_label[root] == u32::MAX {
                        root_label[root] = next;
                        next += 1;
                    }
                    root_label[root]
                })
                .collect();
            Self { adjacency, label, edges: edges.into_iter().collect() }
        }
    }

    proptest::proptest! {
        #[test]
        fn seal_matches_a_brute_force_model(
            n in 1usize..140,
            density in 0usize..4,
            raw in proptest::collection::vec((0u32..1 << 20, 0u32..1 << 20, 0u32..16), 0..300),
        ) {
            // Up to `density · n` pairs (none: an empty slot), endpoints
            // taken modulo `n`, so some coincide. The third draw duplicates
            // a pair (1 in 4) or adds it reversed (1 in 4), so the multiset
            // carries duplicates, reversed pairs and unsorted order.
            let mut edges = Vec::new();
            for &(a, b, twist) in &raw[..raw.len().min(density * n)] {
                let (a, b) = (NodeId(a % n as u32), NodeId(b % n as u32));
                edges.push((a, b));
                match twist % 4 {
                    0 => edges.push((a, b)),
                    1 => edges.push((b, a)),
                    _ => {}
                }
            }
            let model = SealModel::new(n, &edges);
            let slot = Slot::seal(n, edges);
            proptest::prop_assert_eq!(slot.node_count(), n);
            proptest::prop_assert_eq!(slot.edges(), model.edges.as_slice());
            proptest::prop_assert_eq!(slot.edge_count(), model.edges.len());
            let active: Vec<NodeId> =
                (0..n as u32).map(NodeId).filter(|v| !model.adjacency[v.index()].is_empty()).collect();
            proptest::prop_assert_eq!(slot.active_nodes(), active.as_slice());
            for v in (0..n as u32).map(NodeId) {
                let expected: Vec<NodeId> = model.adjacency[v.index()].iter().copied().collect();
                proptest::prop_assert_eq!(slot.neighbors(v), expected.as_slice(), "node {:?}", v);
                proptest::prop_assert_eq!(slot.has_contacts(v), !expected.is_empty());
                proptest::prop_assert_eq!(slot.component(v), model.label[v.index()]);
                let component: Vec<NodeId> = match expected.is_empty() {
                    true => Vec::new(),
                    false => active
                        .iter()
                        .copied()
                        .filter(|u| model.label[u.index()] == model.label[v.index()])
                        .collect(),
                };
                proptest::prop_assert_eq!(slot.component_slice(v), component.as_slice());
            }
        }
    }

    #[test]
    fn slot_approx_bytes_is_the_sum_of_its_arrays() {
        let edges = vec![(NodeId(3), NodeId(1)), (NodeId(1), NodeId(2)), (NodeId(5), NodeId(6))];
        for slot in [Slot::seal(7, edges), Slot::empty(4), Slot::empty(0)] {
            let arrays = std::mem::size_of_val(slot.offsets.as_slice())
                + std::mem::size_of_val(slot.neighbors.as_slice())
                + std::mem::size_of_val(slot.component.as_slice())
                + std::mem::size_of_val(slot.edges.as_slice())
                + std::mem::size_of_val(slot.active.as_slice())
                + std::mem::size_of_val(slot.members.as_slice())
                + std::mem::size_of_val(slot.spans.as_slice());
            assert_eq!(slot.approx_bytes(), std::mem::size_of::<Slot>() + arrays);
        }
    }

    #[test]
    fn empty_trace_has_empty_slots() {
        let reg = NodeRegistry::with_counts(3, 0);
        let trace = ContactTrace::new("empty", reg, TimeWindow::new(0.0, 50.0));
        let g = SpaceTimeGraph::build_default(&trace);
        assert_eq!(g.slot_count(), 5);
        assert_eq!(g.total_edges(), 0);
        assert!(!g.has_contacts(0, NodeId(0)));
    }
}
