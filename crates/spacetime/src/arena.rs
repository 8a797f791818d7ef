//! Parent-pointer path arena: the storage engine behind the enumerator.
//!
//! The k-shortest valid-path enumeration (paper Fig. 3) keeps up to `k`
//! in-flight paths *per node per slot*; at paper scale (k = 2000, ~100
//! nodes) that is hundreds of thousands of live paths, and the dominant
//! operation is *extension* — append one hop to an existing path. Storing
//! each path as an owned `Vec<Hop>` makes every extension an O(L) clone of
//! the whole hop sequence; at the typical 4–8 hop depths of conference
//! traces, extension traffic dwarfs everything else the enumerator does.
//!
//! [`PathArena`] shares path prefixes structurally instead (the classic
//! multipath-routing trick): every in-flight path is a single 20-byte arena
//! entry `(parent, depth, node, time)` whose `parent` points at the path it
//! extends. Extension is an O(1) append; nothing is ever copied or freed
//! mid-message.
//!
//! Invariants:
//!
//! * **append-only** — entries are never mutated or removed once pushed, so
//!   `u32` handles ([`PathRef`]) stay valid for the arena's whole lifetime
//!   and parent chains can be walked without bounds worries;
//! * **per-message lifetime** — the enumerator [`clear`](PathArena::clear)s
//!   the arena between messages, reusing the allocation; handles must not
//!   outlive the message that produced them (deliveries are materialized to
//!   owned [`Path`]s before the next message starts);
//! * **stamp-walk membership** — entries carry no per-path node set. The
//!   enumerator answers the loop-avoidance questions about a stored path
//!   with one O(depth) parent walk (`PathArena::stamp`) that writes the
//!   path's nodes into an epoch-stamped node set (`NodeMarks`); after the
//!   walk, "is `v` on the path?" is one array probe, exact at any node
//!   count. The first-preference check is one more walk,
//!   [`PathArena::intersects`];
//! * **structure-of-arrays layout** — entry fields live in parallel vectors
//!   rather than one `Vec<Entry>`. The enumerator's admission and splice
//!   read *only* the depths of stored paths, and the walks read only
//!   parents and nodes; dense per-field vectors keep those scans from
//!   dragging whole entries through the cache.

use psn_trace::{NodeId, Seconds};

use crate::path::{Hop, Path};

/// Handle to a path stored in a [`PathArena`]. Only meaningful for the
/// arena (and arena generation) that issued it.
pub type PathRef = u32;

/// Sentinel parent for source entries.
const NO_PARENT: u32 = u32::MAX;

/// Append-only arena of parent-linked paths, stored as parallel per-field
/// vectors (SoA). See the module docs for the design invariants.
#[derive(Debug, Clone, Default)]
pub struct PathArena {
    /// Arena index of the path each entry extends; `NO_PARENT` for sources.
    parents: Vec<u32>,
    /// Number of hops on the path ending at each entry (≥ 1). Kept dense so
    /// the enumerator's depth searches touch no other field.
    depths: Vec<u32>,
    /// The node that received the message at each hop.
    nodes: Vec<NodeId>,
    /// The time each hop happened (slot end time; creation time for roots).
    times: Vec<Seconds>,
}

impl PathArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// True if the arena holds no entries.
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// Drops all paths, keeping the allocations.
    pub fn clear(&mut self) {
        self.parents.clear();
        self.depths.clear();
        self.nodes.clear();
        self.times.clear();
    }

    /// Starts a new single-hop path at `node`.
    pub fn root(&mut self, node: NodeId, time: Seconds) -> PathRef {
        self.push(NO_PARENT, 1, node, time)
    }

    /// Extends `parent` with one hop — O(1), no copying.
    ///
    /// The caller is responsible for loop avoidance (checking
    /// [`contains`](Self::contains) or a stamp walk
    /// first); times must be non-decreasing along any chain, which the
    /// enumerator guarantees by construction.
    pub fn extend(&mut self, parent: PathRef, node: NodeId, time: Seconds) -> PathRef {
        let p = parent as usize;
        debug_assert!(time >= self.times[p], "extension must not go back in time");
        self.push(parent, self.depths[p] + 1, node, time)
    }

    fn push(&mut self, parent: u32, depth: u32, node: NodeId, time: Seconds) -> PathRef {
        let idx = self.parents.len();
        assert!(idx < NO_PARENT as usize, "path arena exhausted u32 handles");
        self.parents.push(parent);
        self.depths.push(depth);
        self.nodes.push(node);
        self.times.push(time);
        idx as PathRef
    }

    /// Number of hops on the path ending at `r`.
    #[inline]
    pub fn depth(&self, r: PathRef) -> u32 {
        self.depths[r as usize]
    }

    /// The node holding the message at `r`.
    #[inline]
    pub fn node(&self, r: PathRef) -> NodeId {
        self.nodes[r as usize]
    }

    /// The time of the final hop of `r`.
    #[inline]
    pub fn time(&self, r: PathRef) -> Seconds {
        self.times[r as usize]
    }

    /// True if `node` lies on the path ending at `r`. O(depth) parent walk;
    /// the enumerator's hot loop uses a stamp walk instead, which
    /// answers any number of such queries from one walk.
    pub fn contains(&self, r: PathRef, node: NodeId) -> bool {
        self.any_node(r, |n| n == node)
    }

    /// True if any node of the path ending at `r` is flagged in `set`
    /// (indexed by node id). O(depth) parent walk.
    pub fn intersects(&self, r: PathRef, set: &[bool]) -> bool {
        self.any_node(r, |n| set[n.index()])
    }

    /// Walks the path ending at `r` once, writing its nodes into `marks` as
    /// a fresh set (every earlier stamp is forgotten) so that
    /// [`NodeMarks::contains`] then answers loop-avoidance probes in O(1).
    pub(crate) fn stamp(&self, r: PathRef, marks: &mut NodeMarks) {
        let epoch = marks.next_epoch();
        self.any_node(r, |n| {
            marks.marks[n.index()] = epoch;
            false
        });
    }

    /// Walks the chain from `r` back to its source, returning true as soon
    /// as `pred` matches a node.
    #[inline]
    fn any_node(&self, r: PathRef, mut pred: impl FnMut(NodeId) -> bool) -> bool {
        let mut cursor = r as usize;
        loop {
            if pred(self.nodes[cursor]) {
                return true;
            }
            if self.parents[cursor] == NO_PARENT {
                return false;
            }
            cursor = self.parents[cursor] as usize;
        }
    }

    /// Materializes the full hop sequence of `r` as an owned [`Path`].
    pub fn materialize(&self, r: PathRef) -> Path {
        self.materialize_hops(r, 0)
    }

    /// Materializes `r` plus one extra delivery hop `(node, time)` — the
    /// shape every delivered path takes — without an intermediate clone.
    pub fn materialize_extended(&self, r: PathRef, node: NodeId, time: Seconds) -> Path {
        let mut path = self.materialize_hops(r, 1);
        // `materialize_hops` left one trailing slot for the delivery hop.
        path.push_hop(Hop { node, time });
        path
    }

    fn materialize_hops(&self, r: PathRef, extra: usize) -> Path {
        let depth = self.depth(r) as usize;
        let mut hops = vec![Hop { node: NodeId(0), time: 0.0 }; depth];
        hops.reserve_exact(extra);
        let mut cursor = r as usize;
        for slot in hops.iter_mut().rev() {
            *slot = Hop { node: self.nodes[cursor], time: self.times[cursor] };
            cursor = self.parents[cursor] as usize;
        }
        debug_assert_eq!(cursor, NO_PARENT as usize);
        Path::from_hops(hops)
    }
}

/// An epoch-stamped node set: the target of a [`PathArena::stamp`] walk.
///
/// Node `v` is in the set iff `marks[v] == epoch`. Starting a new set is
/// one increment of `epoch` instead of a clear of `marks`; only when the
/// epoch counter wraps around are the marks zeroed, so a stamp left by a
/// set four billion walks ago can never be mistaken for a current one.
/// No walk is ever given epoch 0, which keeps freshly grown (zeroed) marks
/// out of every stamped set.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeMarks {
    marks: Vec<u32>,
    epoch: u32,
}

impl NodeMarks {
    /// Makes room for node ids below `n`.
    pub(crate) fn ensure_nodes(&mut self, n: usize) {
        if self.marks.len() < n {
            self.marks.resize(n, 0);
        }
    }

    /// True if `node` belongs to the current set.
    #[inline]
    pub(crate) fn contains(&self, node: NodeId) -> bool {
        self.marks[node.index()] == self.epoch
    }

    /// Starts a new, empty set and returns its epoch.
    #[inline]
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.marks.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// The current epoch.
    #[cfg(test)]
    pub(crate) fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Moves the epoch counter, so tests can start a run just below the
    /// wraparound.
    #[cfg(test)]
    pub(crate) fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(v: u32) -> NodeId {
        NodeId(v)
    }

    /// A chain through `ids`, one hop per id, returned with its tip.
    fn chain(arena: &mut PathArena, ids: &[u32]) -> PathRef {
        let mut r = arena.root(nid(ids[0]), 0.0);
        for (i, &v) in ids.iter().enumerate().skip(1) {
            r = arena.extend(r, nid(v), 10.0 * i as f64);
        }
        r
    }

    #[test]
    fn roots_and_extensions_share_prefixes() {
        let mut arena = PathArena::new();
        let root = arena.root(nid(0), 0.0);
        let a = arena.extend(root, nid(1), 10.0);
        let b = arena.extend(root, nid(2), 10.0);
        let deep = arena.extend(a, nid(3), 20.0);
        assert_eq!(arena.len(), 4); // shared prefix: no copies of the root
        assert_eq!(arena.depth(root), 1);
        assert_eq!(arena.depth(a), 2);
        assert_eq!(arena.depth(deep), 3);
        assert_eq!(arena.node(b), nid(2));
        assert_eq!(arena.time(deep), 20.0);
    }

    #[test]
    fn contains_is_exact_for_small_traces() {
        let mut arena = PathArena::new();
        let root = arena.root(nid(0), 0.0);
        let p = arena.extend(root, nid(5), 10.0);
        assert!(arena.contains(p, nid(0)));
        assert!(arena.contains(p, nid(5)));
        assert!(!arena.contains(p, nid(3)));
    }

    #[test]
    fn intersects_matches_membership() {
        let mut arena = PathArena::new();
        let root = arena.root(nid(1), 0.0);
        let p = arena.extend(root, nid(4), 10.0);
        let mut set = vec![false; 10];
        set[4] = true;
        assert!(arena.intersects(p, &set));
        let mut other = vec![false; 10];
        other[7] = true;
        assert!(!arena.intersects(p, &other));
    }

    /// Node ids that alias one another under a 64- or 128-bit
    /// `id mod width` mask: 2, 66 and 130 share a 64-bit lane, 2 and 130 a
    /// 128-bit one.
    const ALIASED: [u32; 3] = [2, 66, 130];
    const NODES: usize = 200;

    #[test]
    fn stamp_walk_answers_loop_checks_exactly_across_mask_widths() {
        let mut arena = PathArena::new();
        let mut marks = NodeMarks::default();
        marks.ensure_nodes(NODES);
        let paths = [
            chain(&mut arena, &[0, 66]),
            chain(&mut arena, &[130, 7, 63, 64]),
            chain(&mut arena, &[2, 65, 127, 128, 199]),
            chain(&mut arena, &[66]),
        ];
        for &r in &paths {
            arena.stamp(r, &mut marks);
            let on_path: Vec<NodeId> = arena.materialize(r).nodes().collect();
            for v in (0..NODES as u32).map(nid) {
                let expected = on_path.contains(&v);
                assert_eq!(marks.contains(v), expected, "node {v:?} on path {on_path:?}");
                assert_eq!(arena.contains(r, v), expected, "node {v:?} on path {on_path:?}");
            }
            for &alias in &ALIASED {
                assert_eq!(marks.contains(nid(alias)), on_path.contains(&nid(alias)));
            }
        }
    }

    #[test]
    fn intersects_reports_near_hits_exactly_across_mask_widths() {
        let mut arena = PathArena::new();
        let paths = [
            chain(&mut arena, &[0, 66]),
            chain(&mut arena, &[130, 1]),
            chain(&mut arena, &[2, 5, 9]),
            chain(&mut arena, &[3, 67, 131]),
        ];
        // Flag one aliased id at a time: a mask would report every other
        // member of the alias class as a (false) hit.
        for &flagged in &ALIASED {
            let mut near = vec![false; NODES];
            near[flagged as usize] = true;
            for &r in &paths {
                let brute = arena.materialize(r).nodes().any(|n| near[n.index()]);
                assert_eq!(arena.intersects(r, &near), brute, "flag {flagged}");
            }
        }
    }

    #[test]
    fn stamps_of_earlier_walks_are_forgotten() {
        let mut arena = PathArena::new();
        let mut marks = NodeMarks::default();
        marks.ensure_nodes(NODES);
        let first = chain(&mut arena, &[2, 66]);
        let second = chain(&mut arena, &[130]);
        arena.stamp(first, &mut marks);
        arena.stamp(second, &mut marks);
        assert!(marks.contains(nid(130)));
        assert!(!marks.contains(nid(2)));
        assert!(!marks.contains(nid(66)));
    }

    #[test]
    fn epoch_wraparound_clears_stale_stamps() {
        let mut arena = PathArena::new();
        let mut marks = NodeMarks::default();
        marks.ensure_nodes(NODES);
        let stale = chain(&mut arena, &[2, 66]);
        let fresh = chain(&mut arena, &[130]);
        // Leave stamps at epochs 1 and 2, then jump to the end of the
        // epoch range: after the wrap, epochs 1 and 2 are current again.
        arena.stamp(stale, &mut marks);
        arena.stamp(stale, &mut marks);
        marks.set_epoch(u32::MAX - 1);
        for _ in 0..4 {
            arena.stamp(fresh, &mut marks);
            assert!(marks.contains(nid(130)));
            assert!(!marks.contains(nid(2)), "stale stamp survived epoch {}", marks.epoch());
            assert!(!marks.contains(nid(66)));
        }
        assert_eq!(marks.epoch(), 3, "the epoch must have wrapped past zero");
    }

    #[test]
    fn materialize_reconstructs_hop_sequences() {
        let mut arena = PathArena::new();
        let root = arena.root(nid(0), 5.0);
        let a = arena.extend(root, nid(1), 10.0);
        let b = arena.extend(a, nid(2), 30.0);
        let path = arena.materialize(b);
        assert_eq!(path.len(), 3);
        assert_eq!(path.nodes().collect::<Vec<_>>(), vec![nid(0), nid(1), nid(2)]);
        assert_eq!(path.first().time, 5.0);
        assert_eq!(path.end_time(), 30.0);
    }

    #[test]
    fn materialize_extended_appends_the_delivery_hop() {
        let mut arena = PathArena::new();
        let root = arena.root(nid(0), 0.0);
        let a = arena.extend(root, nid(1), 10.0);
        let path = arena.materialize_extended(a, nid(7), 20.0);
        assert_eq!(path.nodes().collect::<Vec<_>>(), vec![nid(0), nid(1), nid(7)]);
        assert_eq!(path.end_time(), 20.0);
        assert_eq!(path.len(), 3);
    }

    #[test]
    fn clear_empties_the_arena_for_reuse() {
        let mut arena = PathArena::new();
        let root = arena.root(nid(0), 0.0);
        arena.extend(root, nid(1), 1.0);
        arena.clear();
        assert!(arena.is_empty());
        let again = arena.root(nid(130), 2.0);
        assert_eq!(again, 0, "handles restart from zero after a clear");
        assert_eq!(arena.node(again), nid(130));
    }
}
