//! Online contact history.
//!
//! Several of the paper's forwarding algorithms base their decisions on what
//! a node has observed so far: FRESH uses the most recent encounter time
//! with the destination, Greedy uses the number of encounters with the
//! destination since the start of the simulation, and Greedy Online uses the
//! total number of contacts observed so far. [`ContactHistory`] maintains
//! exactly that state as the simulator replays the trace slot by slot.
//!
//! Two different statistics coexist and must not be conflated:
//!
//! * **recency** (`last_contact_with`) advances in *every* slot a pair is in
//!   contact — FRESH's "freshness" is the instant of the most recent
//!   observation, however long the contact lasts;
//! * **encounter counts** (`contacts_with`, `total_contacts`) increment only
//!   when a *new* encounter begins, i.e. when a pair is in contact in a slot
//!   without having been in contact in the previous slot. Counting one
//!   incidence per slot would inflate a contact spanning `k` slots into `k`
//!   encounters and skew Greedy / Greedy Online toward nodes with *long*
//!   contacts rather than *many* contacts, which is not the paper's
//!   per-encounter statistic.
//!
//! [`ContactKnowledge`] abstracts the read side so forwarding decisions can
//! run either against this mutable replay state or against a read-only slice
//! of the precomputed [`crate::timeline::HistoryTimeline`].
//!
//! (History is global in the sense that every node's view is derived from
//! the same replayed trace; the paper's algorithms compare per-node
//! statistics rather than modelling information propagation delays.)

use psn_trace::{NodeId, Seconds};

/// Read-only contact knowledge offered to forwarding decisions.
///
/// Implemented by [`ContactHistory`] (mutable slot-by-slot replay, the
/// reference engine) and by [`crate::timeline::HistoryView`] (a zero-copy
/// slice of the precomputed shared timeline, the slot-major engine). Both
/// views answer the same queries with identical results for the same slot.
pub trait ContactKnowledge: std::fmt::Debug {
    /// The most recent time `node` was in contact with `peer`, if ever.
    fn last_contact_with(&self, node: NodeId, peer: NodeId) -> Option<Seconds>;

    /// Number of encounters so far between `node` and `peer` (Greedy's
    /// statistic when `peer` is the destination).
    fn contacts_with(&self, node: NodeId, peer: NodeId) -> u64;

    /// Total number of encounters `node` has had so far with anyone
    /// (Greedy Online's statistic).
    fn total_contacts(&self, node: NodeId) -> u64;

    /// How long ago (relative to `now`) `node` last contacted `peer`;
    /// `None` if they have never met. This is FRESH's "encounter age".
    fn encounter_age(&self, node: NodeId, peer: NodeId, now: Seconds) -> Option<Seconds> {
        self.last_contact_with(node, peer).map(|t| (now - t).max(0.0))
    }
}

/// Sentinel for "the pair has never been in contact".
const NO_SLOT: u32 = u32::MAX;

/// Running per-node and per-pair contact statistics up to the current
/// simulation time, advanced slot by slot by the replay loop.
#[derive(Debug, Clone)]
pub struct ContactHistory {
    node_count: usize,
    /// Last time each ordered pair was in contact (`None` = never so far).
    last_contact: Vec<Option<Seconds>>,
    /// Last slot each ordered pair was in contact (`NO_SLOT` = never);
    /// consulted to decide whether a recorded contact starts a new
    /// encounter or continues the previous slot's.
    last_slot: Vec<u32>,
    /// Number of encounters per ordered pair.
    pair_counts: Vec<u64>,
    /// Number of encounters per node (over all peers).
    node_counts: Vec<u64>,
    /// Latest time the history has been advanced to.
    now: Seconds,
}

impl ContactHistory {
    /// Creates an empty history for `node_count` nodes.
    pub fn new(node_count: usize) -> Self {
        Self {
            node_count,
            last_contact: vec![None; node_count * node_count],
            last_slot: vec![NO_SLOT; node_count * node_count],
            pair_counts: vec![0; node_count * node_count],
            node_counts: vec![0; node_count],
            now: 0.0,
        }
    }

    fn idx(&self, a: NodeId, b: NodeId) -> usize {
        a.index() * self.node_count + b.index()
    }

    /// Records that `a` and `b` were in contact during `slot`, whose
    /// representative timestamp (slot end) is `time`. Recency updates
    /// unconditionally; encounter counts increment only when the pair was
    /// *not* in contact in the previous slot (a new encounter). Recording
    /// the same pair twice in one slot is idempotent for the counts.
    pub fn record_contact(&mut self, a: NodeId, b: NodeId, slot: usize, time: Seconds) {
        let slot = u32::try_from(slot).unwrap_or_else(|_| unreachable!("slot index fits in u32"));
        let ab = self.idx(a, b);
        let ba = self.idx(b, a);
        let previous = self.last_slot[ab];
        let new_encounter = previous == NO_SLOT || (previous != slot && previous + 1 != slot);
        self.last_contact[ab] = Some(time);
        self.last_contact[ba] = Some(time);
        if new_encounter {
            self.pair_counts[ab] += 1;
            self.pair_counts[ba] += 1;
            self.node_counts[a.index()] += 1;
            self.node_counts[b.index()] += 1;
        }
        self.last_slot[ab] = slot;
        self.last_slot[ba] = slot;
        if time > self.now {
            self.now = time;
        }
    }

    /// Number of nodes tracked.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The latest contact time recorded so far.
    pub fn now(&self) -> Seconds {
        self.now
    }
}

impl ContactKnowledge for ContactHistory {
    fn last_contact_with(&self, node: NodeId, peer: NodeId) -> Option<Seconds> {
        self.last_contact[self.idx(node, peer)]
    }

    fn contacts_with(&self, node: NodeId, peer: NodeId) -> u64 {
        self.pair_counts[self.idx(node, peer)]
    }

    fn total_contacts(&self, node: NodeId) -> u64 {
        self.node_counts[node.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(v: u32) -> NodeId {
        NodeId(v)
    }

    #[test]
    fn empty_history_knows_nothing() {
        let h = ContactHistory::new(4);
        assert_eq!(h.node_count(), 4);
        assert_eq!(h.last_contact_with(nid(0), nid(1)), None);
        assert_eq!(h.contacts_with(nid(0), nid(1)), 0);
        assert_eq!(h.total_contacts(nid(0)), 0);
        assert_eq!(h.encounter_age(nid(0), nid(1), 100.0), None);
        assert_eq!(h.now(), 0.0);
    }

    #[test]
    fn recording_is_symmetric() {
        let mut h = ContactHistory::new(3);
        h.record_contact(nid(0), nid(1), 4, 50.0);
        assert_eq!(h.last_contact_with(nid(0), nid(1)), Some(50.0));
        assert_eq!(h.last_contact_with(nid(1), nid(0)), Some(50.0));
        assert_eq!(h.contacts_with(nid(0), nid(1)), 1);
        assert_eq!(h.contacts_with(nid(1), nid(0)), 1);
        assert_eq!(h.total_contacts(nid(0)), 1);
        assert_eq!(h.total_contacts(nid(1)), 1);
        assert_eq!(h.total_contacts(nid(2)), 0);
        assert_eq!(h.now(), 50.0);
    }

    #[test]
    fn repeated_contacts_update_recency_and_counts() {
        let mut h = ContactHistory::new(3);
        h.record_contact(nid(0), nid(1), 0, 10.0);
        h.record_contact(nid(0), nid(1), 3, 40.0);
        h.record_contact(nid(0), nid(2), 1, 20.0);
        assert_eq!(h.last_contact_with(nid(0), nid(1)), Some(40.0));
        assert_eq!(h.contacts_with(nid(0), nid(1)), 2);
        assert_eq!(h.total_contacts(nid(0)), 3);
        assert_eq!(h.encounter_age(nid(0), nid(1), 100.0), Some(60.0));
        assert_eq!(h.encounter_age(nid(0), nid(2), 100.0), Some(80.0));
    }

    #[test]
    fn contact_spanning_slots_is_one_encounter_but_recency_advances() {
        // Regression test for the k-fold inflation bug: a single contact
        // spanning four consecutive slots is one encounter, not four.
        let mut h = ContactHistory::new(2);
        for slot in 2..6usize {
            h.record_contact(nid(0), nid(1), slot, (slot + 1) as f64 * 10.0);
        }
        assert_eq!(h.contacts_with(nid(0), nid(1)), 1);
        assert_eq!(h.total_contacts(nid(0)), 1);
        assert_eq!(h.total_contacts(nid(1)), 1);
        // Recency still tracks the latest slot of the ongoing contact.
        assert_eq!(h.last_contact_with(nid(0), nid(1)), Some(60.0));

        // A gap of at least one slot starts a new encounter.
        h.record_contact(nid(0), nid(1), 7, 80.0);
        assert_eq!(h.contacts_with(nid(0), nid(1)), 2);
        assert_eq!(h.total_contacts(nid(0)), 2);
    }

    #[test]
    fn same_slot_recording_is_idempotent_for_counts() {
        let mut h = ContactHistory::new(2);
        h.record_contact(nid(0), nid(1), 5, 60.0);
        h.record_contact(nid(0), nid(1), 5, 60.0);
        assert_eq!(h.contacts_with(nid(0), nid(1)), 1);
        assert_eq!(h.total_contacts(nid(1)), 1);
    }

    #[test]
    fn interleaved_pairs_count_independently() {
        // 0-1 in contact over slots 0..3 while 0-2 has three separate
        // encounters: the per-pair contiguity tracking must not interfere.
        let mut h = ContactHistory::new(3);
        for slot in 0..3usize {
            h.record_contact(nid(0), nid(1), slot, (slot + 1) as f64 * 10.0);
        }
        for slot in [0usize, 2, 4] {
            h.record_contact(nid(0), nid(2), slot, (slot + 1) as f64 * 10.0);
        }
        assert_eq!(h.contacts_with(nid(0), nid(1)), 1);
        assert_eq!(h.contacts_with(nid(0), nid(2)), 3);
        assert_eq!(h.total_contacts(nid(0)), 4);
        assert_eq!(h.total_contacts(nid(1)), 1);
        assert_eq!(h.total_contacts(nid(2)), 3);
    }

    #[test]
    fn encounter_age_never_negative() {
        let mut h = ContactHistory::new(2);
        h.record_contact(nid(0), nid(1), 4, 50.0);
        // Asking "age" at a timestamp before the recorded contact clamps to
        // zero rather than going negative.
        assert_eq!(h.encounter_age(nid(0), nid(1), 40.0), Some(0.0));
    }
}
