//! The forwarding-algorithm abstraction.
//!
//! A forwarding algorithm, in the paper's formulation, is a local rule: when
//! node `xᵢ` holding a message for destination `δ` meets node `xⱼ`, should
//! it hand `xⱼ` a copy? Delivery to the destination itself is *not* part of
//! the rule — every algorithm respects minimal progress, so the simulator
//! always delivers when a holder meets the destination.

use psn_trace::{NodeId, Seconds};

use crate::history::ContactKnowledge;
use crate::oracle::TraceOracle;

/// Read-only view of the simulation state offered to forwarding decisions.
///
/// `history` is a trait object so the same algorithm code runs against
/// either the mutable [`crate::history::ContactHistory`] replay (reference
/// engine) or a read-only [`crate::timeline::HistoryView`] into the shared
/// precomputed timeline (slot-major engine).
#[derive(Debug)]
pub struct ForwardingContext<'a> {
    /// Contact history observed so far (recent/complete past knowledge).
    pub history: &'a dyn ContactKnowledge,
    /// Whole-trace oracle (future knowledge); only oracle-based algorithms
    /// consult it.
    pub oracle: &'a TraceOracle,
    /// Current simulation time (the end of the slot being processed).
    pub now: Seconds,
}

/// A forwarding algorithm: decides whether to replicate a message from its
/// current holder to an encountered peer.
pub trait ForwardingAlgorithm: Send + Sync {
    /// Human-readable name used in reports (e.g. `"FRESH"`).
    fn name(&self) -> &str;

    /// True if the algorithm consults the message destination when deciding
    /// (the paper's destination-aware / destination-unaware distinction).
    fn destination_aware(&self) -> bool;

    /// Decides whether `holder` should hand a copy of a message destined for
    /// `destination` to `peer` when they meet.
    ///
    /// `holder != peer`, `peer != destination` (delivery is handled by the
    /// simulator), and the peer does not already have a copy.
    fn should_forward(
        &self,
        ctx: &ForwardingContext<'_>,
        holder: NodeId,
        peer: NodeId,
        destination: NodeId,
    ) -> bool;

    /// Optional utility decomposition of the forwarding rule.
    ///
    /// Five of the paper's six algorithms are *utility comparisons*: they
    /// forward from `holder` to `peer` iff `utility(peer) >
    /// utility(holder)` (strictly — ties keep the message). Exposing the
    /// per-node utility lets the slot-major engine compute it once per node
    /// instead of calling [`should_forward`](Self::should_forward) per
    /// (edge, direction, sweep pass), and cache it across messages; the
    /// resulting decisions are bit-identical, which the engine's
    /// differential tests pin down.
    ///
    /// Contract for implementors (the engine relies on every point):
    ///
    /// * return uniformly `Some` (for every input) or uniformly `None`;
    /// * the value must not depend on `ctx.now`;
    /// * if [`destination_aware`](Self::destination_aware) is `true`, the
    ///   value may depend on the mutable contact history *only* through the
    ///   `(node, destination)` pair statistics
    ///   ([`last_contact_with`](crate::history::ContactKnowledge::last_contact_with),
    ///   [`contacts_with`](crate::history::ContactKnowledge::contacts_with))
    ///   plus immutable oracle data — so it can only change in slots where
    ///   `node` and `destination` are in contact, which is what lets the
    ///   engine keep one row per destination and refresh it only at the
    ///   destination's neighbors;
    /// * if `destination_aware` is `false`, the value must ignore
    ///   `destination` entirely, but may then use any per-node history
    ///   statistic (the engine recomputes it per slot and shares it across
    ///   messages instead);
    /// * `utility(peer) > utility(holder)` must decide exactly like
    ///   `should_forward`.
    ///
    /// The default returns `None`: the engine then calls `should_forward`
    /// for every decision (Epidemic does this — "always forward" is not a
    /// strict comparison, and is trivial anyway).
    fn copy_utility(
        &self,
        _ctx: &ForwardingContext<'_>,
        _node: NodeId,
        _destination: NodeId,
    ) -> Option<f64> {
        None
    }

    /// True if [`copy_utility`](Self::copy_utility) never depends on the
    /// mutable contact history — only on oracle/trace data — so its value
    /// for a `(node, destination)` pair is constant over the whole
    /// simulation. The engine then fills each utility table once (per walk
    /// or per destination) instead of refreshing it per slot. Only
    /// meaningful when `copy_utility` returns `Some`.
    fn utility_is_static(&self) -> bool {
        false
    }

    /// True if a node with *no* recorded contacts with `destination` is
    /// guaranteed the minimum possible [`copy_utility`](Self::copy_utility)
    /// value — so it can never be a strictly-better copy target than any
    /// holder (FRESH maps "never met" to `-∞`, Greedy to an encounter
    /// count of zero). The engine then skips whole slots in which neither
    /// the destination nor any node that ever contacts it is active: no
    /// delivery is possible (the destination is idle) and no forward is
    /// possible (every active candidate target sits at the minimum, and
    /// ties never forward).
    ///
    /// Must stay `false` for utilities that can rank a never-met node above
    /// a met one — e.g. expected-delay oracles, where a node can reach the
    /// destination quickly through relays without ever contacting it
    /// directly. Only meaningful when `copy_utility` returns `Some` and
    /// [`destination_aware`](Self::destination_aware) is true.
    fn utility_requires_destination_contact(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::ContactHistory;

    /// A trivial always-forward rule used to exercise the trait object
    /// machinery.
    struct Always;

    impl ForwardingAlgorithm for Always {
        fn name(&self) -> &str {
            "Always"
        }
        fn destination_aware(&self) -> bool {
            false
        }
        fn should_forward(
            &self,
            _ctx: &ForwardingContext<'_>,
            _holder: NodeId,
            _peer: NodeId,
            _destination: NodeId,
        ) -> bool {
            true
        }
    }

    #[test]
    fn trait_objects_are_usable() {
        use psn_trace::node::NodeRegistry;
        use psn_trace::trace::{ContactTrace, TimeWindow};

        let trace =
            ContactTrace::new("empty", NodeRegistry::with_counts(2, 0), TimeWindow::new(0.0, 10.0));
        let history = ContactHistory::new(2);
        let oracle = TraceOracle::from_trace(&trace);
        let ctx = ForwardingContext { history: &history, oracle: &oracle, now: 0.0 };
        let algo: Box<dyn ForwardingAlgorithm> = Box::new(Always);
        assert_eq!(algo.name(), "Always");
        assert!(!algo.destination_aware());
        assert!(algo.should_forward(&ctx, NodeId(0), NodeId(1), NodeId(1)));
    }
}
