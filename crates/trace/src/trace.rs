//! The contact trace container.
//!
//! A [`ContactTrace`] owns a node registry and a time-sorted list of
//! contacts over an observation window. It is the single input type for
//! space-time graph construction, path enumeration and the forwarding
//! simulator, so it offers the slicing/filtering operations the paper's
//! methodology needs: restricting to a sub-window (the four 3-hour periods),
//! per-node contact lookup, and iteration in time order.

use serde::{Deserialize, Serialize};

use crate::contact::{Contact, ContactError};
use crate::node::{NodeId, NodeRegistry};
use crate::Seconds;

/// A half-open observation window `[start, end)` in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeWindow {
    /// Window start (inclusive).
    pub start: Seconds,
    /// Window end (exclusive).
    pub end: Seconds,
}

impl TimeWindow {
    /// Creates a window; panics if `end <= start` or either bound is
    /// non-finite (windows are build-time constants in practice).
    pub fn new(start: Seconds, end: Seconds) -> Self {
        assert!(start.is_finite() && end.is_finite(), "window bounds must be finite");
        assert!(end > start, "window must have positive length");
        Self { start, end }
    }

    /// Window length in seconds.
    pub fn duration(&self) -> Seconds {
        self.end - self.start
    }

    /// True if `t` lies inside the window.
    pub fn contains(&self, t: Seconds) -> bool {
        t >= self.start && t < self.end
    }

    /// The standard three-hour window used by all four paper datasets.
    pub fn three_hours() -> Self {
        Self::new(0.0, 3.0 * 3600.0)
    }
}

/// Errors raised while assembling a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// A contact referenced a node id not present in the registry.
    UnknownNode(NodeId),
    /// A contact failed basic validation.
    InvalidContact(ContactError),
    /// A contact lies (partly) outside the observation window.
    OutsideWindow {
        /// Start of the offending contact.
        start: Seconds,
        /// End of the offending contact.
        end: Seconds,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::UnknownNode(id) => write!(f, "contact references unknown node {id}"),
            TraceError::InvalidContact(e) => write!(f, "invalid contact: {e}"),
            TraceError::OutsideWindow { start, end } => {
                write!(f, "contact [{start}, {end}] lies outside the observation window")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<ContactError> for TraceError {
    fn from(e: ContactError) -> Self {
        TraceError::InvalidContact(e)
    }
}

/// A complete contact trace: node registry, observation window and a
/// time-sorted list of contacts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ContactTrace {
    name: String,
    nodes: NodeRegistry,
    window: TimeWindow,
    contacts: Vec<Contact>,
    /// Lazily built per-node index into `contacts` (positions, ascending,
    /// so per-node iteration preserves time order). Built on first use by
    /// [`ContactTrace::contacts_of`] / [`ContactTrace::contact_count_of`]
    /// and invalidated by every mutation; excluded from equality because it
    /// is derived state.
    node_index: std::sync::OnceLock<Vec<Vec<u32>>>,
    /// True while `contacts` is known to be in start-time order — cleared
    /// by an out-of-order [`ContactTrace::push`], restored by
    /// [`ContactTrace::sort`] — so range queries can pick the binary-search
    /// fast path without ever being wrong on unsorted traces. Derived
    /// state, excluded from equality.
    sorted: bool,
}

impl PartialEq for ContactTrace {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.nodes == other.nodes
            && self.window == other.window
            && self.contacts == other.contacts
    }
}

impl ContactTrace {
    /// Creates an empty trace over the given window.
    pub fn new(name: impl Into<String>, nodes: NodeRegistry, window: TimeWindow) -> Self {
        Self {
            name: name.into(),
            nodes,
            window,
            contacts: Vec::new(),
            node_index: std::sync::OnceLock::new(),
            sorted: true,
        }
    }

    /// Builds a trace from a contact list, validating every record and
    /// sorting by start time.
    pub fn from_contacts(
        name: impl Into<String>,
        nodes: NodeRegistry,
        window: TimeWindow,
        contacts: Vec<Contact>,
    ) -> Result<Self, TraceError> {
        let mut trace = Self::new(name, nodes, window);
        trace.contacts.reserve_exact(contacts.len());
        for c in contacts {
            trace.push(c)?;
        }
        trace.sort();
        Ok(trace)
    }

    /// Adds one contact (does not re-sort; call [`ContactTrace::sort`] after
    /// bulk insertion or use [`ContactTrace::from_contacts`]).
    pub fn push(&mut self, c: Contact) -> Result<(), TraceError> {
        // Re-validate (the Contact may have been deserialized).
        let c = Contact::new(c.a, c.b, c.start, c.end)?;
        if self.nodes.get(c.a).is_none() {
            return Err(TraceError::UnknownNode(c.a));
        }
        if self.nodes.get(c.b).is_none() {
            return Err(TraceError::UnknownNode(c.b));
        }
        if c.start < self.window.start || c.start >= self.window.end {
            return Err(TraceError::OutsideWindow { start: c.start, end: c.end });
        }
        // Contacts may extend slightly past the window end (a contact in
        // progress when logging stopped); clamp rather than reject.
        let clamped_end = c.end.min(self.window.end);
        if let Some(last) = self.contacts.last() {
            if last.start > c.start {
                self.sorted = false;
            }
        }
        self.contacts.push(Contact { end: clamped_end, ..c });
        self.node_index = std::sync::OnceLock::new();
        Ok(())
    }

    /// Sorts contacts by start time (then end time, then endpoints) to give
    /// a deterministic order.
    pub fn sort(&mut self) {
        self.contacts.sort_by(|x, y| {
            x.start
                .total_cmp(&y.start)
                .then(x.end.total_cmp(&y.end))
                .then(x.a.cmp(&y.a))
                .then(x.b.cmp(&y.b))
        });
        self.node_index = std::sync::OnceLock::new();
        self.sorted = true;
    }

    /// True while the contacts are known to be in start-time order (see
    /// [`ContactTrace::sort`]).
    pub(crate) fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Human-readable trace name (e.g. `synthetic-infocom06-0912`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node registry.
    pub fn nodes(&self) -> &NodeRegistry {
        &self.nodes
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The observation window.
    pub fn window(&self) -> TimeWindow {
        self.window
    }

    /// All contacts in start-time order.
    pub fn contacts(&self) -> &[Contact] {
        &self.contacts
    }

    /// Number of contacts.
    pub fn contact_count(&self) -> usize {
        self.contacts.len()
    }

    /// True if the trace holds no contacts.
    pub fn is_empty(&self) -> bool {
        self.contacts.is_empty()
    }

    /// The per-node contact index: for every node, the positions of its
    /// contacts in [`ContactTrace::contacts`], ascending.
    ///
    /// Built lazily on first use and cached (`OnceLock`), so the first
    /// per-node query costs one pass over the contact list and every later
    /// one is a direct lookup; mutations (`push`, `sort`) invalidate it.
    fn node_index(&self) -> &[Vec<u32>] {
        self.node_index.get_or_init(|| {
            let mut index: Vec<Vec<u32>> = vec![Vec::new(); self.nodes.len()];
            for (pos, c) in self.contacts.iter().enumerate() {
                let pos = u32::try_from(pos)
                    .unwrap_or_else(|_| unreachable!("contact count fits in u32"));
                index[c.a.index()].push(pos);
                index[c.b.index()].push(pos);
            }
            index
        })
    }

    /// Contacts involving a given node, in the trace's contact order
    /// (time order once the trace is sorted).
    ///
    /// Served from the lazily built per-node index: no allocation and no
    /// full-trace scan per call (beyond the one-off index build).
    pub fn contacts_of(&self, node: NodeId) -> impl Iterator<Item = Contact> + '_ {
        let positions: &[u32] =
            self.node_index().get(node.index()).map(Vec::as_slice).unwrap_or(&[]);
        positions.iter().map(|&pos| self.contacts[pos as usize])
    }

    /// Number of contacts involving a given node (`O(1)` after the index
    /// is built).
    pub fn contact_count_of(&self, node: NodeId) -> usize {
        self.node_index().get(node.index()).map_or(0, Vec::len)
    }

    /// Contacts whose interval overlaps `[t0, t1)`, in contact order.
    ///
    /// On a sorted trace (any trace built through
    /// [`ContactTrace::from_contacts`] or the generators) the scan stops at
    /// the first contact starting at or after `t1` instead of walking the
    /// whole list; unsorted traces fall back to a full scan.
    pub fn contacts_overlapping(
        &self,
        t0: Seconds,
        t1: Seconds,
    ) -> impl Iterator<Item = Contact> + '_ {
        // When sorted by start time, everything from the first start ≥ t1
        // onwards cannot overlap.
        let cutoff = if self.sorted {
            self.contacts.partition_point(|c| c.start < t1)
        } else {
            self.contacts.len()
        };
        self.contacts[..cutoff].iter().copied().filter(move |c| c.overlaps(t0, t1))
    }

    /// Returns a new trace restricted to contacts starting inside
    /// `[sub.start, sub.end)`, with times re-based so the sub-window starts
    /// at zero.
    ///
    /// The paper extracts four 3-hour windows from multi-day logs this way.
    pub fn slice(&self, sub: TimeWindow, name: impl Into<String>) -> ContactTrace {
        let mut out =
            ContactTrace::new(name, self.nodes.clone(), TimeWindow::new(0.0, sub.duration()));
        for c in &self.contacts {
            if c.start >= sub.start && c.start < sub.end {
                let shifted = Contact {
                    a: c.a,
                    b: c.b,
                    start: c.start - sub.start,
                    end: (c.end.min(sub.end)) - sub.start,
                };
                out.contacts.push(shifted);
            }
        }
        out.sort();
        out
    }

    /// Mean number of contacts per node over the window.
    pub fn mean_contacts_per_node(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        // Each contact involves two nodes.
        2.0 * self.contacts.len() as f64 / self.nodes.len() as f64
    }

    /// Aggregate contact rate: contacts per second over the whole window.
    pub fn aggregate_contact_rate(&self) -> f64 {
        self.contacts.len() as f64 / self.window.duration()
    }

    /// Approximate resident size in bytes — the weight artifact stores use
    /// for byte-budget accounting. Counts the contact list and the node
    /// registry; the lazily built per-node index is charged as if built,
    /// since a cached trace will almost always end up building it.
    pub fn approx_bytes(&self) -> usize {
        let contacts = self.contacts.len() * std::mem::size_of::<Contact>();
        let index = self.contacts.len() * 2 * std::mem::size_of::<u32>()
            + self.nodes.len() * std::mem::size_of::<Vec<u32>>();
        let registry: usize =
            self.nodes.iter().map(|n| std::mem::size_of_val(n) + n.label.len()).sum();
        contacts + index + registry + self.name.len() + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::node::NodeClass;

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

    #[test]
    fn window_basics() {
        let w = TimeWindow::new(0.0, 100.0);
        assert_eq!(w.duration(), 100.0);
        assert!(w.contains(0.0));
        assert!(w.contains(99.9));
        assert!(!w.contains(100.0));
        assert_eq!(TimeWindow::three_hours().duration(), 10800.0);
    }

    #[test]
    #[should_panic]
    fn window_rejects_empty_interval() {
        TimeWindow::new(5.0, 5.0);
    }

    #[test]
    fn from_contacts_sorts_and_validates() {
        let trace = ContactTrace::from_contacts(
            "t",
            registry(3),
            TimeWindow::new(0.0, 100.0),
            vec![contact(0, 1, 50.0, 60.0), contact(1, 2, 10.0, 20.0)],
        )
        .unwrap();
        assert_eq!(trace.contact_count(), 2);
        assert_eq!(trace.contacts()[0].start, 10.0);
        assert_eq!(trace.contacts()[1].start, 50.0);
        assert!(!trace.is_empty());
        assert_eq!(trace.node_count(), 3);
        assert_eq!(trace.name(), "t");
    }

    #[test]
    fn push_rejects_unknown_nodes() {
        let mut trace = ContactTrace::new("t", registry(2), TimeWindow::new(0.0, 100.0));
        let err = trace.push(contact(0, 5, 0.0, 1.0)).unwrap_err();
        assert_eq!(err, TraceError::UnknownNode(NodeId(5)));
    }

    #[test]
    fn push_rejects_contacts_starting_outside_window() {
        let mut trace = ContactTrace::new("t", registry(2), TimeWindow::new(0.0, 100.0));
        assert!(matches!(
            trace.push(contact(0, 1, 150.0, 160.0)),
            Err(TraceError::OutsideWindow { .. })
        ));
    }

    #[test]
    fn push_clamps_contacts_extending_past_window_end() {
        let mut trace = ContactTrace::new("t", registry(2), TimeWindow::new(0.0, 100.0));
        trace.push(contact(0, 1, 90.0, 150.0)).unwrap();
        assert_eq!(trace.contacts()[0].end, 100.0);
    }

    #[test]
    fn contacts_of_filters_by_node() {
        let trace = ContactTrace::from_contacts(
            "t",
            registry(3),
            TimeWindow::new(0.0, 100.0),
            vec![contact(0, 1, 0.0, 1.0), contact(1, 2, 2.0, 3.0), contact(0, 2, 4.0, 5.0)],
        )
        .unwrap();
        assert_eq!(trace.contacts_of(NodeId(0)).count(), 2);
        assert_eq!(trace.contacts_of(NodeId(1)).count(), 2);
        assert_eq!(trace.contacts_of(NodeId(2)).count(), 2);
        assert_eq!(trace.contact_count_of(NodeId(0)), 2);
        assert_eq!(trace.contact_count_of(NodeId(42)), 0);
        // Per-node iteration preserves time order and endpoints.
        let of_one: Vec<Contact> = trace.contacts_of(NodeId(1)).collect();
        assert_eq!(of_one[0].start, 0.0);
        assert_eq!(of_one[1].start, 2.0);
        assert!(of_one.iter().all(|c| c.involves(NodeId(1))));
    }

    #[test]
    fn contacts_overlapping_is_correct_on_unsorted_traces() {
        // Regression: the sorted fast path must not drop overlaps when
        // contacts were pushed out of start-time order without sort().
        let mut trace = ContactTrace::new("t", registry(3), TimeWindow::new(0.0, 100.0));
        trace.push(contact(0, 1, 50.0, 60.0)).unwrap();
        trace.push(contact(0, 2, 5.0, 10.0)).unwrap();
        assert_eq!(trace.contacts_overlapping(4.0, 11.0).count(), 1);
        assert_eq!(trace.contacts_overlapping(0.0, 100.0).count(), 2);
        trace.sort();
        assert_eq!(trace.contacts_overlapping(4.0, 11.0).count(), 1);
    }

    #[test]
    fn node_index_is_invalidated_by_mutation() {
        let mut trace = ContactTrace::from_contacts(
            "t",
            registry(3),
            TimeWindow::new(0.0, 100.0),
            vec![contact(0, 1, 0.0, 1.0)],
        )
        .unwrap();
        assert_eq!(trace.contact_count_of(NodeId(2)), 0);
        trace.push(contact(1, 2, 2.0, 3.0)).unwrap();
        trace.sort();
        assert_eq!(trace.contact_count_of(NodeId(2)), 1);
        assert_eq!(trace.contact_count_of(NodeId(1)), 2);
    }

    #[test]
    fn contacts_overlapping_interval() {
        let trace = ContactTrace::from_contacts(
            "t",
            registry(3),
            TimeWindow::new(0.0, 100.0),
            vec![contact(0, 1, 0.0, 10.0), contact(1, 2, 20.0, 30.0)],
        )
        .unwrap();
        assert_eq!(trace.contacts_overlapping(5.0, 15.0).count(), 1);
        assert_eq!(trace.contacts_overlapping(0.0, 100.0).count(), 2);
        assert_eq!(trace.contacts_overlapping(50.0, 60.0).count(), 0);
    }

    #[test]
    fn slicing_rebases_times() {
        let trace = ContactTrace::from_contacts(
            "full",
            registry(3),
            TimeWindow::new(0.0, 1000.0),
            vec![contact(0, 1, 100.0, 120.0), contact(1, 2, 600.0, 620.0)],
        )
        .unwrap();
        let sliced = trace.slice(TimeWindow::new(500.0, 1000.0), "afternoon");
        assert_eq!(sliced.contact_count(), 1);
        assert_eq!(sliced.contacts()[0].start, 100.0);
        assert_eq!(sliced.window().duration(), 500.0);
        assert_eq!(sliced.name(), "afternoon");
    }

    #[test]
    fn aggregate_statistics() {
        let trace = ContactTrace::from_contacts(
            "t",
            registry(4),
            TimeWindow::new(0.0, 100.0),
            vec![contact(0, 1, 0.0, 1.0), contact(2, 3, 2.0, 3.0)],
        )
        .unwrap();
        assert_eq!(trace.mean_contacts_per_node(), 1.0);
        assert!((trace.aggregate_contact_rate() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn error_display_strings() {
        let e1 = TraceError::UnknownNode(NodeId(3));
        let e2 = TraceError::OutsideWindow { start: 1.0, end: 2.0 };
        let e3: TraceError = ContactError::SelfContact.into();
        for e in [e1, e2, e3] {
            assert!(!e.to_string().is_empty());
        }
    }
}
