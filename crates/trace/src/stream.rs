//! Slot-ordered contact event streams.
//!
//! The materialized pipeline hands whole [`ContactTrace`]s to the space-time
//! graph builder, so memory scales with trace length. This module is the
//! trace-layer half of the streaming pipeline: a contact trace (or a
//! scenario's program, [`crate::ScenarioConfig::stream`]) is exposed as a
//! **slot-ordered sequence of up/down events** that downstream incremental builders fold one slot at a time.
//!
//! Slotting follows the space-time convention exactly: with discretization
//! step Δ and observation window `[start, end)`, slot `s` covers
//! `[start + s·Δ, start + (s+1)·Δ)`. A contact `[c.start, c.end]` covers
//! slots `floor((c.start-start)/Δ) ..= min(floor((c.end-start)/Δ), S-1)`.
//! This is the only place contacts are slotted: `SpaceTimeGraph::build`
//! and the history timeline fold these events too ([`fold_trace`]).
//!
//! Ordering contract: events are emitted with non-decreasing slot index, and
//! within a slot every [`ContactEvent::Down`] precedes every
//! [`ContactEvent::Up`] (a contact whose last covered slot is `s-1` does not
//! contribute an edge to slot `s`). Sources are validated at the boundary:
//! [`TraceEventStream`] rejects traces whose contacts are out of start-time
//! order with [`StreamError::OutOfOrder`] instead of silently producing an
//! unordered event sequence.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::contact::Contact;
use crate::node::NodeId;
use crate::trace::{ContactTrace, TimeWindow};
use crate::Seconds;

/// Number of Δ-slots spanned by `window` — the shared slot-count convention
/// of the streaming and materialized pipelines (`ceil(duration/Δ)`, at least
/// one slot).
///
/// # Panics
///
/// Panics if `delta` is not strictly positive and finite.
pub fn slot_count(window: TimeWindow, delta: Seconds) -> usize {
    assert!(delta > 0.0 && delta.is_finite(), "delta must be positive and finite");
    let slots = ((window.end - window.start) / delta).ceil() as usize;
    slots.max(1)
}

/// The slot containing absolute time `t`, clamped to the window's
/// `slot_count(window, delta)` slots: slot `s` covers
/// `[start + s·Δ, start + (s+1)·Δ)` — the convention contacts are slotted
/// with. The one definition every graph representation and the forwarding
/// simulator place message creation times with.
///
/// # Panics
///
/// Panics if `delta` is not strictly positive and finite.
pub fn slot_of_time(window: TimeWindow, delta: Seconds, t: Seconds) -> usize {
    let slots = slot_count(window, delta);
    let rel = t - window.start;
    if rel <= 0.0 {
        return 0;
    }
    ((rel / delta).floor() as usize).min(slots - 1)
}

/// The absolute time at which slot `s` *ends* — the timestamp assigned to
/// hops and contacts observed during it (the paper's `T = c·Δ`, offset by
/// the window start for traces that do not begin at zero).
pub fn slot_end_time(window: TimeWindow, delta: Seconds, s: usize) -> Seconds {
    window.start + (s as f64 + 1.0) * delta
}

/// One slot-granular contact event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ContactEvent {
    /// A contact becomes active: it contributes a contact edge to every slot
    /// in `slot ..= last_slot`.
    Up {
        /// First slot the contact covers.
        slot: usize,
        /// Last slot the contact covers (clamped to the final window slot).
        last_slot: usize,
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Absolute contact start time in seconds.
        start: Seconds,
        /// Absolute contact end time in seconds.
        end: Seconds,
    },
    /// A contact stopped covering slots: `slot` is the first slot it does
    /// *not* cover (`last_slot + 1` of the matching `Up`).
    Down {
        /// First slot no longer covered by the contact.
        slot: usize,
        /// One endpoint (as in the matching `Up`).
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
}

impl ContactEvent {
    /// The slot index the event is ordered by.
    pub fn slot(&self) -> usize {
        match self {
            ContactEvent::Up { slot, .. } | ContactEvent::Down { slot, .. } => *slot,
        }
    }

    /// True for `Down` events — which sort before `Up` events within a slot.
    pub fn is_down(&self) -> bool {
        matches!(self, ContactEvent::Down { .. })
    }
}

/// Errors raised by event sources and their consumers.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// The underlying contact sequence was not sorted by start time, so a
    /// slot-ordered event stream cannot be derived from it.
    OutOfOrder {
        /// Start time of the contact that arrived late.
        start: Seconds,
        /// Start time of the earlier contact it should have preceded.
        previous: Seconds,
    },
    /// A consumer observed an event for a slot earlier than one it has
    /// already sealed.
    SlotRegression {
        /// Slot index of the offending event.
        slot: usize,
        /// First slot the consumer still accepts events for.
        expected_min: usize,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::OutOfOrder { start, previous } => write!(
                f,
                "contact starting at {start} s arrived after a contact starting at {previous} s; \
                 event streams require start-time order"
            ),
            StreamError::SlotRegression { slot, expected_min } => {
                write!(f, "event for slot {slot} arrived after slot {expected_min} was sealed")
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// A source of slot-ordered contact events.
///
/// Implementations guarantee the ordering contract documented at the module
/// level; consumers may still re-validate with [`StreamError::SlotRegression`]
/// since the trait is open to external implementations.
pub trait ContactStream {
    /// Number of nodes the stream's events may reference.
    fn node_count(&self) -> usize;

    /// The observation window the stream covers.
    fn window(&self) -> TimeWindow;

    /// The discretization step used to slot events.
    fn delta(&self) -> Seconds;

    /// Number of slots (`slot_count(window, delta)`).
    fn slot_count(&self) -> usize {
        slot_count(self.window(), self.delta())
    }

    /// The next event, or `Ok(None)` once the stream is exhausted.
    fn next_event(&mut self) -> Result<Option<ContactEvent>, StreamError>;
}

/// Shared up/down sequencing over a start-sorted contact source: pending
/// `Down` events wait in a min-heap and are drained before any `Up` of an
/// equal or later slot.
#[derive(Debug)]
pub(crate) struct EventSequencer {
    window: TimeWindow,
    delta: Seconds,
    num_slots: usize,
    /// Pending `Down` events keyed by (first uncovered slot, a, b).
    downs: BinaryHeap<Reverse<(usize, u32, u32)>>,
    previous_start: Option<Seconds>,
}

impl EventSequencer {
    pub(crate) fn new(window: TimeWindow, delta: Seconds) -> Self {
        let num_slots = slot_count(window, delta);
        Self { window, delta, num_slots, downs: BinaryHeap::new(), previous_start: None }
    }

    /// Slots covered by a contact (the module-level slotting rule).
    fn slots_of(&self, c: &Contact) -> (usize, usize) {
        let rel_start = c.start - self.window.start;
        let rel_end = c.end - self.window.start;
        let first = (rel_start / self.delta).floor() as usize;
        let last = ((rel_end / self.delta).floor() as usize).min(self.num_slots - 1);
        (first, last)
    }

    /// Emits the next event given the contact the source would yield next
    /// (`None` once the source is exhausted). Returns `None` when both the
    /// source and the pending-down heap are empty. The contact is consumed
    /// (and its `Down` enqueued) only when the returned event is its `Up`.
    pub(crate) fn step(
        &mut self,
        peeked: Option<&Contact>,
    ) -> Result<(Option<ContactEvent>, bool), StreamError> {
        if let Some(c) = peeked {
            if let Some(prev) = self.previous_start {
                if c.start < prev {
                    return Err(StreamError::OutOfOrder { start: c.start, previous: prev });
                }
            }
            let (first, last) = self.slots_of(c);
            if let Some(&Reverse((down_slot, a, b))) = self.downs.peek() {
                if down_slot <= first {
                    self.downs.pop();
                    return Ok((
                        Some(ContactEvent::Down { slot: down_slot, a: NodeId(a), b: NodeId(b) }),
                        false,
                    ));
                }
            }
            self.previous_start = Some(c.start);
            self.downs.push(Reverse((last + 1, c.a.0, c.b.0)));
            return Ok((
                Some(ContactEvent::Up {
                    slot: first,
                    last_slot: last,
                    a: c.a,
                    b: c.b,
                    start: c.start,
                    end: c.end,
                }),
                true,
            ));
        }
        match self.downs.pop() {
            Some(Reverse((down_slot, a, b))) => Ok((
                Some(ContactEvent::Down { slot: down_slot, a: NodeId(a), b: NodeId(b) }),
                false,
            )),
            None => Ok((None, false)),
        }
    }
}

/// Adapts a [`ContactTrace`] to the [`ContactStream`] interface.
///
/// Contacts are consumed in stored order; traces built through
/// [`ContactTrace::from_contacts`] or any generator are start-sorted by
/// construction, while hand-pushed unsorted traces are rejected at the first
/// out-of-order contact.
#[derive(Debug)]
pub struct TraceEventStream<'a> {
    trace: &'a ContactTrace,
    next_contact: usize,
    sequencer: EventSequencer,
}

impl<'a> TraceEventStream<'a> {
    /// Creates the event view of `trace` at discretization step `delta`.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is not strictly positive and finite.
    pub fn new(trace: &'a ContactTrace, delta: Seconds) -> Self {
        Self { trace, next_contact: 0, sequencer: EventSequencer::new(trace.window(), delta) }
    }
}

/// Runs `fold` over the event stream of `trace` at step `delta` — the one
/// way a materialized trace is slotted. A trace not known to be in
/// start-time order (contacts pushed out of order) is streamed from a
/// sorted copy, so the stream never reports [`StreamError::OutOfOrder`].
///
/// # Panics
///
/// Panics if `delta` is not strictly positive and finite, or if `fold`
/// fails on an in-order trace stream.
pub fn fold_trace<T>(
    trace: &ContactTrace,
    delta: Seconds,
    fold: impl FnOnce(&mut TraceEventStream<'_>) -> Result<T, StreamError>,
) -> T {
    let sorted;
    let trace = match trace.is_sorted() {
        true => trace,
        false => {
            let mut copy = trace.clone();
            copy.sort();
            sorted = copy;
            &sorted
        }
    };
    fold(&mut TraceEventStream::new(trace, delta))
        .unwrap_or_else(|e| unreachable!("a start-sorted trace streams in order: {e}"))
}

impl ContactStream for TraceEventStream<'_> {
    fn node_count(&self) -> usize {
        self.trace.node_count()
    }

    fn window(&self) -> TimeWindow {
        self.trace.window()
    }

    fn delta(&self) -> Seconds {
        self.sequencer.delta
    }

    fn next_event(&mut self) -> Result<Option<ContactEvent>, StreamError> {
        let peeked = self.trace.contacts().get(self.next_contact);
        let (event, consumed) = self.sequencer.step(peeked)?;
        if consumed {
            self.next_contact += 1;
        }
        Ok(event)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::node::{NodeClass, NodeRegistry};

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

    fn drain(stream: &mut impl ContactStream) -> Vec<ContactEvent> {
        let mut events = Vec::new();
        while let Some(event) = stream.next_event().unwrap() {
            events.push(event);
        }
        events
    }

    #[test]
    fn slot_count_matches_graph_convention() {
        assert_eq!(slot_count(TimeWindow::new(0.0, 100.0), 10.0), 10);
        assert_eq!(slot_count(TimeWindow::new(0.0, 95.0), 10.0), 10);
        assert_eq!(slot_count(TimeWindow::new(0.0, 5.0), 10.0), 1);
        assert_eq!(slot_count(TimeWindow::new(1000.0, 1050.0), 10.0), 5);
    }

    #[test]
    fn slot_of_time_clamps_and_slot_end_time_offsets_by_the_window_start() {
        let window = TimeWindow::new(1000.0, 1050.0);
        assert_eq!(slot_of_time(window, 10.0, 999.0), 0);
        assert_eq!(slot_of_time(window, 10.0, 1000.0), 0);
        assert_eq!(slot_of_time(window, 10.0, 1009.99), 0);
        // A slot boundary belongs to the slot it opens.
        assert_eq!(slot_of_time(window, 10.0, 1010.0), 1);
        assert_eq!(slot_of_time(window, 10.0, 1e9), 4);
        assert_eq!(slot_end_time(window, 10.0, 0), 1010.0);
        assert_eq!(slot_end_time(window, 10.0, 4), 1050.0);
    }

    #[test]
    fn trace_stream_is_slot_ordered_with_downs_first() {
        let trace = ContactTrace::from_contacts(
            "t",
            registry(4),
            TimeWindow::new(0.0, 100.0),
            vec![
                contact(0, 1, 5.0, 35.0),  // slots 0..=3
                contact(2, 3, 12.0, 13.0), // slot 1
                contact(1, 2, 41.0, 44.0), // slot 4
            ],
        )
        .unwrap();
        let mut stream = TraceEventStream::new(&trace, 10.0);
        assert_eq!(stream.slot_count(), 10);
        let events = drain(&mut stream);
        // Slot order is non-decreasing; Down precedes Up within a slot.
        let mut previous: Option<(usize, bool)> = None;
        for event in &events {
            let key = (event.slot(), !event.is_down());
            if let Some(prev) = previous {
                assert!(prev <= key, "events out of order: {prev:?} then {key:?}");
            }
            previous = Some(key);
        }
        // Up/down events pair off: three contacts, six events.
        assert_eq!(events.len(), 6);
        assert_eq!(events.iter().filter(|e| e.is_down()).count(), 3);
        // The spanning contact covers slots 0..=3 and goes down at slot 4 —
        // before the slot-4 Up of the third contact.
        let down_01 = events
            .iter()
            .position(|e| matches!(e, ContactEvent::Down { a: NodeId(0), b: NodeId(1), .. }))
            .unwrap();
        let up_12 = events
            .iter()
            .position(|e| matches!(e, ContactEvent::Up { a: NodeId(1), b: NodeId(2), .. }))
            .unwrap();
        assert!(down_01 < up_12);
        match events[down_01] {
            ContactEvent::Down { slot, .. } => assert_eq!(slot, 4),
            _ => unreachable!(),
        }
    }

    #[test]
    fn nonzero_window_start_offsets_slots() {
        let trace = ContactTrace::from_contacts(
            "offset",
            registry(2),
            TimeWindow::new(1000.0, 1050.0),
            vec![contact(0, 1, 1012.0, 1018.0)],
        )
        .unwrap();
        let events = drain(&mut TraceEventStream::new(&trace, 10.0));
        match events[0] {
            ContactEvent::Up { slot, last_slot, .. } => {
                assert_eq!(slot, 1);
                assert_eq!(last_slot, 1);
            }
            _ => panic!("expected Up first"),
        }
    }

    #[test]
    fn contact_touching_window_end_is_clamped_to_last_slot() {
        let trace = ContactTrace::from_contacts(
            "edge",
            registry(2),
            TimeWindow::new(0.0, 100.0),
            vec![contact(0, 1, 95.0, 100.0)],
        )
        .unwrap();
        let events = drain(&mut TraceEventStream::new(&trace, 10.0));
        match events[0] {
            ContactEvent::Up { slot, last_slot, .. } => {
                assert_eq!(slot, 9);
                assert_eq!(last_slot, 9, "last slot clamps to the final window slot");
            }
            _ => panic!("expected Up first"),
        }
        assert_eq!(events[1].slot(), 10, "down lands one past the final slot");
    }

    #[test]
    fn out_of_order_contacts_are_rejected() {
        let mut trace = ContactTrace::new("unsorted", registry(3), TimeWindow::new(0.0, 100.0));
        trace.push(contact(0, 1, 50.0, 60.0)).unwrap();
        trace.push(contact(1, 2, 10.0, 20.0)).unwrap();
        // No sort(): the trace is out of start-time order.
        let mut stream = TraceEventStream::new(&trace, 10.0);
        assert!(stream.next_event().is_ok());
        assert!(matches!(
            stream.next_event(),
            Err(StreamError::OutOfOrder { start, previous }) if start == 10.0 && previous == 50.0
        ));
    }

    #[test]
    fn empty_trace_yields_no_events() {
        let trace = ContactTrace::new("empty", registry(2), TimeWindow::new(0.0, 50.0));
        let events = drain(&mut TraceEventStream::new(&trace, 10.0));
        assert!(events.is_empty());
    }

    /// A heterogeneous scenario to stream.
    fn scenario(nodes: usize, window_seconds: f64, seed: u64) -> crate::ScenarioConfig {
        crate::ScenarioConfig::Heterogeneous(crate::generator::HeterogeneousConfig {
            nodes,
            window_seconds,
            max_node_rate: 0.1,
            mean_contact_duration: 30.0,
            seed,
        })
    }

    #[test]
    fn synthetic_stream_is_ordered_and_deterministic() {
        let config = scenario(20, 2000.0, 42);
        let events_a = drain(&mut config.stream(10.0));
        let events_b = drain(&mut config.stream(10.0));
        assert_eq!(events_a, events_b, "same seed, same stream");
        assert!(events_a.len() > 100);
        let mut previous = None;
        let (mut contacts, mut active, mut peak_active) = (0usize, 0usize, 0usize);
        let mut per_node = [0u64; 20];
        for event in &events_a {
            let key = (event.slot(), !event.is_down());
            if let Some(prev) = previous {
                assert!(prev <= key);
            }
            previous = Some(key);
            match event {
                ContactEvent::Up { a, b, start, end, .. } => {
                    assert_ne!(a, b);
                    assert!(*start >= 0.0 && *end <= 2000.0 && start < end);
                    contacts += 1;
                    per_node[a.index()] += 1;
                    per_node[b.index()] += 1;
                    active += 1;
                    peak_active = peak_active.max(active);
                }
                ContactEvent::Down { .. } => active -= 1,
            }
        }
        assert_eq!(contacts, events_a.len() / 2);
        assert_eq!(active, 0, "every up is matched by a down");
        assert!(peak_active >= 1);
        assert_eq!(per_node.iter().sum::<u64>(), 2 * contacts as u64);
    }

    #[test]
    fn synthetic_stream_matches_materialized_trace() {
        // Materializing a scenario stream's contacts into a trace and
        // streaming that trace yields the same event sequence.
        let config = scenario(10, 500.0, 7);
        let events = drain(&mut config.stream(10.0));
        let contacts: Vec<Contact> = events
            .iter()
            .filter_map(|e| match e {
                ContactEvent::Up { a, b, start, end, .. } => {
                    Some(Contact::new(*a, *b, *start, *end).unwrap())
                }
                ContactEvent::Down { .. } => None,
            })
            .collect();
        let trace =
            ContactTrace::from_contacts("mat", registry(10), TimeWindow::new(0.0, 500.0), contacts)
                .unwrap();
        let replayed = drain(&mut TraceEventStream::new(&trace, 10.0));
        assert!(!replayed.is_empty());
        let ups =
            |evs: &[ContactEvent]| evs.iter().filter(|e| !e.is_down()).copied().collect::<Vec<_>>();
        assert_eq!(ups(&events), ups(&replayed));
    }
}
