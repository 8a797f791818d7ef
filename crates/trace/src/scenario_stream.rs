//! Scenario families as slot-ordered event streams, and as traces.
//!
//! Every family is one random-number program ([`crate::generator`]'s
//! family setups plus the pair loop), run here in two modes.
//! [`ScenarioConfig::generate`] runs it in materialize mode and sorts the
//! contacts once. [`ScenarioConfig::stream`] runs it in stream mode: the
//! family is exposed directly as a slot-ordered [`ContactStream`] whose
//! state is bounded by the *population* (pair cursors plus the k-way merge
//! heap), never by the trace length.
//!
//! # Bit-identity contract
//!
//! The stream is pinned **event-identical** to `TraceEventStream` over the
//! generated trace for every family × seed (property-tested in this
//! module). That works because each program has a fixed draw order:
//!
//! 1. **Replay phase** (construction): the pair loop runs once on the
//!    master RNG *without storing contacts*. At the point where each pair's
//!    draws begin, cheap 32-byte RNG cursors are cloned — one positioned at
//!    the pair's arrival draws, one at its duration draws (and, for the
//!    thinned conference process, one at its thinning draws). Pairs that
//!    produce no contacts are discarded.
//! 2. **Merge phase** (iteration): each retained pair re-draws its contacts
//!    lazily from its cursors — arrivals and durations advance in lockstep,
//!    reproducing the interleaved draw order bit for bit — and a min-heap
//!    merges pairs on the exact total order [`ContactTrace`]`::sort` uses:
//!    `(start, end, a, b)`. Within a pair, starts are strictly increasing
//!    (exponential inter-arrivals are positive), so the merge output equals
//!    the sorted contact list of the generated trace.
//!
//! The `scaled` family needs no merge at all: it samples the aggregate
//! superposition process in time order, so both modes drain the same
//! source in O(nodes) state. The conference family's optional inquiry-scan
//! observation model is composed on top as a bounded reorder buffer:
//! scan-aligned starts are monotone in ground-truth starts, so contacts are
//! bucketed per scan instant, sorted within the bucket, and flushed as soon
//! as a later scan instant arrives.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::contact::Contact;
use crate::generator::config::ActivityProfile;
use crate::generator::program::{
    Draws, DurationModel, FamilyProgram, PairCursor, PairProgram, PairSink,
};
use crate::generator::scaled::ScaledSource;
use crate::generator::scan::scan_observe;
use crate::generator::{community, conference, heterogeneous, homogeneous, scaled};
use crate::scenario::ScenarioConfig;
use crate::stream::{ContactEvent, ContactStream, StreamError};
use crate::trace::{ContactTrace, TimeWindow};
use crate::Seconds;

/// Heap entry ordering pairs on the next contact's full sort key — the
/// exact `(start, end, a, b)` total order of [`crate::trace::ContactTrace`]
/// `::sort`, so the merge reproduces the materialized contact order.
#[derive(Debug, Clone, Copy)]
struct MergeEntry {
    contact: Contact,
    cursor: usize,
}

impl Ord for MergeEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let (x, y) = (&self.contact, &other.contact);
        x.start
            .total_cmp(&y.start)
            .then(x.end.total_cmp(&y.end))
            .then(x.a.cmp(&y.a))
            .then(x.b.cmp(&y.b))
            .then(self.cursor.cmp(&other.cursor))
    }
}

impl PartialOrd for MergeEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for MergeEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for MergeEntry {}

/// K-way merge over per-pair cursors for the product-rate families.
#[derive(Debug)]
struct PairMergeSource {
    horizon: Seconds,
    duration: DurationModel,
    /// `Some((profile, max_multiplier))` for the conference family.
    thinning: Option<(ActivityProfile, f64)>,
    cursors: Vec<PairCursor>,
    heap: BinaryHeap<Reverse<MergeEntry>>,
}

impl PairMergeSource {
    /// Runs `pairs` in stream mode and seeds the heap with each cursor's
    /// first contact.
    fn new(mut pairs: PairProgram) -> Self {
        let mut cursors = Vec::new();
        pairs.replay(PairSink::Cursors(&mut cursors));
        let PairProgram { horizon, duration, thinning, .. } = pairs;
        let mut heap = BinaryHeap::with_capacity(cursors.len());
        for (idx, cursor) in cursors.iter_mut().enumerate() {
            if let Some(contact) = cursor.next_contact(horizon, duration, thinning.as_ref()) {
                heap.push(Reverse(MergeEntry { contact, cursor: idx }));
            }
        }
        Self { horizon, duration, thinning, cursors, heap }
    }

    fn next_contact(&mut self) -> Option<Contact> {
        let Reverse(entry) = self.heap.pop()?;
        let cursor = &mut self.cursors[entry.cursor];
        if let Some(contact) =
            cursor.next_contact(self.horizon, self.duration, self.thinning.as_ref())
        {
            self.heap.push(Reverse(MergeEntry { contact, cursor: entry.cursor }));
        }
        Some(entry.contact)
    }

    /// Bytes held by the merge state — pair cursors plus the heap.
    fn approx_bytes(&self) -> usize {
        self.cursors.capacity() * std::mem::size_of::<PairCursor>()
            + self.heap.capacity() * std::mem::size_of::<Reverse<MergeEntry>>()
    }
}

/// Streaming composition of the inquiry-scan observation model over the
/// conference merge: scan-aligned starts are monotone in ground-truth
/// starts, so mapped contacts are bucketed per scan instant and each bucket
/// is sorted and flushed once a later instant arrives. The buffer is
/// bounded by the contacts mapped to one scan instant, matching the one
/// sort [`ScenarioConfig::generate`] performs via `from_contacts`.
#[derive(Debug)]
struct ScanSource {
    inner: PairMergeSource,
    period: Seconds,
    window_end: Seconds,
    /// Scan instant the current bucket accumulates (meaningful only while
    /// `bucket` is non-empty).
    bucket_grid: Seconds,
    bucket: Vec<Contact>,
    emit: VecDeque<Contact>,
    inner_done: bool,
}

impl ScanSource {
    fn new(inner: PairMergeSource, period: Seconds, window_end: Seconds) -> Self {
        Self {
            inner,
            period,
            window_end,
            bucket_grid: 0.0,
            bucket: Vec::new(),
            emit: VecDeque::new(),
            inner_done: false,
        }
    }

    fn flush_bucket(&mut self) {
        self.bucket.sort_by(|x, y| {
            x.start
                .total_cmp(&y.start)
                .then(x.end.total_cmp(&y.end))
                .then(x.a.cmp(&y.a))
                .then(x.b.cmp(&y.b))
        });
        self.emit.extend(self.bucket.drain(..));
    }

    fn next_contact(&mut self) -> Option<Contact> {
        loop {
            if let Some(c) = self.emit.pop_front() {
                return Some(c);
            }
            if self.inner_done {
                if self.bucket.is_empty() {
                    return None;
                }
                self.flush_bucket();
                continue;
            }
            match self.inner.next_contact() {
                None => {
                    self.inner_done = true;
                }
                Some(c) => {
                    let Some(mapped) = scan_observe(c, self.period, self.window_end) else {
                        continue; // unobserved by any scan
                    };
                    let first_scan = mapped.start;
                    debug_assert!(
                        self.bucket.is_empty() || first_scan >= self.bucket_grid,
                        "scan instants regress"
                    );
                    if !self.bucket.is_empty() && first_scan > self.bucket_grid {
                        self.flush_bucket();
                    }
                    self.bucket_grid = first_scan;
                    self.bucket.push(mapped);
                }
            }
        }
    }

    fn approx_bytes(&self) -> usize {
        self.inner.approx_bytes()
            + (self.bucket.capacity() + self.emit.capacity()) * std::mem::size_of::<Contact>()
    }
}

#[derive(Debug)]
enum ScenarioSource {
    Pairs(PairMergeSource),
    Scaled(ScaledSource),
    Scan(ScanSource),
}

impl ScenarioSource {
    fn next_contact(&mut self) -> Option<Contact> {
        match self {
            ScenarioSource::Pairs(s) => s.next_contact(),
            ScenarioSource::Scaled(s) => s.next_contact(),
            ScenarioSource::Scan(s) => s.next_contact(),
        }
    }

    fn approx_bytes(&self) -> usize {
        match self {
            ScenarioSource::Pairs(s) => s.approx_bytes(),
            ScenarioSource::Scaled(s) => s.approx_bytes(),
            ScenarioSource::Scan(s) => s.approx_bytes(),
        }
    }
}

/// A scenario family exposed directly as a slot-ordered [`ContactStream`] —
/// no [`crate::trace::ContactTrace`] is ever materialized. State is bounded
/// by the population (pair cursors + merge heap + pending downs), not the
/// trace length.
#[derive(Debug)]
pub struct ScenarioContactStream {
    node_count: usize,
    window: TimeWindow,
    delta: Seconds,
    source: ScenarioSource,
    pending: Option<Contact>,
    sequencer: crate::stream::EventSequencer,
}

impl ScenarioContactStream {
    /// Bytes held by the source's generator state (cursors, merge heap,
    /// reorder buffers) — the working set a streaming study should account
    /// against its budget.
    pub fn approx_bytes(&self) -> usize {
        self.source.approx_bytes()
    }
}

impl ContactStream for ScenarioContactStream {
    fn node_count(&self) -> usize {
        self.node_count
    }

    fn window(&self) -> TimeWindow {
        self.window
    }

    fn delta(&self) -> Seconds {
        self.delta
    }

    fn next_event(&mut self) -> Result<Option<ContactEvent>, StreamError> {
        if self.pending.is_none() {
            self.pending = self.source.next_contact();
        }
        let (event, consumed) = self.sequencer.step(self.pending.as_ref())?;
        if consumed {
            self.pending = None;
        }
        Ok(event)
    }
}

impl ScenarioConfig {
    /// The family's random-number program, set up.
    fn program(&self) -> FamilyProgram {
        match self {
            ScenarioConfig::Conference(c) => conference::program(c),
            ScenarioConfig::Homogeneous(c) => homogeneous::program(c),
            ScenarioConfig::Heterogeneous(c) => heterogeneous::program(c),
            ScenarioConfig::Community(c) => community::program(c),
            ScenarioConfig::Scaled(c) => scaled::program(c),
        }
    }

    /// Generates the contact trace for this scenario: one pass of the
    /// family's program, every contact kept as it is drawn (and observed
    /// through the inquiry scan when the config sets one), then one sort.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (fewer than two nodes,
    /// non-positive rates, durations or window). Configs read from text
    /// reject these with a typed error first.
    pub fn generate(&self) -> ContactTrace {
        let FamilyProgram { name, registry, draws } = self.program();
        let mut contacts = Vec::new();
        match draws {
            Draws::Pairs(mut pairs) => pairs.replay(PairSink::Contacts(&mut contacts)),
            Draws::Scaled(mut source) => {
                contacts.extend(std::iter::from_fn(|| source.next_contact()))
            }
        }
        let window = TimeWindow::new(0.0, self.window_seconds());
        ContactTrace::from_contacts(name, registry, window, contacts)
            .unwrap_or_else(|e| unreachable!("generated contacts lie inside the window: {e}"))
    }

    /// Exposes the scenario as a slot-ordered [`ContactStream`] at
    /// discretization step `delta`, without materializing a
    /// [`ContactTrace`]. The event sequence is bit-identical to
    /// [`crate::stream::TraceEventStream`] over [`Self::generate`] for
    /// every family and seed.
    ///
    /// # Panics
    ///
    /// Panics on the same degenerate configurations as [`Self::generate`],
    /// and if `delta` is not strictly positive and finite.
    pub fn stream(&self, delta: Seconds) -> ScenarioContactStream {
        let window = TimeWindow::new(0.0, self.window_seconds());
        let source = match self.program().draws {
            Draws::Pairs(pairs) => {
                let scan = pairs.scan;
                let merged = PairMergeSource::new(pairs);
                match scan {
                    Some(period) => {
                        ScenarioSource::Scan(ScanSource::new(merged, period, window.end))
                    }
                    None => ScenarioSource::Pairs(merged),
                }
            }
            Draws::Scaled(source) => ScenarioSource::Scaled(source),
        };
        ScenarioContactStream {
            node_count: self.node_count(),
            window,
            delta,
            source,
            pending: None,
            sequencer: crate::stream::EventSequencer::new(window, delta),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::generator::config::{
        CommunityConfig, ConferenceConfig, HeterogeneousConfig, HomogeneousConfig, ScaledConfig,
    };
    use crate::stream::TraceEventStream;
    use proptest::prelude::*;

    fn drain(stream: &mut impl ContactStream) -> Vec<ContactEvent> {
        let mut events = Vec::new();
        while let Some(event) = stream.next_event().unwrap() {
            events.push(event);
        }
        events
    }

    /// The pin: a family's stream source is event-identical to
    /// `TraceEventStream` over its materialized trace.
    fn assert_stream_matches_trace(scenario: &ScenarioConfig, delta: Seconds) {
        let trace = scenario.generate();
        let expected = drain(&mut TraceEventStream::new(&trace, delta));
        let mut stream = scenario.stream(delta);
        assert_eq!(stream.node_count(), trace.node_count(), "{}", scenario.name());
        assert_eq!(stream.window(), trace.window(), "{}", scenario.name());
        assert_eq!(stream.slot_count(), TraceEventStream::new(&trace, delta).slot_count());
        let got = drain(&mut stream);
        assert_eq!(
            got.len(),
            expected.len(),
            "{}: event count mismatch ({} contacts materialized)",
            scenario.name(),
            trace.contact_count()
        );
        for (idx, (g, e)) in got.iter().zip(expected.iter()).enumerate() {
            assert_eq!(g, e, "{}: event {idx} diverges", scenario.name());
        }
    }

    fn families(seed: u64) -> Vec<ScenarioConfig> {
        vec![
            ScenarioConfig::Conference(ConferenceConfig {
                name: format!("stream-conf-{seed}"),
                mobile_nodes: 18,
                stationary_nodes: 4,
                window_seconds: 2400.0,
                max_node_rate: 0.03,
                min_node_rate: 0.0005,
                stationary_rate_factor: 1.2,
                mean_contact_duration: 90.0,
                contact_duration_cv: 0.8,
                activity: ActivityProfile::Piecewise(vec![1.0, 1.6, 0.7]),
                inquiry_scan_period: None,
                seed,
            }),
            ScenarioConfig::Homogeneous(HomogeneousConfig {
                nodes: 16,
                window_seconds: 2400.0,
                node_contact_rate: 0.02,
                mean_contact_duration: 60.0,
                seed,
            }),
            ScenarioConfig::Heterogeneous(HeterogeneousConfig {
                nodes: 20,
                window_seconds: 2400.0,
                max_node_rate: 0.04,
                mean_contact_duration: 90.0,
                seed,
            }),
            ScenarioConfig::Community(CommunityConfig {
                name: format!("stream-community-{seed}"),
                communities: 3,
                nodes_per_community: 6,
                window_seconds: 2400.0,
                max_node_rate: 0.04,
                intra_inter_ratio: 6.0,
                mean_contact_duration: 100.0,
                contact_duration_cv: 0.9,
                seed,
            }),
            ScenarioConfig::Scaled(ScaledConfig {
                name: format!("stream-scaled-{seed}"),
                nodes: 80,
                window_seconds: 1200.0,
                max_node_rate: 0.04,
                min_node_rate: 0.0006,
                mean_contact_duration: 90.0,
                seed,
            }),
        ]
    }

    #[test]
    fn every_family_matches_its_materialized_trace() {
        for scenario in families(7) {
            assert_stream_matches_trace(&scenario, 10.0);
        }
    }

    #[test]
    fn conference_with_inquiry_scan_matches() {
        for seed in [1u64, 9, 23] {
            let scenario = ScenarioConfig::Conference(ConferenceConfig {
                name: format!("stream-scan-{seed}"),
                mobile_nodes: 16,
                stationary_nodes: 3,
                window_seconds: 3600.0,
                max_node_rate: 0.03,
                min_node_rate: 0.0005,
                stationary_rate_factor: 1.2,
                mean_contact_duration: 150.0,
                contact_duration_cv: 1.0,
                activity: ActivityProfile::TailDropoff {
                    dropoff_seconds: 900.0,
                    final_fraction: 0.3,
                },
                inquiry_scan_period: Some(120.0),
                seed,
            });
            assert_stream_matches_trace(&scenario, 30.0);
        }
    }

    #[test]
    fn zero_cv_durations_consume_no_draws() {
        let scenario = ScenarioConfig::Community(CommunityConfig {
            name: "stream-zero-cv".to_string(),
            communities: 2,
            nodes_per_community: 5,
            window_seconds: 1800.0,
            max_node_rate: 0.05,
            intra_inter_ratio: 4.0,
            mean_contact_duration: 120.0,
            contact_duration_cv: 0.0,
            seed: 3,
        });
        assert_stream_matches_trace(&scenario, 10.0);
    }

    #[test]
    fn stream_state_is_population_bounded() {
        // Twice the window, roughly twice the contacts — the source's state
        // must not grow with trace length.
        let short = ScenarioConfig::Heterogeneous(HeterogeneousConfig {
            nodes: 30,
            window_seconds: 1800.0,
            max_node_rate: 0.05,
            mean_contact_duration: 60.0,
            seed: 5,
        });
        let long = ScenarioConfig::Heterogeneous(HeterogeneousConfig {
            window_seconds: 14_400.0,
            ..match &short {
                ScenarioConfig::Heterogeneous(c) => c.clone(),
                _ => unreachable!(),
            }
        });
        let mut a = short.stream(10.0);
        let mut b = long.stream(10.0);
        drain(&mut a);
        drain(&mut b);
        assert!(
            b.approx_bytes() <= a.approx_bytes() * 2,
            "state grew with trace length: {} vs {}",
            b.approx_bytes(),
            a.approx_bytes()
        );
    }

    proptest! {
        #[test]
        fn stream_matches_trace_across_seeds(seed in 0u64..1_000_000, family in 0usize..5) {
            let scenario = families(seed).into_iter().nth(family).unwrap();
            assert_stream_matches_trace(&scenario, 15.0);
        }

        #[test]
        fn scan_composition_matches_across_seeds(seed in 0u64..1_000_000, period in 1usize..5) {
            let scenario = ScenarioConfig::Conference(ConferenceConfig {
                name: format!("stream-scan-prop-{seed}"),
                mobile_nodes: 12,
                stationary_nodes: 2,
                window_seconds: 1800.0,
                max_node_rate: 0.035,
                min_node_rate: 0.0005,
                stationary_rate_factor: 1.1,
                mean_contact_duration: 130.0,
                contact_duration_cv: 0.9,
                activity: ActivityProfile::Constant,
                inquiry_scan_period: Some(60.0 * period as f64),
                seed,
            });
            assert_stream_matches_trace(&scenario, 20.0);
        }
    }
}
