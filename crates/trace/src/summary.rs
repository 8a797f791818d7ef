//! Stream-foldable trace aggregates.
//!
//! Every statistic the study pipeline reads off a materialized
//! [`ContactTrace`] — per-node contact counts ([`ContactRates`]), per-pair
//! contact counts (the forwarding oracle's input), and the per-minute
//! contact time series (Fig. 1 / stationarity) — is a fold over the
//! contacts. [`ContactSummary`] performs that fold **once, online**, from
//! the `Up` events of a [`ContactStream`], so the streaming study path can
//! run every figure without ever materializing the trace; the materialized
//! path folds the same summary from its cached trace
//! ([`ContactSummary::observe_trace`]), so the summary is every study
//! engine's one trace-level input. The fold is order-insensitive (integer
//! counts plus `+1.0` bin increments), so the stream fold is bit-identical
//! to the trace fold — pinned by the differential tests below and by the
//! study layer's streamed-vs-materialized suites.
//!
//! State is independent of trace length, which is the point: a
//! million-contact stream folds through the same fixed tables. They are
//! `O(window/60 s)` bins, `8·n` bytes of per-node counts and, unless the
//! summary is [`ContactSummary::rates_only`], the `8·n²`-byte pair-count
//! matrix. That matrix dominates at scale (8 MB at 1 000 nodes, 200 MB at
//! 5 000), so its one consumer, the forwarding oracle, takes it over
//! ([`ContactSummary::take_pair_counts`]) and turns it into its delay
//! matrix in the same allocation.

use psn_stats::BinnedSeries;

use crate::binning::PAPER_BIN_SECONDS;
use crate::node::NodeId;
use crate::rates::ContactRates;
use crate::stream::{ContactEvent, ContactStream, StreamError};
use crate::trace::{ContactTrace, TimeWindow};
use crate::Seconds;

/// Aggregate statistics of a contact sequence, foldable from a stream.
///
/// Equivalent to (and differentially pinned against) the trace-side
/// computations: [`ContactRates::from_trace`] for counts and rates,
/// the forwarding oracle's per-pair counts, and
/// [`crate::binning::contact_timeseries_per_minute`] for the Fig. 1 series.
#[derive(Debug, Clone)]
pub struct ContactSummary {
    node_count: usize,
    window: TimeWindow,
    contacts: u64,
    per_node: Vec<u64>,
    /// Symmetric per-ordered-pair contact counts, `n * n` row-major — the
    /// forwarding oracle's input.
    pair_counts: Vec<u64>,
    /// Contact start times in the paper's 1-minute bins.
    per_minute: BinnedSeries,
}

impl ContactSummary {
    /// An empty summary over `node_count` nodes and `window`.
    ///
    /// # Panics
    ///
    /// Panics if the window cannot be binned at one-minute resolution
    /// (empty or non-finite window) — trace windows are non-empty by
    /// construction.
    pub fn new(node_count: usize, window: TimeWindow) -> Self {
        let mut summary = Self::rates_only(node_count, window);
        summary.pair_counts = vec![0; node_count * node_count];
        summary
    }

    /// An empty summary that skips the `O(nodes²)` pair-count matrix —
    /// for consumers that never build the forwarding oracle (enumeration-
    /// and activity-only studies), where per-node counts and the time
    /// series are all that is read. [`ContactSummary::pair_counts`] stays
    /// empty; building an oracle from such a summary panics.
    ///
    /// # Panics
    ///
    /// As [`ContactSummary::new`].
    pub fn rates_only(node_count: usize, window: TimeWindow) -> Self {
        let per_minute = match BinnedSeries::new(window.start, window.end, PAPER_BIN_SECONDS) {
            Ok(series) => series,
            Err(e) => panic!("invalid summary window binning: {e}"),
        };
        Self {
            node_count,
            window,
            contacts: 0,
            per_node: vec![0; node_count],
            pair_counts: Vec::new(),
            per_minute,
        }
    }

    /// Folds one stream event. `Down` events carry no contact information
    /// and are ignored; every `Up` is one contact.
    pub fn observe(&mut self, event: &ContactEvent) {
        if let ContactEvent::Up { a, b, start, .. } = event {
            self.record(*a, *b, *start);
        }
    }

    /// Folds every contact of a materialized trace — the trace-side twin of
    /// [`ContactSummary::observe`] over the trace's `Up` events. The summary
    /// must have been created over the trace's node count and window, with
    /// [`ContactSummary::new`] or [`ContactSummary::rates_only`].
    pub fn observe_trace(&mut self, trace: &ContactTrace) {
        for c in trace.contacts() {
            self.record(c.a, c.b, c.start);
        }
    }

    /// The full fold, pair-count matrix included, over a materialized trace.
    pub fn from_trace(trace: &ContactTrace) -> Self {
        let mut summary = Self::new(trace.node_count(), trace.window());
        summary.observe_trace(trace);
        summary
    }

    fn record(&mut self, a: NodeId, b: NodeId, start: Seconds) {
        self.contacts += 1;
        self.per_node[a.index()] += 1;
        self.per_node[b.index()] += 1;
        if !self.pair_counts.is_empty() {
            self.pair_counts[a.index() * self.node_count + b.index()] += 1;
            self.pair_counts[b.index() * self.node_count + a.index()] += 1;
        }
        self.per_minute.record(start);
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The observation window the summary covers.
    pub fn window(&self) -> TimeWindow {
        self.window
    }

    /// Total contacts observed (one per `Up` event).
    pub fn contacts(&self) -> u64 {
        self.contacts
    }

    /// Per-node contact counts, indexed by node id.
    pub fn per_node_counts(&self) -> &[u64] {
        &self.per_node
    }

    /// The symmetric `n * n` row-major per-pair contact-count matrix —
    /// empty when the summary was built with
    /// [`ContactSummary::rates_only`].
    pub fn pair_counts(&self) -> &[u64] {
        &self.pair_counts
    }

    /// Moves the pair-count matrix out, leaving the summary as if it had
    /// been built with [`ContactSummary::rates_only`]: every other
    /// statistic stays readable. The forwarding oracle takes the matrix
    /// this way so a run never holds it next to the oracle's own.
    pub fn take_pair_counts(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.pair_counts)
    }

    /// Contact start times binned per minute (the Fig. 1 series).
    pub fn per_minute(&self) -> &BinnedSeries {
        &self.per_minute
    }

    /// The per-node contact-rate statistics — bit-identical to
    /// [`ContactRates::from_trace`] on the matching trace.
    pub fn rates(&self) -> ContactRates {
        ContactRates::from_counts(self.per_node.clone(), self.window.duration())
    }

    /// Approximate heap footprint of the summary state in bytes.
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<u64>() * (self.per_node.len() + self.pair_counts.len())
            + std::mem::size_of::<f64>() * self.per_minute.bins()
    }
}

/// A pass-through [`ContactStream`] adapter that folds a [`ContactSummary`]
/// from the events it forwards.
///
/// Wrap any source before handing it to the windowed graph builder and the
/// one streaming pass yields the graph, the timeline *and* every trace
/// aggregate the studies need — no second pass, no materialized trace.
#[derive(Debug)]
pub struct SummarizingStream<S: ContactStream> {
    inner: S,
    summary: ContactSummary,
}

impl<S: ContactStream> SummarizingStream<S> {
    /// Wraps `inner`, initializing an empty summary from its node count and
    /// window.
    pub fn new(inner: S) -> Self {
        let summary = ContactSummary::new(inner.node_count(), inner.window());
        Self { inner, summary }
    }

    /// As [`SummarizingStream::new`] but without the `O(nodes²)` pair-count
    /// matrix (see [`ContactSummary::rates_only`]).
    pub fn rates_only(inner: S) -> Self {
        let summary = ContactSummary::rates_only(inner.node_count(), inner.window());
        Self { inner, summary }
    }

    /// The summary folded so far (complete once the stream is exhausted).
    pub fn summary(&self) -> &ContactSummary {
        &self.summary
    }

    /// Consumes the adapter, returning the folded summary.
    pub fn into_summary(self) -> ContactSummary {
        self.summary
    }
}

impl<S: ContactStream> ContactStream for SummarizingStream<S> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn window(&self) -> TimeWindow {
        self.inner.window()
    }

    fn delta(&self) -> Seconds {
        self.inner.delta()
    }

    fn next_event(&mut self) -> Result<Option<ContactEvent>, StreamError> {
        let event = self.inner.next_event()?;
        if let Some(event) = &event {
            self.summary.observe(event);
        }
        Ok(event)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::binning::{contact_timeseries_per_minute, stationarity_from_series};
    use crate::generator::config::{
        ActivityProfile, CommunityConfig, ConferenceConfig, HeterogeneousConfig, HomogeneousConfig,
        ScaledConfig,
    };
    use crate::scenario::ScenarioConfig;
    use crate::stream::TraceEventStream;

    fn drain_summarized(stream: &mut impl ContactStream) -> usize {
        let mut events = 0;
        while stream.next_event().unwrap().is_some() {
            events += 1;
        }
        events
    }

    fn families(seed: u64) -> Vec<ScenarioConfig> {
        vec![
            ScenarioConfig::Conference(ConferenceConfig {
                name: format!("summary-conf-{seed}"),
                mobile_nodes: 18,
                stationary_nodes: 4,
                window_seconds: 2400.0,
                max_node_rate: 0.03,
                min_node_rate: 0.0005,
                stationary_rate_factor: 0.6,
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
                name: format!("summary-community-{seed}"),
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
                name: format!("summary-scaled-{seed}"),
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
    fn streamed_summary_matches_trace_fold_for_every_scenario_family() {
        for config in families(11) {
            let trace = config.generate();
            let expected = ContactSummary::from_trace(&trace);

            let mut stream = SummarizingStream::new(config.stream(10.0));
            drain_summarized(&mut stream);
            let folded = stream.into_summary();

            assert_eq!(folded.node_count(), expected.node_count(), "{}", config.name());
            assert_eq!(folded.contacts(), expected.contacts(), "{}", config.name());
            assert_eq!(folded.per_node_counts(), expected.per_node_counts());
            assert_eq!(folded.pair_counts(), expected.pair_counts());
            assert_eq!(folded.per_minute().series(), expected.per_minute().series());
        }
    }

    #[test]
    fn summary_rates_match_contact_rates_from_trace() {
        let config = families(5).remove(3);
        let trace = config.generate();
        let from_trace = ContactRates::from_trace(&trace);

        let mut stream = SummarizingStream::new(TraceEventStream::new(&trace, 10.0));
        drain_summarized(&mut stream);
        let rates = stream.summary().rates();

        assert_eq!(rates.counts(), from_trace.counts());
        assert_eq!(rates.rates(), from_trace.rates());
        assert_eq!(rates.median_rate(), from_trace.median_rate());
        assert_eq!(rates.window_seconds(), from_trace.window_seconds());
    }

    #[test]
    fn summary_series_supports_stationarity_diagnostics() {
        let config = families(7).remove(0);
        let trace = config.generate();

        let mut stream = SummarizingStream::new(TraceEventStream::new(&trace, 10.0));
        drain_summarized(&mut stream);
        let summary = stream.into_summary();

        let series = contact_timeseries_per_minute(&trace);
        assert_eq!(summary.per_minute().series(), series.series());
        let streamed = stationarity_from_series(summary.per_minute()).unwrap();
        let reference = stationarity_from_series(&series).unwrap();
        assert_eq!(streamed, reference);
    }

    #[test]
    fn rates_only_summary_skips_pair_matrix() {
        let config = families(3).remove(1);
        let trace = config.generate();
        let mut stream = SummarizingStream::rates_only(config.stream(10.0));
        drain_summarized(&mut stream);
        let mut trace_fold = ContactSummary::rates_only(trace.node_count(), trace.window());
        trace_fold.observe_trace(&trace);
        let expected = ContactSummary::from_trace(&trace);
        for folded in [stream.into_summary(), trace_fold] {
            assert!(folded.pair_counts().is_empty());
            assert_eq!(folded.contacts(), expected.contacts());
            assert_eq!(folded.per_node_counts(), expected.per_node_counts());
            assert_eq!(folded.per_minute().series(), expected.per_minute().series());
            assert!(folded.state_bytes() < expected.state_bytes());
        }
    }

    #[test]
    fn taking_the_pair_counts_leaves_a_rates_only_summary() {
        let config = families(9).remove(4);
        let trace = config.generate();
        let expected = ContactSummary::from_trace(&trace);
        let mut summary = ContactSummary::from_trace(&trace);
        let counts = summary.take_pair_counts();
        assert_eq!(counts, expected.pair_counts());
        assert!(summary.pair_counts().is_empty());
        assert_eq!(summary.contacts(), expected.contacts());
        assert_eq!(summary.per_node_counts(), expected.per_node_counts());
        assert_eq!(summary.per_minute().series(), expected.per_minute().series());
        let rates_only = ContactSummary::rates_only(trace.node_count(), trace.window());
        assert_eq!(summary.state_bytes(), rates_only.state_bytes());
    }

    #[test]
    fn summary_state_is_independent_of_contact_count() {
        let window = TimeWindow::new(0.0, 600.0);
        let summary = ContactSummary::new(50, window);
        let bytes = summary.state_bytes();
        // 50 per-node + 2500 pair counts + 10 bins.
        assert_eq!(bytes, 8 * (50 + 2500) + 8 * 10);
    }
}
