//! Future-knowledge oracle.
//!
//! Two of the paper's algorithms use knowledge a practical system could not
//! have: Greedy Total uses the *total* number of contacts each node has over
//! the whole trace (past and future), and Dynamic Programming (the paper's
//! Minimum Expected Delay variant) uses the average delay between all pairs
//! of nodes computed from the whole trace, followed by a shortest-path
//! computation. [`TraceOracle`] precomputes both from a contact trace.

use psn_trace::{ContactSummary, ContactTrace, NodeId, Seconds};

/// Precomputed whole-trace knowledge for oracle-based algorithms.
#[derive(Debug, Clone)]
pub struct TraceOracle {
    node_count: usize,
    /// Total contact count per node over the whole trace.
    total_contacts: Vec<u64>,
    /// Expected pairwise delay (mean waiting time until the next contact of
    /// the pair), `f64::INFINITY` for pairs that never meet.
    expected_delay: Vec<f64>,
    /// All-pairs shortest expected delay through relays (Floyd–Warshall over
    /// `expected_delay`).
    shortest_delay: Vec<f64>,
}

impl TraceOracle {
    /// Builds the oracle from a trace.
    ///
    /// The expected delay between a pair with `k ≥ 1` contacts in a window
    /// of length `T` is estimated as `T / (k + 1)` — the mean waiting time
    /// until the next contact when contacts are spread over the window.
    /// Pairs that never meet get infinite delay.
    pub fn from_trace(trace: &ContactTrace) -> Self {
        Self::from_summary(&ContactSummary::from_trace(trace))
    }

    /// Builds the oracle from already-folded contact counts. `pair_counts`
    /// is the symmetric `n * n` row-major per-pair count matrix.
    ///
    /// # Panics
    ///
    /// Panics if `pair_counts` is not `n * n` for `n = total_contacts.len()`.
    pub fn from_counts(window: Seconds, total_contacts: Vec<u64>, pair_counts: &[u64]) -> Self {
        let n = total_contacts.len();
        assert_eq!(pair_counts.len(), n * n, "pair-count matrix must be node_count^2");

        let mut expected_delay = vec![f64::INFINITY; n * n];
        for i in 0..n {
            expected_delay[i * n + i] = 0.0;
            for j in 0..n {
                if i == j {
                    continue;
                }
                let k = pair_counts[i * n + j];
                if k > 0 {
                    expected_delay[i * n + j] = window / (k as f64 + 1.0);
                }
            }
        }

        // Floyd–Warshall on expected delays: the minimum expected delay of a
        // relay path is approximated by the sum of per-hop expected delays
        // (the MEED-style objective).
        let mut shortest = expected_delay.clone();
        for k in 0..n {
            for i in 0..n {
                let ik = shortest[i * n + k];
                if ik.is_infinite() {
                    continue;
                }
                for j in 0..n {
                    let candidate = ik + shortest[k * n + j];
                    if candidate < shortest[i * n + j] {
                        shortest[i * n + j] = candidate;
                    }
                }
            }
        }

        Self { node_count: n, total_contacts, expected_delay, shortest_delay: shortest }
    }

    /// Builds the oracle from a [`ContactSummary`], folded from a trace or a
    /// contact stream.
    ///
    /// # Panics
    ///
    /// Panics if the summary skipped its pair-count matrix
    /// ([`ContactSummary::rates_only`]).
    pub fn from_summary(summary: &ContactSummary) -> Self {
        Self::from_counts(
            summary.window().duration(),
            summary.per_node_counts().to_vec(),
            summary.pair_counts(),
        )
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Total contacts of `node` over the whole trace (Greedy Total's
    /// statistic).
    pub fn total_contacts(&self, node: NodeId) -> u64 {
        self.total_contacts[node.index()]
    }

    /// Expected direct delay between two nodes (infinite if they never
    /// meet).
    pub fn expected_delay(&self, a: NodeId, b: NodeId) -> Seconds {
        self.expected_delay[a.index() * self.node_count + b.index()]
    }

    /// Minimum expected delay from `a` to `b` allowing relays — the Dynamic
    /// Programming algorithm's routing metric.
    pub fn shortest_expected_delay(&self, a: NodeId, b: NodeId) -> Seconds {
        self.shortest_delay[a.index() * self.node_count + b.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psn_trace::contact::Contact;
    use psn_trace::node::{NodeClass, NodeRegistry};
    use psn_trace::trace::TimeWindow;

    fn nid(v: u32) -> NodeId {
        NodeId(v)
    }

    fn trace() -> ContactTrace {
        let mut reg = NodeRegistry::new();
        for _ in 0..4 {
            reg.add(NodeClass::Mobile);
        }
        // Node 0 and 1 meet often, 1 and 2 meet once, 3 never meets anyone.
        let contacts = vec![
            Contact::new(nid(0), nid(1), 10.0, 20.0).unwrap(),
            Contact::new(nid(0), nid(1), 100.0, 120.0).unwrap(),
            Contact::new(nid(0), nid(1), 300.0, 320.0).unwrap(),
            Contact::new(nid(1), nid(2), 500.0, 520.0).unwrap(),
        ];
        ContactTrace::from_contacts("oracle", reg, TimeWindow::new(0.0, 1000.0), contacts).unwrap()
    }

    #[test]
    fn total_contacts_counts_whole_trace() {
        let oracle = TraceOracle::from_trace(&trace());
        assert_eq!(oracle.total_contacts(nid(0)), 3);
        assert_eq!(oracle.total_contacts(nid(1)), 4);
        assert_eq!(oracle.total_contacts(nid(2)), 1);
        assert_eq!(oracle.total_contacts(nid(3)), 0);
        assert_eq!(oracle.node_count(), 4);
    }

    #[test]
    fn expected_delay_reflects_contact_frequency() {
        let oracle = TraceOracle::from_trace(&trace());
        // 3 contacts over 1000 s -> 250 s expected; 1 contact -> 500 s.
        assert!((oracle.expected_delay(nid(0), nid(1)) - 250.0).abs() < 1e-9);
        assert!((oracle.expected_delay(nid(1), nid(2)) - 500.0).abs() < 1e-9);
        assert_eq!(oracle.expected_delay(nid(0), nid(3)), f64::INFINITY);
        assert_eq!(oracle.expected_delay(nid(2), nid(2)), 0.0);
        // Symmetric.
        assert_eq!(oracle.expected_delay(nid(0), nid(1)), oracle.expected_delay(nid(1), nid(0)));
    }

    #[test]
    fn shortest_delay_uses_relays() {
        let oracle = TraceOracle::from_trace(&trace());
        // 0 and 2 never meet directly, but 0 -> 1 -> 2 gives 250 + 500.
        assert_eq!(oracle.expected_delay(nid(0), nid(2)), f64::INFINITY);
        assert!((oracle.shortest_expected_delay(nid(0), nid(2)) - 750.0).abs() < 1e-9);
        // Direct route is kept when it is best.
        assert!((oracle.shortest_expected_delay(nid(0), nid(1)) - 250.0).abs() < 1e-9);
        // Unreachable nodes stay unreachable.
        assert_eq!(oracle.shortest_expected_delay(nid(0), nid(3)), f64::INFINITY);
    }

    #[test]
    fn empty_trace_oracle() {
        let reg = NodeRegistry::with_counts(3, 0);
        let empty = ContactTrace::new("empty", reg, TimeWindow::new(0.0, 100.0));
        let oracle = TraceOracle::from_trace(&empty);
        assert_eq!(oracle.total_contacts(nid(0)), 0);
        assert_eq!(oracle.expected_delay(nid(0), nid(1)), f64::INFINITY);
        assert_eq!(oracle.shortest_expected_delay(nid(0), nid(1)), f64::INFINITY);
    }
}
