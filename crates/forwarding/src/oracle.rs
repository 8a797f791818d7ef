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
    /// Panics if `pair_counts` is not `n * n` for `n = total_contacts.len()`,
    /// or is not symmetric (the shortest-delay pass relaxes one triangle
    /// and mirrors it).
    pub fn from_counts(window: Seconds, total_contacts: Vec<u64>, pair_counts: &[u64]) -> Self {
        let n = total_contacts.len();
        assert_eq!(pair_counts.len(), n * n, "pair-count matrix must be node_count^2");
        assert!(
            (0..n).all(|i| (0..i).all(|j| pair_counts[i * n + j] == pair_counts[j * n + i])),
            "pair-count matrix must be symmetric"
        );

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

        let shortest = shortest_delays(&expected_delay, n);
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

/// Floyd–Warshall over the symmetric `n * n` direct-delay matrix: the
/// minimum expected delay of a relay path is approximated by the sum of
/// per-hop expected delays (the MEED-style objective).
///
/// Only the upper triangle (`j ≥ i`) is relaxed, then mirrored, and the
/// result is bit-identical to the full in-place triple loop:
///
/// * The matrix stays exactly symmetric through every phase. Phase `k`
///   sets `d[i][j] = min(d[i][j], d[i][k] + d[k][j])` and
///   `d[j][i] = min(d[j][i], d[j][k] + d[k][i])`; with a symmetric input
///   both candidates are the same two operands, and IEEE addition
///   commutes, so both cells get the same bits.
/// * `d[k][k] = 0` leaves row and column `k` fixed during phase `k`
///   (`0 + x = x`, and delays are non-negative, so the diagonal stays
///   zero). One copy of row `k`, gathered before the phase from column
///   `k` above the diagonal and row `k` from it on, therefore feeds
///   every relaxation of the phase exactly as the in-place loop reads
///   it.
/// * `if c < x { c } else { x }` keeps the incumbent on ties, like the
///   in-place strict `<` update, and compiles to a branch-free minimum
///   over contiguous slices. Skipping rows with an infinite `d[i][k]` is
///   exact: every candidate of such a row is infinite and never wins.
fn shortest_delays(direct: &[f64], n: usize) -> Vec<f64> {
    let mut d = direct.to_vec();
    let mut row_k = vec![0.0; n];
    for k in 0..n {
        for (j, slot) in row_k.iter_mut().enumerate() {
            *slot = if j < k { d[j * n + k] } else { d[k * n + j] };
        }
        for i in 0..n {
            let ik = row_k[i];
            if ik.is_infinite() {
                continue;
            }
            for (x, &kj) in d[i * n + i..(i + 1) * n].iter_mut().zip(&row_k[i..]) {
                let c = ik + kj;
                *x = if c < *x { c } else { *x };
            }
        }
    }
    for i in 0..n {
        for j in 0..i {
            d[i * n + j] = d[j * n + i];
        }
    }
    d
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

    /// The full in-place triple loop the half-matrix pass replaced, kept as
    /// the bit-level reference.
    fn shortest_delays_reference(direct: &[f64], n: usize) -> Vec<f64> {
        let mut shortest = direct.to_vec();
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
        shortest
    }

    /// A seeded random symmetric count matrix over `n` nodes: nodes fall
    /// into three components that never meet each other, about one in ten
    /// is isolated, and pair counts are log-uniform over 1..10⁴ so relay
    /// sums mix magnitudes and round differently.
    fn random_counts(seed: u64, n: usize) -> Vec<u64> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let component: Vec<Option<u32>> =
            (0..n).map(|_| (!rng.gen_bool(0.1)).then(|| rng.gen_range(0..3u32))).collect();
        let mut counts = vec![0u64; n * n];
        for i in 0..n {
            for j in 0..i {
                if component[i].is_some() && component[i] == component[j] && rng.gen_bool(0.3) {
                    let k = 10f64.powf(rng.gen_range(0.0..4.0)) as u64;
                    counts[i * n + j] = k.max(1);
                    counts[j * n + i] = k.max(1);
                }
            }
        }
        counts
    }

    #[test]
    fn half_matrix_pass_is_bit_identical_to_the_full_triple_loop() {
        let mut relayed = 0usize;
        for n in [0usize, 1, 2, 63, 64, 65, 130] {
            for seed in 0..3u64 {
                let counts = random_counts(seed * 1000 + n as u64, n);
                let totals: Vec<u64> =
                    (0..n).map(|i| counts[i * n..(i + 1) * n].iter().sum()).collect();
                let oracle = TraceOracle::from_counts(10_799.7, totals, &counts);
                let ids = || (0..n as u32).map(NodeId);
                let direct: Vec<f64> = ids()
                    .flat_map(|a| ids().map(move |b| (a, b)))
                    .map(|(a, b)| oracle.expected_delay(a, b))
                    .collect();
                let reference = shortest_delays_reference(&direct, n);
                for a in ids() {
                    for b in ids() {
                        let cell = a.index() * n + b.index();
                        let got = oracle.shortest_expected_delay(a, b);
                        assert_eq!(
                            got.to_bits(),
                            reference[cell].to_bits(),
                            "n={n} seed={seed} ({a:?}, {b:?}): {got} vs {}",
                            reference[cell]
                        );
                        relayed += usize::from(got < direct[cell]);
                    }
                }
            }
        }
        // The matrices exercise relay paths, not just direct delays.
        assert!(relayed > 1000, "only {relayed} relayed cells");
    }

    #[test]
    #[should_panic(expected = "pair-count matrix must be symmetric")]
    fn asymmetric_pair_counts_are_rejected() {
        let counts = [0, 2, 0, 1, 0, 0, 0, 0, 0];
        TraceOracle::from_counts(100.0, vec![2, 1, 0], &counts);
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
