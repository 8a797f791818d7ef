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
    /// All-pairs shortest expected delay through relays (Floyd–Warshall over
    /// the direct expected delays of [`direct_delays`]).
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
        Self::take_from_summary(&mut ContactSummary::from_trace(trace))
    }

    /// Builds the oracle from already-folded contact counts, taking over
    /// `pair_counts` — the symmetric `n * n` row-major per-pair count
    /// matrix — as the buffer of its delay matrix: the `n²` counts become
    /// the `n²` delays in place, so the oracle never holds a second `n²`
    /// table.
    ///
    /// # Panics
    ///
    /// Panics if `pair_counts` is not `n * n` for `n = total_contacts.len()`,
    /// or is not symmetric (the shortest-delay pass relaxes one triangle
    /// and mirrors it).
    pub fn from_counts(window: Seconds, total_contacts: Vec<u64>, pair_counts: Vec<u64>) -> Self {
        let n = total_contacts.len();
        assert_eq!(pair_counts.len(), n * n, "pair-count matrix must be node_count^2");
        assert!(
            (0..n).all(|i| (0..i).all(|j| pair_counts[i * n + j] == pair_counts[j * n + i])),
            "pair-count matrix must be symmetric"
        );
        let shortest_delay = shortest_delays(direct_delays(window, pair_counts, n), n);
        Self { node_count: n, total_contacts, shortest_delay }
    }

    /// Builds the oracle from a [`ContactSummary`], folded from a trace or a
    /// contact stream, copying its pair-count matrix; a caller that owns
    /// the summary and is done with the matrix should use
    /// [`TraceOracle::take_from_summary`] instead.
    ///
    /// # Panics
    ///
    /// Panics if the summary skipped its pair-count matrix
    /// ([`ContactSummary::rates_only`]).
    pub fn from_summary(summary: &ContactSummary) -> Self {
        Self::from_counts(
            summary.window().duration(),
            summary.per_node_counts().to_vec(),
            summary.pair_counts().to_vec(),
        )
    }

    /// Builds the oracle from a [`ContactSummary`], taking its pair-count
    /// matrix ([`ContactSummary::take_pair_counts`]) as the delay matrix's
    /// buffer. The summary is left rates-only; its per-node counts, window
    /// and time series stay readable.
    ///
    /// # Panics
    ///
    /// As [`TraceOracle::from_summary`].
    pub fn take_from_summary(summary: &mut ContactSummary) -> Self {
        let (window, totals) = (summary.window().duration(), summary.per_node_counts().to_vec());
        Self::from_counts(window, totals, summary.take_pair_counts())
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

    /// Minimum expected delay from `a` to `b` allowing relays — the Dynamic
    /// Programming algorithm's routing metric.
    pub fn shortest_expected_delay(&self, a: NodeId, b: NodeId) -> Seconds {
        self.shortest_delay[a.index() * self.node_count + b.index()]
    }
}

/// The `n * n` direct expected-delay matrix: `window / (k + 1)` for a pair
/// with `k ≥ 1` contacts, infinite for pairs that never meet, zero on the
/// diagonal. Symmetric when `pair_counts` is. `u64` and `f64` have the same
/// size and alignment, so the collect writes the delays into the count
/// buffer instead of allocating a new one.
fn direct_delays(window: Seconds, pair_counts: Vec<u64>, n: usize) -> Vec<f64> {
    pair_counts
        .into_iter()
        .enumerate()
        .map(|(cell, k)| {
            if cell % (n + 1) == 0 {
                0.0
            } else if k > 0 {
                window / (k as f64 + 1.0)
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// Phases per block: the block's pivot rows (`BLOCK * n` f64, 250 KiB at
/// n = 1000) stay in cache while every row of the matrix streams through
/// them once per block instead of once per phase.
const BLOCK: usize = 32;

/// Phases fused into one pass over a row: each cell is loaded and stored
/// once per `FUSE` phases.
const FUSE: usize = 8;

/// Floyd–Warshall over the symmetric `n * n` direct-delay matrix, in place:
/// the minimum expected delay of a relay path is approximated by the sum of
/// per-hop expected delays (the MEED-style objective).
///
/// Only the upper triangle (`j ≥ i`) is relaxed, phases are applied a block
/// at a time, and the triangle is mirrored at the end. The result is
/// bit-identical to the full in-place triple loop:
///
/// * The matrix stays exactly symmetric through every phase. Phase `k`
///   sets `d[i][j] = min(d[i][j], d[i][k] + d[k][j])` and
///   `d[j][i] = min(d[j][i], d[j][k] + d[k][i])`; with a symmetric input
///   both candidates are the same two operands, and IEEE addition
///   commutes, so both cells get the same bits. Hence `d[i][k] = d[k][i]`
///   at every phase, and the full row `k` can be gathered from column `k`
///   above the diagonal and row `k` from it on.
/// * `d[k][k] = 0` leaves row and column `k` fixed during phase `k`
///   (`0 + x = x`, and delays are non-negative, so the diagonal stays
///   zero). Row `k` as it stands just before phase `k` therefore feeds
///   every relaxation of the phase, `d[i][k]` included (its entry `i`),
///   exactly as the in-place loop reads them.
/// * Each block of phases `k0..k1` first builds those rows. Pivot row `k`
///   is gathered in full as of phase `k0 - 1` and advanced through the
///   block's phases `k0..k` in ascending order, each fed by an earlier,
///   already final pivot row; advancing stops before phase `k`, so the
///   row is frozen as it stands just before its own phase. Then every row
///   `i` relaxes its upper triangle through phases `k0..k1` in ascending
///   order, `FUSE` phases per pass, taking `d[i][k]` from pivot row `k` at
///   entry `i`. Every cell thus sees the same sequence `x = min(x, ik +
///   kj)` with the same operands, in ascending `k`, as in the triple loop.
///   (Within a block the operands are fixed before any cell moves, so the
///   order of its phases would not change the bits either: a minimum over
///   the same non-NaN candidates is the same whichever comes first. What
///   matters is that every pivot row is frozen before its own phase.)
/// * `if c < x { c } else { x }` keeps the incumbent on ties, like the
///   in-place strict `<` update, and compiles to a branch-free minimum
///   over contiguous slices. Skipping a phase with an infinite `d[i][k]` is
///   exact: every candidate of that phase is infinite and never wins.
fn shortest_delays(mut d: Vec<f64>, n: usize) -> Vec<f64> {
    let mut pivots = vec![0.0; BLOCK.min(n) * n];
    for k0 in (0..n).step_by(BLOCK) {
        let block = &mut pivots[..BLOCK.min(n - k0) * n];
        for r in 0..block.len() / n {
            let k = k0 + r;
            let (done, rest) = block.split_at_mut(r * n);
            let row = &mut rest[..n];
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = if j < k { d[j * n + k] } else { d[k * n + j] };
            }
            let phases: Vec<(f64, &[f64])> = done
                .chunks_exact(n)
                .filter(|pivot| !pivot[k].is_infinite())
                .map(|pivot| (pivot[k], pivot))
                .collect();
            relax(row, &phases);
        }
        let block = &*block;
        let mut phases = Vec::with_capacity(BLOCK);
        for (i, row) in d.chunks_exact_mut(n).enumerate() {
            phases.clear();
            phases.extend(
                block
                    .chunks_exact(n)
                    .filter(|pivot| !pivot[i].is_infinite())
                    .map(|pivot| (pivot[i], &pivot[i..])),
            );
            relax(&mut row[i..], &phases);
        }
    }
    for i in 0..n {
        for j in 0..i {
            d[i * n + j] = d[j * n + i];
        }
    }
    d
}

/// Relaxes `row` through `phases` in order: for each `(ik, kj)`, every cell
/// takes `x = min(x, ik + kj[j])`, keeping `x` on ties. `FUSE` phases share
/// one pass over the row.
fn relax(row: &mut [f64], phases: &[(f64, &[f64])]) {
    let len = row.len();
    let mut fused = phases.chunks_exact(FUSE);
    for group in &mut fused {
        let ik: [f64; FUSE] = std::array::from_fn(|f| group[f].0);
        let kj: [&[f64]; FUSE] = std::array::from_fn(|f| &group[f].1[..len]);
        for (j, x) in row.iter_mut().enumerate() {
            let mut v = *x;
            for f in 0..FUSE {
                let c = ik[f] + kj[f][j];
                v = if c < v { c } else { v };
            }
            *x = v;
        }
    }
    for &(ik, kj) in fused.remainder() {
        for (x, &kj) in row.iter_mut().zip(kj) {
            let c = ik + kj;
            *x = if c < *x { c } else { *x };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psn_trace::contact::Contact;
    use psn_trace::generator::config::ScaledConfig;
    use psn_trace::node::{NodeClass, NodeRegistry};
    use psn_trace::trace::TimeWindow;
    use psn_trace::ScenarioConfig;

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

    /// The direct expected-delay matrix of `trace`, as the oracle builds it.
    fn trace_direct(trace: &ContactTrace) -> Vec<f64> {
        let mut summary = ContactSummary::from_trace(trace);
        direct_delays(summary.window().duration(), summary.take_pair_counts(), trace.node_count())
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
        let direct = trace_direct(&trace());
        let at = |a: usize, b: usize| direct[a * 4 + b];
        // 3 contacts over 1000 s -> 250 s expected; 1 contact -> 500 s.
        assert!((at(0, 1) - 250.0).abs() < 1e-9);
        assert!((at(1, 2) - 500.0).abs() < 1e-9);
        assert_eq!(at(0, 3), f64::INFINITY);
        assert_eq!(at(2, 2), 0.0);
        // Symmetric.
        assert_eq!(at(0, 1), at(1, 0));
    }

    #[test]
    fn shortest_delay_uses_relays() {
        let oracle = TraceOracle::from_trace(&trace());
        // 0 and 2 never meet directly, but 0 -> 1 -> 2 gives 250 + 500.
        assert_eq!(trace_direct(&trace())[2], f64::INFINITY);
        assert!((oracle.shortest_expected_delay(nid(0), nid(2)) - 750.0).abs() < 1e-9);
        // Direct route is kept when it is best.
        assert!((oracle.shortest_expected_delay(nid(0), nid(1)) - 250.0).abs() < 1e-9);
        // Unreachable nodes stay unreachable.
        assert_eq!(oracle.shortest_expected_delay(nid(0), nid(3)), f64::INFINITY);
    }

    /// The per-cell loop that filled a fresh direct-delay matrix before the
    /// oracle converted the count buffer in place, kept as the reference
    /// for the conversion.
    fn direct_delays_reference(window: Seconds, pair_counts: &[u64], n: usize) -> Vec<f64> {
        let mut direct = vec![f64::INFINITY; n * n];
        for i in 0..n {
            for j in 0..n {
                let k = pair_counts[i * n + j];
                if i == j {
                    direct[i * n + j] = 0.0;
                } else if k > 0 {
                    direct[i * n + j] = window / (k as f64 + 1.0);
                }
            }
        }
        direct
    }

    /// The full in-place triple loop the blocked half-matrix pass replaced,
    /// kept as the bit-level reference.
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

    /// Checks the oracle built from owned `counts` against the two
    /// references bit for bit, and that its delay matrix lives in the count
    /// buffer; returns how many cells a relay path improved.
    fn assert_matches_reference(window: Seconds, counts: Vec<u64>, n: usize, label: &str) -> usize {
        let totals: Vec<u64> = (0..n).map(|i| counts[i * n..(i + 1) * n].iter().sum()).collect();
        let direct = direct_delays_reference(window, &counts, n);
        let reference = shortest_delays_reference(&direct, n);
        let buffer = counts.as_ptr() as usize;
        let oracle = TraceOracle::from_counts(window, totals, counts);
        if n > 0 {
            assert_eq!(
                oracle.shortest_delay.as_ptr() as usize,
                buffer,
                "{label}: a second n² buffer"
            );
        }
        let mut relayed = 0;
        for a in (0..n as u32).map(NodeId) {
            for b in (0..n as u32).map(NodeId) {
                let cell = a.index() * n + b.index();
                let got = oracle.shortest_expected_delay(a, b);
                assert_eq!(
                    got.to_bits(),
                    reference[cell].to_bits(),
                    "{label} ({a:?}, {b:?}): {got} vs {}",
                    reference[cell]
                );
                relayed += usize::from(got < direct[cell]);
            }
        }
        relayed
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
        // Sizes on both sides of the block and fuse edges.
        let sizes = [
            0,
            1,
            2,
            3,
            FUSE + 1,
            BLOCK - 1,
            BLOCK,
            BLOCK + 1,
            2 * BLOCK + 3,
            63,
            64,
            65,
            130,
            257,
        ];
        for n in sizes {
            for seed in 0..3u64 {
                let counts = random_counts(seed * 1000 + n as u64, n);
                let label = format!("n={n} seed={seed}");
                relayed += assert_matches_reference(10_799.7, counts, n, &label);
            }
        }
        // The matrices exercise relay paths, not just direct delays.
        assert!(relayed > 1000, "only {relayed} relayed cells");
    }

    #[test]
    fn scaled_scenario_oracle_is_bit_identical_to_the_full_triple_loop() {
        let scenario = ScenarioConfig::Scaled(ScaledConfig {
            name: "oracle-scaled".to_string(),
            nodes: 2 * BLOCK + 11,
            window_seconds: 1800.0,
            seed: 17,
            ..ScaledConfig::default()
        });
        let summary = ContactSummary::from_trace(&scenario.generate());
        let n = summary.per_node_counts().len();
        let window = summary.window().duration();
        let counts = summary.pair_counts().to_vec();
        let relayed = assert_matches_reference(window, counts, n, "scaled");
        assert!(relayed > 100, "only {relayed} relayed cells");
    }

    #[test]
    fn delay_matrix_reuses_the_count_buffer() {
        // The oracle's one n² table is the summary's count matrix, turned
        // into delays in place: the taking path keeps its address, and the
        // copying path gives the same bits.
        let scenario = ScenarioConfig::Scaled(ScaledConfig {
            name: "oracle-buffer".to_string(),
            nodes: BLOCK + 7,
            window_seconds: 1200.0,
            seed: 3,
            ..ScaledConfig::default()
        });
        let mut summary = ContactSummary::from_trace(&scenario.generate());
        let copied = TraceOracle::from_summary(&summary);
        let buffer = summary.pair_counts().as_ptr() as usize;
        let taken = TraceOracle::take_from_summary(&mut summary);
        assert_eq!(taken.shortest_delay.as_ptr() as usize, buffer, "a second n² buffer");
        assert!(summary.pair_counts().is_empty(), "the summary gave its matrix away");
        assert_eq!(taken.total_contacts, copied.total_contacts);
        let bits =
            |o: &TraceOracle| o.shortest_delay.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&taken), bits(&copied));
    }

    #[test]
    #[should_panic(expected = "pair-count matrix must be symmetric")]
    fn asymmetric_pair_counts_are_rejected() {
        let counts = vec![0, 2, 0, 1, 0, 0, 0, 0, 0];
        TraceOracle::from_counts(100.0, vec![2, 1, 0], counts);
    }

    #[test]
    fn empty_trace_oracle() {
        let reg = NodeRegistry::with_counts(3, 0);
        let empty = ContactTrace::new("empty", reg, TimeWindow::new(0.0, 100.0));
        let oracle = TraceOracle::from_trace(&empty);
        assert_eq!(oracle.total_contacts(nid(0)), 0);
        assert_eq!(trace_direct(&empty)[1], f64::INFINITY);
        assert_eq!(oracle.shortest_expected_delay(nid(0), nid(1)), f64::INFINITY);
    }
}
