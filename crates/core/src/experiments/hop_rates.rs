//! Per-hop contact-rate analyses (Figs. 14 and 15).
//!
//! The paper's "effective forwarding" argument is that successful paths move
//! messages toward progressively higher-contact-rate nodes, so that path
//! explosion can begin as early as possible. Two pieces of evidence are
//! given:
//!
//! * Fig. 14 — the mean contact rate of the node occupying hop `h` of
//!   near-optimal paths, with 99% confidence intervals, rises over the first
//!   few hops;
//! * Fig. 15 — box plots of the rate ratio `r = λ_{next} / λ_{current}`
//!   between consecutive hops are concentrated above 1 for the early hops.
//!
//! The inputs are the near-optimal sample paths retained by the explosion
//! study (or any collection of [`Path`]s) plus the per-node contact rates.

use psn_forwarding::MessageOutcome;
use psn_spacetime::Path;
use psn_stats::{BoxPlot, ConfidenceInterval, Summary};
use psn_trace::ContactRates;

use crate::report::{Block, CellValue, Column, Scalar, Section, Table, TableStyle};

/// The per-hop rate statistics for a collection of near-optimal paths.
#[derive(Debug, Clone)]
pub struct HopRateStudy {
    /// Mean node contact rate at each hop index (0 = source), with a 99%
    /// confidence interval where at least two samples exist.
    pub mean_rate_per_hop: Vec<(usize, f64, Option<ConfidenceInterval>)>,
    /// Box plots of the contact-rate ratio between consecutive hops; entry
    /// `i` describes the ratio `rate(hop i+1) / rate(hop i)`, and the final
    /// entry describes the destination relative to the last relay.
    pub rate_ratio_per_hop: Vec<(String, BoxPlot)>,
    /// Number of paths analysed.
    pub paths: usize,
    /// First hops (source → next node, the destination included) whose
    /// rate ratio is defined, i.e. whose source has a positive rate.
    pub first_hops: usize,
    /// How many of those first hops go to a node of strictly higher rate
    /// than the source (ratio above 1).
    pub first_hops_uphill: usize,
}

impl HopRateStudy {
    /// True if the mean contact rate increases from the source over the
    /// first `hops` hops (the paper's Fig. 14 claim for the first three
    /// hops).
    pub fn rates_increase_over_first_hops(&self, hops: usize) -> bool {
        let limit = hops.min(self.mean_rate_per_hop.len().saturating_sub(1));
        (0..limit).all(|i| self.mean_rate_per_hop[i + 1].1 >= self.mean_rate_per_hop[i].1 - 1e-12)
    }

    /// Fraction of first-hop transitions that move to a higher-rate node
    /// (the paper: "nearly all of the first hops are to nodes with higher
    /// rate than the source"): [`first_hops_uphill`](Self::first_hops_uphill)
    /// over [`first_hops`](Self::first_hops), `None` without a first hop.
    /// No report section prints it.
    pub fn first_hop_uphill_fraction(&self) -> Option<f64> {
        (self.first_hops > 0).then(|| self.first_hops_uphill as f64 / self.first_hops as f64)
    }

    /// The typed Fig. 14 section: mean contact rate per hop with 99%
    /// confidence intervals.
    pub fn mean_rate_section(&self) -> Section {
        let mut table = Table::new(
            "mean_rate_per_hop",
            vec![
                Column::int("hop"),
                Column::fixed("mean_rate", 5).with_unit("contacts/s"),
                Column::fixed("ci_low", 5).with_unit("contacts/s"),
                Column::fixed("ci_high", 5).with_unit("contacts/s"),
            ],
        );
        for (hop, mean, ci) in &self.mean_rate_per_hop {
            let (lo, hi) = match ci {
                Some(ci) => (CellValue::Float(ci.low()), CellValue::Float(ci.high())),
                None => (CellValue::Missing, CellValue::Missing),
            };
            table.push_row(vec![CellValue::Int(*hop as u64), CellValue::Float(*mean), lo, hi]);
        }
        Section::new()
            .stat(Scalar::display("paths", self.paths as f64))
            .block(Block::Title(format!(
                "Figure 14 — mean contact rate per hop ({} paths)",
                self.paths
            )))
            .block(Block::Table(table))
    }

    /// [`HopRateStudy::mean_rate_section`] prefixed with the
    /// `## taken by <algorithm>` heading the Fig. 14 lower half uses for
    /// paths a forwarding algorithm actually took. The `paths` stat is
    /// qualified with the algorithm so per-algorithm counts stay distinct
    /// in sweep summaries (plain `paths` would collide across sections).
    pub fn taken_by_section(&self, algorithm: &str) -> Section {
        let mut section = self.mean_rate_section();
        section.blocks.insert(0, Block::Heading(format!("taken by {algorithm}")));
        for stat in &mut section.stats {
            if stat.name == "paths" {
                stat.name = format!("paths[{algorithm}]");
            }
        }
        section
    }

    /// The typed Fig. 15 section: rate-ratio box plots between
    /// consecutive hops.
    pub fn rate_ratio_section(&self) -> Section {
        let mut table = Table::new(
            "rate_ratio_per_hop",
            vec![
                Column::text("hop_pair"),
                Column::int("n"),
                Column::fixed("min", 3),
                Column::fixed("q1", 3),
                Column::fixed("med", 3),
                Column::fixed("q3", 3),
                Column::fixed("max", 3),
                Column::fixed("whisker_low", 3),
                Column::fixed("whisker_high", 3),
                Column::int("outliers"),
            ],
        )
        .with_style(TableStyle::BoxPlotLines);
        for (label, bp) in &self.rate_ratio_per_hop {
            table.push_row(vec![
                CellValue::Text(label.clone()),
                CellValue::Int(bp.count as u64),
                CellValue::Float(bp.min),
                CellValue::Float(bp.q1),
                CellValue::Float(bp.median),
                CellValue::Float(bp.q3),
                CellValue::Float(bp.max),
                CellValue::Float(bp.whisker_low),
                CellValue::Float(bp.whisker_high),
                CellValue::Int(bp.outliers.len() as u64),
            ]);
        }
        Section::new()
            .stat(Scalar::display("paths", self.paths as f64))
            .block(Block::Title(format!(
                "Figure 15 — contact-rate ratios between consecutive hops ({} paths)",
                self.paths
            )))
            .block(Block::Table(table))
    }
}

/// Runs the per-hop analysis over the paths *actually taken* by a
/// forwarding algorithm — the delivered-copy hop paths the simulator
/// reconstructs per message. This is the forwarding-side counterpart of the
/// enumeration-based Fig. 14/15 input: undelivered messages contribute
/// nothing.
pub fn run_hop_rate_study_on_outcomes(
    outcomes: &[MessageOutcome],
    rates: &ContactRates,
) -> HopRateStudy {
    let paths: Vec<Path> = outcomes.iter().filter_map(|o| o.path.clone()).collect();
    run_hop_rate_study(&paths, rates)
}

/// Computes the per-hop statistics from near-optimal paths and per-node
/// contact rates.
pub fn run_hop_rate_study(paths: &[Path], rates: &ContactRates) -> HopRateStudy {
    // Collect the node contact rate at each hop index.
    let max_hops = paths.iter().map(|p| p.len()).max().unwrap_or(0);
    let mut per_hop: Vec<Vec<f64>> = vec![Vec::new(); max_hops];
    for path in paths {
        for (i, node) in path.nodes().enumerate() {
            per_hop[i].push(rates.rate(node));
        }
    }

    let mean_rate_per_hop = per_hop
        .iter()
        .enumerate()
        .filter(|(_, samples)| !samples.is_empty())
        .map(|(hop, samples)| {
            let mean =
                Summary::from_slice(samples).mean().unwrap_or_else(|| unreachable!("non-empty"));
            let ci = ConfidenceInterval::from_samples(samples, 0.99).ok();
            (hop, mean, ci)
        })
        .collect();

    // Rate ratios between consecutive hops. The final transition (to the
    // destination) is labelled "Dst/Lst" like the paper's Fig. 15.
    let mut ratio_samples: Vec<Vec<f64>> = vec![Vec::new(); max_hops.saturating_sub(1)];
    let mut final_transition: Vec<f64> = Vec::new();
    let (mut first_hops, mut first_hops_uphill) = (0, 0);
    for path in paths {
        let nodes: Vec<_> = path.nodes().collect();
        for i in 0..nodes.len().saturating_sub(1) {
            let from = rates.rate(nodes[i]);
            let to = rates.rate(nodes[i + 1]);
            if from <= 0.0 {
                continue;
            }
            let ratio = to / from;
            if i == 0 {
                first_hops += 1;
                first_hops_uphill += usize::from(ratio > 1.0);
            }
            if i + 2 == nodes.len() {
                final_transition.push(ratio);
            } else {
                ratio_samples[i].push(ratio);
            }
        }
    }

    let mut rate_ratio_per_hop: Vec<(String, BoxPlot)> = ratio_samples
        .iter()
        .enumerate()
        .filter(|(_, samples)| !samples.is_empty())
        .map(|(i, samples)| {
            let label = format!("{}/{}", i + 1, i);
            (
                label,
                BoxPlot::new(samples).unwrap_or_else(|e| unreachable!("non-empty samples: {e:?}")),
            )
        })
        .collect();
    if !final_transition.is_empty() {
        rate_ratio_per_hop.push((
            "Dst/Lst".to_string(),
            BoxPlot::new(&final_transition).unwrap_or_else(|e| unreachable!("non-empty: {e:?}")),
        ));
    }

    HopRateStudy {
        mean_rate_per_hop,
        rate_ratio_per_hop,
        paths: paths.len(),
        first_hops,
        first_hops_uphill,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use psn_trace::contact::Contact;
    use psn_trace::node::{NodeClass, NodeId, NodeRegistry};
    use psn_trace::trace::{ContactTrace, TimeWindow};

    fn nid(v: u32) -> NodeId {
        NodeId(v)
    }

    /// A trace where node rates increase with node id: node 3 is the
    /// busiest, node 0 the quietest.
    fn rates() -> ContactRates {
        let mut reg = NodeRegistry::new();
        for _ in 0..4 {
            reg.add(NodeClass::Mobile);
        }
        let mut contacts = Vec::new();
        // Node 1: 2 contacts, node 2: 4 contacts, node 3: 6 contacts.
        for k in 0..2 {
            contacts.push(
                Contact::new(nid(1), nid(2), k as f64 * 10.0, k as f64 * 10.0 + 1.0).unwrap(),
            );
        }
        for k in 0..2 {
            contacts.push(
                Contact::new(nid(2), nid(3), 100.0 + k as f64 * 10.0, 101.0 + k as f64 * 10.0)
                    .unwrap(),
            );
        }
        for k in 0..4 {
            contacts.push(
                Contact::new(nid(3), nid(0), 200.0 + k as f64 * 10.0, 201.0 + k as f64 * 10.0)
                    .unwrap(),
            );
        }
        let trace =
            ContactTrace::from_contacts("hr", reg, TimeWindow::new(0.0, 1000.0), contacts).unwrap();
        ContactRates::from_trace(&trace)
    }

    fn path(nodes: &[u32]) -> Path {
        let mut p = Path::source(nid(nodes[0]), 0.0);
        for (i, &n) in nodes.iter().enumerate().skip(1) {
            p = p.extended(nid(n), i as f64 * 10.0);
        }
        p
    }

    #[test]
    fn uphill_paths_show_increasing_rates_and_ratios_above_one() {
        let rates = rates();
        // Paths climb from the quiet source 1 toward the hub 3.
        let paths = vec![path(&[1, 2, 3]), path(&[1, 2, 3]), path(&[1, 3])];
        let study = run_hop_rate_study(&paths, &rates);
        assert_eq!(study.paths, 3);
        assert!(study.rates_increase_over_first_hops(2));
        assert!(!study.mean_rate_per_hop.is_empty());
        // All transitions are uphill, so every box plot median exceeds 1.
        for (label, bp) in &study.rate_ratio_per_hop {
            assert!(bp.median > 1.0, "{label}: median {}", bp.median);
        }
        assert_eq!(study.first_hop_uphill_fraction(), Some(1.0));
        // The final transition is labelled like the paper's figure.
        assert_eq!(study.rate_ratio_per_hop.last().unwrap().0, "Dst/Lst");
    }

    #[test]
    fn confidence_intervals_need_at_least_two_samples() {
        let rates = rates();
        let study = run_hop_rate_study(&[path(&[1, 2])], &rates);
        // Single path: means exist, CIs do not.
        for (_, _, ci) in &study.mean_rate_per_hop {
            assert!(ci.is_none());
        }
    }

    #[test]
    fn empty_input_is_handled() {
        let rates = rates();
        let study = run_hop_rate_study(&[], &rates);
        assert_eq!(study.paths, 0);
        assert!(study.mean_rate_per_hop.is_empty());
        assert!(study.rate_ratio_per_hop.is_empty());
        assert_eq!(study.first_hop_uphill_fraction(), None);
        assert!(study.rates_increase_over_first_hops(3));
    }

    #[test]
    fn outcomes_feed_delivered_paths_only() {
        use psn_forwarding::MessageOutcome;
        use psn_spacetime::Message;

        let rates = rates();
        let delivered = MessageOutcome {
            message: Message::new(nid(1), nid(3), 0.0),
            delivered_at: Some(20.0),
            path: Some(path(&[1, 2, 3])),
        };
        let lost = MessageOutcome {
            message: Message::new(nid(0), nid(3), 0.0),
            delivered_at: None,
            path: None,
        };
        let study = run_hop_rate_study_on_outcomes(&[delivered.clone(), lost], &rates);
        assert_eq!(study.paths, 1);
        let direct = run_hop_rate_study(&[path(&[1, 2, 3])], &rates);
        assert_eq!(study.mean_rate_per_hop.len(), direct.mean_rate_per_hop.len());
    }

    #[test]
    fn first_hop_uphill_fraction_counts_ratios_above_one() {
        let rates = rates();
        // Contacts per node: 0: 4, 1: 2, 2: 4, 3: 6, so node 1 is the
        // quietest and node 0 ties node 2. Five first hops: 1→2 and 1→3
        // go uphill, 2→1 and 3→2 downhill, and 2→0 is a tie, not uphill:
        // 2 of 5. A quartile reading of the `1/0` box (q1 below 1, median
        // above 1) would say 0.75.
        let paths = vec![
            path(&[1, 2, 3]),
            path(&[1, 3, 2]),
            path(&[2, 1, 3]),
            path(&[3, 2, 0]),
            path(&[2, 0]),
        ];
        let study = run_hop_rate_study(&paths, &rates);
        let (label, first_box) = &study.rate_ratio_per_hop[0];
        assert_eq!(label, "1/0");
        assert!(first_box.q1 < 1.0 && first_box.median > 1.0, "{first_box:?}");
        assert_eq!((study.first_hops, study.first_hops_uphill), (5, 2));
        assert_eq!(study.first_hop_uphill_fraction(), Some(0.4));
    }

    #[test]
    fn downhill_paths_are_detected() {
        let rates = rates();
        // Paths descending from the hub toward quiet nodes.
        let paths = vec![path(&[3, 2, 1]), path(&[3, 1])];
        let study = run_hop_rate_study(&paths, &rates);
        assert!(!study.rates_increase_over_first_hops(2));
        let (_, first) = study.rate_ratio_per_hop.first().unwrap();
        assert!(first.median < 1.0);
    }
}
