//! Community-structured contact-trace generator.
//!
//! Conference populations are not uniformly mixed: attendees cluster into
//! research communities, project groups and language groups, and contact
//! rates *within* a community exceed rates *across* communities. Related
//! work on social-aware forwarding (Hui et al., "Social-Aware Forwarding
//! Improves Routing Performance in Pocket Switched Networks") shows this
//! community structure is a first-order driver of forwarding performance,
//! which makes it an essential scenario axis beyond the paper's four
//! conference windows.
//!
//! The generator extends the propensity-product model shared by the
//! heterogeneous and conference generators with a block structure: nodes
//! are partitioned into equal-size communities, and the pairwise Poisson
//! rate of `(i, j)` is
//!
//! ```text
//! rate(i, j) = c · p_i · p_j · m(i, j),   m(i, j) = 1            (same community)
//!                                         m(i, j) = 1 / ratio    (different communities)
//! ```
//!
//! where `ratio` is the configured intra/inter contact-rate ratio and the
//! scale `c` is chosen so the busiest node's total contact rate equals
//! `max_node_rate`. `ratio = 1` recovers the plain heterogeneous generator;
//! large ratios produce tight communities bridged by rare inter-community
//! contacts, the regime where forwarding-path diversity collapses onto the
//! few bridging nodes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::node::{NodeId, NodeRegistry};
use crate::trace::ContactTrace;

use super::config::CommunityConfig;
use super::program::{Draws, DurationModel, FamilyProgram, PairProgram, PairRates};

/// The community a node belongs to under the block assignment used by the
/// generator: nodes `0 .. nodes_per_community` form community 0, the next
/// block community 1, and so on.
pub fn community_of(config: &CommunityConfig, node: NodeId) -> usize {
    node.index() / config.nodes_per_community.max(1)
}

/// The community family's setup: propensities, the block-modulated rates
/// and their scale, and log-normal durations.
///
/// # Panics
///
/// Panics on degenerate configurations (fewer than two nodes overall, a
/// non-positive rate, duration or window, or an intra/inter ratio below 1).
/// Scenario configs reject these with a typed error before they get here.
pub(crate) fn program(config: &CommunityConfig) -> FamilyProgram {
    assert!(config.communities >= 1, "need at least one community");
    assert!(config.nodes_per_community >= 1, "communities must be non-empty");
    assert!(config.total_nodes() >= 2, "need at least two nodes to have contacts");
    assert!(config.max_node_rate > 0.0, "max node rate must be positive");
    assert!(config.intra_inter_ratio >= 1.0, "intra/inter ratio must be at least 1");
    assert!(config.mean_contact_duration > 0.0, "contact duration must be positive");
    assert!(config.window_seconds > 0.0, "window must be positive");

    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.total_nodes();
    // Per-node propensities uniform with a small floor, as in the
    // heterogeneous generator, so per-node rates stay approximately uniform
    // on (0, max) *within* the community mixing structure.
    let propensities: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05..1.0)).collect();
    let labels = (0..n).map(|i| community_of(config, NodeId(i as u32))).collect();
    let mut rates = PairRates {
        propensities,
        communities: Some((labels, 1.0 / config.intra_inter_ratio)),
        scale: 0.0,
    };

    // Unscaled per-node total rates under the block-modulated product
    // model; the scale maps the maximum onto `max_node_rate`.
    let mut totals = vec![0.0f64; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let w = rates.propensities[i] * rates.propensities[j] * rates.block_weight(i, j);
            totals[i] += w;
            totals[j] += w;
        }
    }
    let max_total = totals.iter().copied().fold(0.0_f64, f64::max);
    assert!(max_total > 0.0, "community configuration produced no contact weight");
    rates.scale = config.max_node_rate / max_total;

    FamilyProgram {
        name: config.name.clone(),
        registry: NodeRegistry::with_counts(n, 0),
        draws: Draws::Pairs(PairProgram {
            rng,
            rates,
            horizon: config.window_seconds,
            duration: DurationModel::Lognormal {
                mean: config.mean_contact_duration,
                cv: config.contact_duration_cv,
            },
            thinning: None,
            scan: None,
        }),
    }
}

/// Fraction of contacts joining two nodes of the same community — the
/// simplest modularity diagnostic for generated (or real) traces.
pub fn intra_community_fraction(config: &CommunityConfig, trace: &ContactTrace) -> Option<f64> {
    if trace.is_empty() {
        return None;
    }
    let intra = trace
        .contacts()
        .iter()
        .filter(|c| community_of(config, c.a) == community_of(config, c.b))
        .count();
    Some(intra as f64 / trace.contact_count() as f64)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::rates::ContactRates;
    use crate::scenario::ScenarioConfig;

    fn generate(config: &CommunityConfig) -> ContactTrace {
        ScenarioConfig::Community(config.clone()).generate()
    }

    fn config(seed: u64, ratio: f64) -> CommunityConfig {
        CommunityConfig {
            name: format!("test-community-{seed}"),
            communities: 4,
            nodes_per_community: 10,
            window_seconds: 3600.0,
            max_node_rate: 0.03,
            intra_inter_ratio: ratio,
            mean_contact_duration: 90.0,
            contact_duration_cv: 0.8,
            seed,
        }
    }

    #[test]
    fn generates_requested_population() {
        let trace = generate(&config(1, 8.0));
        assert_eq!(trace.node_count(), 40);
        assert!(trace.contact_count() > 100, "got {}", trace.contact_count());
    }

    #[test]
    fn block_assignment_partitions_nodes() {
        let cfg = config(1, 8.0);
        assert_eq!(community_of(&cfg, NodeId(0)), 0);
        assert_eq!(community_of(&cfg, NodeId(9)), 0);
        assert_eq!(community_of(&cfg, NodeId(10)), 1);
        assert_eq!(community_of(&cfg, NodeId(39)), 3);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&config(3, 6.0));
        let b = generate(&config(3, 6.0));
        assert_eq!(a.contacts(), b.contacts());
        let c = generate(&config(4, 6.0));
        assert_ne!(a.contacts(), c.contacts());
    }

    #[test]
    fn high_ratio_concentrates_contacts_within_communities() {
        let cfg_tight = config(7, 10.0);
        let tight = generate(&cfg_tight);
        let tight_frac = intra_community_fraction(&cfg_tight, &tight).unwrap();

        let cfg_mixed = config(7, 1.0);
        let mixed = generate(&cfg_mixed);
        let mixed_frac = intra_community_fraction(&cfg_mixed, &mixed).unwrap();

        // With 4 communities of 10 nodes, uniform mixing puts ~23% of
        // contacts inside communities (9 intra peers of 39); a 10x ratio
        // must push that far up.
        assert!(
            tight_frac > mixed_frac + 0.2,
            "tight {tight_frac} vs mixed {mixed_frac}: ratio should concentrate contacts"
        );
        assert!(mixed_frac < 0.5, "uniform mixing keeps most contacts inter-community");
    }

    #[test]
    fn ratio_one_matches_uniform_mixing_rates() {
        let trace = generate(&config(11, 1.0));
        let rates = ContactRates::from_trace(&trace);
        let max_rate = rates.rates().iter().copied().fold(0.0_f64, f64::max);
        assert!(
            (max_rate - 0.03).abs() < 0.4 * 0.03,
            "max rate {max_rate} should track the configured maximum"
        );
    }

    #[test]
    fn rates_remain_heterogeneous_within_communities() {
        let trace = generate(&config(13, 5.0));
        let rates = ContactRates::from_trace(&trace);
        let summary = rates.count_summary();
        let cv = summary.std_dev().unwrap() / summary.mean().unwrap();
        assert!(cv > 0.25, "cv = {cv}");
    }

    #[test]
    #[should_panic]
    fn rejects_ratio_below_one() {
        generate(&CommunityConfig { intra_inter_ratio: 0.5, ..config(1, 1.0) });
    }

    #[test]
    #[should_panic]
    fn rejects_single_node() {
        generate(&CommunityConfig { communities: 1, nodes_per_community: 1, ..config(1, 2.0) });
    }
}
