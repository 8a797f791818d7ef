//! Heterogeneous contact-trace generator.
//!
//! The paper's central empirical observation (§5.2, Fig. 7) is that per-node
//! contact rates are *not* homogeneous: the distribution of per-node contact
//! counts over a 3-hour window is approximately uniform on `(0, max)`. Some
//! nodes meet hundreds of others, some almost none.
//!
//! This generator reproduces that structure with a simple multiplicative
//! model: each node `i` is assigned a contact *propensity* `p_i` drawn
//! uniformly from `(0, 1)`, and the pairwise contact process of `(i, j)` is
//! Poisson with rate proportional to `p_i · p_j`. The proportionality
//! constant is chosen so that the *maximum* per-node rate matches the
//! configured `max_node_rate`; per-node total rates then inherit an
//! approximately uniform distribution because `λ_i = c · p_i · Σ_{j≠i} p_j`
//! is linear in `p_i`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::node::NodeRegistry;

use super::config::HeterogeneousConfig;
use super::program::{max_rate_scale, Draws, DurationModel, FamilyProgram, PairProgram, PairRates};

/// The heterogeneous family's setup: propensities, the max-rate scale and
/// exponential durations.
///
/// # Panics
///
/// Panics on degenerate configurations (fewer than two nodes, non-positive
/// rates or durations). Scenario configs reject these with a typed error
/// before they get here.
pub(crate) fn program(config: &HeterogeneousConfig) -> FamilyProgram {
    assert!(config.nodes >= 2, "need at least two nodes to have contacts");
    assert!(config.max_node_rate > 0.0, "max node rate must be positive");
    assert!(config.mean_contact_duration > 0.0, "contact duration must be positive");

    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.nodes;
    // Per-node propensities uniform on (0, 1); a tiny floor avoids
    // completely isolated nodes, like the real traces where even the
    // quietest device logs at least a handful of contacts.
    let propensities: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..1.0)).collect();
    let scale = max_rate_scale(&propensities, config.max_node_rate);
    FamilyProgram {
        name: format!("heterogeneous-n{}-seed{}", n, config.seed),
        registry: NodeRegistry::with_counts(n, 0),
        draws: Draws::Pairs(PairProgram {
            rng,
            rates: PairRates { propensities, communities: None, scale },
            horizon: config.window_seconds,
            duration: DurationModel::Exponential { rate: 1.0 / config.mean_contact_duration },
            thinning: None,
            scan: None,
        }),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::rates::ContactRates;
    use crate::scenario::ScenarioConfig;
    use crate::trace::ContactTrace;
    use psn_stats::Summary;

    fn generate(config: &HeterogeneousConfig) -> ContactTrace {
        ScenarioConfig::Heterogeneous(config.clone()).generate()
    }

    fn config(seed: u64) -> HeterogeneousConfig {
        HeterogeneousConfig {
            nodes: 60,
            window_seconds: 3.0 * 3600.0,
            max_node_rate: 0.04,
            mean_contact_duration: 90.0,
            seed,
        }
    }

    #[test]
    fn rates_are_heterogeneous() {
        let trace = generate(&config(2));
        let rates = ContactRates::from_trace(&trace);
        let summary = Summary::from_slice(rates.rates());
        let mean = summary.mean().unwrap();
        let sd = summary.std_dev().unwrap();
        // Uniform-like spread: coefficient of variation well above the
        // Poisson-only noise level of a homogeneous population.
        assert!(sd / mean > 0.3, "cv = {}", sd / mean);
    }

    #[test]
    fn count_distribution_is_roughly_uniform() {
        let trace = generate(&config(5));
        let rates = ContactRates::from_trace(&trace);
        let ks = rates.uniformity_ks().unwrap();
        assert!(ks < 0.25, "KS distance to uniform = {ks}");
    }

    #[test]
    fn max_rate_is_close_to_configured_maximum() {
        let cfg = config(9);
        let trace = generate(&cfg);
        let rates = ContactRates::from_trace(&trace);
        let max_rate = rates.rates().iter().copied().fold(0.0_f64, f64::max);
        assert!(
            (max_rate - cfg.max_node_rate).abs() < 0.4 * cfg.max_node_rate,
            "max rate {max_rate} vs configured {}",
            cfg.max_node_rate
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&config(3));
        let b = generate(&config(3));
        assert_eq!(a.contacts(), b.contacts());
    }

    #[test]
    fn in_out_split_is_balanced() {
        let trace = generate(&config(4));
        let rates = ContactRates::from_trace(&trace);
        let in_count = rates.in_nodes().len();
        let out_count = rates.out_nodes().len();
        assert_eq!(in_count + out_count, 60);
        // The median split should be close to half/half.
        assert!((in_count as i64 - out_count as i64).abs() <= 2);
    }

    #[test]
    #[should_panic]
    fn rejects_degenerate_config() {
        generate(&HeterogeneousConfig { nodes: 0, ..config(1) });
    }
}
