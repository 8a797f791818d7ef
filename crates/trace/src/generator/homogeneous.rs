//! Homogeneous contact-trace generator.
//!
//! Implements the idealised setting of the paper's analytic model (§5.1):
//! every node's contact opportunities form a Poisson process with the same
//! intensity λ, and each opportunity picks its peer uniformly at random. In
//! trace form this is equivalent to every unordered pair contacting as an
//! independent Poisson process of rate `λ / (N − 1)`.
//!
//! The homogeneous generator is used to validate the analytic model against
//! simulation (the `model` preset of `psn-study`) and as the "no
//! heterogeneity" ablation of the trace-driven experiments.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::node::NodeRegistry;

use super::config::HomogeneousConfig;
use super::program::{Draws, DurationModel, FamilyProgram, PairProgram, PairRates};

/// The homogeneous family's setup: every node has propensity 1, so every
/// pair meets at `λ / (N − 1)`, and durations are exponential.
///
/// # Panics
///
/// Panics if the configuration asks for fewer than two nodes or a
/// non-positive rate or duration. Scenario configs reject these with a
/// typed error before they get here.
pub(crate) fn program(config: &HomogeneousConfig) -> FamilyProgram {
    assert!(config.nodes >= 2, "need at least two nodes to have contacts");
    assert!(config.node_contact_rate > 0.0, "contact rate must be positive");
    assert!(config.mean_contact_duration > 0.0, "contact duration must be positive");
    let n = config.nodes;
    FamilyProgram {
        name: format!("homogeneous-n{}-seed{}", n, config.seed),
        registry: NodeRegistry::with_counts(n, 0),
        draws: Draws::Pairs(PairProgram {
            rng: StdRng::seed_from_u64(config.seed),
            rates: PairRates {
                propensities: vec![1.0; n],
                communities: None,
                scale: config.node_contact_rate / (n as f64 - 1.0),
            },
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

    fn generate(config: &HomogeneousConfig) -> ContactTrace {
        ScenarioConfig::Homogeneous(config.clone()).generate()
    }

    fn small_config(seed: u64) -> HomogeneousConfig {
        HomogeneousConfig {
            nodes: 20,
            window_seconds: 3600.0,
            node_contact_rate: 0.02,
            mean_contact_duration: 60.0,
            seed,
        }
    }

    #[test]
    fn generates_expected_contact_volume() {
        let config = small_config(7);
        let trace = generate(&config);
        // Expected contacts: N * λ * T / 2 (each contact counted once).
        let expected = config.nodes as f64 * config.node_contact_rate * config.window_seconds / 2.0;
        let got = trace.contact_count() as f64;
        assert!((got - expected).abs() < 0.25 * expected, "expected ≈ {expected}, got {got}");
    }

    #[test]
    fn per_node_rates_are_close_to_lambda() {
        let config = HomogeneousConfig {
            nodes: 30,
            window_seconds: 7200.0,
            node_contact_rate: 0.02,
            mean_contact_duration: 30.0,
            seed: 3,
        };
        let trace = generate(&config);
        let rates = ContactRates::from_trace(&trace);
        let mean_rate: f64 = rates.rates().iter().sum::<f64>() / rates.node_count() as f64;
        assert!((mean_rate - config.node_contact_rate).abs() < 0.004, "mean rate {mean_rate}");
    }

    #[test]
    fn is_deterministic_per_seed() {
        let a = generate(&small_config(11));
        let b = generate(&small_config(11));
        assert_eq!(a.contacts(), b.contacts());
        let c = generate(&small_config(12));
        assert_ne!(a.contacts(), c.contacts());
    }

    #[test]
    fn contacts_lie_within_window() {
        let trace = generate(&small_config(5));
        let window = trace.window();
        for c in trace.contacts() {
            assert!(c.start >= window.start && c.start < window.end);
            assert!(c.end <= window.end);
            assert!(c.a != c.b);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_single_node() {
        generate(&HomogeneousConfig { nodes: 1, ..small_config(1) });
    }
}
