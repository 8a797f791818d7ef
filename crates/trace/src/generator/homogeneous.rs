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

use crate::contact::Contact;
use crate::node::{NodeClass, NodeId, NodeRegistry};
use crate::trace::{ContactTrace, TimeWindow};

use super::config::HomogeneousConfig;
use super::sampling::{exponential, poisson_process};

/// Generates a homogeneous contact trace according to `config`.
///
/// # Panics
///
/// Panics if the configuration asks for fewer than two nodes or a
/// non-positive rate/duration (these are programming errors in experiment
/// setup, not runtime conditions).
pub fn generate_homogeneous(config: &HomogeneousConfig) -> ContactTrace {
    assert!(config.nodes >= 2, "need at least two nodes to have contacts");
    assert!(config.node_contact_rate > 0.0, "contact rate must be positive");
    assert!(config.mean_contact_duration > 0.0, "contact duration must be positive");

    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.nodes;
    let pair_rate = config.node_contact_rate / (n as f64 - 1.0);
    let duration_rate = 1.0 / config.mean_contact_duration;

    let mut registry = NodeRegistry::new();
    for _ in 0..n {
        registry.add(NodeClass::Mobile);
    }

    let window = TimeWindow::new(0.0, config.window_seconds);
    let mut contacts = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            for start in poisson_process(&mut rng, pair_rate, config.window_seconds) {
                let duration = exponential(&mut rng, duration_rate);
                let end = (start + duration).min(config.window_seconds);
                contacts.push(
                    Contact::new(NodeId(i as u32), NodeId(j as u32), start, end).unwrap_or_else(
                        |e| unreachable!("generated contacts are valid by construction: {e}"),
                    ),
                );
            }
        }
    }

    ContactTrace::from_contacts(
        format!("homogeneous-n{}-seed{}", n, config.seed),
        registry,
        window,
        contacts,
    )
    .unwrap_or_else(|e| unreachable!("generated contacts lie inside the window: {e}"))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::rates::ContactRates;

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
        let trace = generate_homogeneous(&config);
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
        let trace = generate_homogeneous(&config);
        let rates = ContactRates::from_trace(&trace);
        let mean_rate: f64 = rates.rates().iter().sum::<f64>() / rates.node_count() as f64;
        assert!((mean_rate - config.node_contact_rate).abs() < 0.004, "mean rate {mean_rate}");
    }

    #[test]
    fn is_deterministic_per_seed() {
        let a = generate_homogeneous(&small_config(11));
        let b = generate_homogeneous(&small_config(11));
        assert_eq!(a.contacts(), b.contacts());
        let c = generate_homogeneous(&small_config(12));
        assert_ne!(a.contacts(), c.contacts());
    }

    #[test]
    fn contacts_lie_within_window() {
        let trace = generate_homogeneous(&small_config(5));
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
        generate_homogeneous(&HomogeneousConfig { nodes: 1, ..small_config(1) });
    }
}
