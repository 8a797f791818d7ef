//! Scaled-population contact-trace generator (500–5000 nodes).
//!
//! The paper's evaluation stops at 98 devices, but the engines built on top
//! of this crate (arena path enumeration, whose membership checks are exact
//! at any node count, the sharded parallel forwarding simulator) are
//! designed for far larger populations. This generator produces traces at that scale
//! while preserving the paper's key empirical structure — per-node contact
//! rates approximately uniform on `(min, max)` (Fig. 7) — via *propensity
//! scaling*: per-node propensities keep the same distribution as the
//! population grows, and pairwise rates are normalised so the busiest
//! node's total rate stays at `max_node_rate` regardless of `N`.
//!
//! Naively sampling every one of the `N·(N−1)/2` pairwise Poisson
//! processes is `O(N²)` RNG work even though almost every pair never
//! meets at 5000 nodes. The generator instead samples the *aggregate*
//! superposition process once — `Poisson(c · Σ_{i<j} p_i p_j)` arrivals
//! over the window — and attributes each arrival to a pair with
//! probability proportional to `p_i · p_j` (inverse-CDF draws over the
//! propensity prefix sums, rejecting self-pairs). The two formulations are
//! exactly equivalent in distribution, but this one is
//! `O(contacts · log N)`, which is what makes 5000-node traces cheap to
//! generate.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::contact::Contact;
use crate::node::{NodeId, NodeRegistry};
use crate::trace::{ContactTrace, TimeWindow};

use super::config::ScaledConfig;
use super::sampling::exponential;

/// Draws a node index with probability proportional to its propensity,
/// using inverse-CDF sampling over the prefix-sum array.
pub(crate) fn sample_node<R: Rng + ?Sized>(rng: &mut R, prefix: &[f64]) -> usize {
    let total = *prefix.last().unwrap_or_else(|| unreachable!("at least one node"));
    let u = rng.gen_range(0.0..total);
    // First index whose cumulative propensity exceeds the draw.
    prefix.partition_point(|&cum| cum <= u).min(prefix.len() - 1)
}

/// Generates a scaled-population contact trace according to `config`.
///
/// # Panics
///
/// Panics on degenerate configurations (fewer than two nodes, non-positive
/// rates, durations or window, min rate not below max rate).
pub fn generate_scaled(config: &ScaledConfig) -> ContactTrace {
    assert!(config.nodes >= 2, "need at least two nodes to have contacts");
    assert!(config.max_node_rate > 0.0, "max node rate must be positive");
    assert!(
        config.min_node_rate >= 0.0 && config.min_node_rate < config.max_node_rate,
        "min node rate must be in [0, max_node_rate)"
    );
    assert!(config.mean_contact_duration > 0.0, "contact duration must be positive");
    assert!(config.window_seconds > 0.0, "window must be positive");

    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.nodes;

    // Propensities keep the same uniform-with-floor distribution at every
    // population size; the floor keeps even the quietest node reachable.
    let floor = (config.min_node_rate / config.max_node_rate).max(1e-3);
    let propensities: Vec<f64> = (0..n).map(|_| rng.gen_range(floor..1.0)).collect();

    // Scale so the busiest node's total rate is max_node_rate (the same
    // normalisation as the heterogeneous/conference generators).
    let total: f64 = propensities.iter().sum();
    let max_unscaled = propensities.iter().map(|&p| p * (total - p)).fold(0.0_f64, f64::max);
    let scale = config.max_node_rate / max_unscaled;

    // Aggregate rate of the superposed pair processes:
    //   c · Σ_{i<j} p_i p_j = c · (S² − Σ p²) / 2.
    let sum_sq: f64 = propensities.iter().map(|&p| p * p).sum();
    let aggregate_rate = scale * (total * total - sum_sq) / 2.0;

    let mut prefix = Vec::with_capacity(n);
    let mut acc = 0.0;
    for &p in &propensities {
        acc += p;
        prefix.push(acc);
    }

    let duration_rate = 1.0 / config.mean_contact_duration;
    let mut contacts = Vec::new();
    // Arrival times of the aggregate process, generated sequentially (so
    // they arrive sorted); each is attributed to an ordered pair drawn
    // ∝ p_i · p_j with self-pairs rejected (both indices are redrawn, which
    // keeps the conditional pair distribution exact).
    let mut t = 0.0;
    loop {
        t += exponential(&mut rng, aggregate_rate);
        if t >= config.window_seconds {
            break;
        }
        let (i, j) = loop {
            let i = sample_node(&mut rng, &prefix);
            let j = sample_node(&mut rng, &prefix);
            if i != j {
                break (i, j);
            }
        };
        let duration = exponential(&mut rng, duration_rate);
        let end = (t + duration).min(config.window_seconds);
        contacts.push(
            Contact::new(NodeId(i as u32), NodeId(j as u32), t, end).unwrap_or_else(|e| {
                unreachable!("generated contacts are valid by construction: {e}")
            }),
        );
    }

    ContactTrace::from_contacts(
        config.name.clone(),
        NodeRegistry::with_counts(n, 0),
        TimeWindow::new(0.0, config.window_seconds),
        contacts,
    )
    .unwrap_or_else(|e| unreachable!("generated contacts lie inside the window: {e}"))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::rates::ContactRates;

    fn config(nodes: usize, seed: u64) -> ScaledConfig {
        ScaledConfig {
            name: format!("test-scaled-{nodes}-{seed}"),
            nodes,
            window_seconds: 1800.0,
            max_node_rate: 0.04,
            min_node_rate: 0.0006,
            mean_contact_duration: 90.0,
            seed,
        }
    }

    #[test]
    fn generates_large_population_quickly() {
        let trace = generate_scaled(&config(500, 1));
        assert_eq!(trace.node_count(), 500);
        assert!(trace.contact_count() > 1000, "got {}", trace.contact_count());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_scaled(&config(120, 3));
        let b = generate_scaled(&config(120, 3));
        assert_eq!(a.contacts(), b.contacts());
        let c = generate_scaled(&config(120, 4));
        assert_ne!(a.contacts(), c.contacts());
    }

    #[test]
    fn contacts_are_time_sorted_and_in_window() {
        let trace = generate_scaled(&config(150, 5));
        let mut last = 0.0;
        for c in trace.contacts() {
            assert!(c.start >= last);
            assert!(c.start < 1800.0 && c.end <= 1800.0);
            assert!(c.a != c.b);
            last = c.start;
        }
    }

    #[test]
    fn per_node_rates_stay_uniform_like_as_population_grows() {
        for nodes in [100usize, 400] {
            let trace =
                generate_scaled(&ScaledConfig { window_seconds: 3600.0, ..config(nodes, 9) });
            let rates = ContactRates::from_trace(&trace);
            let ks = rates.uniformity_ks().unwrap();
            assert!(ks < 0.25, "n={nodes}: KS distance to uniform = {ks}");
        }
    }

    #[test]
    fn busiest_node_tracks_configured_maximum() {
        let cfg = ScaledConfig { window_seconds: 3600.0, ..config(300, 7) };
        let trace = generate_scaled(&cfg);
        let rates = ContactRates::from_trace(&trace);
        let max_rate = rates.rates().iter().copied().fold(0.0_f64, f64::max);
        assert!(
            (max_rate - cfg.max_node_rate).abs() < 0.4 * cfg.max_node_rate,
            "max rate {max_rate} vs configured {}",
            cfg.max_node_rate
        );
    }

    #[test]
    fn aggregate_volume_matches_pairwise_formulation() {
        // The aggregate sampler must reproduce the contact volume of the
        // O(N²) per-pair formulation used by the heterogeneous generator
        // (both are max-rate-normalised propensity-product models with a
        // near-identical propensity distribution, so equal N, window and
        // max rate must give volumes within sampling noise of each other).
        use crate::generator::config::HeterogeneousConfig;
        use crate::generator::heterogeneous::generate_heterogeneous;

        let cfg = ScaledConfig { window_seconds: 7200.0, min_node_rate: 0.0, ..config(200, 11) };
        let scaled = generate_scaled(&cfg).contact_count() as f64;
        let pairwise = generate_heterogeneous(&HeterogeneousConfig {
            nodes: cfg.nodes,
            window_seconds: cfg.window_seconds,
            max_node_rate: cfg.max_node_rate,
            mean_contact_duration: cfg.mean_contact_duration,
            seed: 11,
        })
        .contact_count() as f64;
        let ratio = scaled / pairwise;
        assert!((0.8..1.25).contains(&ratio), "scaled {scaled} vs pairwise {pairwise}");
    }

    #[test]
    #[should_panic]
    fn rejects_min_rate_above_max() {
        generate_scaled(&ScaledConfig { min_node_rate: 0.1, ..config(10, 1) });
    }
}
