//! Conference contact-trace generator — the stand-in for the iMote datasets.
//!
//! The paper's datasets were collected at Infocom 2006 and CoNEXT 2006: 98
//! Bluetooth devices, of which roughly 20 were placed at fixed locations
//! around the venue and the rest carried by participants, observed over
//! selected 3-hour windows with approximately stable aggregate contact
//! activity.
//!
//! [`ConferenceTraceGenerator`] produces synthetic traces with the same
//! structure:
//!
//! * mobile nodes get contact propensities drawn uniformly, so per-node
//!   contact counts are approximately uniform on `(0, max)` (Fig. 7);
//! * stationary nodes get a fixed propensity tied to the median mobile
//!   propensity (booths see a steady stream of visitors);
//! * pairwise contact processes are Poisson with rate proportional to the
//!   propensity product, modulated over time by an [`ActivityProfile`]
//!   (sessions, breaks, the end-of-afternoon drop-off in Fig. 1);
//! * contact durations are log-normal with configurable mean and
//!   coefficient of variation;
//! * optionally, contacts are re-observed through the iMotes' 120-second
//!   inquiry-scan process ([`super::scan::apply_inquiry_scan`]).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::contact::Contact;
use crate::node::{NodeClass, NodeId, NodeRegistry};
use crate::trace::{ContactTrace, TimeWindow};

use super::config::ConferenceConfig;
use super::sampling::{lognormal_mean_cv, thinned_poisson_process};
use super::scan::apply_inquiry_scan;

/// Generator for synthetic conference contact traces.
#[derive(Debug, Clone)]
pub struct ConferenceTraceGenerator {
    config: ConferenceConfig,
}

impl ConferenceTraceGenerator {
    /// Creates a generator from a configuration.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (fewer than two nodes,
    /// non-positive rates or durations, min rate above max rate). Scenario
    /// configs reject these with a typed error before they get here.
    pub fn new(config: ConferenceConfig) -> Self {
        assert!(config.total_nodes() >= 2, "need at least two nodes");
        assert!(config.max_node_rate > 0.0, "max node rate must be positive");
        assert!(
            config.min_node_rate >= 0.0 && config.min_node_rate < config.max_node_rate,
            "min node rate must be in [0, max_node_rate)"
        );
        assert!(config.mean_contact_duration > 0.0, "contact duration must be positive");
        assert!(config.window_seconds > 0.0, "window must be positive");
        Self { config }
    }

    /// The configuration this generator was built from.
    pub fn config(&self) -> &ConferenceConfig {
        &self.config
    }

    /// The per-node contact propensities the generator would assign for its
    /// seed (mobile nodes first, then stationary nodes). Useful for tests
    /// and for the heterogeneity ablation.
    pub fn propensities(&self) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        self.draw_propensities(&mut rng)
    }

    pub(crate) fn draw_propensities<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let c = &self.config;
        let floor = (c.min_node_rate / c.max_node_rate).max(1e-3);
        let mut mobile: Vec<f64> = (0..c.mobile_nodes).map(|_| rng.gen_range(floor..1.0)).collect();
        // Stationary propensity is tied to the median mobile propensity so
        // booths are "typical" rather than extreme nodes.
        let median_mobile = if mobile.is_empty() {
            0.5
        } else {
            let mut sorted = mobile.clone();
            sorted.sort_by(|a, b| a.total_cmp(b));
            sorted[sorted.len() / 2]
        };
        let stationary_p = (median_mobile * c.stationary_rate_factor).min(1.0).max(floor);
        mobile.extend(std::iter::repeat_n(stationary_p, c.stationary_nodes));
        mobile
    }

    /// Generates the contact trace.
    pub fn generate(&self) -> ContactTrace {
        let c = &self.config;
        let mut rng = StdRng::seed_from_u64(c.seed);
        let propensities = self.draw_propensities(&mut rng);
        let n = propensities.len();

        let mut registry = NodeRegistry::new();
        for _ in 0..c.mobile_nodes {
            registry.add(NodeClass::Mobile);
        }
        for _ in 0..c.stationary_nodes {
            registry.add(NodeClass::Stationary);
        }

        // Scale pairwise rates so the busiest node's total rate matches
        // max_node_rate (see the heterogeneous generator for the algebra).
        let total: f64 = propensities.iter().sum();
        let max_unscaled = propensities.iter().map(|&p| p * (total - p)).fold(0.0_f64, f64::max);
        let scale = c.max_node_rate / max_unscaled;

        let window = TimeWindow::new(0.0, c.window_seconds);
        let max_mod = c.activity.max_multiplier();
        let mut contacts = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let pair_rate = scale * propensities[i] * propensities[j];
                if pair_rate <= 0.0 {
                    continue;
                }
                let starts =
                    thinned_poisson_process(&mut rng, pair_rate, c.window_seconds, max_mod, |t| {
                        self.config.activity.multiplier(t, self.config.window_seconds)
                    });
                for start in starts {
                    let duration =
                        lognormal_mean_cv(&mut rng, c.mean_contact_duration, c.contact_duration_cv);
                    let end = (start + duration).min(c.window_seconds);
                    contacts.push(
                        Contact::new(NodeId(i as u32), NodeId(j as u32), start, end)
                            .unwrap_or_else(|e| {
                                unreachable!("generated contacts are valid by construction: {e}")
                            }),
                    );
                }
            }
        }

        let trace = ContactTrace::from_contacts(c.name.clone(), registry, window, contacts)
            .unwrap_or_else(|e| unreachable!("generated contacts lie inside the window: {e}"));

        match c.inquiry_scan_period {
            Some(period) => apply_inquiry_scan(&trace, period),
            None => trace,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::binning::stationarity_report;
    use crate::generator::config::ActivityProfile;
    use crate::rates::ContactRates;

    fn quick_config(seed: u64) -> ConferenceConfig {
        ConferenceConfig {
            name: format!("test-conf-{seed}"),
            mobile_nodes: 30,
            stationary_nodes: 8,
            window_seconds: 3600.0,
            max_node_rate: 0.03,
            min_node_rate: 0.0005,
            stationary_rate_factor: 1.2,
            mean_contact_duration: 90.0,
            contact_duration_cv: 0.8,
            activity: ActivityProfile::Constant,
            inquiry_scan_period: None,
            seed,
        }
    }

    #[test]
    fn generates_requested_population() {
        let gen = ConferenceTraceGenerator::new(quick_config(1));
        let trace = gen.generate();
        assert_eq!(trace.node_count(), 38);
        assert_eq!(trace.nodes().mobile_ids().len(), 30);
        assert_eq!(trace.nodes().stationary_ids().len(), 8);
        assert!(trace.contact_count() > 100, "got {}", trace.contact_count());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ConferenceTraceGenerator::new(quick_config(3)).generate();
        let b = ConferenceTraceGenerator::new(quick_config(3)).generate();
        assert_eq!(a.contacts(), b.contacts());
        let c = ConferenceTraceGenerator::new(quick_config(4)).generate();
        assert_ne!(a.contacts(), c.contacts());
    }

    #[test]
    fn heterogeneous_rates_with_uniform_like_counts() {
        let mut cfg = quick_config(7);
        cfg.mobile_nodes = 60;
        cfg.window_seconds = 2.0 * 3600.0;
        let trace = ConferenceTraceGenerator::new(cfg).generate();
        let rates = ContactRates::from_trace(&trace);
        let ks = rates.uniformity_ks().unwrap();
        assert!(ks < 0.3, "KS distance to uniform = {ks}");
    }

    #[test]
    fn activity_is_roughly_stationary_with_constant_profile() {
        let mut cfg = quick_config(11);
        cfg.mobile_nodes = 50;
        let trace = ConferenceTraceGenerator::new(cfg).generate();
        let report = stationarity_report(&trace).unwrap();
        assert!(report.coefficient_of_variation < 0.6, "cv = {}", report.coefficient_of_variation);
    }

    #[test]
    fn tail_dropoff_profile_reduces_late_activity() {
        let mut cfg = quick_config(13);
        cfg.mobile_nodes = 50;
        cfg.window_seconds = 3600.0;
        cfg.activity =
            ActivityProfile::TailDropoff { dropoff_seconds: 1200.0, final_fraction: 0.1 };
        let trace = ConferenceTraceGenerator::new(cfg).generate();
        let report = stationarity_report(&trace).unwrap();
        assert!(report.tail_ratio < 0.9, "tail ratio = {}", report.tail_ratio);
    }

    #[test]
    fn inquiry_scan_discretizes_contact_starts() {
        let mut cfg = quick_config(17);
        cfg.inquiry_scan_period = Some(120.0);
        let trace = ConferenceTraceGenerator::new(cfg).generate();
        for c in trace.contacts().iter().take(200) {
            let remainder = c.start % 120.0;
            assert!(remainder.abs() < 1e-6, "start {} not on a scan boundary", c.start);
        }
    }

    #[test]
    fn propensities_match_population_size() {
        let gen = ConferenceTraceGenerator::new(quick_config(23));
        let p = gen.propensities();
        assert_eq!(p.len(), 38);
        // Stationary propensities (last 8) are all identical.
        let stationary = &p[30..];
        assert!(stationary.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12));
        assert!(p.iter().all(|&x| x > 0.0 && x <= 1.0));
    }

    #[test]
    #[should_panic]
    fn rejects_min_rate_above_max_rate() {
        let cfg = ConferenceConfig { min_node_rate: 1.0, max_node_rate: 0.5, ..quick_config(1) };
        ConferenceTraceGenerator::new(cfg);
    }
}
