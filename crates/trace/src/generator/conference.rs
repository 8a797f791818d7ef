//! Conference contact-trace generator — the stand-in for the iMote datasets.
//!
//! The paper's datasets were collected at Infocom 2006 and CoNEXT 2006: 98
//! Bluetooth devices, of which roughly 20 were placed at fixed locations
//! around the venue and the rest carried by participants, observed over
//! selected 3-hour windows with approximately stable aggregate contact
//! activity.
//!
//! The conference family's `program` produces synthetic traces with the
//! same structure:
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
//!   inquiry-scan process ([`super::scan::scan_observe`]).
//!
//! [`ActivityProfile`]: super::config::ActivityProfile

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::node::NodeRegistry;

use super::config::ConferenceConfig;
use super::program::{max_rate_scale, Draws, DurationModel, FamilyProgram, PairProgram, PairRates};

/// The per-node contact propensities of `config`, drawn from `rng`: mobile
/// nodes first, then stationary nodes.
pub(crate) fn draw_propensities<R: Rng + ?Sized>(
    config: &ConferenceConfig,
    rng: &mut R,
) -> Vec<f64> {
    let c = config;
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

/// The conference family's setup: propensities, the max-rate scale,
/// log-normal durations, thinning against the activity profile and the
/// optional inquiry scan, which also names the trace (`<name>-scan<period>`).
///
/// # Panics
///
/// Panics on degenerate configurations (fewer than two nodes, non-positive
/// rates, durations, window or scan period, min rate above max rate).
/// Scenario configs reject these with a typed error before they get here.
pub(crate) fn program(config: &ConferenceConfig) -> FamilyProgram {
    let c = config;
    assert!(c.total_nodes() >= 2, "need at least two nodes");
    assert!(c.max_node_rate > 0.0, "max node rate must be positive");
    assert!(
        c.min_node_rate >= 0.0 && c.min_node_rate < c.max_node_rate,
        "min node rate must be in [0, max_node_rate)"
    );
    assert!(c.mean_contact_duration > 0.0, "contact duration must be positive");
    assert!(c.window_seconds > 0.0, "window must be positive");
    assert!(c.inquiry_scan_period.is_none_or(|p| p > 0.0), "scan period must be positive");

    let mut rng = StdRng::seed_from_u64(c.seed);
    let propensities = draw_propensities(c, &mut rng);
    let scale = max_rate_scale(&propensities, c.max_node_rate);
    let name = match c.inquiry_scan_period {
        Some(period) => format!("{}-scan{}", c.name, period),
        None => c.name.clone(),
    };
    FamilyProgram {
        name,
        registry: NodeRegistry::with_counts(c.mobile_nodes, c.stationary_nodes),
        draws: Draws::Pairs(PairProgram {
            rng,
            rates: PairRates { propensities, communities: None, scale },
            horizon: c.window_seconds,
            duration: DurationModel::Lognormal {
                mean: c.mean_contact_duration,
                cv: c.contact_duration_cv,
            },
            thinning: Some((c.activity.clone(), c.activity.max_multiplier())),
            scan: c.inquiry_scan_period,
        }),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::binning::stationarity_report;
    use crate::generator::config::ActivityProfile;
    use crate::rates::ContactRates;
    use crate::scenario::ScenarioConfig;
    use crate::trace::ContactTrace;

    fn generate(config: ConferenceConfig) -> ContactTrace {
        ScenarioConfig::Conference(config).generate()
    }

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
        let trace = generate(quick_config(1));
        assert_eq!(trace.node_count(), 38);
        assert_eq!(trace.nodes().mobile_ids().len(), 30);
        assert_eq!(trace.nodes().stationary_ids().len(), 8);
        assert!(trace.contact_count() > 100, "got {}", trace.contact_count());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(quick_config(3));
        let b = generate(quick_config(3));
        assert_eq!(a.contacts(), b.contacts());
        let c = generate(quick_config(4));
        assert_ne!(a.contacts(), c.contacts());
    }

    #[test]
    fn heterogeneous_rates_with_uniform_like_counts() {
        let mut cfg = quick_config(7);
        cfg.mobile_nodes = 60;
        cfg.window_seconds = 2.0 * 3600.0;
        let trace = generate(cfg);
        let rates = ContactRates::from_trace(&trace);
        let ks = rates.uniformity_ks().unwrap();
        assert!(ks < 0.3, "KS distance to uniform = {ks}");
    }

    #[test]
    fn activity_is_roughly_stationary_with_constant_profile() {
        let mut cfg = quick_config(11);
        cfg.mobile_nodes = 50;
        let trace = generate(cfg);
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
        let trace = generate(cfg);
        let report = stationarity_report(&trace).unwrap();
        assert!(report.tail_ratio < 0.9, "tail ratio = {}", report.tail_ratio);
    }

    #[test]
    fn inquiry_scan_discretizes_contact_starts() {
        let mut cfg = quick_config(17);
        cfg.inquiry_scan_period = Some(120.0);
        let trace = generate(cfg);
        for c in trace.contacts().iter().take(200) {
            let remainder = c.start % 120.0;
            assert!(remainder.abs() < 1e-6, "start {} not on a scan boundary", c.start);
        }
    }

    #[test]
    fn propensities_match_population_size() {
        let cfg = quick_config(23);
        let p = draw_propensities(&cfg, &mut StdRng::seed_from_u64(cfg.seed));
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
        generate(cfg);
    }
}
