//! The random-number program every scenario family runs.
//!
//! A family's program is one setup — the degenerate-config asserts, the
//! propensity draws, the pair rates, the node registry and the trace name,
//! written once in the family's module as `program(config)` — followed by
//! its draws. For the product-rate families (homogeneous, heterogeneous,
//! community, conference) the draws are one Poisson process per pair,
//! replayed by [`PairProgram::replay`]; the scaled family draws one
//! aggregate process in time order ([`super::scaled::ScaledSource`]).
//!
//! The program runs in two modes and draws every number exactly once in
//! each: materialize mode ([`crate::ScenarioConfig::generate`]) keeps each
//! pair's contacts as they are drawn, stream mode
//! ([`crate::ScenarioConfig::stream`]) keeps only a [`PairCursor`] per pair
//! — RNG snapshots at the pair's draws, from which
//! [`PairCursor::next_contact`] re-draws the contacts lazily. That method
//! is the one twin of the per-pair routine; the stream-versus-trace tests
//! in [`crate::scenario_stream`] pin the two together. A new family lever
//! lands in the setup, the per-pair routine and the cursor.

use rand::rngs::StdRng;
use rand::Rng;

use crate::contact::Contact;
use crate::node::{NodeId, NodeRegistry};
use crate::Seconds;

use super::config::ActivityProfile;
use super::sampling::{exponential, lognormal_mean_cv, poisson_process, thin_arrivals};
use super::scaled::ScaledSource;
use super::scan::scan_observe;

/// A family's program after its setup: what the generated trace is called
/// and who is in it, plus the draws that produce its contacts.
#[derive(Debug)]
pub(crate) struct FamilyProgram {
    /// The generated trace's name.
    pub(crate) name: String,
    /// The generated trace's nodes.
    pub(crate) registry: NodeRegistry,
    /// The contact draws.
    pub(crate) draws: Draws,
}

/// The two shapes a family's draws take.
#[derive(Debug)]
pub(crate) enum Draws {
    /// One Poisson process per pair, replayed pair by pair.
    Pairs(PairProgram),
    /// The scaled family's aggregate process, drawn in time order.
    Scaled(ScaledSource),
}

/// The scale `c` that puts the busiest node's total rate at
/// `max_node_rate` when pair `(i, j)` meets at rate `c · p_i · p_j`: node
/// `i`'s total rate is `c · p_i · (Σp − p_i)`.
pub(crate) fn max_rate_scale(propensities: &[f64], max_node_rate: f64) -> f64 {
    let total: f64 = propensities.iter().sum();
    let max_unscaled = propensities.iter().map(|&p| p * (total - p)).fold(0.0_f64, f64::max);
    assert!(max_unscaled > 0.0, "propensities must not be all zero");
    max_node_rate / max_unscaled
}

/// Pairwise Poisson rates of the propensity-product model:
/// `scale · p_i · p_j · w(i, j)`, where `w` is the inter-community weight
/// for pairs in different communities and 1 otherwise.
#[derive(Debug)]
pub(crate) struct PairRates {
    /// Per-node propensities `p_i` (all 1 for the homogeneous family).
    pub(crate) propensities: Vec<f64>,
    /// Each node's community and the inter-community weight (community
    /// family only).
    pub(crate) communities: Option<(Vec<usize>, f64)>,
    /// The scale `c`.
    pub(crate) scale: f64,
}

impl PairRates {
    /// `w(i, j)`: the inter-community weight across communities, else 1.
    pub(crate) fn block_weight(&self, i: usize, j: usize) -> f64 {
        match &self.communities {
            Some((labels, inter)) if labels[i] != labels[j] => *inter,
            _ => 1.0,
        }
    }

    fn rate(&self, i: usize, j: usize) -> f64 {
        self.scale * self.propensities[i] * self.propensities[j] * self.block_weight(i, j)
    }
}

/// How a family draws contact durations once a start is accepted.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DurationModel {
    /// Exponential durations (homogeneous, heterogeneous, scaled).
    Exponential {
        /// `1 / mean_contact_duration`.
        rate: f64,
    },
    /// Log-normal durations (community, conference). `cv == 0` consumes no
    /// draws, exactly like [`lognormal_mean_cv`].
    Lognormal { mean: f64, cv: f64 },
}

impl DurationModel {
    fn draw(self, rng: &mut StdRng) -> f64 {
        match self {
            DurationModel::Exponential { rate } => exponential(rng, rate),
            DurationModel::Lognormal { mean, cv } => lognormal_mean_cv(rng, mean, cv),
        }
    }
}

/// The per-pair part of a product-rate family's program: the master RNG
/// positioned at the first pair's draws, plus everything the pair loop
/// reads.
#[derive(Debug)]
pub(crate) struct PairProgram {
    pub(crate) rng: StdRng,
    pub(crate) rates: PairRates,
    /// The window length: arrivals at or past it are dropped and contact
    /// ends are clamped to it.
    pub(crate) horizon: Seconds,
    pub(crate) duration: DurationModel,
    /// `Some((profile, max_multiplier))` when arrivals are thinned against
    /// an activity profile (the conference family).
    pub(crate) thinning: Option<(ActivityProfile, f64)>,
    /// The inquiry-scan period contacts are observed through, if any.
    pub(crate) scan: Option<Seconds>,
}

/// What [`PairProgram::replay`] keeps of each pair.
pub(crate) enum PairSink<'a> {
    /// Stream mode: a cursor for each pair with at least one contact.
    Cursors(&'a mut Vec<PairCursor>),
    /// Materialize mode: every contact as observed (through the inquiry
    /// scan when one is set), in pair order.
    Contacts(&'a mut Vec<Contact>),
}

impl PairProgram {
    /// The pair loop. For every pair `i < j` with a positive rate, in that
    /// order, it draws the pair's arrival times, then one thinning uniform
    /// per arrival (thinned families only), then one duration per accepted
    /// start, and hands the pair to `sink`. A pair with a non-positive rate
    /// consumes no draws.
    pub(crate) fn replay(&mut self, mut sink: PairSink<'_>) {
        let PairProgram { rng, rates, horizon, duration, thinning, scan } = self;
        let (horizon, duration, scan, thinning) = (*horizon, *duration, *scan, thinning.as_ref());
        let n = rates.propensities.len();
        // One pair's accepted starts, reused across pairs.
        let mut starts = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let rate = rates.rate(i, j);
                if rate <= 0.0 {
                    continue;
                }
                let arrival_rate = match thinning {
                    Some((_, max_mod)) => rate * max_mod,
                    None => rate,
                };
                let starts_rng = rng.clone();
                poisson_process(rng, arrival_rate, horizon, &mut starts);
                let thin_rng = thinning.map(|(activity, max_mod)| {
                    let snapshot = rng.clone();
                    thin_arrivals(rng, &mut starts, *max_mod, |t| activity.multiplier(t, horizon));
                    snapshot
                });
                let durs_rng = rng.clone();
                match &mut sink {
                    PairSink::Cursors(cursors) => {
                        for _ in 0..starts.len() {
                            duration.draw(rng);
                        }
                        if !starts.is_empty() {
                            cursors.push(PairCursor {
                                a: i as u32,
                                b: j as u32,
                                arrival_rate,
                                t: 0.0,
                                starts_rng,
                                thin_rng,
                                durs_rng,
                            });
                        }
                    }
                    PairSink::Contacts(contacts) => {
                        for &start in &starts {
                            let end = (start + duration.draw(rng)).min(horizon);
                            let contact = pair_contact(i as u32, j as u32, start, end);
                            match scan {
                                Some(period) => {
                                    contacts.extend(scan_observe(contact, period, horizon))
                                }
                                None => contacts.push(contact),
                            }
                        }
                    }
                }
            }
        }
    }
}

fn pair_contact(a: u32, b: u32, start: Seconds, end: Seconds) -> Contact {
    Contact::new(NodeId(a), NodeId(b), start, end)
        .unwrap_or_else(|e| unreachable!("generated contacts are valid by construction: {e}"))
}

/// One pair's lazy contact iterator: RNG snapshots positioned at the pair's
/// arrival, thinning and duration draws of the family's program.
#[derive(Debug)]
pub(crate) struct PairCursor {
    a: u32,
    b: u32,
    /// Rate of the arrival process — the pair rate, boosted by the activity
    /// profile's maximum multiplier for thinned pairs.
    arrival_rate: f64,
    /// Running arrival time of the pair's Poisson process.
    t: f64,
    starts_rng: StdRng,
    /// Present only for thinned pairs: one uniform per arrival, in order.
    thin_rng: Option<StdRng>,
    durs_rng: StdRng,
}

impl PairCursor {
    /// Re-draws the pair's next surviving contact, or `None` once its
    /// arrival process leaves the window — the lazy twin of
    /// [`PairProgram::replay`], drawing from each snapshot in the same
    /// order.
    pub(crate) fn next_contact(
        &mut self,
        horizon: Seconds,
        duration: DurationModel,
        thinning: Option<&(ActivityProfile, f64)>,
    ) -> Option<Contact> {
        loop {
            self.t += exponential(&mut self.starts_rng, self.arrival_rate);
            if self.t >= horizon {
                return None;
            }
            if let Some(thin_rng) = self.thin_rng.as_mut() {
                let (activity, max_mod) = thinning
                    .unwrap_or_else(|| unreachable!("thinned cursors carry an activity profile"));
                let m = activity.multiplier(self.t, horizon);
                if thin_rng.gen_range(0.0..1.0) >= m / max_mod {
                    continue;
                }
            }
            let end = (self.t + duration.draw(&mut self.durs_rng)).min(horizon);
            return Some(pair_contact(self.a, self.b, self.t, end));
        }
    }
}
