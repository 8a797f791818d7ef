//! Messages and message workloads.
//!
//! A message is a triple `(σ, δ, t₁)`: source node, destination node, and
//! creation time. The paper evaluates two workloads built from the same
//! primitive:
//!
//! * for the path-enumeration study (§4), messages are drawn uniformly at
//!   random — source and destination uniform over the nodes, creation time
//!   uniform over the window;
//! * for the forwarding study (§6), messages arrive as a Poisson process
//!   with one message every 4 seconds, with uniform random endpoints.
//!
//! In both cases messages are only generated during the first two of the
//! three hours so that each message has at least an hour in which it can be
//! delivered (end-effect avoidance).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use psn_trace::{NodeId, Seconds};

/// A message to be forwarded from `source` to `destination`, created at
/// `created_at` seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Message {
    /// Originating node σ.
    pub source: NodeId,
    /// Destination node δ.
    pub destination: NodeId,
    /// Creation time t₁ in seconds from the window start.
    pub created_at: Seconds,
}

impl Message {
    /// Creates a message, panicking if source and destination coincide
    /// (such messages are trivially delivered and excluded by the paper).
    pub fn new(source: NodeId, destination: NodeId, created_at: Seconds) -> Self {
        assert!(source != destination, "source and destination must differ");
        Self { source, destination, created_at }
    }
}

impl std::fmt::Display for Message {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}->{} @{:.0}s", self.source, self.destination, self.created_at)
    }
}

/// Configuration of a message workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MessageWorkloadConfig {
    /// Number of nodes to draw endpoints from (ids `0..nodes`).
    pub nodes: usize,
    /// Messages are created in `[0, generation_horizon)` seconds. The paper
    /// uses the first two hours of each three-hour window.
    pub generation_horizon: Seconds,
    /// Mean message inter-arrival time for the Poisson workload (the paper
    /// uses 4 seconds).
    pub mean_interarrival: Seconds,
    /// RNG seed.
    pub seed: u64,
}

/// Deterministic generator of message workloads.
#[derive(Debug, Clone)]
pub struct MessageGenerator {
    config: MessageWorkloadConfig,
}

impl MessageGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two nodes are configured or the horizon or
    /// inter-arrival time is non-positive.
    pub fn new(config: MessageWorkloadConfig) -> Self {
        assert!(config.nodes >= 2, "need at least two nodes for messages");
        assert!(config.generation_horizon > 0.0, "horizon must be positive");
        assert!(config.mean_interarrival > 0.0, "inter-arrival time must be positive");
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &MessageWorkloadConfig {
        &self.config
    }

    /// Draws `count` messages uniformly at random: endpoints uniform over
    /// nodes (distinct), creation time uniform over the generation horizon.
    /// This is the workload of the path-enumeration study (§4).
    pub fn uniform_messages(&self, count: usize) -> Vec<Message> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        (0..count).map(|_| self.draw_message(&mut rng)).collect()
    }

    /// Generates a Poisson arrival workload: inter-arrival times exponential
    /// with the configured mean, uniform random endpoints. This is the
    /// forwarding-study workload (§6). `run` perturbs the seed so that the
    /// paper's "averaged over 10 simulation runs" can be reproduced.
    pub fn poisson_messages(&self, run: u64) -> Vec<Message> {
        let mut rng =
            StdRng::seed_from_u64(self.config.seed.wrapping_add(run.wrapping_mul(0x9E37)));
        let mut messages = Vec::new();
        let rate = 1.0 / self.config.mean_interarrival;
        let mut t = 0.0;
        loop {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            t += -u.ln() / rate;
            if t >= self.config.generation_horizon {
                break;
            }
            let mut m = self.draw_message(&mut rng);
            m.created_at = t;
            messages.push(m);
        }
        messages
    }

    fn draw_message(&self, rng: &mut StdRng) -> Message {
        let n = self.config.nodes as u32;
        let source = NodeId(rng.gen_range(0..n));
        let mut destination = NodeId(rng.gen_range(0..n));
        while destination == source {
            destination = NodeId(rng.gen_range(0..n));
        }
        let created_at = rng.gen_range(0.0..self.config.generation_horizon);
        Message { source, destination, created_at }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> MessageWorkloadConfig {
        MessageWorkloadConfig {
            nodes: 20,
            generation_horizon: 7200.0,
            mean_interarrival: 4.0,
            seed: 7,
        }
    }

    #[test]
    #[should_panic]
    fn message_endpoints_must_differ() {
        Message::new(NodeId(1), NodeId(1), 0.0);
    }

    #[test]
    fn message_display() {
        let m = Message::new(NodeId(1), NodeId(2), 30.0);
        assert_eq!(m.to_string(), "n1->n2 @30s");
    }

    #[test]
    fn uniform_messages_respect_bounds() {
        let gen = MessageGenerator::new(config());
        let msgs = gen.uniform_messages(500);
        assert_eq!(msgs.len(), 500);
        for m in &msgs {
            assert!(m.source != m.destination);
            assert!(m.source.0 < 20 && m.destination.0 < 20);
            assert!(m.created_at >= 0.0 && m.created_at < 7200.0);
        }
    }

    #[test]
    fn uniform_messages_are_deterministic() {
        let gen = MessageGenerator::new(config());
        assert_eq!(gen.uniform_messages(50), gen.uniform_messages(50));
    }

    #[test]
    fn poisson_rate_matches_mean_interarrival() {
        let gen = MessageGenerator::new(config());
        let msgs = gen.poisson_messages(0);
        // Expected count: horizon / mean interarrival = 1800.
        let expected = 7200.0 / 4.0;
        assert!((msgs.len() as f64 - expected).abs() < 0.15 * expected, "count = {}", msgs.len());
        // Arrival times are increasing.
        for w in msgs.windows(2) {
            assert!(w[0].created_at <= w[1].created_at);
        }
    }

    #[test]
    fn different_runs_differ() {
        let gen = MessageGenerator::new(config());
        let a = gen.poisson_messages(0);
        let b = gen.poisson_messages(1);
        assert_ne!(a, b);
        // Same run is reproducible.
        assert_eq!(a, gen.poisson_messages(0));
    }

    #[test]
    #[should_panic]
    fn rejects_single_node_population() {
        MessageGenerator::new(MessageWorkloadConfig { nodes: 1, ..config() });
    }
}
