//! The `queue.forwarding` failpoint fires on every lane of a `run_many`
//! batch, the only lane included, and a lane that fails after others have
//! written their outcomes still fails the whole batch. Kept in its own test binary: an armed
//! failpoint is process-wide, and every simulator unit test calls
//! `run_many`.

use psn_forwarding::{
    standard_algorithms, ForwardingAlgorithm, Recording, Simulator, SimulatorConfig,
};
use psn_spacetime::Message;
use psn_trace::contact::Contact;
use psn_trace::node::{NodeClass, NodeRegistry};
use psn_trace::trace::{ContactTrace, TimeWindow};
use psn_trace::NodeId;

fn four_node_chain() -> ContactTrace {
    let mut registry = NodeRegistry::new();
    for _ in 0..4 {
        registry.add(NodeClass::Mobile);
    }
    let contacts = [(0, 1, 1.0, 15.0), (1, 2, 21.0, 35.0), (2, 3, 41.0, 45.0)]
        .into_iter()
        .map(|(a, b, start, end)| Contact::new(NodeId(a), NodeId(b), start, end).unwrap())
        .collect();
    ContactTrace::from_contacts("failpoint", registry, TimeWindow::new(0.0, 60.0), contacts)
        .unwrap()
}

#[test]
fn queue_forwarding_failpoint_fires_at_one_and_two_lanes() {
    let trace = four_node_chain();
    let messages =
        [Message::new(NodeId(0), NodeId(3), 0.0), Message::new(NodeId(3), NodeId(0), 0.0)];
    let algorithms = standard_algorithms();
    let jobs: Vec<(&dyn ForwardingAlgorithm, &[Message])> =
        algorithms.iter().map(|(_, a)| (a.as_ref(), &messages[..])).collect();
    for threads in [1usize, 2] {
        let sim = Simulator::new(&trace, SimulatorConfig { delta: 10.0, threads });
        let _armed = psn_fault::arm_guard("queue.forwarding:panic:1");
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run_many(&jobs)))
                .expect_err("the armed failpoint must fire");
        let message = psn_fault::panic_message(payload.as_ref());
        assert!(
            message.contains("injected fault: panic at queue.forwarding"),
            "{threads} lanes: {message}"
        );
    }
}

#[test]
fn a_failed_last_lane_fails_a_mixed_batch_at_every_lane_count() {
    // The last lane to start panics, after the others may have written
    // deliveries into their outcome slots: no result may leave the batch.
    let trace = four_node_chain();
    let messages = [
        Message::new(NodeId(0), NodeId(3), 0.0),
        Message::new(NodeId(3), NodeId(0), 0.0),
        Message::new(NodeId(1), NodeId(3), 0.0),
    ];
    let algorithms = standard_algorithms();
    let jobs: Vec<(&dyn ForwardingAlgorithm, &[Message], Recording)> = algorithms
        .iter()
        .flat_map(|(_, a)| {
            [
                (a.as_ref(), &messages[..], Recording::HopPaths),
                (a.as_ref(), &[][..], Recording::DeliveryOnly),
                (a.as_ref(), &messages[1..], Recording::DeliveryOnly),
            ]
        })
        .collect();
    for lanes in [1usize, 2, 3] {
        let sim = Simulator::new(&trace, SimulatorConfig { delta: 10.0, threads: lanes });
        // One hit per lane: the first batch runs clean, the second fails
        // at its last lane.
        let _armed = psn_fault::arm_guard(&format!("queue.forwarding:panic:{}", 2 * lanes));
        let delivered = sim.run_batch(&jobs);
        assert!(delivered.iter().any(|r| r.outcomes.iter().any(|o| o.delivered())));
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run_batch(&jobs)))
                .expect_err("the armed failpoint must fire");
        let message = psn_fault::panic_message(payload.as_ref());
        assert!(
            message.contains("injected fault: panic at queue.forwarding"),
            "{lanes} lanes: {message}"
        );
    }
}
