//! The `queue.forwarding` failpoint fires on every job of a `run_batch`
//! batch — each lane and each backward delivery-time pass, the only job
//! included — and a job that fails after others have written their
//! outcomes still fails the whole batch. Kept in its own test binary: an
//! armed failpoint is process-wide, and every simulator unit test calls
//! `run_many`.

use psn_forwarding::algorithms::Epidemic;
use psn_forwarding::{
    standard_algorithms, ForwardingAlgorithm, ForwardingContext, Recording, Simulator,
    SimulatorConfig,
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

/// 32 768 delivery-only messages on the four-node chain: messages times
/// nodes reach the routing rule's 2^17, so a destination-unaware group
/// takes the backward pass.
fn pass_messages() -> Vec<Message> {
    (0..1u32 << 15)
        .map(|i| Message::new(NodeId(i % 4), NodeId((i + 1 + i % 8 / 4) % 4), f64::from(i % 8)))
        .collect()
}

#[test]
fn a_batch_answered_only_by_the_pass_still_fires_the_failpoint() {
    let trace = four_node_chain();
    let messages = pass_messages();
    let half = messages.len() / 2;
    let jobs: [(&dyn ForwardingAlgorithm, &[Message], Recording); 2] = [
        (&Epidemic, &messages[..half], Recording::DeliveryOnly),
        (&Epidemic, &messages[half..], Recording::DeliveryOnly),
    ];
    for threads in [1usize, 2] {
        let sim = Simulator::new(&trace, SimulatorConfig { delta: 10.0, threads });
        // Messages to at most four destinations make one pass and no
        // lane: the first batch runs clean, the second fails.
        let _armed = psn_fault::arm_guard("queue.forwarding:panic:2");
        let clean = sim.run_batch(&jobs);
        assert!(clean.iter().any(|r| r.outcomes.iter().any(|o| o.delivered())));
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run_batch(&jobs)))
                .expect_err("the armed failpoint must fire");
        let message = psn_fault::panic_message(payload.as_ref());
        assert!(
            message.contains("injected fault: panic at queue.forwarding"),
            "{threads} threads: {message}"
        );
    }
}

/// A destination-unaware rule that forwards everywhere until the slot
/// ending at 30 s, where it panics: only a backward pass, which walks the
/// slots from the last one down, reaches that slot after answering the
/// messages created after it.
struct PanicsAtThirty;

impl ForwardingAlgorithm for PanicsAtThirty {
    fn name(&self) -> &str {
        "Panics at 30 s"
    }
    fn destination_aware(&self) -> bool {
        false
    }
    fn should_forward(
        &self,
        ctx: &ForwardingContext<'_>,
        _holder: NodeId,
        _peer: NodeId,
        _destination: NodeId,
    ) -> bool {
        assert!(ctx.now != 30.0, "forwarding rule failed at {} s", ctx.now);
        true
    }
}

#[test]
fn a_panicking_pass_fails_a_mixed_batch_at_every_lane_count() {
    // The standard algorithms run both recordings in the lanes and the
    // pass; the panicking rule's delivery-only messages take a pass of
    // their own, which fails part-way down the slots. No outcome of any
    // job may leave the batch, whatever the lane count.
    let trace = four_node_chain();
    let messages = pass_messages();
    let algorithms = standard_algorithms();
    let mut jobs: Vec<(&dyn ForwardingAlgorithm, &[Message], Recording)> = algorithms
        .iter()
        .flat_map(|(_, a)| {
            [
                (a.as_ref(), &messages[..3], Recording::HopPaths),
                (a.as_ref(), &messages[..], Recording::DeliveryOnly),
            ]
        })
        .collect();
    jobs.push((&PanicsAtThirty, &messages[..], Recording::DeliveryOnly));
    // Arms nothing, but holds the process-wide lock: a failpoint armed by
    // another test counts every job this batch starts.
    let _lock = psn_fault::arm_guard("");
    for lanes in [1usize, 2, 3] {
        let sim = Simulator::new(&trace, SimulatorConfig { delta: 10.0, threads: lanes });
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run_batch(&jobs)))
                .expect_err("the failing pass must fail the batch");
        let message = psn_fault::panic_message(payload.as_ref());
        assert!(
            message.contains("simulation worker panicked")
                && message.contains("forwarding rule failed at 30 s"),
            "{lanes} lanes: {message}"
        );
        // Without the failing job the same batch runs clean.
        let clean = sim.run_batch(&jobs[..jobs.len() - 1]);
        assert!(clean.iter().any(|r| r.outcomes.iter().any(|o| o.delivered())), "{lanes} lanes");
    }
}
