//! Differential tests pinning the streaming execution mode bit-identical
//! to the materialized reference engines.
//!
//! The streaming pipeline (bounded-window space-time graph + incremental
//! history timeline, built in one pass over the contact-event stream) is an
//! *execution mode*, not a model change: every study and every sweep must
//! render byte-for-byte the same report whether the graph was materialized
//! or windowed — including window sizes small enough to force spill
//! round-trips on every slot. That contract is what keeps
//! `streaming_window` out of the cache keys.
//!
//! The second half hardens the stream boundary itself: nonzero window
//! starts, contacts spanning window edges, empty-window slots, and
//! out-of-order event rejection, each checked against the materialized
//! graph of the same trace.

use proptest::prelude::*;
use psn::prelude::*;
use psn::report::JsonRenderer;
use psn::study::{run_study_with, ArtifactStore, StudyId, StudyParams, StudyScenario, StudySpec};
use psn::{run_sweep_with, SweepSpec};
use psn_spacetime::{GraphRef, StreamBuildError, WindowedSpaceTimeGraph};
use psn_trace::contact::Contact;
use psn_trace::generator::CommunityConfig;
use psn_trace::node::{NodeClass, NodeRegistry};
use psn_trace::stream::{ContactEvent, ContactStream, StreamError};
use psn_trace::trace::TimeWindow;
use psn_trace::{ScenarioConfig, ScenarioSweep, Seconds, SweepAxis, TraceEventStream};

/// Deliberately tiny parameters: structure, not scale, is under test.
fn tiny_params() -> StudyParams {
    let mut p = StudyParams::for_profile(ExperimentProfile::Quick);
    p.enumeration = EnumerationConfig::quick(25);
    p.explosion_threshold = 25;
    p.enumeration_messages = 6;
    p.simulation_runs = 1;
    p.workload_horizon = Some(600.0);
    p.workload_interarrival = 40.0;
    p.paths_taken_messages = 2;
    p.model_replications = 5;
    p.threads = 2;
    p
}

fn scenario() -> StudyScenario {
    StudyScenario::from(ScenarioConfig::Community(CommunityConfig {
        name: "streaming-differential".into(),
        communities: 2,
        nodes_per_community: 8,
        window_seconds: 2400.0,
        max_node_rate: 0.2,
        intra_inter_ratio: 4.0,
        mean_contact_duration: 40.0,
        contact_duration_cv: 0.5,
        seed: 11,
    }))
}

/// Runs `study` with `params` against a fresh in-memory store and returns
/// the canonical JSON rendering plus the store's recorded streaming peak.
fn render_study(study: StudyId, params: StudyParams) -> (String, usize) {
    let scenarios = if study == StudyId::Model { vec![] } else { vec![scenario()] };
    let plan = StudySpec::new(study, scenarios, params).plan().expect("plan is valid");
    let store = ArtifactStore::in_memory();
    let report = run_study_with(&plan, &store).expect("study executes");
    (JsonRenderer.render_json(&report.doc), store.stats().peak_stream_bytes)
}

#[test]
fn all_six_studies_are_bit_identical_between_engines() {
    for study in StudyId::all() {
        let (reference, reference_peak) = render_study(study, tiny_params());
        assert_eq!(reference_peak, 0, "materialized runs record no streaming peak");
        // Window 1 forces a spill reload for effectively every slot query;
        // window 7 exercises the mixed hot/cold path.
        for window in [1usize, 7] {
            let (streamed, peak) =
                render_study(study, tiny_params().with_streaming_window(Some(window)));
            assert_eq!(
                reference,
                streamed,
                "study {} must render byte-identically under --window {window}",
                study.name()
            );
            if study != StudyId::Model && study != StudyId::Activity {
                assert!(peak > 0, "graph-using study {} records its working set", study.name());
            }
        }
    }
}

#[test]
fn sweep_with_delta_and_interarrival_axes_is_bit_identical_between_engines() {
    // The sweep crosses the two new `params.*` axes: Δ (result-relevant —
    // it re-quantizes every contact) and the workload inter-arrival time.
    let sweep = ScenarioSweep {
        name: "streaming-sweep".into(),
        study: Some("forwarding".into()),
        base: scenario().config,
        axes: vec![
            SweepAxis { field: "params.delta".into(), values: vec![10.0, 20.0] },
            SweepAxis { field: "params.interarrival".into(), values: vec![40.0, 80.0] },
        ],
        seeds: vec![],
    };
    let render = |params: StudyParams| {
        let spec =
            SweepSpec { study: StudyId::Forwarding, sweep: sweep.clone(), views: vec![], params };
        let plan = spec.plan().expect("sweep plan is valid");
        assert_eq!(plan.cells.len(), 4, "2x2 parameter grid");
        let store = ArtifactStore::in_memory();
        let report = run_sweep_with(&plan, &store).expect("sweep executes");
        JsonRenderer.render_json(&report.doc)
    };
    let reference = render(tiny_params());
    let streamed = render(tiny_params().with_streaming_window(Some(3)));
    assert_eq!(reference, streamed, "sweep renders byte-identically under streaming");
}

/// A short trace whose window starts far from t = 0 and whose contacts
/// cross slot boundaries, end exactly on them, and overrun the window end
/// (clamped to the final slot) — the boundary cases a slotted stream can
/// get wrong.
fn boundary_trace(start: Seconds) -> ContactTrace {
    let mut reg = NodeRegistry::new();
    for _ in 0..6 {
        reg.add(NodeClass::Mobile);
    }
    let contacts = vec![
        // Spans the very first slot edge.
        Contact::new(NodeId(0), NodeId(1), start + 5.0, start + 15.0).unwrap(),
        // Ends exactly on a slot boundary.
        Contact::new(NodeId(1), NodeId(2), start + 20.0, start + 30.0).unwrap(),
        // Long contact spanning many slots (and an empty gap on both sides).
        Contact::new(NodeId(3), NodeId(4), start + 55.0, start + 95.0).unwrap(),
        // Overruns the window end: covered slots clamp to the last slot.
        Contact::new(NodeId(0), NodeId(5), start + 110.0, start + 500.0).unwrap(),
    ];
    ContactTrace::from_contacts(
        "stream-boundary",
        reg,
        TimeWindow::new(start, start + 120.0),
        contacts,
    )
    .unwrap()
}

/// Asserts the windowed graph matches the materialized one slot by slot —
/// edges, active nodes and component structure — querying in *reverse*
/// order so small windows exercise the spill-reload path.
fn assert_windowed_matches(trace: &ContactTrace, delta: Seconds, window: usize) {
    let reference = SpaceTimeGraph::build(trace, delta);
    let windowed = WindowedSpaceTimeGraph::stream(
        &mut TraceEventStream::new(trace, delta),
        window,
        Box::new(psn_artifact::SlabSlotSpill::in_temp_file().unwrap()),
    )
    .unwrap();
    assert_eq!(windowed.slot_count(), reference.slot_count());
    let view = GraphRef::from(&windowed);
    for s in (0..reference.slot_count()).rev() {
        let slot = view.slot(s);
        assert_eq!(slot.edges(), reference.edges(s), "slot {s} edges");
        assert_eq!(slot.active_nodes(), reference.active_nodes(s), "slot {s} active nodes");
        for node in 0..trace.node_count() as u32 {
            assert_eq!(
                slot.component(NodeId(node)),
                reference.component(s, NodeId(node)),
                "slot {s} component of n{node}"
            );
        }
        assert!(
            (view.slot_end_time(s) - reference.slot_end_time(s)).abs() < 1e-12,
            "slot {s} end time"
        );
    }
}

#[test]
fn nonzero_window_start_and_edge_spanning_contacts_stream_identically() {
    for start in [0.0, 36000.0] {
        for window in [1usize, 2, 64] {
            assert_windowed_matches(&boundary_trace(start), 10.0, window);
        }
    }
}

#[test]
fn empty_window_slots_match_the_materialized_graph() {
    // One contact in the middle of a long window: every other slot is
    // empty, and empty slots assign each node its own singleton component.
    let mut reg = NodeRegistry::new();
    for _ in 0..4 {
        reg.add(NodeClass::Mobile);
    }
    let contacts = vec![Contact::new(NodeId(1), NodeId(2), 500.0, 520.0).unwrap()];
    let trace =
        ContactTrace::from_contacts("mostly-empty", reg, TimeWindow::new(0.0, 1000.0), contacts)
            .unwrap();
    assert_windowed_matches(&trace, 10.0, 1);
    let windowed = WindowedSpaceTimeGraph::stream(
        &mut TraceEventStream::new(&trace, 10.0),
        1,
        Box::new(psn_artifact::SlabSlotSpill::in_temp_file().unwrap()),
    )
    .unwrap();
    // 100 slots, three busy (the contact [500, 520] covers slots 50..=52):
    // the hot set never held more than one slot.
    assert_eq!(windowed.slot_count(), 100);
    for s in 0..windowed.slot_count() {
        let slot = windowed.slot(s);
        assert_eq!(slot.is_empty(), !(50..=52).contains(&s), "busy slots are exactly 50..=52");
    }
}

/// An event source that violates the slot-ordering contract on purpose.
struct OutOfOrderStream {
    emitted: usize,
}

impl ContactStream for OutOfOrderStream {
    fn node_count(&self) -> usize {
        4
    }

    fn window(&self) -> TimeWindow {
        TimeWindow::new(0.0, 100.0)
    }

    fn delta(&self) -> Seconds {
        10.0
    }

    fn next_event(&mut self) -> Result<Option<ContactEvent>, StreamError> {
        self.emitted += 1;
        match self.emitted {
            1 => Ok(Some(ContactEvent::Up {
                slot: 5,
                last_slot: 5,
                a: NodeId(0),
                b: NodeId(1),
                start: 50.0,
                end: 55.0,
            })),
            // Slot 3 after slot 5: a consumer that already sealed past 3
            // must reject this instead of silently misfiling the edge.
            2 => Ok(Some(ContactEvent::Up {
                slot: 3,
                last_slot: 3,
                a: NodeId(2),
                b: NodeId(3),
                start: 30.0,
                end: 35.0,
            })),
            _ => Ok(None),
        }
    }
}

#[test]
fn out_of_order_events_are_rejected_not_misfiled() {
    let result = WindowedSpaceTimeGraph::stream(
        &mut OutOfOrderStream { emitted: 0 },
        4,
        Box::new(psn_artifact::SlabSlotSpill::in_temp_file().unwrap()),
    );
    assert!(
        matches!(
            result,
            Err(StreamBuildError::Stream(StreamError::SlotRegression { slot: 3, .. }))
        ),
        "got {result:?}"
    );
}

proptest! {
    /// Any community trace streams into a windowed graph identical to the
    /// materialized reference, for any window size — the engine-pair
    /// property the whole streaming mode rests on.
    #[test]
    fn any_trace_any_window_matches_materialized(seed in 0u64..40, window in 1usize..6) {
        let config = ScenarioConfig::Community(CommunityConfig {
            name: format!("stream-prop-{seed}"),
            communities: 2,
            nodes_per_community: 5,
            window_seconds: 600.0,
            max_node_rate: 0.15,
            intra_inter_ratio: 3.0,
            mean_contact_duration: 30.0,
            contact_duration_cv: 0.5,
            seed,
        });
        assert_windowed_matches(&config.generate(), 10.0, window);
    }
}
