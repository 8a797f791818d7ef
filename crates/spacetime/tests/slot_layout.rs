//! Layout guard for the space-time graph's per-slot storage.

use psn_spacetime::SpaceTimeGraph;
use psn_trace::ScenarioConfig;

/// Bytes of graph per (contact, slot) incidence on the paper-scale
/// `infocom_morning` stand-in (98 nodes, 1 080 slots, 139 758 incidences).
/// A count of bytes, not a timing, so it holds on any host.
///
/// Measured 29.63 with one CSR block (offsets plus a flat neighbor array)
/// per slot; the bound leaves 5% above that. The former one-`Vec`-per-node
/// adjacency measured 44.56, as would any layout that pays a vector header
/// per node per slot.
#[test]
fn infocom_morning_graph_costs_under_31_bytes_per_incidence() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/infocom_morning.toml");
    let scenario = ScenarioConfig::from_path(std::path::Path::new(path)).expect("scenario parses");
    let graph = SpaceTimeGraph::build_default(&scenario.generate());
    assert_eq!(graph.total_edges(), 139_758, "the scenario's graph changed size");
    let per_edge = graph.approx_bytes() as f64 / graph.total_edges() as f64;
    assert!(per_edge < 31.0, "{per_edge:.2} bytes per incidence exceeds 31");
}
