//! Byte pins for every scenario family's generated trace.
//!
//! Each entry holds the digest of one `ScenarioConfig::generate()` output:
//! the trace name, every node's class and label, the window, and every
//! contact's endpoints plus the exact bits of its start and end. A change
//! to any family's random-number program (draw order, rate arithmetic,
//! scan mapping, sort) moves a digest here even where no figure golden
//! reads that family.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::Path;

use psn_trace::generator::config::{ActivityProfile, CommunityConfig, ConferenceConfig};
use psn_trace::{ContactTrace, DatasetId, FingerprintHasher, NodeClass, ScenarioConfig};
use psn_trace::{SyntheticDataset, TimeWindow};

fn trace_digest(trace: &ContactTrace) -> String {
    let mut h = FingerprintHasher::new("psn-family-trace/1");
    h.write_str(trace.name());
    h.write_u64(trace.node_count() as u64);
    for node in trace.nodes().iter() {
        h.write_bool(node.class == NodeClass::Stationary);
        h.write_str(&node.label);
    }
    let TimeWindow { start, end } = trace.window();
    h.write_f64(start);
    h.write_f64(end);
    h.write_u64(trace.contact_count() as u64);
    for c in trace.contacts() {
        h.write_u64(u64::from(c.a.0));
        h.write_u64(u64::from(c.b.0));
        h.write_f64(c.start);
        h.write_f64(c.end);
    }
    h.finish().to_hex()
}

fn check(label: &str, scenario: ScenarioConfig, expected: &str) -> Option<String> {
    let got = trace_digest(&scenario.generate());
    (got != expected).then(|| format!("{label}: expected {expected}, got {got}"))
}

#[test]
fn every_family_generates_its_pinned_trace() {
    let scenarios = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut cases: Vec<(String, ScenarioConfig, &str)> = Vec::new();
    for (file, digest) in [
        ("community_conference.toml", "f8dc1fcfcc8a1f07f828393b57e61758"),
        ("heterogeneous.json", "c0cda670a55581673117f56b52610f19"),
        ("homogeneous.toml", "ab4733649595549d6c61fe59029e0e9b"),
        ("infocom_morning.toml", "b8c18be75a6339a20dba656f5c8980c5"),
        ("scaled_1k.toml", "fa7ce21fbff84d251a3471c49c145aae"),
        ("scaled_5k.toml", "92c37fae6b0994ca1549ca4a962234d1"),
    ] {
        cases.push((
            file.to_string(),
            ScenarioConfig::from_path(&scenarios.join(file)).unwrap(),
            digest,
        ));
    }
    for (id, quick, paper) in [
        (
            DatasetId::Infocom06Morning,
            "2854d3f1668d03a220088a9ccb3bcdab",
            "b8c18be75a6339a20dba656f5c8980c5",
        ),
        (
            DatasetId::Infocom06Afternoon,
            "055a2a31b71b579f99198e8a0990a7a0",
            "f472043349442054ea7a0c1f28ea28b6",
        ),
        (
            DatasetId::Conext06Morning,
            "7d48046e284a385614c1ab03e399b4d7",
            "42b458a7e63742327ef7144eb3810588",
        ),
        (
            DatasetId::Conext06Afternoon,
            "1419fb99bdc50dbdb7cad83808b2f90a",
            "88d18c75db50ce82cb22d0bd7ecf07b8",
        ),
    ] {
        cases.push((format!("{id:?} quick"), SyntheticDataset::quick_config(id).into(), quick));
        cases.push((format!("{id:?} paper"), SyntheticDataset::paper_config(id).into(), paper));
    }
    // Scan off with a piecewise profile: the thinning draws decide which
    // candidate starts survive.
    cases.push((
        "conference piecewise, no scan".to_string(),
        ScenarioConfig::Conference(ConferenceConfig {
            name: "pin-piecewise".to_string(),
            mobile_nodes: 40,
            stationary_nodes: 10,
            window_seconds: 5400.0,
            max_node_rate: 0.04,
            min_node_rate: 0.0005,
            stationary_rate_factor: 1.3,
            mean_contact_duration: 100.0,
            contact_duration_cv: 0.9,
            activity: ActivityProfile::Piecewise(vec![1.0, 1.6, 0.4, 1.2]),
            inquiry_scan_period: None,
            seed: 0x5EED,
        }),
        "8314f5dbb574e77870fa73935c3969da",
    ));
    // Zero duration spread: log-normal durations consume no draws.
    cases.push((
        "community cv 0".to_string(),
        ScenarioConfig::Community(CommunityConfig {
            name: "pin-zero-cv".to_string(),
            communities: 3,
            nodes_per_community: 15,
            window_seconds: 5400.0,
            max_node_rate: 0.05,
            intra_inter_ratio: 5.0,
            mean_contact_duration: 90.0,
            contact_duration_cv: 0.0,
            seed: 77,
        }),
        "494475be931efae5121779de6a368aea",
    ));

    let failures: Vec<String> = cases
        .into_iter()
        .filter_map(|(label, scenario, expected)| check(&label, scenario, expected))
        .collect();
    assert!(failures.is_empty(), "trace digests moved:\n{}", failures.join("\n"));
}
