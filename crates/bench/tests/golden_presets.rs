//! Golden-file tests pinning every figure preset to the byte-for-byte
//! output of the pre-refactor `fig*` binaries.
//!
//! The files under `crates/bench/golden/` were captured by running the
//! original binaries (quick profile, release build) immediately before the
//! experiment layer was rewritten around the study pipeline. Each preset —
//! and therefore each `psn-study run --preset` invocation, whose text
//! output is [`psn::study::preset::PresetRun::text`] in every cache mode —
//! must keep reproducing them exactly. Study results are
//! independent of the worker-thread count (pinned by differential property
//! tests in `psn-spacetime` / `psn-forwarding`), so the captures compare
//! equal at any `--threads` value.

use psn::study::preset::PresetId;
use psn::{ArtifactStore, ExperimentProfile};

fn golden(preset: PresetId) -> String {
    let path = format!("{}/golden/{}.txt", env!("CARGO_MANIFEST_DIR"), preset.binary_name());
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden capture {path}: {e}"))
}

fn assert_matches_golden(preset: PresetId) {
    // The same call and store kind `psn-study run --preset` uses.
    let run = preset.run(ExperimentProfile::Quick, 2, &ArtifactStore::in_memory());
    let rendered = run.unwrap_or_else(|e| panic!("{preset}: {e}")).text();
    let expected = golden(preset);
    if rendered != expected {
        // Locate the first differing line so a mismatch is debuggable
        // without dumping hundreds of CSV rows.
        let mismatch = rendered
            .lines()
            .zip(expected.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("first diff at line {}: {a:?} vs golden {b:?}", i + 1))
            .unwrap_or_else(|| {
                format!(
                    "line counts differ: {} rendered vs {} golden",
                    rendered.lines().count(),
                    expected.lines().count()
                )
            });
        panic!("{}: preset output diverged from the pre-refactor binary — {mismatch}", preset);
    }
}

macro_rules! golden_preset_tests {
    ($($test_name:ident => $preset:ident),* $(,)?) => {$(
        #[test]
        fn $test_name() {
            assert_matches_golden(PresetId::$preset);
        }
    )*};
}

golden_preset_tests! {
    fig01_matches_pre_refactor_binary => Fig01,
    fig02_matches_pre_refactor_binary => Fig02,
    fig04_matches_pre_refactor_binary => Fig04,
    fig05_matches_pre_refactor_binary => Fig05,
    fig06_matches_pre_refactor_binary => Fig06,
    fig07_matches_pre_refactor_binary => Fig07,
    fig08_matches_pre_refactor_binary => Fig08,
    fig09_matches_pre_refactor_binary => Fig09,
    fig10_matches_pre_refactor_binary => Fig10,
    fig11_matches_pre_refactor_binary => Fig11,
    fig12_matches_pre_refactor_binary => Fig12,
    fig13_matches_pre_refactor_binary => Fig13,
    fig14_matches_pre_refactor_binary => Fig14,
    fig15_matches_pre_refactor_binary => Fig15,
    model_matches_pre_refactor_binary => Model,
}

#[test]
fn goldens_exist_for_every_preset() {
    for preset in PresetId::all() {
        assert!(!golden(preset).is_empty(), "{preset}: empty golden capture");
    }
}
