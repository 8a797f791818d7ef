//! No-panic mutation tests for the text parsers that read outside input.
//!
//! Scenario and sweep configs come from the user, trace files from
//! wherever a trace was captured, and `psn-report/1` documents from the
//! result cache's disk tier. The contract under test: each parser
//! **returns `Ok` or `Err`** on any text — it never panics. Inputs are the
//! shipped scenario files, a `write_trace` output and a rendered report,
//! mutated by random insertions, deletions and replacements of short
//! tokens chosen to hit number, string and structure edge cases.

use std::sync::OnceLock;

use proptest::prelude::*;
use psn::report::JsonRenderer;
use psn::study::{run_study, StudyId, StudyParams, StudyScenario, StudySpec};
use psn::ExperimentProfile;
use psn_trace::generator::config::ConferenceConfig;
use psn_trace::parser::{parse_trace, write_trace};
use psn_trace::{DatasetId, ScenarioConfig, ScenarioSweep};

/// Tokens spliced into the seeds: overflowing and non-finite numbers,
/// string and escape openers, brackets and line structure.
const TOKENS: &[&str] = &[
    "inf",
    "-inf",
    "nan",
    "1e999",
    "-1",
    "0",
    "4294967296",
    "18446744073709551616",
    "\"",
    "\\u",
    "\\ud800",
    "[",
    "]",
    "{",
    "}",
    "=",
    ",",
    ":",
    "#",
    "\n",
    "\n[",
    "\n# window: ",
];

/// The seed texts, built once: the scenario files in name order, then the
/// trace with and without its metadata, then the report.
fn seeds() -> &'static [String] {
    static SEEDS: OnceLock<Vec<String>> = OnceLock::new();
    SEEDS.get_or_init(build_seeds)
}

fn build_seeds() -> Vec<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("scenarios directory")
        .map(|entry| entry.expect("scenario entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml" || e == "json"))
        .collect();
    paths.sort();
    let mut seeds: Vec<String> =
        paths.iter().map(|p| std::fs::read_to_string(p).expect("scenario file")).collect();
    assert!(seeds.len() >= 6, "expected the shipped scenario files in {}", dir.display());

    let conference = ScenarioConfig::Conference(ConferenceConfig {
        mobile_nodes: 8,
        stationary_nodes: 2,
        window_seconds: 400.0,
        ..ConferenceConfig::default()
    });
    let trace = write_trace(&conference.generate());
    // Without its `#` metadata lines the parser infers the window from
    // the contacts.
    let bare: String =
        trace.lines().filter(|l| !l.starts_with('#')).flat_map(|l| [l, "\n"]).collect();
    seeds.extend([trace, bare]);

    let profile = ExperimentProfile::Quick;
    let spec = StudySpec::new(
        StudyId::Activity,
        vec![StudyScenario::dataset(DatasetId::Infocom06Morning, profile)],
        StudyParams::for_profile(profile).with_threads(1),
    );
    let report = run_study(&spec.plan().expect("activity plan"));
    seeds.push(JsonRenderer.render_json(&report.doc));
    seeds
}

/// Applies `edits` to `seed`: each edit is (operation, position in
/// permille of the current length, token index). An insert splices the
/// token in, a delete removes a few chars, and a replace swaps the whole
/// word (number, key or name) at the position for the token. Works on
/// chars so every mutant stays valid UTF-8.
fn mutate(seed: &str, edits: &[(usize, usize, usize)]) -> String {
    let in_word = |c: &char| c.is_alphanumeric() || matches!(c, '.' | '-' | '+' | '_');
    let mut text: Vec<char> = seed.chars().collect();
    for &(op, permille, token) in edits {
        let at = permille * text.len() / 1000;
        let token: Vec<char> = TOKENS[token].chars().collect();
        match op {
            0 => {
                text.splice(at..at, token);
            }
            1 => {
                let end = (at + 1 + token.len()).min(text.len());
                text.drain(at..end);
            }
            _ => {
                let start = at - text[..at].iter().rev().take_while(|c| in_word(c)).count();
                let end = at + text[at..].iter().take_while(|c| in_word(c)).count().max(1);
                text.splice(start..end.min(text.len()), token);
            }
        }
    }
    text.into_iter().collect()
}

/// Runs every parser on `text`; a panic fails the test naming the parser.
fn parsers_must_not_panic(text: &str) {
    must_not_panic("ScenarioConfig::from_config_str", text, |t| {
        ScenarioConfig::from_config_str(t).is_ok()
    });
    must_not_panic("ScenarioSweep::from_config_str", text, |t| {
        ScenarioSweep::from_config_str(t).is_ok()
    });
    must_not_panic("parse_trace", text, |t| parse_trace(t).is_ok());
    must_not_panic("JsonRenderer::parse", text, |t| JsonRenderer.parse(t).is_ok());
}

fn must_not_panic(name: &str, text: &str, parse: fn(&str) -> bool) {
    let outcome = std::panic::catch_unwind(|| parse(text));
    assert!(outcome.is_ok(), "{name} panicked on input:\n{text}");
}

#[test]
fn unmutated_seeds_parse_with_their_own_parser() {
    let (report, rest) = seeds().split_last().expect("seeds");
    let (files, traces) = rest.split_at(rest.len() - 2);
    for file in files {
        let scenario = ScenarioConfig::from_config_str(file).map(|_| ());
        let sweep = ScenarioSweep::from_config_str(file).map(|_| ());
        assert!(scenario.is_ok() || sweep.is_ok(), "a shipped config fails to parse:\n{file}");
    }
    for trace in traces {
        assert!(parse_trace(trace).is_ok());
    }
    assert!(JsonRenderer.parse(report).is_ok());
}

proptest! {
    #[test]
    fn mutated_inputs_are_ok_or_err_never_a_panic(
        edits in proptest::collection::vec((0usize..3, 0usize..1000, 0usize..TOKENS.len()), 1..6),
    ) {
        // Every prefix of the edit list is a mutant of its own.
        for seed in seeds() {
            for applied in 1..=edits.len() {
                parsers_must_not_panic(&mutate(seed, &edits[..applied]));
            }
        }
    }
}
