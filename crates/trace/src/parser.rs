//! Text-format parsing and serialization of contact traces.
//!
//! The iMote datasets are distributed as whitespace-separated text with one
//! contact per line. This module implements a compatible line-oriented
//! format so users who obtained the original CRAWDAD traces can load them
//! directly, and so synthetic traces can be written out and re-read.
//!
//! # Format
//!
//! ```text
//! # psn-trace v1
//! # name: synthetic-infocom06-0912
//! # window: 0 10800
//! # node: 0 mobile imote-000
//! # node: 1 stationary booth-001
//! <node_a> <node_b> <start_seconds> <end_seconds>
//! 0 1 12.0 140.0
//! ```
//!
//! Lines starting with `#` are metadata or comments; metadata keys are
//! `name:`, `window:` and `node:`. Contact lines have four whitespace
//! separated fields. Nodes that appear in contact lines but not in `node:`
//! metadata are registered automatically as mobile nodes.

use std::collections::BTreeMap;

use crate::contact::Contact;
use crate::node::{NodeClass, NodeId, NodeRegistry};
use crate::trace::{ContactTrace, TimeWindow};

/// Errors produced while parsing the text format.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// A contact line did not have exactly four fields.
    MalformedContactLine {
        /// 1-based line number.
        line: usize,
    },
    /// A numeric field could not be parsed.
    MalformedNumber {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A `# node:` metadata line was malformed.
    MalformedNodeLine {
        /// 1-based line number.
        line: usize,
    },
    /// A `# window:` metadata line was malformed.
    MalformedWindowLine {
        /// 1-based line number.
        line: usize,
    },
    /// The assembled trace failed validation.
    Trace(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::MalformedContactLine { line } => {
                write!(f, "line {line}: expected `a b start end`")
            }
            ParseError::MalformedNumber { line, token } => {
                write!(f, "line {line}: cannot parse number from {token:?}")
            }
            ParseError::MalformedNodeLine { line } => {
                write!(f, "line {line}: expected `# node: <id> <mobile|stationary> [label]`")
            }
            ParseError::MalformedWindowLine { line } => {
                write!(f, "line {line}: expected `# window: <start> <end>`")
            }
            ParseError::Trace(msg) => write!(f, "trace validation failed: {msg}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses a trace from the text format described in the module docs.
pub fn parse_trace(input: &str) -> Result<ContactTrace, ParseError> {
    let mut name = String::from("parsed-trace");
    let mut window: Option<TimeWindow> = None;
    // external id -> (class, label)
    let mut declared: Vec<(u32, NodeClass, String)> = Vec::new();
    let mut raw_contacts: Vec<(u32, u32, f64, f64)> = Vec::new();

    for (idx, raw_line) in input.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw_line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim();
            if let Some(v) = rest.strip_prefix("name:") {
                name = v.trim().to_string();
            } else if let Some(v) = rest.strip_prefix("window:") {
                let fields: Vec<&str> = v.split_whitespace().collect();
                if fields.len() != 2 {
                    return Err(ParseError::MalformedWindowLine { line: line_no });
                }
                let start = parse_f64(fields[0], line_no)?;
                let end = parse_f64(fields[1], line_no)?;
                if !(start.is_finite() && end.is_finite()) || end <= start {
                    return Err(ParseError::MalformedWindowLine { line: line_no });
                }
                window = Some(TimeWindow::new(start, end));
            } else if let Some(v) = rest.strip_prefix("node:") {
                let fields: Vec<&str> = v.split_whitespace().collect();
                if fields.len() < 2 {
                    return Err(ParseError::MalformedNodeLine { line: line_no });
                }
                let id: u32 = fields[0]
                    .parse()
                    .map_err(|_| ParseError::MalformedNodeLine { line: line_no })?;
                let class = match fields[1] {
                    "mobile" => NodeClass::Mobile,
                    "stationary" => NodeClass::Stationary,
                    _ => return Err(ParseError::MalformedNodeLine { line: line_no }),
                };
                let label =
                    fields.get(2).map(|s| s.to_string()).unwrap_or_else(|| format!("node-{id:03}"));
                declared.push((id, class, label));
            }
            // Other comments are ignored.
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 4 {
            return Err(ParseError::MalformedContactLine { line: line_no });
        }
        let a: u32 = fields[0].parse().map_err(|_| ParseError::MalformedNumber {
            line: line_no,
            token: fields[0].to_string(),
        })?;
        let b: u32 = fields[1].parse().map_err(|_| ParseError::MalformedNumber {
            line: line_no,
            token: fields[1].to_string(),
        })?;
        let start = parse_f64(fields[2], line_no)?;
        let end = parse_f64(fields[3], line_no)?;
        raw_contacts.push((a, b, start, end));
    }

    // Build the node registry: declared nodes first (in id order), then any
    // node that appears only in contact lines.
    declared.sort_by_key(|d| d.0);
    let mut external_to_internal: BTreeMap<u32, NodeId> = BTreeMap::new();
    let mut registry = NodeRegistry::new();
    for (ext, class, label) in &declared {
        let internal = registry.add_labeled(*class, label.clone());
        external_to_internal.insert(*ext, internal);
    }
    let mut extra: Vec<u32> = raw_contacts
        .iter()
        .flat_map(|&(a, b, _, _)| [a, b])
        .filter(|e| !external_to_internal.contains_key(e))
        .collect();
    extra.sort_unstable();
    extra.dedup();
    for ext in extra {
        let internal = registry.add_labeled(NodeClass::Mobile, format!("node-{ext:03}"));
        external_to_internal.insert(ext, internal);
    }

    let contacts: Result<Vec<Contact>, _> = raw_contacts
        .iter()
        .map(|&(a, b, s, e)| Contact::new(external_to_internal[&a], external_to_internal[&b], s, e))
        .collect();
    let contacts = contacts.map_err(|e| ParseError::Trace(e.to_string()))?;

    // Infer the window if not declared; validated contacts have finite ends.
    let window = window.unwrap_or_else(|| {
        let end = contacts.iter().map(|c| c.end).fold(1.0_f64, f64::max);
        TimeWindow::new(0.0, end)
    });

    ContactTrace::from_contacts(name, registry, window, contacts)
        .map_err(|e| ParseError::Trace(e.to_string()))
}

fn parse_f64(token: &str, line: usize) -> Result<f64, ParseError> {
    token.parse::<f64>().map_err(|_| ParseError::MalformedNumber { line, token: token.to_string() })
}

/// Serializes a trace to the text format accepted by [`parse_trace`].
pub fn write_trace(trace: &ContactTrace) -> String {
    let mut out = String::new();
    out.push_str("# psn-trace v1\n");
    out.push_str(&format!("# name: {}\n", trace.name()));
    out.push_str(&format!("# window: {} {}\n", trace.window().start, trace.window().end));
    for node in trace.nodes().iter() {
        out.push_str(&format!("# node: {} {} {}\n", node.id.0, node.class, node.label));
    }
    for c in trace.contacts() {
        out.push_str(&format!("{} {} {} {}\n", c.a.0, c.b.0, c.start, c.end));
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::node::NodeClass;

    const SAMPLE: &str = "\
# psn-trace v1
# name: sample
# window: 0 100
# node: 0 mobile alpha
# node: 1 stationary booth
# a free-form comment
0 1 10 20

1 2 30.5 35.5
";

    #[test]
    fn parses_sample_trace() {
        let trace = parse_trace(SAMPLE).unwrap();
        assert_eq!(trace.name(), "sample");
        assert_eq!(trace.window().start, 0.0);
        assert_eq!(trace.window().end, 100.0);
        assert_eq!(trace.contact_count(), 2);
        // Node 2 appears only in a contact line and is auto-registered.
        assert_eq!(trace.node_count(), 3);
        assert_eq!(trace.nodes().get(NodeId(0)).unwrap().label, "alpha");
        assert_eq!(trace.nodes().get(NodeId(1)).unwrap().class, NodeClass::Stationary);
        assert_eq!(trace.nodes().get(NodeId(2)).unwrap().class, NodeClass::Mobile);
    }

    #[test]
    fn round_trips_through_write_and_parse() {
        let original = parse_trace(SAMPLE).unwrap();
        let text = write_trace(&original);
        let reparsed = parse_trace(&text).unwrap();
        assert_eq!(original.name(), reparsed.name());
        assert_eq!(original.contact_count(), reparsed.contact_count());
        assert_eq!(original.node_count(), reparsed.node_count());
        assert_eq!(original.contacts(), reparsed.contacts());
    }

    #[test]
    fn infers_window_when_missing() {
        let trace = parse_trace("0 1 10 250\n1 2 5 30\n").unwrap();
        assert_eq!(trace.window().start, 0.0);
        assert_eq!(trace.window().end, 250.0);
    }

    #[test]
    fn rejects_malformed_contact_line() {
        let err = parse_trace("0 1 10\n").unwrap_err();
        assert_eq!(err, ParseError::MalformedContactLine { line: 1 });
    }

    #[test]
    fn rejects_malformed_numbers() {
        let err = parse_trace("0 1 ten 20\n").unwrap_err();
        assert!(matches!(err, ParseError::MalformedNumber { line: 1, .. }));
        let err = parse_trace("x 1 10 20\n").unwrap_err();
        assert!(matches!(err, ParseError::MalformedNumber { line: 1, .. }));
    }

    #[test]
    fn rejects_malformed_metadata() {
        assert!(matches!(
            parse_trace("# node: 0 flying\n0 1 0 1\n").unwrap_err(),
            ParseError::MalformedNodeLine { .. }
        ));
        assert!(matches!(
            parse_trace("# window: 5\n0 1 0 1\n").unwrap_err(),
            ParseError::MalformedWindowLine { .. }
        ));
        assert!(matches!(
            parse_trace("# window: 10 5\n0 1 0 1\n").unwrap_err(),
            ParseError::MalformedWindowLine { .. }
        ));
    }

    #[test]
    fn rejects_invalid_contacts_via_trace_error() {
        // Self-contact
        let err = parse_trace("3 3 0 1\n").unwrap_err();
        assert!(matches!(err, ParseError::Trace(_)));
    }

    #[test]
    fn non_finite_contact_ends_are_errors_not_panics() {
        // Without a `# window:` line the window is inferred from the
        // contact ends, so an infinite end must fail before inference.
        for input in ["0 1 0 inf\n", "0 1 0 1e999\n", "0 1 0 NaN\n"] {
            let err = parse_trace(input).unwrap_err();
            assert!(matches!(err, ParseError::Trace(_)), "{input:?} gave {err:?}");
        }
    }

    #[test]
    fn empty_input_gives_empty_trace() {
        let trace = parse_trace("# name: empty\n").unwrap();
        assert!(trace.is_empty());
        assert_eq!(trace.name(), "empty");
    }

    #[test]
    fn error_display_strings() {
        let errors = [
            ParseError::MalformedContactLine { line: 3 },
            ParseError::MalformedNumber { line: 1, token: "x".into() },
            ParseError::MalformedNodeLine { line: 2 },
            ParseError::MalformedWindowLine { line: 4 },
            ParseError::Trace("boom".into()),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
