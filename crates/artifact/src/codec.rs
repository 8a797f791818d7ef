//! Versioned hand-rolled binary codec for on-disk trace artifacts.
//!
//! The build environment vendors a marker-only serde, so the disk tier
//! encodes traces directly: a fixed header (magic, format version, kind),
//! the canonical identity string of the scenario that generated the trace
//! (collision check), then the registry, window and contact list in
//! little-endian fixed-width fields. Anything unexpected — wrong magic,
//! unknown version, truncation, a contact the validating constructors
//! reject — decodes to an error, which the disk tier treats as a cache
//! miss (rebuild and overwrite), never as data.

use psn_trace::node::{NodeClass, NodeRegistry};
use psn_trace::{Contact, ContactTrace, NodeId, TimeWindow};

/// File magic for every psn-artifact binary file.
pub const MAGIC: &[u8; 6] = b"PSNART";
/// Current binary format version. Bump on any layout change; old files
/// then decode to [`CodecError::Version`] and are rebuilt.
pub const FORMAT_VERSION: u8 = 1;
/// Artifact-kind byte: a contact trace.
const KIND_TRACE: u8 = 1;

/// Why a binary artifact failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The file does not start with the psn-artifact magic.
    Magic,
    /// The file is a different (older or newer) format version.
    Version(u8),
    /// The artifact-kind byte is not the expected kind.
    Kind(u8),
    /// The buffer ended before the structure was complete.
    Truncated,
    /// A length or count field exceeds the buffer (corruption guard).
    Corrupt(&'static str),
    /// The decoded identity does not match the requested one — a
    /// fingerprint collision or a mis-filed artifact.
    Identity {
        /// The identity stored in the file.
        stored: String,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Magic => write!(f, "not a psn-artifact file"),
            CodecError::Version(v) => write!(f, "unsupported format version {v}"),
            CodecError::Kind(k) => write!(f, "unexpected artifact kind {k}"),
            CodecError::Truncated => write!(f, "file is truncated"),
            CodecError::Corrupt(what) => write!(f, "corrupt field: {what}"),
            CodecError::Identity { stored } => {
                write!(f, "identity mismatch (stored artifact belongs to {stored:?})")
            }
        }
    }
}

impl std::error::Error for CodecError {}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encodes a trace plus the canonical identity of the scenario that
/// generated it.
pub fn encode_trace(trace: &ContactTrace, identity: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + identity.len() + trace.contact_count() * 24);
    out.extend_from_slice(MAGIC);
    out.push(FORMAT_VERSION);
    out.push(KIND_TRACE);
    put_str(&mut out, identity);
    put_str(&mut out, trace.name());
    out.extend_from_slice(&trace.window().start.to_le_bytes());
    out.extend_from_slice(&trace.window().end.to_le_bytes());
    out.extend_from_slice(&(trace.node_count() as u64).to_le_bytes());
    for node in trace.nodes().iter() {
        out.push(match node.class {
            NodeClass::Mobile => 0,
            NodeClass::Stationary => 1,
        });
        put_str(&mut out, &node.label);
    }
    out.extend_from_slice(&(trace.contact_count() as u64).to_le_bytes());
    for c in trace.contacts() {
        out.extend_from_slice(&c.a.0.to_le_bytes());
        out.extend_from_slice(&c.b.0.to_le_bytes());
        out.extend_from_slice(&c.start.to_le_bytes());
        out.extend_from_slice(&c.end.to_le_bytes());
    }
    out
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.bytes.len() {
            return Err(CodecError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let bytes = self.take(4)?.try_into().map_err(|_| CodecError::Truncated)?;
        Ok(u32::from_le_bytes(bytes))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let bytes = self.take(8)?.try_into().map_err(|_| CodecError::Truncated)?;
        Ok(u64::from_le_bytes(bytes))
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        let bytes = self.take(8)?.try_into().map_err(|_| CodecError::Truncated)?;
        Ok(f64::from_le_bytes(bytes))
    }

    fn str(&mut self, what: &'static str) -> Result<String, CodecError> {
        let len = self.u64()?;
        let len = usize::try_from(len).map_err(|_| CodecError::Corrupt(what))?;
        if len > self.bytes.len() {
            // A length exceeding the whole file is corruption, not a
            // legitimate long string.
            return Err(CodecError::Corrupt(what));
        }
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| CodecError::Corrupt(what))
    }
}

/// Decodes a trace encoded by [`encode_trace`], verifying the embedded
/// identity equals `expect_identity`.
pub fn decode_trace(bytes: &[u8], expect_identity: &str) -> Result<ContactTrace, CodecError> {
    let injected = psn_fault::enabled()
        .then(|| psn_fault::inject_decode(psn_fault::sites::CODEC_DECODE_TRACE, bytes))
        .flatten();
    let bytes = injected.as_deref().unwrap_or(bytes);
    let mut r = Reader { bytes, pos: 0 };
    if r.take(MAGIC.len())? != MAGIC {
        return Err(CodecError::Magic);
    }
    let version = r.u8()?;
    if version != FORMAT_VERSION {
        return Err(CodecError::Version(version));
    }
    let kind = r.u8()?;
    if kind != KIND_TRACE {
        return Err(CodecError::Kind(kind));
    }
    let identity = r.str("identity")?;
    if identity != expect_identity {
        return Err(CodecError::Identity { stored: identity });
    }
    let name = r.str("name")?;
    let window_start = r.f64()?;
    let window_end = r.f64()?;
    // Validate before TimeWindow::new, whose asserts would abort the
    // process — corruption must decode to an error (= cache miss), never
    // a panic.
    if !(window_start.is_finite() && window_end.is_finite() && window_end > window_start) {
        return Err(CodecError::Corrupt("window"));
    }
    let window = TimeWindow::new(window_start, window_end);
    let node_count = r.u64()?;
    let node_count = usize::try_from(node_count).map_err(|_| CodecError::Corrupt("node count"))?;
    let mut registry = NodeRegistry::new();
    for _ in 0..node_count {
        let class = match r.u8()? {
            0 => NodeClass::Mobile,
            1 => NodeClass::Stationary,
            _ => return Err(CodecError::Corrupt("node class")),
        };
        let label = r.str("node label")?;
        registry.add_labeled(class, label);
    }
    let contact_count = r.u64()?;
    let contact_count =
        usize::try_from(contact_count).map_err(|_| CodecError::Corrupt("contact count"))?;
    // Each contact is at least 24 bytes; reject counts the buffer cannot hold.
    if contact_count > bytes.len() / 24 + 1 {
        return Err(CodecError::Corrupt("contact count"));
    }
    let mut contacts = Vec::with_capacity(contact_count);
    for _ in 0..contact_count {
        let a = NodeId(r.u32()?);
        let b = NodeId(r.u32()?);
        let start = r.f64()?;
        let end = r.f64()?;
        contacts.push(Contact::new(a, b, start, end).map_err(|_| CodecError::Corrupt("contact"))?);
    }
    if r.pos != bytes.len() {
        return Err(CodecError::Corrupt("trailing bytes"));
    }
    ContactTrace::from_contacts(name, registry, window, contacts)
        .map_err(|_| CodecError::Corrupt("contact references unknown node"))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use psn_trace::generator::config::{CommunityConfig, ConferenceConfig};
    use psn_trace::ScenarioConfig;

    fn sample_traces() -> Vec<ContactTrace> {
        vec![
            ScenarioConfig::Community(CommunityConfig::default()).generate(),
            ScenarioConfig::Conference(ConferenceConfig {
                mobile_nodes: 12,
                stationary_nodes: 3,
                window_seconds: 900.0,
                ..ConferenceConfig::default()
            })
            .generate(),
            // An empty trace (no contacts) must round-trip too.
            ContactTrace::new("empty", NodeRegistry::with_counts(3, 1), TimeWindow::new(5.0, 25.0)),
        ]
    }

    #[test]
    fn traces_round_trip_bit_identically() {
        for trace in sample_traces() {
            let encoded = encode_trace(&trace, "id-1");
            let decoded = decode_trace(&encoded, "id-1").expect("decodes");
            assert_eq!(decoded, trace);
            assert_eq!(decoded.name(), trace.name());
            assert_eq!(decoded.window(), trace.window());
            // Node classes and labels survive.
            for (a, b) in decoded.nodes().iter().zip(trace.nodes().iter()) {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn corruption_and_version_skew_fail_closed() {
        let trace = sample_traces().pop().unwrap();
        let good = encode_trace(&trace, "id");

        assert_eq!(decode_trace(b"not an artifact", "id").unwrap_err(), CodecError::Magic);

        let mut wrong_version = good.clone();
        wrong_version[MAGIC.len()] = FORMAT_VERSION + 1;
        assert_eq!(
            decode_trace(&wrong_version, "id").unwrap_err(),
            CodecError::Version(FORMAT_VERSION + 1)
        );

        let mut wrong_kind = good.clone();
        wrong_kind[MAGIC.len() + 1] = 99;
        assert_eq!(decode_trace(&wrong_kind, "id").unwrap_err(), CodecError::Kind(99));

        // Truncation anywhere is an error, never a partial trace.
        for cut in [good.len() / 3, good.len() - 1] {
            assert!(decode_trace(&good[..cut], "id").is_err(), "cut at {cut}");
        }

        // Trailing garbage is rejected.
        let mut padded = good.clone();
        padded.push(0);
        assert!(decode_trace(&padded, "id").is_err());

        // Corrupted window bytes decode to an error, never a panic (the
        // validating TimeWindow constructor would abort the process).
        let window_offset = MAGIC.len() + 2 + (8 + "id".len()) + (8 + trace.name().len());
        for bad_start in [f64::NAN, f64::INFINITY, 1e12] {
            let mut corrupt = good.clone();
            corrupt[window_offset..window_offset + 8].copy_from_slice(&bad_start.to_le_bytes());
            assert_eq!(
                decode_trace(&corrupt, "id").unwrap_err(),
                CodecError::Corrupt("window"),
                "window start {bad_start}"
            );
        }

        // The wrong identity is a loud mismatch, not a silent hit.
        match decode_trace(&good, "other-id").unwrap_err() {
            CodecError::Identity { stored } => assert_eq!(stored, "id"),
            other => panic!("expected identity mismatch, got {other:?}"),
        }
    }
}
