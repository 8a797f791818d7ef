//! The slab slot spill for the streaming space-time graph.
//!
//! The bounded-window [`psn_spacetime::WindowedSpaceTimeGraph`] keeps only a
//! sliding window of sealed slots hot and pushes cold slots through a
//! [`psn_spacetime::SlotSpill`]. [`SlabSlotSpill`] is the production sink:
//! every slot record is appended to a **single slab file** through a
//! reusable encode scratch buffer and read back positionally through the
//! same buffer. A record is a raw fixed-layout header (`slot u64 | edge
//! count u32`), the edge pairs, and a 128-bit checksum over both — no
//! per-record file metadata, no allocation on the store path, one
//! seek+write per store and one seek+read per load.
//!
//! Only the normalized edge list is persisted — adjacency, components and
//! member lists are rebuilt deterministically by `Slot::seal` on reload, so
//! a reloaded slot is bit-identical to the one that was spilled. A record
//! whose checksum or header does not match is **quarantined** (its index
//! entry is dropped) and surfaces as [`SpillError::Corrupt`]: the caller's
//! retry then sees a clean miss and can rebuild by re-streaming instead of
//! tripping over the same bad bytes. The sink carries the
//! `spill.store-slot` / `spill.load-slot` failpoints (see
//! `psn_fault::sites`), which the chaos suite uses to pin exactly that
//! quarantine-and-rebuild path.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use psn_spacetime::{SlotSpill, SpillError};
use psn_trace::{FingerprintHasher, NodeId};

/// Distinguishes concurrently created slab files within one process.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

fn next_spill_seq() -> u64 {
    // relaxed: unique-id sequence; only uniqueness matters, not ordering.
    SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
}

/// Byte length of the checksum that closes every slab record, after the
/// raw header (`slot u64 | edge count u32`) and 8 bytes per edge pair.
const SLAB_CHECKSUM: usize = 16;

/// The checksum of a record's header and edge pairs.
fn slab_checksum(record: &[u8]) -> [u8; SLAB_CHECKSUM] {
    let mut hasher = FingerprintHasher::new("psn-slab/1");
    hasher.write_bytes(record);
    hasher.finish().0.to_le_bytes()
}

#[derive(Debug)]
struct SlabState {
    file: File,
    /// Offset and byte length of the live record of each stored slot.
    index: BTreeMap<usize, (u64, u32)>,
    /// End-of-slab append offset.
    end: u64,
    /// Reusable encode/decode buffer — stores and loads both go through it,
    /// so the steady-state spill path allocates nothing.
    scratch: Vec<u8>,
}

/// The production [`SlotSpill`]: one append-only slab file, raw fixed-layout
/// records, reusable scratch buffers.
///
/// Stores append the record and remember `(offset, length)` in an in-memory
/// index; loads seek and read exactly the record back. Re-storing a slot
/// appends a fresh record and repoints the index (the dead record is
/// reclaimed when the slab is dropped with the graph). The record checksum
/// and header are verified on load; a mismatch drops the index entry —
/// quarantining the record as a miss so a rebuild can re-store cleanly —
/// and reports [`SpillError::Corrupt`].
#[derive(Debug)]
pub struct SlabSlotSpill {
    state: Mutex<SlabState>,
    path: PathBuf,
    cleanup: bool,
}

impl SlabSlotSpill {
    /// Creates (truncating) a slab at `path`; the file is left in place on
    /// drop.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self, SpillError> {
        let path = path.into();
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| SpillError::Io(format!("creating slab {}: {e}", path.display())))?;
        Ok(Self {
            state: Mutex::new(SlabState {
                file,
                index: BTreeMap::new(),
                end: 0,
                scratch: Vec::new(),
            }),
            path,
            cleanup: false,
        })
    }

    /// Creates a slab in a fresh process-unique temp file, removed when the
    /// spill is dropped.
    pub fn in_temp_file() -> Result<Self, SpillError> {
        let seq = next_spill_seq();
        let path =
            std::env::temp_dir().join(format!("psn-slab-{}-{seq}.psnspill", std::process::id()));
        let mut spill = Self::create(path)?;
        spill.cleanup = true;
        Ok(spill)
    }

    /// The slab file path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SlabState> {
        self.state.lock().unwrap_or_else(|poison| poison.into_inner())
    }
}

/// Verifies one slab record — checksum, then header — and decodes its
/// edge pairs; the error names what did not match.
fn decode_record(index: usize, record: &[u8]) -> Result<Vec<(NodeId, NodeId)>, &'static str> {
    let (bytes, checksum) = record.split_last_chunk::<SLAB_CHECKSUM>().ok_or("truncated record")?;
    if slab_checksum(bytes) != *checksum {
        return Err("checksum mismatch");
    }
    let (slot, rest) = bytes.split_first_chunk::<8>().ok_or("truncated header")?;
    let (count, pairs) = rest.split_first_chunk::<4>().ok_or("truncated header")?;
    if u64::from_le_bytes(*slot) != index as u64
        || pairs.len() != u32::from_le_bytes(*count) as usize * 8
    {
        return Err("header mismatch");
    }
    let node = |b: [u8; 4]| NodeId(u32::from_le_bytes(b));
    Ok(pairs
        .as_chunks::<8>()
        .0
        .iter()
        .map(|p| (node([p[0], p[1], p[2], p[3]]), node([p[4], p[5], p[6], p[7]])))
        .collect())
}

impl SlotSpill for SlabSlotSpill {
    fn store(&self, index: usize, edges: &[(NodeId, NodeId)]) -> Result<(), SpillError> {
        let mut guard = self.lock();
        let st = &mut *guard;
        st.scratch.clear();
        st.scratch.extend_from_slice(&(index as u64).to_le_bytes());
        st.scratch.extend_from_slice(&(edges.len() as u32).to_le_bytes());
        for &(a, b) in edges {
            st.scratch.extend_from_slice(&a.0.to_le_bytes());
            st.scratch.extend_from_slice(&b.0.to_le_bytes());
        }
        let checksum = slab_checksum(&st.scratch);
        st.scratch.extend_from_slice(&checksum);
        if psn_fault::enabled() {
            psn_fault::inject_io(psn_fault::sites::SPILL_STORE_SLOT, &mut st.scratch)
                .map_err(|e| SpillError::Io(format!("appending slot {index} to slab: {e}")))?;
        }
        let io = |e: std::io::Error| SpillError::Io(format!("appending slot {index} to slab: {e}"));
        st.file.seek(SeekFrom::Start(st.end)).map_err(io)?;
        st.file.write_all(&st.scratch).map_err(io)?;
        let len = st.scratch.len() as u32;
        st.index.insert(index, (st.end, len));
        st.end += u64::from(len);
        Ok(())
    }

    fn load(&self, index: usize) -> Result<Vec<(NodeId, NodeId)>, SpillError> {
        let mut guard = self.lock();
        let st = &mut *guard;
        let Some(&(offset, len)) = st.index.get(&index) else {
            return Err(SpillError::Missing(index));
        };
        let io = |e: std::io::Error| SpillError::Io(format!("reading slot {index} from slab: {e}"));
        st.file.seek(SeekFrom::Start(offset)).map_err(io)?;
        st.scratch.resize(len as usize, 0);
        let (file, scratch) = (&mut st.file, &mut st.scratch);
        file.read_exact(&mut scratch[..len as usize]).map_err(io)?;
        if psn_fault::enabled() {
            psn_fault::inject_io(psn_fault::sites::SPILL_LOAD_SLOT, scratch).map_err(io)?;
        }
        decode_record(index, &st.scratch).map_err(|what| {
            // Quarantine: drop the index entry so a retry sees a clean miss
            // it can rebuild over, instead of the same bad bytes.
            st.index.remove(&index);
            SpillError::Corrupt(format!("slab record for slot {index}: {what}"))
        })
    }

    fn scratch_bytes(&self) -> usize {
        self.lock().scratch.capacity()
    }
}

impl Drop for SlabSlotSpill {
    fn drop(&mut self) {
        if self.cleanup {
            // Best effort: a leftover temp file is harmless.
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn slab_round_trips_and_reports_misses() {
        let spill = SlabSlotSpill::in_temp_file().unwrap();
        let path = spill.path().to_path_buf();
        let edges = vec![(NodeId(5), NodeId(9)), (NodeId(0), NodeId(3)), (NodeId(2), NodeId(2))];
        spill.store(11, &edges).unwrap();
        spill.store(0, &[]).unwrap();
        assert_eq!(spill.load(11).unwrap(), edges);
        assert_eq!(spill.load(0).unwrap(), vec![]);
        assert_eq!(spill.load(12).unwrap_err(), SpillError::Missing(12));
        // Re-storing repoints the index to the fresh record.
        spill.store(11, &[(NodeId(1), NodeId(2))]).unwrap();
        assert_eq!(spill.load(11).unwrap(), vec![(NodeId(1), NodeId(2))]);
        assert!(spill.scratch_bytes() > 0, "scratch buffer is retained between calls");
        drop(spill);
        assert!(!path.exists(), "temp slab is removed on drop");
    }

    #[test]
    fn corrupt_slot_files_fail_closed_and_are_quarantined() {
        let spill = SlabSlotSpill::in_temp_file().unwrap();
        spill.store(0, &[(NodeId(0), NodeId(1))]).unwrap();
        let len = std::fs::metadata(spill.path()).unwrap().len() as usize;
        std::fs::write(spill.path(), b"garbage".repeat(len).get(..len).unwrap()).unwrap();
        assert!(matches!(spill.load(0).unwrap_err(), SpillError::Corrupt(_)));
        // The bad record was dropped from the index: a retry sees a clean
        // miss, and a re-store rebuilds the record.
        assert_eq!(spill.load(0).unwrap_err(), SpillError::Missing(0));
        spill.store(0, &[(NodeId(0), NodeId(1))]).unwrap();
        assert_eq!(spill.load(0).unwrap(), vec![(NodeId(0), NodeId(1))]);
    }

    #[test]
    fn caller_provided_slab_files_are_kept() {
        let path = std::env::temp_dir().join(format!("psn-slab-keep-test-{}", std::process::id()));
        {
            let spill = SlabSlotSpill::create(&path).unwrap();
            spill.store(1, &[(NodeId(0), NodeId(1))]).unwrap();
            assert_eq!(spill.load(1).unwrap(), vec![(NodeId(0), NodeId(1))]);
        }
        assert!(path.exists(), "an explicit slab path survives drop");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_flipped_payload_bit_on_disk_fails_closed_and_is_quarantined() {
        let spill = SlabSlotSpill::in_temp_file().unwrap();
        let marker = 0x00C0_FFEE;
        let edges = vec![(NodeId(1), NodeId(2)), (NodeId(3), NodeId(marker))];
        spill.store(0, &[(NodeId(0), NodeId(5))]).unwrap();
        spill.store(6, &edges).unwrap();
        // Flip the low bit of the marker node id inside the second record:
        // its header still reads right, only the payload is wrong.
        let mut bytes = std::fs::read(spill.path()).unwrap();
        let at = bytes.windows(4).position(|w| w == marker.to_le_bytes()).unwrap();
        bytes[at] ^= 1;
        std::fs::write(spill.path(), &bytes).unwrap();

        let err = spill.load(6).unwrap_err();
        assert!(matches!(&err, SpillError::Corrupt(what) if what.contains("checksum")), "{err:?}");
        assert_eq!(spill.load(6).unwrap_err(), SpillError::Missing(6), "record is quarantined");
        assert_eq!(spill.load(0).unwrap(), vec![(NodeId(0), NodeId(5))], "neighbours stay intact");
        spill.store(6, &edges).unwrap();
        assert_eq!(spill.load(6).unwrap(), edges, "rebuild heals the slot");
    }

    #[test]
    fn slab_spill_failpoints_quarantine_and_rebuild() {
        // The spill.store-slot / spill.load-slot chaos contract: a corrupt
        // record fails closed, is quarantined (subsequent load = clean
        // miss), and a rebuild (re-store) fully heals the slot.
        let spill = SlabSlotSpill::in_temp_file().unwrap();
        let edges = vec![(NodeId(4), NodeId(7)), (NodeId(1), NodeId(6))];
        {
            let _guard = psn_fault::arm_guard("spill.store-slot:corrupt-bytes:1");
            spill.store(2, &edges).unwrap(); // corrupted on the way down
        }
        let err = spill.load(2).unwrap_err();
        assert!(matches!(err, SpillError::Corrupt(_)), "{err:?}");
        assert_eq!(spill.load(2).unwrap_err(), SpillError::Missing(2), "record is quarantined");
        spill.store(2, &edges).unwrap();
        assert_eq!(spill.load(2).unwrap(), edges, "rebuild heals the slot");

        {
            let _guard = psn_fault::arm_guard("spill.load-slot:corrupt-bytes:1");
            assert!(matches!(spill.load(2).unwrap_err(), SpillError::Corrupt(_)));
        }
        assert_eq!(spill.load(2).unwrap_err(), SpillError::Missing(2));
        spill.store(2, &edges).unwrap();
        assert_eq!(spill.load(2).unwrap(), edges);

        {
            let _guard = psn_fault::arm_guard("spill.store-slot:io-error:1");
            assert!(matches!(spill.store(3, &edges).unwrap_err(), SpillError::Io(_)));
        }
        {
            let _guard = psn_fault::arm_guard("spill.load-slot:io-error:1");
            assert!(matches!(spill.load(2).unwrap_err(), SpillError::Io(_)));
        }
        assert_eq!(spill.load(2).unwrap(), edges, "io faults are transient, nothing quarantined");
    }

    #[test]
    fn drives_a_windowed_graph_end_to_end() {
        use psn_spacetime::{SpaceTimeGraph, WindowedSpaceTimeGraph};
        use psn_trace::contact::Contact;
        use psn_trace::node::{NodeClass, NodeRegistry};
        use psn_trace::trace::{ContactTrace, TimeWindow};
        use psn_trace::TraceEventStream;

        let mut reg = NodeRegistry::new();
        for _ in 0..5 {
            reg.add(NodeClass::Mobile);
        }
        let contacts = vec![
            Contact::new(NodeId(0), NodeId(1), 1.0, 15.0).unwrap(),
            Contact::new(NodeId(1), NodeId(2), 22.0, 28.0).unwrap(),
            Contact::new(NodeId(3), NodeId(4), 55.0, 95.0).unwrap(),
            Contact::new(NodeId(0), NodeId(4), 91.0, 99.0).unwrap(),
        ];
        let trace =
            ContactTrace::from_contacts("spill-e2e", reg, TimeWindow::new(0.0, 120.0), contacts)
                .unwrap();
        let reference = SpaceTimeGraph::build_default(&trace);
        // The slab answers every slot query bit-identically to the
        // materialized reference after spill round-trips.
        let spill = Box::new(SlabSlotSpill::in_temp_file().unwrap());
        let windowed =
            WindowedSpaceTimeGraph::stream(&mut TraceEventStream::new(&trace, 10.0), 1, spill)
                .unwrap();
        for s in (0..reference.slot_count()).rev() {
            let slot = windowed.slot(s);
            assert_eq!(slot.edges(), reference.edges(s), "slot {s}");
            assert_eq!(slot.active_nodes(), reference.active_nodes(s), "slot {s}");
        }
        assert!(windowed.spill_loads() > 0, "window of 1 forces reloads");
    }
}
