//! Inquiry-scan observation model.
//!
//! The iMotes did not record co-location continuously: each device performed
//! a Bluetooth inquiry every 120 seconds and logged a contact when a peer
//! responded. A physical co-location interval therefore appears in the trace
//! as a contact whose start is aligned to a scan instant and whose end is
//! the last scan at which the peer was still present.
//!
//! [`scan_observe`] converts one "ground-truth" co-location interval into
//! that observed form: a contact `[start, end]` becomes a contact from the
//! first scan instant `>= start` to the last scan instant `<= end` (plus one
//! scan period, since the devices consider the peer present until the next
//! failed inquiry). Intervals too short to be observed by any scan are
//! dropped — exactly the short-contact censoring the real datasets exhibit.
//! Both modes of the conference program map every drawn contact through it.

use crate::contact::Contact;
use crate::Seconds;

/// Observes `contact` through a periodic inquiry scan with scan instants
/// `0, period, 2·period, …` relative to a window `[0, window_end)`
/// (the iMotes used 120 s). `None` when no scan falls inside the contact.
///
/// # Panics
///
/// Panics if `period` is not strictly positive.
pub fn scan_observe(contact: Contact, period: Seconds, window_end: Seconds) -> Option<Contact> {
    assert!(period > 0.0, "scan period must be positive");
    // First scan instant at or after the contact starts.
    let first_scan = (contact.start / period).ceil() * period;
    if first_scan > contact.end || first_scan >= window_end {
        return None;
    }
    // Last scan instant that still observes the peer. The device assumes
    // the peer remains present until the next (failed) inquiry, so extend
    // by one period but never past the window end.
    let last_scan = (contact.end / period).floor() * period;
    let observed_end = (last_scan + period).min(window_end);
    Some(
        Contact::new(contact.a, contact.b, first_scan, observed_end.max(first_scan))
            .unwrap_or_else(|e| unreachable!("scan-aligned contacts remain valid: {e}")),
    )
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::datasets::{DatasetId, SyntheticDataset};
    use crate::node::NodeId;
    use crate::scenario::ScenarioConfig;

    fn observe(start: f64, end: f64) -> Option<Contact> {
        scan_observe(Contact::new(NodeId(0), NodeId(1), start, end).unwrap(), 120.0, 3600.0)
    }

    #[test]
    fn long_contact_is_aligned_to_scan_grid() {
        let c = observe(130.0, 400.0).unwrap();
        assert_eq!(c.start, 240.0); // first scan >= 130
        assert_eq!(c.end, 480.0); // last scan <= 400 is 360, plus one period
    }

    #[test]
    fn short_contact_between_scans_is_dropped() {
        assert!(observe(130.0, 200.0).is_none());
    }

    #[test]
    fn contact_spanning_scan_instant_is_kept() {
        assert_eq!(observe(110.0, 125.0).unwrap().start, 120.0);
    }

    #[test]
    fn observed_end_never_exceeds_window() {
        // Last scan inside the contact is 3480; extending by one period would
        // reach 3600, which is clamped to the window end.
        assert!(observe(3400.0, 3550.0).unwrap().end <= 3600.0);
    }

    #[test]
    fn contact_starting_at_scan_instant() {
        assert_eq!(observe(240.0, 250.0).unwrap().start, 240.0);
    }

    #[test]
    fn name_records_scan_period() {
        let ds = SyntheticDataset::quick_config(DatasetId::Conext06Morning);
        assert_eq!(ds.config.inquiry_scan_period, Some(120.0));
        let trace = ScenarioConfig::from(ds).generate();
        assert!(trace.name().ends_with("-scan120"), "{}", trace.name());
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_period() {
        scan_observe(Contact::new(NodeId(0), NodeId(1), 0.0, 10.0).unwrap(), 0.0, 3600.0);
    }
}
