//! An incremental specification monitor for long-running simulations.
//!
//! [`crate::spec`] checks a recorded [`Execution`](crate::Execution) after
//! the fact; this monitor checks PL1 and the identical-message form of
//! DL1/DL2 *online*, in O(1) time per event in the common case (see the
//! ledger costs below), so the simulation engine can run millions of
//! events without retaining the trace.
//!
//! **Space is O(copies sent) per direction**, not O(in-transit): a copy's
//! entry outlives its delivery or drop, because exactness needs the
//! retired states. A second delivery of a delivered copy is a
//! [`DuplicateDelivery`](SpecViolation::DuplicateDelivery), a delivery of a
//! dropped copy is a [`DeliveredAfterDrop`](SpecViolation::DeliveredAfterDrop),
//! and a copy never sent is an
//! [`UnsentDelivery`](SpecViolation::UnsentDelivery) — forgetting retired
//! copies would collapse the first two into the third.
//!
//! **The copy ledger.** Each direction keeps one flat `Vec` of
//! `(copy id, state)` pairs sorted by copy id (the same idea as the
//! channel multiset's flat representation), so cloning a monitor — which
//! the explorer does once per successor state — is a `Vec::clone_from`,
//! a memcpy into retained capacity. Costs per operation:
//!
//! - *insert* of an id above the last one is a push. Channels mint copy
//!   ids monotonically, so this is the common case. Anything else is a
//!   binary-search insert, O(log n) search plus an O(n) shift: an
//!   ordinary id recorded after a chaos twin (chaos ids start at the
//!   high `CHAOS_COPY_BASE` of the channel crate), or a drop of a copy
//!   never sent.
//! - *lookup* first tries the direct index `entries[id − first id]`,
//!   which hits whenever the ids recorded so far are dense — again the
//!   common case — and falls back to an O(log n) binary search. The
//!   direct index keeps lookups O(1) in long simulations, whose ledgers
//!   grow to thousands of entries.

use crate::event::Event;
use crate::packed::{Field, Reader};
use crate::packet::{CopyId, Dir, Packet};
use crate::spec::SpecViolation;

#[derive(Debug, Clone, Copy, PartialEq)]
enum CopyState {
    Sent(Packet),
    Delivered,
    Dropped,
}

/// One direction's PL1 copy states: `(copy id, state)` pairs sorted by
/// copy id. See the module docs for the push / direct-index / fallback
/// costs.
#[derive(Debug, Default)]
struct CopyLedger {
    entries: Vec<(CopyId, CopyState)>,
}

impl Clone for CopyLedger {
    fn clone(&self) -> Self {
        CopyLedger {
            entries: self.entries.clone(),
        }
    }

    /// A memcpy into the target's retained capacity: no allocation when
    /// that capacity covers the source's length.
    fn clone_from(&mut self, source: &Self) {
        self.entries.clone_from(&source.entries);
    }
}

impl CopyLedger {
    /// The entry index of `copy` (`Ok`), or where it would be inserted
    /// (`Err`).
    fn position(&self, copy: CopyId) -> Result<usize, usize> {
        let Some(&(first, _)) = self.entries.first() else {
            return Err(0);
        };
        let direct = copy
            .raw()
            .checked_sub(first.raw())
            .and_then(|offset| usize::try_from(offset).ok());
        if let Some(i) = direct {
            if self.entries.get(i).is_some_and(|&(id, _)| id == copy) {
                return Ok(i);
            }
        }
        self.entries.binary_search_by_key(&copy, |&(id, _)| id)
    }

    fn get_mut(&mut self, copy: CopyId) -> Option<&mut CopyState> {
        let i = self.position(copy).ok()?;
        Some(&mut self.entries[i].1)
    }

    /// Records `state` for `copy`, overwriting any earlier state.
    fn set(&mut self, copy: CopyId, state: CopyState) {
        if self.entries.last().is_none_or(|&(last, _)| last < copy) {
            self.entries.push((copy, state));
            return;
        }
        match self.position(copy) {
            Ok(i) => self.entries[i].1 = state,
            Err(i) => self.entries.insert(i, (copy, state)),
        }
    }

    /// Packs the ledger as `len << 1 | sparse`, then either a *dense run*
    /// — the first id, then each entry's state — when the ids are
    /// consecutive (channels mint them so), or each entry's explicit id
    /// and state otherwise (chaos twins, out-of-order ids). A state is one
    /// tag byte, plus the packet for `Sent` entries only.
    fn pack(&self, out: &mut Vec<u8>) {
        let n = self.entries.len();
        let sparse = match (self.entries.first(), self.entries.last()) {
            (Some(&(first, _)), Some(&(last, _))) => last.raw() - first.raw() != n as u64 - 1,
            _ => false,
        };
        (n << 1 | usize::from(sparse)).pack(out);
        if !sparse {
            if let Some((first, _)) = self.entries.first() {
                first.pack(out);
            }
        }
        for (copy, state) in &self.entries {
            if sparse {
                copy.pack(out);
            }
            match state {
                CopyState::Sent(packet) => {
                    out.push(0);
                    packet.pack(out);
                }
                CopyState::Delivered => out.push(1),
                CopyState::Dropped => out.push(2),
            }
        }
    }

    /// Refills the ledger from [`pack`](CopyLedger::pack)'s bytes, keeping
    /// its allocation.
    fn unpack(&mut self, r: &mut Reader<'_>) {
        self.entries.clear();
        let header = r.length();
        let (n, sparse) = (header >> 1, header & 1 == 1);
        let first = if sparse || n == 0 { 0 } else { r.varint() };
        for i in 0..n as u64 {
            let copy = if sparse {
                CopyId::read(r)
            } else {
                CopyId::from_raw(first + i)
            };
            let state = match r.u8() {
                0 => CopyState::Sent(Packet::read(r)),
                1 => CopyState::Delivered,
                2 => CopyState::Dropped,
                tag => panic!("packed copy state tag {tag}"),
            };
            self.entries.push((copy, state));
        }
    }
}

/// Online checker for PL1 (both directions) and the prefix-count form of
/// DL1 (`rm ≤ sm` at every prefix — exact for the identical-message model).
///
/// # Example
///
/// ```
/// use nonfifo_ioa::{Event, Message, SpecMonitor};
///
/// let mut mon = SpecMonitor::new();
/// mon.observe(&Event::SendMsg(Message::identical(0))).unwrap();
/// mon.observe(&Event::ReceiveMsg(Message::identical(0))).unwrap();
/// // A second delivery with no matching send violates DL1.
/// assert!(mon.observe(&Event::ReceiveMsg(Message::identical(1))).is_err());
/// ```
#[derive(Debug, Default)]
pub struct SpecMonitor {
    copies_fwd: CopyLedger,
    copies_bwd: CopyLedger,
    sm: u64,
    rm: u64,
    events_seen: u64,
    first_violation: Option<SpecViolation>,
    convergence_mode: bool,
    overdeliveries: u64,
    last_overdelivery_index: Option<usize>,
}

impl Clone for SpecMonitor {
    fn clone(&self) -> Self {
        SpecMonitor {
            copies_fwd: self.copies_fwd.clone(),
            copies_bwd: self.copies_bwd.clone(),
            sm: self.sm,
            rm: self.rm,
            events_seen: self.events_seen,
            first_violation: self.first_violation,
            convergence_mode: self.convergence_mode,
            overdeliveries: self.overdeliveries,
            last_overdelivery_index: self.last_overdelivery_index,
        }
    }

    /// Fieldwise `clone_from` so monitor clones in the explorer's scratch
    /// systems reuse the ledgers' allocations.
    fn clone_from(&mut self, source: &Self) {
        self.copies_fwd.clone_from(&source.copies_fwd);
        self.copies_bwd.clone_from(&source.copies_bwd);
        self.sm = source.sm;
        self.rm = source.rm;
        self.events_seen = source.events_seen;
        self.first_violation = source.first_violation;
        self.convergence_mode = source.convergence_mode;
        self.overdeliveries = source.overdeliveries;
        self.last_overdelivery_index = source.last_overdelivery_index;
    }
}

impl SpecMonitor {
    /// Creates a monitor with no observed events.
    pub fn new() -> Self {
        SpecMonitor::default()
    }

    /// Creates a monitor in *convergence mode*, for runs started from a
    /// corrupted state.
    ///
    /// PL1 stays fatal — the physical layer is not what corruption excuses,
    /// and chaos fault plans must remain checkable — but the prefix-count
    /// form of DL1 (`rm ≤ sm`) is *tracked* rather than latched: a run from
    /// a poisoned state legitimately drains phantom deliveries before it
    /// stabilizes, and once `rm > sm` the prefix counts never recover, so
    /// latching would condemn every corrupted start unconditionally.
    /// Convergence is instead judged after the fact by
    /// [`ConvergenceSpec`](crate::spec::ConvergenceSpec) on the retained
    /// execution; the monitor exposes
    /// [`overdeliveries`](Self::overdeliveries) and
    /// [`last_overdelivery_index`](Self::last_overdelivery_index) as cheap
    /// online diagnostics.
    pub fn convergence() -> Self {
        SpecMonitor {
            convergence_mode: true,
            ..SpecMonitor::default()
        }
    }

    /// True if this monitor tracks rather than latches DL overdeliveries.
    pub fn is_convergence_mode(&self) -> bool {
        self.convergence_mode
    }

    /// Convergence mode only: number of `receive_msg` events observed while
    /// `rm > sm` (phantom deliveries drained from the corrupted state).
    pub fn overdeliveries(&self) -> u64 {
        self.overdeliveries
    }

    /// Convergence mode only: event index of the most recent overdelivery —
    /// a lower bound on where a legal suffix can start.
    pub fn last_overdelivery_index(&self) -> Option<usize> {
        self.last_overdelivery_index
    }

    /// Number of events observed so far.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// The first violation observed, if any (also returned by the failing
    /// [`observe`](Self::observe) call).
    pub fn first_violation(&self) -> Option<SpecViolation> {
        self.first_violation
    }

    /// `sm − rm`: messages accepted but not yet delivered.
    pub fn outstanding_messages(&self) -> u64 {
        self.sm - self.rm.min(self.sm)
    }

    /// `sm`: messages accepted from the higher layer so far.
    pub fn messages_sent(&self) -> u64 {
        self.sm
    }

    /// `rm`: messages delivered to the higher layer so far.
    pub fn messages_delivered(&self) -> u64 {
        self.rm
    }

    /// Appends the monitor's state to a packed state record (see
    /// [`crate::packed`]): both copy ledgers and the counters.
    ///
    /// # Panics
    ///
    /// Panics if a violation is latched. Records hold only the states an
    /// exploration keeps expanding, and a violating state is never one of
    /// them, so the record has no field for it.
    pub fn pack(&self, out: &mut Vec<u8>) {
        assert!(
            self.first_violation.is_none(),
            "packing a monitor with a latched violation"
        );
        self.copies_fwd.pack(out);
        self.copies_bwd.pack(out);
        self.sm.pack(out);
        self.rm.pack(out);
        self.events_seen.pack(out);
        self.convergence_mode.pack(out);
        self.overdeliveries.pack(out);
        self.last_overdelivery_index.pack(out);
    }

    /// Overwrites `self` with a monitor packed by
    /// [`pack`](SpecMonitor::pack), reusing the ledgers' allocations.
    pub fn unpack(&mut self, r: &mut Reader<'_>) {
        self.copies_fwd.unpack(r);
        self.copies_bwd.unpack(r);
        self.sm.unpack(r);
        self.rm.unpack(r);
        self.events_seen.unpack(r);
        self.first_violation = None;
        self.convergence_mode.unpack(r);
        self.overdeliveries.unpack(r);
        self.last_overdelivery_index.unpack(r);
    }

    /// Feeds one event to the monitor.
    ///
    /// # Errors
    ///
    /// Returns the violation if this event breaks PL1 or prefix-DL1. The
    /// monitor latches the first violation but keeps accepting events, so a
    /// caller may continue a run for diagnostics.
    pub fn observe(&mut self, event: &Event) -> Result<(), SpecViolation> {
        self.events_seen += 1;
        let result = self.observe_inner(event);
        if let Err(v) = result {
            self.first_violation.get_or_insert(v);
            return Err(v);
        }
        Ok(())
    }

    fn copies(&mut self, dir: Dir) -> &mut CopyLedger {
        match dir {
            Dir::Forward => &mut self.copies_fwd,
            Dir::Backward => &mut self.copies_bwd,
        }
    }

    fn observe_inner(&mut self, event: &Event) -> Result<(), SpecViolation> {
        match *event {
            Event::SendMsg(_) => {
                self.sm += 1;
                Ok(())
            }
            Event::ReceiveMsg(_) => {
                self.rm += 1;
                if self.rm > self.sm {
                    let event_index = (self.events_seen - 1) as usize;
                    if self.convergence_mode {
                        self.overdeliveries += 1;
                        self.last_overdelivery_index = Some(event_index);
                        Ok(())
                    } else {
                        Err(SpecViolation::MessageInvented { event_index })
                    }
                } else {
                    Ok(())
                }
            }
            Event::SendPkt { dir, packet, copy } => {
                self.copies(dir).set(copy, CopyState::Sent(packet));
                Ok(())
            }
            Event::ReceivePkt { dir, packet, copy } => match self.copies(dir).get_mut(copy) {
                None => Err(SpecViolation::UnsentDelivery { dir, copy }),
                Some(CopyState::Delivered) => Err(SpecViolation::DuplicateDelivery { dir, copy }),
                Some(CopyState::Dropped) => Err(SpecViolation::DeliveredAfterDrop { dir, copy }),
                Some(CopyState::Sent(sent)) if *sent != packet => {
                    Err(SpecViolation::CorruptedDelivery { dir, copy })
                }
                Some(state) => {
                    *state = CopyState::Delivered;
                    Ok(())
                }
            },
            Event::DropPkt { dir, copy, .. } => {
                self.copies(dir).set(copy, CopyState::Dropped);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use crate::packed::Reader;
    use crate::packet::Header;

    fn sp(c: u64) -> Event {
        Event::SendPkt {
            dir: Dir::Forward,
            packet: Packet::header_only(Header::new(0)),
            copy: CopyId::from_raw(c),
        }
    }

    fn rp(c: u64) -> Event {
        Event::ReceivePkt {
            dir: Dir::Forward,
            packet: Packet::header_only(Header::new(0)),
            copy: CopyId::from_raw(c),
        }
    }

    fn dp(c: u64) -> Event {
        Event::DropPkt {
            dir: Dir::Forward,
            packet: Packet::header_only(Header::new(0)),
            copy: CopyId::from_raw(c),
        }
    }

    /// Packs `mon`, unpacks it into a monitor holding other state, and
    /// checks the copy is field-for-field equal and answers `probes`
    /// exactly like the original. Returns the record's size.
    fn assert_packs_losslessly(mon: &SpecMonitor, probes: &[Event]) -> usize {
        let mut out = Vec::new();
        mon.pack(&mut out);
        let mut back = SpecMonitor::new();
        for c in 100..140 {
            back.observe(&sp(c)).unwrap();
        }
        let mut r = Reader::new(&out);
        back.unpack(&mut r);
        r.finish();
        assert_eq!(format!("{back:?}"), format!("{mon:?}"));
        let mut original = mon.clone();
        for e in probes {
            assert_eq!(back.observe(e), original.observe(e), "{e:?}");
        }
        out.len()
    }

    #[test]
    fn dense_ledgers_pack_as_a_run() {
        let mut mon = SpecMonitor::new();
        for c in 5..13 {
            mon.observe(&sp(c)).unwrap();
        }
        mon.observe(&rp(8)).unwrap();
        mon.observe(&dp(10)).unwrap();
        // Header and first id, one tag byte per copy plus a one-byte
        // packet for the 6 still sent, the empty backward ledger, and 6
        // counter bytes.
        let size = assert_packs_losslessly(&mon, &[rp(8), rp(10), rp(11), rp(13)]);
        assert_eq!(size, 2 + 8 + 6 + 1 + 6);
    }

    #[test]
    fn sparse_ledgers_round_trip() {
        /// Mirrors `nonfifo_channel::CHAOS_COPY_BASE`.
        const CHAOS_COPY_BASE: u64 = 1 << 48;
        let probes = |ids: &[u64]| -> Vec<Event> { ids.iter().map(|&c| rp(c)).collect() };

        // Chaos twins minted from their own base, interleaved with
        // ordinary ids (the ordinary one lands below the twin).
        let mut chaos = SpecMonitor::new();
        for e in [
            sp(0),
            sp(1),
            sp(CHAOS_COPY_BASE),
            sp(2),
            sp(CHAOS_COPY_BASE + 1),
            rp(CHAOS_COPY_BASE),
        ] {
            chaos.observe(&e).unwrap();
        }
        let twins = [CHAOS_COPY_BASE, CHAOS_COPY_BASE + 1, 2, 3];
        assert_packs_losslessly(&chaos, &probes(&twins));

        // Out-of-order ids with a gap.
        let mut shuffled = SpecMonitor::new();
        for e in [sp(5), sp(2), sp(9), rp(2)] {
            shuffled.observe(&e).unwrap();
        }
        assert_packs_losslessly(&shuffled, &probes(&[2, 5, 7, 9]));

        // A drop of a copy never sent leaves a `Dropped` entry in a gap.
        let mut unsent_drop = SpecMonitor::new();
        for e in [sp(0), sp(1), dp(4)] {
            unsent_drop.observe(&e).unwrap();
        }
        assert_packs_losslessly(&unsent_drop, &probes(&[4, 1, 2]));
    }

    #[test]
    fn convergence_counters_round_trip() {
        let mut mon = SpecMonitor::convergence();
        mon.observe(&Event::ReceiveMsg(Message::identical(0)))
            .unwrap();
        mon.observe(&sp(0)).unwrap();
        assert_packs_losslessly(
            &mon,
            &[
                Event::ReceiveMsg(Message::identical(1)),
                Event::SendMsg(Message::identical(0)),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "latched violation")]
    fn packing_a_latched_violation_panics() {
        let mut mon = SpecMonitor::new();
        let _ = mon.observe(&rp(0));
        mon.pack(&mut Vec::new());
    }

    #[test]
    fn accepts_matched_stream() {
        let mut mon = SpecMonitor::new();
        for e in [sp(1), sp(2), rp(2), rp(1)] {
            mon.observe(&e).expect("ok");
        }
        assert_eq!(mon.events_seen(), 4);
        assert_eq!(mon.first_violation(), None);
    }

    #[test]
    fn latches_first_violation_but_keeps_running() {
        let mut mon = SpecMonitor::new();
        mon.observe(&sp(1)).unwrap();
        mon.observe(&rp(1)).unwrap();
        let v = mon.observe(&rp(1)).unwrap_err();
        assert!(matches!(v, SpecViolation::DuplicateDelivery { .. }));
        // Still accepts further (fine) events.
        mon.observe(&sp(2)).unwrap();
        assert_eq!(mon.first_violation(), Some(v));
    }

    #[test]
    fn prefix_dl1() {
        let mut mon = SpecMonitor::new();
        mon.observe(&Event::SendMsg(Message::identical(0))).unwrap();
        assert_eq!(mon.outstanding_messages(), 1);
        mon.observe(&Event::ReceiveMsg(Message::identical(0)))
            .unwrap();
        assert_eq!(mon.outstanding_messages(), 0);
        assert!(mon
            .observe(&Event::ReceiveMsg(Message::identical(1)))
            .is_err());
    }

    #[test]
    fn convergence_mode_tracks_overdeliveries_without_latching() {
        let mut mon = SpecMonitor::convergence();
        assert!(mon.is_convergence_mode());
        // Phantom deliveries from a corrupted start: tracked, not fatal.
        mon.observe(&Event::ReceiveMsg(Message::identical(90)))
            .unwrap();
        mon.observe(&Event::ReceiveMsg(Message::identical(91)))
            .unwrap();
        assert_eq!(mon.overdeliveries(), 2);
        assert_eq!(mon.last_overdelivery_index(), Some(1));
        assert_eq!(mon.first_violation(), None);
        // PL1 stays fatal even in convergence mode.
        assert!(mon.observe(&rp(1)).is_err());
        assert!(mon.first_violation().is_some());
    }

    #[test]
    fn convergence_mode_counts_continuing_overdelivery() {
        // rm stays ahead of sm: every further delivery while rm > sm counts.
        let mut mon = SpecMonitor::convergence();
        mon.observe(&Event::ReceiveMsg(Message::identical(0)))
            .unwrap();
        mon.observe(&Event::SendMsg(Message::identical(0))).unwrap();
        mon.observe(&Event::ReceiveMsg(Message::identical(0)))
            .unwrap();
        assert_eq!(mon.overdeliveries(), 2);
        assert_eq!(mon.last_overdelivery_index(), Some(2));
    }

    #[test]
    fn directions_are_independent() {
        let mut mon = SpecMonitor::new();
        mon.observe(&sp(7)).unwrap();
        // Same copy id on the other direction was never sent there.
        let e = Event::ReceivePkt {
            dir: Dir::Backward,
            packet: Packet::header_only(Header::new(0)),
            copy: CopyId::from_raw(7),
        };
        assert!(mon.observe(&e).is_err());
    }

    #[test]
    fn ledger_clone_from_reuses_capacity() {
        let mut source = SpecMonitor::new();
        for c in 1..=8 {
            source.observe(&sp(c)).unwrap();
        }
        source.observe(&rp(3)).unwrap();
        let mut target = SpecMonitor::new();
        for c in 1..=64 {
            target.observe(&sp(c)).unwrap();
        }
        let (ptr, cap) = (
            target.copies_fwd.entries.as_ptr(),
            target.copies_fwd.entries.capacity(),
        );
        target.clone_from(&source);
        assert_eq!(target.copies_fwd.entries, source.copies_fwd.entries);
        assert_eq!(
            target.copies_fwd.entries.as_ptr(),
            ptr,
            "clone_from reallocated"
        );
        assert_eq!(target.copies_fwd.entries.capacity(), cap);
        assert_eq!(target.events_seen(), source.events_seen());
    }

    /// Differential property against the `HashMap` representation the flat
    /// ledger replaced: seeded event streams mixing monotonic, chaos-base
    /// and out-of-order copy ids with re-deliveries, deliveries after a
    /// drop, unsent and corrupted deliveries must draw the same `observe`
    /// result on every event and latch the same first violation — also
    /// across `clone_from` hand-offs into stale monitors.
    #[test]
    fn flat_ledger_matches_hashmap_model() {
        use nonfifo_rng::StdRng;
        use std::collections::HashMap;

        /// Mirrors `nonfifo_channel::CHAOS_COPY_BASE`.
        const CHAOS_COPY_BASE: u64 = 1 << 48;

        /// The old representation, as the executable model.
        #[derive(Default)]
        struct Model {
            copies: HashMap<(Dir, CopyId), CopyState>,
            sm: u64,
            rm: u64,
            events: u64,
            first: Option<SpecViolation>,
        }

        impl Model {
            fn observe(&mut self, event: &Event) -> Result<(), SpecViolation> {
                self.events += 1;
                let result = match *event {
                    Event::SendMsg(_) => {
                        self.sm += 1;
                        Ok(())
                    }
                    Event::ReceiveMsg(_) => {
                        self.rm += 1;
                        if self.rm > self.sm {
                            Err(SpecViolation::MessageInvented {
                                event_index: (self.events - 1) as usize,
                            })
                        } else {
                            Ok(())
                        }
                    }
                    Event::SendPkt { dir, packet, copy } => {
                        self.copies.insert((dir, copy), CopyState::Sent(packet));
                        Ok(())
                    }
                    Event::ReceivePkt { dir, packet, copy } => {
                        match self.copies.get(&(dir, copy)).copied() {
                            None => Err(SpecViolation::UnsentDelivery { dir, copy }),
                            Some(CopyState::Delivered) => {
                                Err(SpecViolation::DuplicateDelivery { dir, copy })
                            }
                            Some(CopyState::Dropped) => {
                                Err(SpecViolation::DeliveredAfterDrop { dir, copy })
                            }
                            Some(CopyState::Sent(sent)) if sent != packet => {
                                Err(SpecViolation::CorruptedDelivery { dir, copy })
                            }
                            Some(CopyState::Sent(_)) => {
                                self.copies.insert((dir, copy), CopyState::Delivered);
                                Ok(())
                            }
                        }
                    }
                    Event::DropPkt { dir, copy, .. } => {
                        self.copies.insert((dir, copy), CopyState::Dropped);
                        Ok(())
                    }
                };
                if let Err(v) = result {
                    self.first.get_or_insert(v);
                }
                result
            }
        }

        let cases: u64 = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(16);
        for seed in 0..cases {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut mon = SpecMonitor::new();
            let mut stale = SpecMonitor::new();
            let mut model = Model::default();
            // Per direction: next monotonic id, next chaos id.
            let mut next = [1u64, 1u64];
            let mut next_chaos = [CHAOS_COPY_BASE; 2];
            let mut sent: Vec<(Dir, CopyId, Packet)> = Vec::new();
            for step in 0..400 {
                let d = rng.gen_range(0..2);
                let dir = Dir::BOTH[d];
                let packet = Packet::header_only(Header::new(rng.gen_range(0..3) as u32));
                let event = match rng.gen_range(0..12) {
                    // Monotonic sends, as every channel mints them.
                    0..=3 => {
                        let copy = CopyId::from_raw(next[d]);
                        next[d] += 1;
                        sent.push((dir, copy, packet));
                        Event::SendPkt { dir, packet, copy }
                    }
                    // A chaos twin, minted from its own id base.
                    4 => {
                        let copy = CopyId::from_raw(next_chaos[d]);
                        next_chaos[d] += 1;
                        sent.push((dir, copy, packet));
                        Event::SendPkt { dir, packet, copy }
                    }
                    // Out of order: below the latest id (possibly a resend
                    // of an id already recorded), or in a gap far above.
                    5 => {
                        let raw = if rng.gen_bool(0.5) {
                            rng.gen_range(0..next[d] as usize) as u64
                        } else {
                            next[d] + 1000 + rng.gen_range(0..1000) as u64
                        };
                        let copy = CopyId::from_raw(raw);
                        sent.push((dir, copy, packet));
                        Event::SendPkt { dir, packet, copy }
                    }
                    // Deliveries of sent copies — the second one of a copy
                    // is a re-delivery.
                    6..=8 if !sent.is_empty() => {
                        let (dir, copy, packet) = sent[rng.gen_range(0..sent.len())];
                        Event::ReceivePkt { dir, packet, copy }
                    }
                    // Drops: a later delivery of the copy is after-drop.
                    9 if !sent.is_empty() => {
                        let (dir, copy, packet) = sent[rng.gen_range(0..sent.len())];
                        Event::DropPkt { dir, packet, copy }
                    }
                    // Corrupted delivery: the right copy, a wrong value.
                    10 if !sent.is_empty() => {
                        let (dir, copy, packet) = sent[rng.gen_range(0..sent.len())];
                        let header = Header::new(packet.header().index() + 7);
                        Event::ReceivePkt {
                            dir,
                            packet: Packet::header_only(header),
                            copy,
                        }
                    }
                    // Unsent delivery (or, rarely, a lucky hit on a sent
                    // id — the model decides either way).
                    10 | 11 if rng.gen_bool(0.5) => {
                        let raw = match rng.gen_range(0..3) {
                            0 => next[d] + rng.gen_range(0..4) as u64,
                            1 => next_chaos[d] + rng.gen_range(0..4) as u64,
                            _ => rng.gen_range(0..(2 * next[d] as usize)) as u64,
                        };
                        Event::ReceivePkt {
                            dir,
                            packet,
                            copy: CopyId::from_raw(raw),
                        }
                    }
                    _ if rng.gen_bool(0.5) => Event::SendMsg(Message::identical(step)),
                    _ => Event::ReceiveMsg(Message::identical(step)),
                };
                assert_eq!(
                    mon.observe(&event),
                    model.observe(&event),
                    "seed {seed}, step {step}: {event:?}"
                );
                assert_eq!(
                    mon.first_violation(),
                    model.first,
                    "seed {seed}, step {step}"
                );
                assert_eq!(mon.events_seen(), model.events);
                // Hand the run over to a stale monitor now and then: the
                // copy must behave exactly like the original from here on.
                if rng.gen_range(0..40) == 0 {
                    stale.clone_from(&mon);
                    std::mem::swap(&mut mon, &mut stale);
                }
            }
        }
    }
}
