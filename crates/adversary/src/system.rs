//! The composed closed system under adversary control.

use nonfifo_channel::{
    corrupt_packet, AdversarialChannel, Channel, ChannelIntrospect, FaultObserver,
};
use nonfifo_ioa::packed::{Field, Reader};
use nonfifo_ioa::{CopyId, Dir, Event, Execution, Header, Message, Packet, SpecViolation};
use nonfifo_ioa::{Counts, SpecMonitor};
use nonfifo_protocols::{BoxedReceiver, BoxedTransmitter, DataLink, GhostInfo};

/// What the adversary does with a freshly sent forward packet during a
/// [`System::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Leave the copy delayed on the channel.
    Park,
    /// Deliver the copy this step.
    Deliver,
}

/// The closed system of the paper's Figure 1 with both physical channels
/// under adversary control.
///
/// The forward channel is permanently in
/// [`DeliveryMode::Park`](nonfifo_channel::DeliveryMode::Park): every fresh
/// copy is parked, and the per-step policy decides which copies — fresh or
/// stale — are released. Acknowledgements flow immediately (the proofs never
/// need to manipulate the backward channel: in each simulation argument the
/// receiver behaves identically and re-sends its acks fresh).
///
/// Every action is recorded in an [`Execution`] and checked online by a
/// [`SpecMonitor`]; the falsifiers succeed precisely when the monitor flags
/// `rm > sm`.
pub struct System {
    /// The transmitting-station automaton.
    pub tx: BoxedTransmitter,
    /// The receiving-station automaton.
    pub rx: BoxedReceiver,
    /// The forward (t→r) channel, parked by default.
    pub fwd: AdversarialChannel,
    /// The backward (r→t) channel, immediate by default.
    pub bwd: AdversarialChannel,
    exec: Execution,
    monitor: SpecMonitor,
    next_msg: u64,
    /// Forward-channel watermark at the most recent `send_msg` — copies
    /// older than this are the stale population.
    round_watermark: CopyId,
    /// How many packets the policy may pump from the transmitter per step.
    pub burst: usize,
    peak_space: usize,
    /// Distinct forward packet values sent so far, kept sorted (a flat vec:
    /// the alphabet is tiny and binary-search insert beats a tree's pointer
    /// chasing and per-node allocations).
    sent_values: Vec<Packet>,
    partitioned: bool,
    /// Whether the protocol consumes [`GhostInfo`]; honest protocols don't,
    /// and [`step`](System::step) skips the ghost sweep entirely for them.
    uses_ghosts: bool,
    /// Reusable ghost summary so the per-step sweep never allocates.
    ghost_scratch: GhostInfo,
}

/// Every field but the ghost scratch, which is per-step working memory
/// rather than state.
impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("tx", &self.tx)
            .field("rx", &self.rx)
            .field("fwd", &self.fwd)
            .field("bwd", &self.bwd)
            .field("exec", &self.exec)
            .field("monitor", &self.monitor)
            .field("next_msg", &self.next_msg)
            .field("round_watermark", &self.round_watermark)
            .field("burst", &self.burst)
            .field("peak_space", &self.peak_space)
            .field("sent_values", &self.sent_values)
            .field("partitioned", &self.partitioned)
            .field("uses_ghosts", &self.uses_ghosts)
            .finish_non_exhaustive()
    }
}

impl Clone for System {
    fn clone(&self) -> Self {
        System {
            tx: self.tx.clone_box(),
            rx: self.rx.clone_box(),
            fwd: self.fwd.clone(),
            bwd: self.bwd.clone(),
            exec: self.exec.clone(),
            monitor: self.monitor.clone(),
            next_msg: self.next_msg,
            round_watermark: self.round_watermark,
            burst: self.burst,
            peak_space: self.peak_space,
            sent_values: self.sent_values.clone(),
            partitioned: self.partitioned,
            uses_ghosts: self.uses_ghosts,
            ghost_scratch: GhostInfo::default(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.assign_from(source);
    }
}

impl System {
    /// Builds the closed system for a fresh instance of `proto`.
    pub fn new(proto: &dyn DataLink) -> Self {
        let (tx, rx) = proto.make();
        System {
            tx,
            rx,
            fwd: AdversarialChannel::parked(Dir::Forward),
            bwd: AdversarialChannel::immediate(Dir::Backward),
            exec: Execution::new(),
            monitor: SpecMonitor::new(),
            next_msg: 0,
            round_watermark: CopyId::from_raw(0),
            burst: 64,
            peak_space: 0,
            sent_values: Vec::new(),
            partitioned: false,
            uses_ghosts: proto.uses_ghosts(),
            ghost_scratch: GhostInfo::default(),
        }
    }

    /// Copies `source`'s state into `self`, reusing every buffer this
    /// system already owns: the automata are refilled in place via
    /// [`Transmitter::assign_from`](nonfifo_protocols::Transmitter::assign_from)
    /// (falling back to `clone_box` on a concrete-type mismatch), and the
    /// channels, monitor, and execution reuse their allocations through
    /// `clone_from`. The parallel explorer derives every successor in a
    /// reused scratch system with this, which is what keeps its
    /// steady-state expansion loop off the allocator.
    pub fn assign_from(&mut self, source: &System) {
        if !self.tx.assign_from(source.tx.as_ref()) {
            self.tx = source.tx.clone_box();
        }
        if !self.rx.assign_from(source.rx.as_ref()) {
            self.rx = source.rx.clone_box();
        }
        self.fwd.clone_from(&source.fwd);
        self.bwd.clone_from(&source.bwd);
        self.exec.clone_from(&source.exec);
        self.monitor.clone_from(&source.monitor);
        self.next_msg = source.next_msg;
        self.round_watermark = source.round_watermark;
        self.burst = source.burst;
        self.peak_space = source.peak_space;
        self.sent_values.clone_from(&source.sent_values);
        self.partitioned = source.partitioned;
        self.uses_ghosts = source.uses_ghosts;
        // ghost_scratch is per-step scratch, not logical state: keep ours.
    }

    /// Appends this system's complete state to `out` as one packed record
    /// (see [`nonfifo_ioa::packed`]): both automata
    /// ([`Transmitter::pack_state`](nonfifo_protocols::Transmitter::pack_state)),
    /// both channels, the execution's counters, the monitor's copy ledgers
    /// and counters, and this struct's own fields — everything but the
    /// per-step ghost scratch. The parallel explorer keeps its frontier as
    /// these records.
    ///
    /// # Panics
    ///
    /// Panics on the two frontier invariants: a latched violation
    /// (violating successors are never admitted) and an event log (frontier
    /// systems run [counters-only](System::disable_event_log)).
    pub fn pack(&self, out: &mut Vec<u8>) {
        self.tx.pack_state(out);
        self.rx.pack_state(out);
        self.fwd.pack(out);
        self.bwd.pack(out);
        self.exec.pack(out);
        self.monitor.pack(out);
        self.next_msg.pack(out);
        self.round_watermark.pack(out);
        self.burst.pack(out);
        self.peak_space.pack(out);
        self.sent_values.pack(out);
        self.partitioned.pack(out);
        self.uses_ghosts.pack(out);
    }

    /// Overwrites this system with the record `bytes` written by
    /// [`pack`](System::pack), reusing every buffer it owns. The result
    /// equals the packed system field for field, provided `self` runs the
    /// same protocol (the same concrete automaton types); the explorer
    /// guarantees that by seeding its scratch systems from the run's root
    /// with [`assign_from`](System::assign_from).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not exactly one record of this protocol.
    pub fn unpack(&mut self, bytes: &[u8]) {
        let mut r = Reader::new(bytes);
        self.tx.unpack_state(&mut r);
        self.rx.unpack_state(&mut r);
        self.fwd.unpack(&mut r);
        self.bwd.unpack(&mut r);
        self.exec.unpack(&mut r);
        self.monitor.unpack(&mut r);
        self.next_msg.unpack(&mut r);
        self.round_watermark.unpack(&mut r);
        self.burst.unpack(&mut r);
        self.peak_space.unpack(&mut r);
        self.sent_values.unpack(&mut r);
        self.partitioned.unpack(&mut r);
        self.uses_ghosts.unpack(&mut r);
        r.finish();
    }

    /// The recorded execution so far.
    pub fn execution(&self) -> &Execution {
        &self.exec
    }

    /// Replaces the event log with a counters-only recorder
    /// ([`Execution::counts_only`]): the online monitor still observes every
    /// event and [`counts`](System::counts) stays exact, but
    /// [`execution`](System::execution) no longer accumulates history, so
    /// cloning the system is O(state) instead of O(history). The parallel
    /// explorer clones one system per expanded edge and re-materialises the
    /// winning execution by replaying its schedule.
    ///
    /// # Panics
    ///
    /// Panics if any event has already been recorded — switching modes
    /// mid-run would silently truncate the log.
    pub fn disable_event_log(&mut self) {
        assert!(
            self.exec.is_empty() && self.exec.counts() == Counts::default(),
            "disable_event_log after events were recorded"
        );
        self.exec = Execution::counts_only();
    }

    /// The Definition 2 counters of the recorded execution.
    pub fn counts(&self) -> Counts {
        self.exec.counts()
    }

    /// The first specification violation observed, if any.
    pub fn violation(&self) -> Option<SpecViolation> {
        self.monitor.first_violation()
    }

    /// Messages handed to the transmitter so far.
    pub fn messages_sent(&self) -> u64 {
        self.next_msg
    }

    /// Peak `space_bytes` observed across both automata.
    pub fn peak_space_bytes(&self) -> usize {
        self.peak_space
    }

    /// Number of distinct forward packet values sent so far — the paper's
    /// header count `|P|` for this execution.
    pub fn distinct_forward_packets(&self) -> u64 {
        self.sent_values.len() as u64
    }

    /// The watermark separating stale from current-round forward copies.
    pub fn round_watermark(&self) -> CopyId {
        self.round_watermark
    }

    /// Whether the protocol driving this system consumes [`GhostInfo`].
    /// Ghost-reading protocols observe the in-transit pool through the
    /// per-step summary, so channel-only edits are *not* invisible to them —
    /// the explorer's partial-order reduction disables itself here.
    pub fn uses_ghosts(&self) -> bool {
        self.uses_ghosts
    }

    /// True when the delayed forward copy `p` is *retired garbage*: the
    /// receiver has retired its header (it can never be delivered again)
    /// and the transmitter has retired it too (the acknowledgement the
    /// receiver would echo for it is ignored for the rest of time). Retired
    /// copies are interchangeable — only how many of them occupy pool slots
    /// matters — which is what the explorer's partial-order reduction
    /// exploits (see [`por`](crate::por)). Both claims come from the
    /// protocol ([`Transmitter::header_retired`] /
    /// [`Receiver::header_retired`]) and are conservative-by-default.
    ///
    /// [`Transmitter::header_retired`]: nonfifo_protocols::Transmitter::header_retired
    /// [`Receiver::header_retired`]: nonfifo_protocols::Receiver::header_retired
    pub fn packet_retired(&self, p: Packet) -> bool {
        self.rx.header_retired(p.header()) && self.tx.header_retired(p.header())
    }

    /// Approximate resident bytes of this system: the struct itself plus
    /// the automata's live state and the channels' reserved buffers. An
    /// estimate, not an accounting guarantee; compare a packed record's
    /// exact length ([`pack`](System::pack)).
    pub fn heap_bytes_estimate(&self) -> usize {
        std::mem::size_of::<System>()
            + self.tx.space_bytes()
            + self.rx.space_bytes()
            + self.fwd.heap_bytes()
            + self.bwd.heap_bytes()
            + self.sent_values.capacity() * std::mem::size_of::<Packet>()
    }

    /// True when the transmitter can accept the next message.
    pub fn ready(&self) -> bool {
        self.tx.ready()
    }

    /// Hands the next (identical) message to the transmitter and marks the
    /// round boundary for staleness accounting.
    ///
    /// # Panics
    ///
    /// Panics if the transmitter is not [`ready`](System::ready).
    pub fn send_msg(&mut self) {
        assert!(self.tx.ready(), "send_msg while transmitter busy");
        self.round_watermark = self.fwd.watermark();
        let m = Message::identical(self.next_msg);
        self.next_msg += 1;
        self.record(Event::SendMsg(m));
        self.tx.on_send_msg(m);
    }

    fn record(&mut self, event: Event) {
        let _ = self.monitor.observe(&event);
        self.exec.push(event);
    }

    /// Current ghost summary (pushed to the automata at each step).
    pub fn ghost(&self) -> GhostInfo {
        let mut ghost = GhostInfo::default();
        self.fill_ghost(&mut ghost);
        ghost
    }

    /// Refills `ghost` in place (clearing it first); the hot path in
    /// [`step`](System::step) runs this over a scratch summary so the
    /// per-step sweep touches no heap once the scratch has warmed up.
    fn fill_ghost(&self, ghost: &mut GhostInfo) {
        ghost.reset();
        ghost.fwd_in_transit = self.fwd.in_transit_len() as u64;
        ghost.bwd_in_transit = self.bwd.in_transit_len() as u64;
        for (packet, _copy) in self.fwd.parked_multiset().iter() {
            let h = packet.header();
            if ghost.stale_fwd_by_header.iter().any(|&(g, _)| g == h) {
                continue;
            }
            let n = self.fwd.header_copies_older_than(h, self.round_watermark) as u64;
            ghost.push_stale(h, n);
        }
    }

    fn note_sent_value(&mut self, pkt: Packet) {
        if let Err(i) = self.sent_values.binary_search(&pkt) {
            self.sent_values.insert(i, pkt);
        }
    }

    /// Runs one scheduler step:
    ///
    /// 1. push ghost summaries and tick both automata;
    /// 2. pump up to [`burst`](System::burst) transmitter sends onto the
    ///    forward channel (parked), consulting `dispose` for each;
    /// 3. deliver everything released on the forward channel to the
    ///    receiver;
    /// 4. drain receiver deliveries and acknowledgements; acks flow to the
    ///    transmitter immediately.
    ///
    /// Returns the number of `receive_msg` actions that occurred.
    pub fn step<F>(&mut self, mut dispose: F) -> u64
    where
        F: FnMut(Packet, CopyId, &mut AdversarialChannel) -> Disposition,
    {
        if self.uses_ghosts {
            // Take the scratch out so the automata can borrow it while we
            // stay mutably borrowed; its buffer survives round trips.
            let mut ghost = std::mem::take(&mut self.ghost_scratch);
            self.fill_ghost(&mut ghost);
            self.tx.on_ghost(&ghost);
            self.rx.on_ghost(&ghost);
            self.ghost_scratch = ghost;
        }
        self.tx.on_tick();
        self.rx.on_tick();

        // Transmitter output.
        for _ in 0..self.burst {
            let Some(pkt) = self.tx.poll_send() else {
                break;
            };
            self.note_sent_value(pkt);
            let copy = self.fwd.send(pkt);
            self.record(Event::SendPkt {
                dir: Dir::Forward,
                packet: pkt,
                copy,
            });
            if self.partitioned {
                // A partitioned forward channel loses every fresh copy;
                // the drop is drained (and monitored) in drain_released.
                let _ = self.fwd.drop_copy(copy);
            } else if dispose(pkt, copy, &mut self.fwd) == Disposition::Deliver {
                // Release may be a no-op if the policy already released it.
                let _ = self.fwd.release_copy(copy);
            }
        }

        self.drain_released()
    }

    /// Whether the forward channel is currently partitioned.
    pub fn partitioned(&self) -> bool {
        self.partitioned
    }

    /// Partitions or heals the forward channel. While partitioned, every
    /// fresh forward copy is dropped at the moment it is sent (each drop is
    /// a monitored `DropPkt`, so the accounting stays PL1-sound). Copies
    /// already parked are unaffected — a partition severs the link, it does
    /// not flush the buffer.
    pub fn set_partitioned(&mut self, on: bool) {
        self.partitioned = on;
    }

    /// The oldest delayed forward copy with header `h`, if any.
    pub fn oldest_forward_of_header(&self, h: Header) -> Option<Packet> {
        self.fwd
            .parked_multiset()
            .iter()
            .filter(|(p, _)| p.header() == h)
            .min_by_key(|&(_, c)| c)
            .map(|(p, _)| p)
    }

    /// Duplicates the oldest delayed forward copy of header `h`: a second
    /// copy of the same packet value is minted onto the channel (parked) as
    /// a monitored `SendPkt`, exactly how the chaos layer declares its
    /// duplicate twins. Returns false (no-op) if no copy of `h` is delayed.
    pub fn duplicate_oldest(&mut self, h: Header) -> bool {
        let Some(pkt) = self.oldest_forward_of_header(h) else {
            return false;
        };
        self.note_sent_value(pkt);
        let copy = self.fwd.send(pkt);
        self.record(Event::SendPkt {
            dir: Dir::Forward,
            packet: pkt,
            copy,
        });
        true
    }

    /// Mints `pkt` onto the forward channel as a parked, monitored
    /// `SendPkt` — the corrupted-start explorer's way of seeding an
    /// arbitrary in-transit multiset before the first adversary action.
    /// Same declaration pattern as [`duplicate_oldest`](System::duplicate_oldest):
    /// the copy is announced to the monitor, so its later delivery or loss
    /// stays PL1-sound.
    pub fn preload_forward(&mut self, pkt: Packet) -> CopyId {
        self.note_sent_value(pkt);
        let copy = self.fwd.send(pkt);
        self.record(Event::SendPkt {
            dir: Dir::Forward,
            packet: pkt,
            copy,
        });
        copy
    }

    /// Replaces the oldest delayed forward copy of header `h` with a
    /// bit-corrupted rewrite: the original copy is dropped (monitored
    /// `DropPkt`) and the corrupted value is minted as a fresh parked copy
    /// (monitored `SendPkt`). Returns false (no-op) if no copy of `h` is
    /// delayed.
    pub fn corrupt_oldest(&mut self, h: Header) -> bool {
        let Some(pkt) = self.oldest_forward_of_header(h) else {
            return false;
        };
        let dropped = self.fwd.drop_oldest_of_packet(pkt).is_some();
        debug_assert!(dropped, "oldest copy just observed must be droppable");
        let twisted = corrupt_packet(pkt);
        self.note_sent_value(twisted);
        let copy = self.fwd.send(twisted);
        self.record(Event::SendPkt {
            dir: Dir::Forward,
            packet: twisted,
            copy,
        });
        self.drain_released();
        true
    }

    /// Crashes the transmitting station with total loss of volatile state
    /// (see [`nonfifo_protocols::Recoverable`]). The channels are
    /// untouched: every in-transit copy survives the crash.
    pub fn crash_tx(&mut self) {
        self.tx.crash_amnesia();
    }

    /// Crashes the receiving station with total loss of volatile state.
    pub fn crash_rx(&mut self) {
        self.rx.crash_amnesia();
    }

    /// Delivers everything currently queued on both channels and drains the
    /// automata outputs; returns the number of `receive_msg` actions.
    pub fn drain_released(&mut self) -> u64 {
        let mut delivered_msgs = 0;
        // Forward deliveries to the receiver.
        while let Some((pkt, copy)) = self.fwd.poll_deliver() {
            self.record(Event::ReceivePkt {
                dir: Dir::Forward,
                packet: pkt,
                copy,
            });
            self.rx.on_receive_pkt(pkt);
            delivered_msgs += self.drain_rx_outputs();
        }
        // A receiver may also have pending outputs without new receipts
        // (e.g. after a tick).
        delivered_msgs += self.drain_rx_outputs();
        for (pkt, copy) in self.fwd.drain_drops() {
            self.record(Event::DropPkt {
                dir: Dir::Forward,
                packet: pkt,
                copy,
            });
        }
        self.note_space();
        delivered_msgs
    }

    fn drain_rx_outputs(&mut self) -> u64 {
        let mut delivered = 0;
        while let Some(m) = self.rx.poll_deliver() {
            self.record(Event::ReceiveMsg(m));
            delivered += 1;
        }
        while let Some(ack) = self.rx.poll_send() {
            let copy = self.bwd.send(ack);
            self.record(Event::SendPkt {
                dir: Dir::Backward,
                packet: ack,
                copy,
            });
        }
        while let Some((ack, copy)) = self.bwd.poll_deliver() {
            self.record(Event::ReceivePkt {
                dir: Dir::Backward,
                packet: ack,
                copy,
            });
            self.tx.on_receive_pkt(ack);
        }
        delivered
    }

    fn note_space(&mut self) {
        let s = self.tx.space_bytes() + self.rx.space_bytes();
        self.peak_space = self.peak_space.max(s);
    }

    /// Convenience: one step delivering every fresh forward copy.
    pub fn step_deliver_all(&mut self) -> u64 {
        self.step(|_, _, _| Disposition::Deliver)
    }

    /// Convenience: one step parking every fresh forward copy.
    pub fn step_park_all(&mut self) -> u64 {
        self.step(|_, _, _| Disposition::Park)
    }

    /// Replays stale copies into the receiver: for each packet value in
    /// `receipts`, releases the oldest delayed copy of that value and
    /// delivers it. The transmitter is not ticked — this realises the
    /// paper's simulated extension `β′`, in which the channel substitutes
    /// delayed copies for the automaton's sends.
    ///
    /// Stops early once the monitor flags a violation (the goal) and
    /// returns how many receipts were replayed.
    ///
    /// # Panics
    ///
    /// Panics if a requested value has no delayed copy — callers must check
    /// coverage first.
    pub fn replay_receipts(&mut self, receipts: &[Packet]) -> usize {
        for (i, &pkt) in receipts.iter().enumerate() {
            let (_, _copy) = self
                .fwd
                .release_oldest_of_packet(pkt)
                .unwrap_or_else(|| panic!("replay of {pkt} without coverage"));
            self.drain_released();
            if self.violation().is_some() {
                return i + 1;
            }
        }
        receipts.len()
    }

    /// Runs `step_deliver_all` until the outstanding message count reaches
    /// zero or `max_steps` elapse; returns true on success.
    pub fn run_to_quiescence(&mut self, max_steps: u64) -> bool {
        for _ in 0..max_steps {
            if self.counts().rm >= self.counts().sm {
                return true;
            }
            self.step_deliver_all();
        }
        self.counts().rm >= self.counts().sm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonfifo_protocols::{AlternatingBit, SequenceNumber};

    #[test]
    fn deliver_all_runs_a_message_end_to_end() {
        let mut sys = System::new(&SequenceNumber::new());
        sys.send_msg();
        assert!(sys.run_to_quiescence(32));
        let c = sys.counts();
        assert_eq!((c.sm, c.rm), (1, 1));
        assert_eq!(sys.violation(), None);
    }

    #[test]
    fn park_all_blocks_delivery_and_grows_pool() {
        let mut sys = System::new(&SequenceNumber::new());
        sys.send_msg();
        for _ in 0..10 {
            sys.step_park_all();
        }
        let c = sys.counts();
        assert_eq!(c.rm, 0);
        assert!(c.in_transit(Dir::Forward) >= 10);
        assert_eq!(sys.fwd.in_transit_len() as u64, c.in_transit(Dir::Forward));
    }

    #[test]
    fn ghost_reports_stale_copies() {
        let mut sys = System::new(&AlternatingBit::new());
        sys.send_msg();
        for _ in 0..5 {
            sys.step_park_all();
        }
        // Complete message 0 so we can start round 1.
        assert!(sys.run_to_quiescence(16));
        sys.send_msg();
        let ghost = sys.ghost();
        // The parked copies of bit 0 are stale relative to round 1.
        assert!(ghost.stale_fwd(Header::new(0)) >= 5);
        assert_eq!(ghost.stale_fwd(Header::new(1)), 0);
    }

    #[test]
    fn replay_produces_phantom_delivery_for_alternating_bit() {
        let mut sys = System::new(&AlternatingBit::new());
        // Message 0: park a few copies of bit 0, then deliver.
        sys.send_msg();
        for _ in 0..3 {
            sys.step_park_all();
        }
        assert!(sys.run_to_quiescence(16));
        // Message 1 (bit 1) delivered cleanly.
        sys.send_msg();
        assert!(sys.run_to_quiescence(16));
        // Receiver now expects bit 0 again; replay one stale copy.
        let stale0 = Packet::header_only(Header::new(0));
        assert!(sys.fwd.packet_copies(stale0) >= 3);
        sys.replay_receipts(&[stale0]);
        assert!(matches!(
            sys.violation(),
            Some(SpecViolation::MessageInvented { .. })
        ));
        let c = sys.counts();
        assert_eq!(c.rm, c.sm + 1);
    }

    #[test]
    fn fork_is_independent() {
        let mut sys = System::new(&SequenceNumber::new());
        sys.send_msg();
        let mut fork = sys.clone();
        assert!(fork.run_to_quiescence(32));
        assert_eq!(sys.counts().rm, 0);
        assert_eq!(fork.counts().rm, 1);
    }

    #[test]
    fn space_tracking_moves() {
        let mut sys = System::new(&SequenceNumber::new());
        sys.send_msg();
        sys.run_to_quiescence(32);
        assert!(sys.peak_space_bytes() > 0);
    }
}
