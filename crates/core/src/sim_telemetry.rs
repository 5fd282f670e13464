//! A simulation's metrics as plain integers.
//!
//! A [`Simulation`](crate::Simulation) is single-threaded, so its telemetry
//! needs no shared cells: every event bumps a field of a [`SimTally`], and
//! the tally leaves the simulation whole — as a [`MetricsSnapshot`] from
//! `take_metrics`, or folded into an attached [`Registry`] at the end of
//! each driving call. This is the tally-then-flush pattern the parallel
//! explorer's per-worker tallies use; nothing on the per-packet path
//! formats a name, takes a lock or touches an atomic.

use nonfifo_ioa::{Dir, Event, Header};
use nonfifo_telemetry::{
    bucket_of, bucket_upper, GaugeSnapshot, HistogramSnapshot, MetricsSnapshot, Registry,
    TraceSink, HISTOGRAM_BUCKETS, SCHEMA_VERSION,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The per-header counter families, in `chan.{dir}.{verb}.h{n}` order of
/// [`LaneTally::per_header`].
const VERBS: [&str; 4] = ["send", "recv", "drop", "injected"];
const SEND: usize = 0;
const RECV: usize = 1;
const DROP: usize = 2;
const INJECTED: usize = 3;

/// Counts per header index, sorted by index. Chaos corruption flips
/// headers to indices ≥ 2^31, so the space is sparse: a binary-searched
/// vector, with the common case — the newest header, or a new largest
/// one — settled on the last entry.
#[derive(Debug, Clone, Default)]
struct HeaderCounts(Vec<(u32, u64)>);

impl HeaderCounts {
    fn bump(&mut self, h: Header) {
        let h = h.index();
        match self.0.last_mut() {
            Some((last, n)) if *last == h => *n += 1,
            Some((last, _)) if *last > h => match self.0.binary_search_by_key(&h, |&(k, _)| k) {
                Ok(i) => self.0[i].1 += 1,
                Err(i) => self.0.insert(i, (h, 1)),
            },
            _ => self.0.push((h, 1)),
        }
    }

    fn get(&self, h: u32) -> u64 {
        self.0
            .binary_search_by_key(&h, |&(k, _)| k)
            .map_or(0, |i| self.0[i].1)
    }
}

/// One direction's channel counters and in-transit gauge.
#[derive(Debug, Clone, Default)]
struct LaneTally {
    sends: u64,
    delivered: u64,
    drops: u64,
    injected: u64,
    in_transit: u64,
    in_transit_high: u64,
    per_header: [HeaderCounts; 4],
}

/// A power-of-two histogram in plain integers, bucketed like the
/// registry's.
#[derive(Debug, Clone)]
struct HistogramTally {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramTally {
    fn default() -> Self {
        HistogramTally {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl HistogramTally {
    fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// The observations since `prev` (an earlier state of this tally):
    /// count, sum and buckets as differences, `min`/`max` as they stand.
    fn snapshot_since(&self, prev: &HistogramTally) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count - prev.count,
            sum: self.sum.wrapping_sub(prev.sum),
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .zip(&prev.buckets)
                .enumerate()
                .filter(|(_, (now, then))| now > then)
                .map(|(i, (now, then))| (bucket_upper(i), now - then))
                .collect(),
        }
    }
}

/// Everything a simulation records, as plain integers.
#[derive(Debug, Clone, Default)]
pub(crate) struct SimTally {
    msgs_sent: u64,
    msgs_received: u64,
    fwd: LaneTally,
    bwd: LaneTally,
    packets_per_message: HistogramTally,
    header_usage: HistogramTally,
    /// `fwd.sends` at the most recent `send_msg`, for the
    /// packets-per-message histogram.
    round_sends_base: u64,
}

impl SimTally {
    fn lane(&mut self, dir: Dir) -> &mut LaneTally {
        match dir {
            Dir::Forward => &mut self.fwd,
            Dir::Backward => &mut self.bwd,
        }
    }

    /// Counts one recorded event.
    fn observe(&mut self, event: &Event) {
        match event {
            Event::SendMsg(_) => {
                self.msgs_sent += 1;
                self.round_sends_base = self.fwd.sends;
            }
            Event::ReceiveMsg(_) => {
                self.msgs_received += 1;
                self.packets_per_message
                    .record(self.fwd.sends - self.round_sends_base);
                self.round_sends_base = self.fwd.sends;
            }
            Event::SendPkt { dir, packet, .. } => {
                let lane = self.lane(*dir);
                lane.sends += 1;
                lane.per_header[SEND].bump(packet.header());
                if *dir == Dir::Forward {
                    self.header_usage.record(u64::from(packet.header().index()));
                }
            }
            Event::ReceivePkt { dir, packet, .. } => {
                let lane = self.lane(*dir);
                lane.delivered += 1;
                lane.per_header[RECV].bump(packet.header());
            }
            Event::DropPkt { dir, packet, .. } => {
                let lane = self.lane(*dir);
                lane.drops += 1;
                lane.per_header[DROP].bump(packet.header());
            }
        }
    }

    /// The metrics recorded since `prev` (an earlier state of this tally),
    /// in the registry's vocabulary: counters and histogram counts as
    /// differences, gauges and histogram extremes as they stand. Every
    /// fixed name is present; a per-header counter only once its header
    /// has been seen.
    fn snapshot_since(&self, prev: &SimTally) -> MetricsSnapshot {
        let mut counters = vec![
            (
                "sim.messages.sent".to_string(),
                self.msgs_sent - prev.msgs_sent,
            ),
            (
                "sim.messages.received".to_string(),
                self.msgs_received - prev.msgs_received,
            ),
        ];
        let mut gauges = BTreeMap::new();
        for (name, now, then) in [("fwd", &self.fwd, &prev.fwd), ("bwd", &self.bwd, &prev.bwd)] {
            for (what, n) in [
                ("sends", now.sends - then.sends),
                ("delivered", now.delivered - then.delivered),
                ("drops", now.drops - then.drops),
                ("injected", now.injected - then.injected),
            ] {
                counters.push((key(&["chan.", name, ".", what]), n));
            }
            for (verb, (counts, before)) in VERBS
                .iter()
                .zip(now.per_header.iter().zip(&then.per_header))
            {
                for &(h, n) in &counts.0 {
                    counters.push((header_key(name, verb, h), n - before.get(h)));
                }
            }
            gauges.insert(
                key(&["sim.", name, ".in_transit"]),
                GaugeSnapshot {
                    value: now.in_transit,
                    high_water: now.in_transit_high,
                },
            );
        }
        let histograms = BTreeMap::from([
            (
                "sim.header_usage".to_string(),
                self.header_usage.snapshot_since(&prev.header_usage),
            ),
            (
                "sim.packets_per_message".to_string(),
                self.packets_per_message
                    .snapshot_since(&prev.packets_per_message),
            ),
        ]);
        MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            counters: counters.into_iter().collect(),
            gauges,
            histograms,
            values: BTreeMap::new(),
        }
    }
}

/// `parts` concatenated into a string of exactly their length: snapshot
/// keys live as long as the run's record, so spare capacity is resident
/// memory.
fn key(parts: &[&str]) -> String {
    let mut out = String::with_capacity(parts.iter().map(|p| p.len()).sum());
    for part in parts {
        out.push_str(part);
    }
    out
}

/// `chan.{dir}.{verb}.h{h}` at exact capacity.
fn header_key(dir: &str, verb: &str, h: u32) -> String {
    let digits = h.checked_ilog10().map_or(1, |d| d as usize + 1);
    let mut out = String::with_capacity("chan...h".len() + dir.len() + verb.len() + digits);
    for part in ["chan.", dir, ".", verb, ".h"] {
        out.push_str(part);
    }
    nonfifo_telemetry::json::write_u64(&mut out, u64::from(h));
    out
}

/// Telemetry for a [`Simulation`](crate::Simulation): the plain tally,
/// the registry it is published to at the end of each driving call (if
/// any), and an optional trace sink, whose instants are written as the
/// events happen. Recording is observation-only — nothing here feeds back into protocol,
/// channel, or monitor state, so runs are bit-identical with telemetry
/// attached or not (property-tested in `tests/telemetry.rs`).
#[derive(Debug)]
pub(crate) struct SimTelemetry {
    tally: SimTally,
    /// The attached registry and the tally as it stood when last
    /// published there.
    registry: Option<(Arc<Registry>, SimTally)>,
    pub(crate) trace: Option<Arc<TraceSink>>,
}

impl SimTelemetry {
    /// A fresh tally, publishing to `registry` when one is given.
    pub(crate) fn new(registry: Option<Arc<Registry>>, trace: Option<Arc<TraceSink>>) -> Self {
        SimTelemetry {
            tally: SimTally::default(),
            registry: registry.map(|r| (r, SimTally::default())),
            trace,
        }
    }

    /// Observes one recorded event; deliveries and drops also leave a
    /// trace instant.
    pub(crate) fn observe(&mut self, event: &Event) {
        self.tally.observe(event);
        if let Some(trace) = &self.trace {
            match event {
                Event::ReceiveMsg(_) => trace.instant("sim", "deliver_msg", Vec::new()),
                Event::DropPkt { .. } => trace.instant("sim", "drop_pkt", Vec::new()),
                _ => {}
            }
        }
    }

    /// Counts a chaos-injected copy (observed as a send as well).
    pub(crate) fn observe_injected(&mut self, dir: Dir, header: Header) {
        let lane = self.tally.lane(dir);
        lane.injected += 1;
        lane.per_header[INJECTED].bump(header);
    }

    /// Sets both in-transit gauges, advancing their high-water marks.
    pub(crate) fn set_in_transit(&mut self, fwd: u64, bwd: u64) {
        for (lane, v) in [(&mut self.tally.fwd, fwd), (&mut self.tally.bwd, bwd)] {
            lane.in_transit = v;
            lane.in_transit_high = lane.in_transit_high.max(v);
        }
    }

    /// Folds what the tally gained since the last publication into the
    /// attached registry, if there is one.
    pub(crate) fn publish(&mut self) {
        if let Some((registry, published)) = &mut self.registry {
            registry.absorb(&self.tally.snapshot_since(published));
            published.clone_from(&self.tally);
        }
    }

    /// Everything tallied since recording started.
    pub(crate) fn into_snapshot(self) -> MetricsSnapshot {
        self.tally.snapshot_since(&SimTally::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_counts_stay_sorted_in_any_arrival_order() {
        let mut counts = HeaderCounts::default();
        for h in [5, 5, 1 << 31, 3, 7, 3, 0, 1 << 31] {
            counts.bump(Header::new(h));
        }
        assert_eq!(counts.0, vec![(0, 1), (3, 2), (5, 2), (7, 1), (1 << 31, 2)]);
        assert_eq!(counts.get(3), 2);
        assert_eq!(counts.get(4), 0);
    }

    #[test]
    fn snapshot_keys_carry_no_spare_capacity() {
        let mut tally = SimTally::default();
        for h in [0, 9, 10, 4_294_967_295] {
            tally.fwd.per_header[SEND].bump(Header::new(h));
        }
        let snap = tally.snapshot_since(&SimTally::default());
        assert!(snap.counters.contains_key("chan.fwd.send.h4294967295"));
        for key in snap
            .counters
            .keys()
            .chain(snap.gauges.keys())
            .chain(snap.histograms.keys())
        {
            assert_eq!(key.capacity(), key.len(), "{key}");
        }
    }
}
