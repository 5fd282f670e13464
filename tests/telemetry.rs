//! Integration tests for the telemetry subsystem: the packet-conservation
//! invariant across every channel implementation, the pinned metrics JSON
//! schema, and — the load-bearing guarantee — that attaching telemetry
//! never changes what a run computes.

use nonfifo::adversary::{ExploreConfig, Explorer, VisitedSpec};
use nonfifo::channel::{
    AdversarialChannel, BoundedReorderChannel, ChannelIntrospect, ChaosChannel, CorruptingChannel,
    CorruptionSeverity, Discipline, FaultObserver, FaultPlan, FifoChannel, LossyFifoChannel,
    ProbabilisticChannel, ScramblePlan,
};
use nonfifo::core::{SimConfig, SimError, Simulation};
use nonfifo::ioa::{Dir, Header, Packet};
use nonfifo::protocols::{AlternatingBit, SequenceNumber, StabilizingDl};
use nonfifo::telemetry::{
    GaugeSnapshot, HistogramSnapshot, Json, MetricsSnapshot, Registry, TraceSink, SCHEMA_VERSION,
};
use nonfifo::transport::VirtualLinkBuilder;
use nonfifo_rng::StdRng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Drives a channel with a seeded op mix, drains what is deliverable, and
/// checks exact conservation: every copy that entered is delivered,
/// dropped, or still inside (`in_transit_len` counts every stage —
/// delayed, parked, held, storm-buffered, or ready).
fn check_conservation(mut ch: impl ChannelIntrospect + FaultObserver, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut delivered = 0u64;
    let mut dropped = 0u64;
    for _ in 0..rng.gen_range(50..250) {
        match rng.gen_range(0..4) {
            0 | 1 => {
                ch.send(Packet::header_only(Header::new(rng.gen_range(0..8) as u32)));
            }
            2 => {
                if ch.poll_deliver().is_some() {
                    delivered += 1;
                }
            }
            _ => ch.tick(),
        }
        dropped += ch.drain_drops().len() as u64;
    }
    while ch.poll_deliver().is_some() {
        delivered += 1;
    }
    dropped += ch.drain_drops().len() as u64;
    assert_eq!(ch.total_delivered(), delivered);
    assert_eq!(
        ch.total_sent(),
        delivered + dropped + ch.in_transit_len() as u64,
        "conservation violated (delivered {delivered}, dropped {dropped}, \
         in transit {})",
        ch.in_transit_len()
    );
}

#[test]
fn conservation_holds_for_every_channel_impl() {
    for seed in 0..16 {
        check_conservation(FifoChannel::new(Dir::Forward), seed);
        check_conservation(LossyFifoChannel::new(Dir::Forward, 0.3, seed), seed);
        check_conservation(BoundedReorderChannel::new(Dir::Forward, 4, seed), seed);
        check_conservation(CorruptingChannel::new(Dir::Forward, 0.2, seed), seed);
        check_conservation(ProbabilisticChannel::new(Dir::Forward, 0.4, seed), seed);
        check_conservation(AdversarialChannel::parked(Dir::Forward), seed);
        check_conservation(AdversarialChannel::immediate(Dir::Forward), seed);
        check_conservation(
            VirtualLinkBuilder::new(Dir::Forward)
                .route(0)
                .route(6)
                .seed(seed)
                .build(),
            seed,
        );
        let plan = FaultPlan::parse("dup 0.2\ndrop 0.1\ncorrupt 0.05").expect("plan");
        check_conservation(
            ChaosChannel::new(Box::new(FifoChannel::new(Dir::Forward)), plan, seed),
            seed,
        );
    }
}

/// The exported counters must satisfy the same invariant the channels do:
/// a seeded chaos run's metrics account for every packet.
#[test]
fn chaos_run_metrics_satisfy_conservation() {
    let plan = FaultPlan::parse("dup 0.15\ndrop 0.1").expect("plan");
    let registry = Arc::new(Registry::new());
    let mut sim = Simulation::builder(SequenceNumber::factory())
        .fault_plan(plan.clone())
        .seed(7)
        .build();
    sim.attach_telemetry(Arc::clone(&registry), None);
    sim.deliver(40, &SimConfig::default()).expect("run");

    let snap = registry.snapshot();
    for dir in ["fwd", "bwd"] {
        let sends = snap.counters[&format!("chan.{dir}.sends")];
        let delivered = snap.counters[&format!("chan.{dir}.delivered")];
        let drops = snap.counters[&format!("chan.{dir}.drops")];
        let in_transit = snap.gauges[&format!("sim.{dir}.in_transit")].value;
        assert_eq!(
            sends,
            delivered + drops + in_transit,
            "{dir}: sends {sends} != delivered {delivered} + drops {drops} \
             + in transit {in_transit}"
        );
        // Injected duplicates are a subset of sends, not extra mass.
        assert!(snap.counters[&format!("chan.{dir}.injected")] <= sends);
    }
    assert!(
        snap.counters["chan.fwd.drops"] > 0,
        "plan injected no drops"
    );
}

#[test]
fn metrics_json_round_trips_with_pinned_schema() {
    let registry = Registry::new();
    registry.counter("a.sends").add(41);
    registry.gauge("a.depth").set(9);
    registry.gauge("a.depth").set(3);
    for v in [0, 1, 5, 1000] {
        registry.histogram("a.sizes").record(v);
    }
    registry.set_value("a.rate", 123.5);

    let snap = registry.snapshot();
    assert_eq!(snap.schema_version, SCHEMA_VERSION);
    assert_eq!(
        SCHEMA_VERSION, 1,
        "schema version is pinned; bump knowingly"
    );

    let json = snap.to_json();
    let back = MetricsSnapshot::from_json(&json).expect("round trip");
    assert_eq!(snap, back);
    assert_eq!(back.to_json(), json, "reserialization is byte-identical");

    // A document from a future schema is rejected, not misread.
    let future = json.replacen("\"schema_version\":1", "\"schema_version\":99", 1);
    assert!(MetricsSnapshot::from_json(&future).is_err());
    // And the document is syntactically plain JSON.
    assert!(Json::parse(&json).is_ok());
}

/// The replayability contract: a run computes bit-for-bit the same
/// execution whether or not anyone is watching.
#[test]
fn telemetry_on_and_off_yield_identical_fingerprints() {
    for seed in 0..8 {
        let cfg = SimConfig::default();
        let mut plain = Simulation::builder(SequenceNumber::factory())
            .channel(Discipline::Probabilistic { q: 0.35 })
            .seed(seed)
            .build();
        let plain_stats = plain.deliver(25, &cfg).expect("plain run");

        let registry = Arc::new(Registry::new());
        let trace = Arc::new(TraceSink::new());
        let mut watched = Simulation::builder(SequenceNumber::factory())
            .channel(Discipline::Probabilistic { q: 0.35 })
            .seed(seed)
            .build();
        watched.attach_telemetry(Arc::clone(&registry), Some(Arc::clone(&trace)));
        let watched_stats = watched.deliver(25, &cfg).expect("watched run");

        assert_eq!(
            plain_stats.fingerprint, watched_stats.fingerprint,
            "seed {seed}: telemetry changed the execution fingerprint"
        );
        assert_eq!(
            format!("{plain_stats:?}"),
            format!("{watched_stats:?}"),
            "seed {seed}: telemetry changed the run statistics"
        );
        assert!(registry.snapshot().counters["sim.messages.received"] == 25);
        assert!(!trace.is_empty());
    }
}

#[test]
fn explorer_reports_are_byte_identical_with_telemetry_enabled() {
    let cfg = ExploreConfig::default();
    for threads in [1, 2, 8] {
        for proto in [
            Box::new(SequenceNumber::new()) as Box<dyn nonfifo::protocols::DataLink>,
            Box::new(AlternatingBit::new()),
        ] {
            let plain = Explorer::new(cfg)
                .parallel(threads)
                .explore(proto.as_ref())
                .report();
            let registry = Arc::new(Registry::new());
            let watched = Explorer::new(cfg)
                .parallel(threads)
                .with_telemetry(Arc::clone(&registry), Some(Arc::new(TraceSink::new())))
                .explore(proto.as_ref())
                .report();
            assert_eq!(
                plain,
                watched,
                "{} at {threads} threads: telemetry perturbed the report",
                proto.name()
            );
            assert!(registry.snapshot().counters["explore.states"] > 0);
        }
    }
}

#[test]
fn both_engines_export_one_end_of_run_vocabulary() {
    // Every name the shared end-of-run writer records on both engines
    // (the spill names are recorded only when non-zero, and this scope
    // fits the 4 KiB budget).
    const END_OF_RUN: [&str; 8] = [
        "explore.states",
        "explore.states_per_sec",
        "explore.wall_ns",
        "explore.threads",
        "explore.visited_bytes",
        "explore.codec_bytes_per_state",
        "explore.shard_occupancy",
        "explore.pruned_states",
    ];
    let cfg = ExploreConfig::default();
    for spec in [VisitedSpec::Ram, VisitedSpec::tiered(4096)] {
        let mut states = Vec::new();
        for threads in [1, 2] {
            let registry = Arc::new(Registry::new());
            let mut explorer = Explorer::new(cfg)
                .visited(spec)
                .with_telemetry(Arc::clone(&registry), None);
            if threads > 1 {
                explorer = explorer.parallel(threads);
            }
            explorer.explore(&SequenceNumber::new());
            let snap = registry.snapshot();
            for name in END_OF_RUN {
                assert!(
                    snap.counters.contains_key(name)
                        || snap.gauges.contains_key(name)
                        || snap.histograms.contains_key(name)
                        || snap.values.contains_key(name),
                    "{spec}, {threads} thread(s): {name} missing"
                );
            }
            assert_eq!(snap.gauges["explore.threads"].value, threads as u64);
            states.push(snap.counters["explore.states"]);
        }
        assert_eq!(
            states[0], states[1],
            "{spec}: engines disagree on explore.states"
        );
    }
}

/// The merge `MetricsSnapshot::merge_from` replaced, kept as the
/// reference it must agree with: every key cloned through `entry`, every
/// histogram's buckets rebuilt through a `BTreeMap`.
fn reference_merge(into: &mut MetricsSnapshot, other: &MetricsSnapshot) {
    for (k, &v) in &other.counters {
        *into.counters.entry(k.clone()).or_insert(0) += v;
    }
    for (k, g) in &other.gauges {
        let slot = into.gauges.entry(k.clone()).or_insert(GaugeSnapshot {
            value: 0,
            high_water: 0,
        });
        slot.value = slot.value.max(g.value);
        slot.high_water = slot.high_water.max(g.high_water);
    }
    for (k, h) in &other.histograms {
        match into.histograms.get_mut(k) {
            None => {
                into.histograms.insert(k.clone(), h.clone());
            }
            Some(slot) => {
                slot.min = if slot.count == 0 {
                    h.min
                } else if h.count == 0 {
                    slot.min
                } else {
                    slot.min.min(h.min)
                };
                slot.max = slot.max.max(h.max);
                slot.count += h.count;
                slot.sum += h.sum;
                let mut buckets: BTreeMap<u64, u64> = slot.buckets.iter().copied().collect();
                for &(le, n) in &h.buckets {
                    *buckets.entry(le).or_insert(0) += n;
                }
                slot.buckets = buckets.into_iter().collect();
            }
        }
    }
    for (k, &v) in &other.values {
        into.values.insert(k.clone(), v);
    }
}

/// A seeded snapshot over a small key space, so merges hit both shared
/// and fresh keys. Buckets come from eight bounds, so two histograms
/// overlap, nest or are disjoint; a third of histograms are empty (the
/// `min` rule for zero counts).
fn merge_case(rng: &mut StdRng) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot {
        schema_version: SCHEMA_VERSION,
        ..MetricsSnapshot::default()
    };
    let key = |rng: &mut StdRng| format!("m{}", rng.gen_range(0..6));
    for _ in 0..rng.gen_range(0..5) {
        snap.counters.insert(key(rng), rng.gen_range(0..100) as u64);
    }
    for _ in 0..rng.gen_range(0..4) {
        let value = rng.gen_range(0..50) as u64;
        let high_water = value + rng.gen_range(0..50) as u64;
        snap.gauges
            .insert(key(rng), GaugeSnapshot { value, high_water });
    }
    for _ in 0..rng.gen_range(0..4) {
        let histogram = if rng.gen_range(0..3) == 0 {
            HistogramSnapshot {
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                buckets: Vec::new(),
            }
        } else {
            let mut buckets = BTreeMap::new();
            for _ in 0..rng.gen_range(1..5) {
                *buckets.entry(1u64 << rng.gen_range(0..8)).or_insert(0) +=
                    rng.gen_range(1..9) as u64;
            }
            let count = buckets.values().sum();
            let min = rng.gen_range(1..10) as u64;
            HistogramSnapshot {
                count,
                sum: count * min,
                min,
                max: min + rng.gen_range(0..100) as u64,
                buckets: buckets.into_iter().collect(),
            }
        };
        snap.histograms.insert(key(rng), histogram);
    }
    for _ in 0..rng.gen_range(0..3) {
        snap.values.insert(key(rng), rng.next_f64());
    }
    snap
}

#[test]
fn in_place_merge_agrees_with_the_btreemap_reference() {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    for seed in 0..cases {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut merged = merge_case(&mut rng);
        let mut reference = merged.clone();
        for step in 0..rng.gen_range(1..8) {
            let next = merge_case(&mut rng);
            merged.merge_from(&next);
            reference_merge(&mut reference, &next);
            assert_eq!(merged, reference, "seed {seed}, merge {step}");
            for h in merged.histograms.values() {
                assert!(
                    h.buckets.windows(2).all(|w| w[0].0 < w[1].0),
                    "seed {seed}: buckets stay strictly ascending"
                );
            }
        }
    }
}

/// The publish path: a simulation with a registry attached folds its tally
/// into the registry at the end of every driving call, so after any mix of
/// `settle` and `deliver` calls — including a stalled and a violating
/// return — the registry holds exactly what `take_metrics` returns, and
/// the forward-send counter the campaign runner reads off early returns
/// counts every forward send of the run.
#[test]
fn attached_registry_equals_the_taken_tally_across_early_returns() {
    let mut sim = Simulation::builder(AlternatingBit::new())
        .channel(Discipline::BoundedReorder { bound: 4 })
        .fault_plan(FaultPlan::parse("dup 0.1\ncorrupt 0.05").expect("plan"))
        .seed(0)
        .build();
    sim.retain_execution();
    let registry = Arc::new(Registry::new());
    sim.attach_telemetry(Arc::clone(&registry), Some(Arc::new(TraceSink::new())));
    let sends_published = |sim: &Simulation, registry: &Registry| {
        let snap = registry.snapshot();
        let exec = sim.execution().expect("retained").counts();
        assert_eq!(snap.counters["chan.fwd.sends"], exec.sp_fwd);
        assert_eq!(snap.counters["sim.messages.received"], exec.rm);
    };

    sim.settle(3);
    sends_published(&sim, &registry);
    let stalled = SimConfig {
        max_steps_per_message: 2,
        ..SimConfig::default()
    };
    let mut outcomes = Vec::new();
    for (n, cfg) in [
        (2, SimConfig::default()),
        (4, stalled),
        (40, SimConfig::default()),
    ] {
        outcomes.push(match sim.deliver(n, &cfg) {
            Ok(_) => "ok",
            Err(SimError::Stalled { .. }) => "stalled",
            Err(SimError::Violation(_)) => "violation",
        });
        sends_published(&sim, &registry);
        sim.settle(2);
    }
    assert_eq!(outcomes, ["ok", "stalled", "violation"]);
    assert_eq!(registry.snapshot(), sim.take_metrics());

    // A scramble injected after attaching publishes its preloads too.
    let mut sim = Simulation::builder(StabilizingDl::new())
        .channel(Discipline::Probabilistic { q: 0.2 })
        .seed(3)
        .build();
    sim.retain_execution();
    let registry = Arc::new(Registry::new());
    sim.attach_telemetry(Arc::clone(&registry), None);
    sim.corrupt_initial_state(&ScramblePlan::generate(CorruptionSeverity::Heavy, 3));
    sends_published(&sim, &registry);
    assert!(registry.snapshot().counters["chan.fwd.sends"] > 0);
    sim.settle(50);
    sends_published(&sim, &registry);
    assert_eq!(registry.snapshot(), sim.take_metrics());
}
