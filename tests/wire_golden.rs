//! Byte-for-byte pins of the campaign service's encodings, and seeded
//! round-trip properties over them.
//!
//! `tests/fixtures/wire_golden.ndjson` holds one line per `WireMsg`
//! variant and `tests/fixtures/cache_golden.json` a two-entry cache file,
//! both written by the tree-building `Json` encoder that preceded the
//! streaming one. Wire lines and cache files are contract (CI diffs served
//! streams against batch output, and cache files outlive builds), so the
//! streaming encoders must reproduce those bytes exactly.

use nonfifo::campaign::{CachedRun, CampaignCache, RunOutcome, RunRecord, ScenarioSpec, WireMsg};
use nonfifo::channel::Discipline;
use nonfifo::telemetry::{GaugeSnapshot, HistogramSnapshot, MetricsSnapshot, SCHEMA_VERSION};
use nonfifo_rng::StdRng;
use std::collections::BTreeMap;

const WIRE_GOLDEN: &str = include_str!("fixtures/wire_golden.ndjson");
const CACHE_GOLDEN: &str = include_str!("fixtures/cache_golden.json");

/// A per-run snapshot with every section populated, histograms included.
fn golden_snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot {
        schema_version: SCHEMA_VERSION,
        ..MetricsSnapshot::default()
    };
    for (k, v) in [
        ("chan.fwd.sends", 42),
        ("chan.fwd.send.h3", 7),
        ("sim.messages.received", 12),
        ("big", u64::MAX),
    ] {
        snap.counters.insert(k.to_string(), v);
    }
    snap.gauges.insert(
        "sim.fwd.in_transit".to_string(),
        GaugeSnapshot {
            value: 3,
            high_water: 9,
        },
    );
    snap.histograms.insert(
        "sim.packets_per_message".to_string(),
        HistogramSnapshot {
            count: 5,
            sum: 23,
            min: 1,
            max: 9,
            buckets: vec![(1, 1), (2, 1), (8, 2), (16, 1)],
        },
    );
    snap.histograms.insert(
        "sim.empty".to_string(),
        HistogramSnapshot {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: Vec::new(),
        },
    );
    for (k, v) in [
        ("cost.mean", 0.1),
        ("huge", 1e21),
        ("negzero", -0.0),
        ("tiny", 5e-324),
        ("whole", 2.0),
    ] {
        snap.values.insert(k.to_string(), v);
    }
    snap
}

fn golden_run() -> CachedRun {
    CachedRun {
        outcome: RunOutcome::Stalled,
        fingerprint: 0xdead_beef_cafe_f00d,
        steps: 4096,
        fwd_sends: 42,
        delivered: 11,
        metrics: golden_snapshot(),
    }
}

/// One message of every kind. The report's render is multi-line and
/// carries a quote, a backslash, a control character and non-ASCII text.
fn golden_messages() -> Vec<WireMsg> {
    let plan = "schema_version 1\nscenario demo\nprotocols abp\nmessages 5\n".to_string();
    vec![
        WireMsg::Submit {
            plan: plan.clone(),
            workers: 4,
        },
        WireMsg::Shard {
            plan,
            shard: 1,
            of: 3,
            indices: vec![1, 4, 7],
        },
        WireMsg::Run {
            index: 4,
            spec_fingerprint: 0x0123_4567_89ab_cdef,
            run: golden_run(),
        },
        WireMsg::Metrics {
            shard: 2,
            snapshot: golden_snapshot(),
        },
        WireMsg::Report {
            render: "| \"q\" | a\\b |\n| - | \u{1}\t |\n| π → ✓ | 🦀 |\n".to_string(),
            cache_hits: 9,
            aggregate: golden_snapshot(),
        },
        WireMsg::Error {
            message: "plan line 3: unknown directive `warble`".to_string(),
        },
    ]
}

/// Two cached runs under the fingerprints of two real specs.
fn golden_cache() -> CampaignCache {
    let specs = ScenarioSpec::new("golden")
        .protocol("abp")
        .discipline(Discipline::Probabilistic { q: 0.3 })
        .message_counts(&[5])
        .seeds(0..2)
        .expand();
    let mut cache = CampaignCache::new();
    for (i, spec) in specs.into_iter().enumerate() {
        let run = golden_run();
        let record = RunRecord {
            spec,
            outcome: if i == 0 {
                RunOutcome::Delivered
            } else {
                run.outcome
            },
            fingerprint: run.fingerprint ^ i as u64,
            steps: run.steps + i as u64,
            fwd_sends: run.fwd_sends,
            delivered: run.delivered,
            metrics: run.metrics,
            cached: false,
        };
        cache.insert(record);
    }
    cache
}

#[test]
fn wire_lines_match_the_golden_fixture_byte_for_byte() {
    let golden: Vec<&str> = WIRE_GOLDEN.split_inclusive('\n').collect();
    let messages = golden_messages();
    assert_eq!(golden.len(), messages.len(), "one fixture line per kind");
    for (msg, line) in messages.iter().zip(golden) {
        assert_eq!(msg.to_line(), line, "{} line drifted", msg.kind());
        assert_eq!(
            &WireMsg::parse_line(line).unwrap(),
            msg,
            "{} fixture decodes",
            msg.kind()
        );
    }
}

#[test]
fn cache_file_matches_the_golden_fixture_byte_for_byte() {
    let cache = golden_cache();
    assert_eq!(cache.len(), 2);
    assert_eq!(cache.to_json(), CACHE_GOLDEN);
    assert_eq!(CampaignCache::from_json(CACHE_GOLDEN).unwrap(), cache);
}

/// Cases per property: `PROPTEST_CASES` if set, else a small default that
/// keeps the harness in tier-1 time.
fn cases() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

fn for_seeds(case: impl Fn(&mut StdRng)) {
    for seed in 0..cases() {
        let mut rng = StdRng::seed_from_u64(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&mut rng)));
        if let Err(payload) = result {
            eprintln!("property failed at seed {seed}; rerun replays it exactly");
            std::panic::resume_unwind(payload);
        }
    }
}

/// Keys that exercise every escaping rule, plus plain metric names.
const KEYS: &[&str] = &[
    "chan.fwd.sends",
    "sim.packets_per_message",
    "",
    "quote\"d",
    "back\\slash",
    "line\nbreak",
    "tab\tand\rreturn",
    "ctl\u{1}\u{1f}",
    "del\u{7f}",
    "π→✓",
    "🦀 crab",
];

/// Floats with awkward shortest spellings, plus random finite bit patterns.
fn random_float(rng: &mut StdRng) -> f64 {
    const AWKWARD: &[f64] = &[
        0.1,
        1e21,
        -0.0,
        5e-324,
        0.0,
        1.0,
        -2.5,
        123456.75,
        f64::MAX,
        f64::MIN_POSITIVE,
        1e-7,
    ];
    if rng.gen_bool(0.6) {
        AWKWARD[rng.gen_range(0..AWKWARD.len())]
    } else {
        loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                return x;
            }
        }
    }
}

fn random_u64(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..4) {
        0 => 0,
        1 => u64::MAX,
        2 => rng.gen_range(0..1000) as u64,
        _ => rng.next_u64(),
    }
}

fn random_keys(rng: &mut StdRng) -> Vec<String> {
    // Empty maps are a case of their own.
    let n = rng.gen_range(0..5);
    (0..n)
        .map(|_| KEYS[rng.gen_range(0..KEYS.len())].to_string())
        .collect()
}

fn random_snapshot(rng: &mut StdRng) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot {
        schema_version: SCHEMA_VERSION,
        ..MetricsSnapshot::default()
    };
    for k in random_keys(rng) {
        snap.counters.insert(k, random_u64(rng));
    }
    for k in random_keys(rng) {
        let value = random_u64(rng);
        let high_water = value.max(random_u64(rng));
        snap.gauges.insert(k, GaugeSnapshot { value, high_water });
    }
    for k in random_keys(rng) {
        let mut buckets = BTreeMap::new();
        for _ in 0..rng.gen_range(0..5) {
            buckets.insert(1u64 << rng.gen_range(0..64), random_u64(rng));
        }
        snap.histograms.insert(
            k,
            HistogramSnapshot {
                count: random_u64(rng),
                sum: random_u64(rng),
                min: random_u64(rng),
                max: random_u64(rng),
                buckets: buckets.into_iter().collect(),
            },
        );
    }
    for k in random_keys(rng) {
        snap.values.insert(k, random_float(rng));
    }
    snap
}

fn random_text(rng: &mut StdRng) -> String {
    const PIECES: &[&str] = &[
        "scenario s\n",
        "| a | b |\n",
        "\"",
        "\\",
        "\u{0}",
        "\u{8}\u{c}",
        "\t",
        "\r\n",
        "π",
        "🦀",
        "plain words ",
        "/",
    ];
    (0..rng.gen_range(0..8))
        .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
        .collect()
}

fn random_message(rng: &mut StdRng) -> WireMsg {
    match rng.gen_range(0..6) {
        0 => WireMsg::Submit {
            plan: random_text(rng),
            workers: random_u64(rng),
        },
        1 => WireMsg::Shard {
            plan: random_text(rng),
            shard: random_u64(rng),
            of: random_u64(rng),
            indices: (0..rng.gen_range(0..6)).map(|_| random_u64(rng)).collect(),
        },
        2 => WireMsg::Run {
            index: random_u64(rng),
            spec_fingerprint: random_u64(rng),
            run: CachedRun {
                outcome: [
                    RunOutcome::Delivered,
                    RunOutcome::Stalled,
                    RunOutcome::Violation,
                    RunOutcome::Diverged,
                ][rng.gen_range(0..4)],
                fingerprint: random_u64(rng),
                steps: random_u64(rng),
                fwd_sends: random_u64(rng),
                delivered: random_u64(rng),
                metrics: random_snapshot(rng),
            },
        },
        3 => WireMsg::Metrics {
            shard: random_u64(rng),
            snapshot: random_snapshot(rng),
        },
        4 => WireMsg::Report {
            render: random_text(rng),
            cache_hits: random_u64(rng),
            aggregate: random_snapshot(rng),
        },
        _ => WireMsg::Error {
            message: random_text(rng),
        },
    }
}

#[test]
fn every_message_round_trips_through_its_line() {
    for_seeds(|rng| {
        let msg = random_message(rng);
        let line = msg.to_line();
        assert!(line.ends_with('\n') && line.matches('\n').count() == 1);
        let back = WireMsg::parse_line(&line).unwrap();
        assert_eq!(back, msg, "parse_line(to_line(m)) == m");
        assert_eq!(back.to_line(), line, "to_line(parse_line(l)) == l");
    });
}

#[test]
fn snapshot_documents_round_trip_byte_identically() {
    for_seeds(|rng| {
        let snap = random_snapshot(rng);
        let text = snap.to_json();
        let back = MetricsSnapshot::from_json(&text).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), text);
        // Negative zero keeps its sign through the round trip.
        for (k, v) in &snap.values {
            assert_eq!(back.values[k].to_bits(), v.to_bits(), "value {k:?}");
        }
    });
}
