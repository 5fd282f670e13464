//! Per-layer probes of the traced run.
//!
//! Each probe times one layer's public functions on inputs taken from the
//! seeded workloads: states reached from `scope_root` through `apply_step`
//! at the certification scope, the dedup keys those states produce, the
//! `search-por` menu, and the runs of the seed's `campaign-stream` plan.
//! Engine-level numbers come from the explorer's own telemetry registry.
//! Every probe runs inside a span of its own in the trace file.

use crate::spans::Spans;
use crate::stats::{mean, median, Metrics};
use crate::workloads::{
    self, Expect, Inputs, Workload, CERTIFY_SCOPE, MENU, QUICK_SCOPE, QUICK_SPILL_BUDGET,
    SPILL_BUDGET,
};
use nonfifo_adversary::{
    apply_step, scope_root, shrink, steps_independent_at, ExploreConfig, ExploreOutcome, Explorer,
    RamVisited, ScheduleStep, StateCodec, System, TieredVisited, VisitedSet, VisitedSpec,
};
use nonfifo_campaign::{CampaignRunner, WireMsg};
use nonfifo_channel::PacketMultiset;
use nonfifo_core::{corrupted_simulation, drive_corrupted, SimConfig, Simulation, StabilizeConfig};
use nonfifo_ioa::{CopyId, Packet};
use nonfifo_protocols::{catalog, SequenceNumber};
use nonfifo_rng::StdRng;
use nonfifo_telemetry::{Json, Registry, TraceSink};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Sizes of the probes; quick mode shrinks every one.
struct Sizes {
    /// Distinct states swept from the root for the key-driven probes.
    keys: usize,
    /// States kept for the `System`/codec/multiset probes.
    sample: usize,
    /// Untraced/traced `certify-ram` pairs behind `trace.overhead_frac`.
    overhead_pairs: usize,
    /// Campaign runs fed to the simulation and stabilize probes.
    sim_runs: usize,
    scope: (u64, usize, usize),
    spill_budget: usize,
}

pub fn probe_all(inputs: &Inputs, spans: &Spans) -> Metrics {
    let sizes = if inputs.quick {
        Sizes {
            keys: 1_000,
            sample: 200,
            overhead_pairs: 1,
            sim_runs: 4,
            scope: QUICK_SCOPE,
            spill_budget: QUICK_SPILL_BUDGET,
        }
    } else {
        Sizes {
            keys: 40_000,
            sample: 2_000,
            overhead_pairs: 3,
            sim_runs: 40,
            scope: CERTIFY_SCOPE,
            spill_budget: SPILL_BUDGET,
        }
    };
    let mut m = Metrics::default();
    let sample = spans.job("probe.sample", |_| Sample::new(inputs.seed, &sizes));
    spans.job("probe.system", |_| system_probes(&sample, &mut m));
    spans.job("probe.multiset", |_| multiset_probes(&sample, &mut m));
    spans.job("probe.visited", |_| visited_probes(&sample, &sizes, &mut m));
    spans.job("probe.explore", |_| explore_probes(inputs, &sizes, &mut m));
    spans.job("probe.overhead", |_| {
        overhead_probe(inputs, &sizes, spans, &mut m)
    });
    spans.job("probe.shrink", |_| shrink_probes(inputs, &mut m));
    spans.job("probe.campaign", |_| {
        campaign_probes(inputs, &sizes, &mut m)
    });
    m
}

/// Nanoseconds per item of a timed batch.
fn per_item_ns(started: Instant, items: usize) -> f64 {
    started.elapsed().as_nanos() as f64 / items.max(1) as f64
}

/// Every schedule step that could be enabled at `sys`: the two
/// unconditional steps plus a delivery of each parked header.
fn candidate_steps(sys: &System) -> Vec<ScheduleStep> {
    let mut steps = vec![ScheduleStep::Send, ScheduleStep::Park];
    for (packet, _) in sys.fwd.parked_multiset().iter() {
        let step = ScheduleStep::Deliver(packet.header());
        if !steps.contains(&step) {
            steps.push(step);
        }
    }
    steps
}

/// The certification scope's own states and keys: a breadth-first sweep
/// from `scope_root` through `apply_step`, in the order the explorer admits
/// states, stopped after `sizes.keys` distinct keys.
struct Sample {
    cfg: ExploreConfig,
    /// A seeded sample of the states reached.
    states: Vec<System>,
    /// The steps enabled at each sampled state.
    moves: Vec<Vec<ScheduleStep>>,
    /// Distinct full-codec keys, in discovery order.
    keys: Vec<u64>,
}

impl Sample {
    fn new(seed: u64, sizes: &Sizes) -> Sample {
        let cfg = workloads::scope(sizes.scope, false);
        let root = scope_root(&SequenceNumber::new(), &cfg);
        let codec = StateCodec::full();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3a1c_0000_0000_0004);
        let mut sample = Sample {
            cfg,
            states: Vec::new(),
            moves: Vec::new(),
            keys: vec![codec.key(&root)],
        };
        let mut seen: HashSet<u64> = sample.keys.iter().copied().collect();
        let mut frontier = vec![root];
        while !frontier.is_empty() && sample.keys.len() < sizes.keys {
            let mut next = Vec::new();
            for sys in &frontier {
                let mut steps = Vec::new();
                for step in candidate_steps(sys) {
                    let Some(child) = apply_step(sys, &cfg, step) else {
                        continue;
                    };
                    steps.push(step);
                    let key = codec.key(&child);
                    if sample.keys.len() < sizes.keys && seen.insert(key) {
                        sample.keys.push(key);
                        next.push(child);
                    }
                }
                // Reservoir-free thinning: keep each state with the odds
                // that land about `sizes.sample` of them overall.
                if !steps.is_empty() && rng.gen_range(0..sizes.keys) < sizes.sample {
                    sample.states.push(sys.clone());
                    sample.moves.push(steps);
                }
            }
            frontier = next;
        }
        sample
    }
}

fn system_probes(sample: &Sample, m: &mut Metrics) {
    let states = &sample.states;
    let moves: usize = sample.moves.iter().map(Vec::len).sum();
    let started = Instant::now();
    for (s, steps) in states.iter().zip(&sample.moves) {
        for &step in steps {
            black_box(apply_step(s, &sample.cfg, step));
        }
    }
    m.set("system.apply_step_ns", per_item_ns(started, moves), "ns");

    let mut scratch = states[0].clone();
    let started = Instant::now();
    for source in states {
        scratch.assign_from(source);
        black_box(&scratch);
    }
    m.set(
        "system.assign_from_ns",
        per_item_ns(started, states.len()),
        "ns",
    );

    let heap: Vec<f64> = states
        .iter()
        .map(|s| s.heap_bytes_estimate() as f64)
        .collect();
    m.set("system.heap_bytes", mean(&heap), "bytes");

    for (name, codec) in [
        ("codec.key_ns", StateCodec::full()),
        ("codec.quotient_key_ns", StateCodec::retired_quotient()),
    ] {
        let started = Instant::now();
        for s in states {
            black_box(codec.key(s));
        }
        m.set(name, per_item_ns(started, states.len()), "ns");
    }

    // The independence relation on every pair of steps enabled at a
    // sampled state (the check the sleep-set rule leans on).
    let mut pairs = 0usize;
    let started = Instant::now();
    for (s, here) in states.iter().zip(&sample.moves) {
        for (j, &a) in here.iter().enumerate() {
            for &b in &here[j + 1..] {
                black_box(steps_independent_at(s, &sample.cfg, a, b));
                pairs += 1;
            }
        }
    }
    m.set(
        "por.steps_independent_ns",
        per_item_ns(started, pairs),
        "ns",
    );
}

fn multiset_probes(sample: &Sample, m: &mut Metrics) {
    let pools: Vec<Vec<(Packet, CopyId)>> = sample
        .states
        .iter()
        .map(|s| s.fwd.parked_multiset().iter().collect())
        .filter(|p: &Vec<_>| !p.is_empty())
        .collect();
    let ops: usize = pools.iter().map(Vec::len).sum();
    let mut built = Vec::with_capacity(pools.len());
    let started = Instant::now();
    for pool in &pools {
        let mut ms = PacketMultiset::new();
        for &(packet, copy) in pool {
            ms.insert(packet, copy);
        }
        built.push(ms);
    }
    m.set("multiset.insert_ns", per_item_ns(started, ops), "ns");

    let started = Instant::now();
    for ms in &built {
        black_box(ms.content_hash());
    }
    m.set(
        "multiset.content_hash_ns",
        per_item_ns(started, built.len()),
        "ns",
    );

    let started = Instant::now();
    for ms in &mut built {
        while black_box(ms.take_oldest()).is_some() {}
    }
    m.set("multiset.take_oldest_ns", per_item_ns(started, ops), "ns");
    let lens: Vec<f64> = pools.iter().map(|p| p.len() as f64).collect();
    m.set("multiset.pool_len_mean", mean(&lens), "count");
}

/// Inserts `keys`, then probes them and as many absent keys.
fn time_set(set: &mut dyn VisitedSet, keys: &[u64], absent: &[u64]) -> (f64, f64) {
    let started = Instant::now();
    for &k in keys {
        set.insert(k);
    }
    let insert_ns = per_item_ns(started, keys.len());
    let started = Instant::now();
    for &k in keys.iter().chain(absent) {
        black_box(set.contains(k));
    }
    (insert_ns, per_item_ns(started, keys.len() + absent.len()))
}

fn visited_probes(sample: &Sample, sizes: &Sizes, m: &mut Metrics) {
    let keys = &sample.keys;
    let absent: Vec<u64> = keys
        .iter()
        .map(|k| k.rotate_left(17) ^ 0x9e37_79b9)
        .collect();
    let (insert_ns, contains_ns) = time_set(&mut RamVisited::new(), keys, &absent);
    m.set("visited.ram_insert_ns", insert_ns, "ns");
    m.set("visited.ram_contains_ns", contains_ns, "ns");

    // A quarter of certify-spill's budget: the sample's keys spill several
    // times, so contains() exercises the disk runs too.
    let mut tiered = TieredVisited::new(sizes.spill_budget / 4);
    let (insert_ns, contains_ns) = time_set(&mut tiered, keys, &absent);
    m.set("visited.tiered_insert_ns", insert_ns, "ns");
    m.set("visited.probe_keys", keys.len() as f64, "count");
    m.set("visited.probe_spills", tiered.spills() as f64, "count");
    m.set("visited.tiered_contains_ns", contains_ns, "ns");

    // Batched sorted probes of the spilled runs, 256 keys a batch, half
    // of them present.
    const BATCH: usize = 256;
    let mut mixed: Vec<u64> = keys
        .iter()
        .zip(&absent)
        .flat_map(|(&k, &a)| [k, a])
        .collect();
    let batches: Vec<Vec<u64>> = mixed
        .chunks_mut(BATCH)
        .filter(|c| c.len() == BATCH)
        .map(|c| {
            c.sort_unstable();
            c.to_vec()
        })
        .collect();
    let mut hits = vec![false; BATCH];
    let started = Instant::now();
    for batch in &batches {
        hits.fill(false);
        tiered.probe_spilled_sorted(batch, &mut hits);
        black_box(&hits);
    }
    m.set(
        "visited.probe_batch_ns",
        per_item_ns(started, batches.len()),
        "ns",
    );
}

/// Counter / gauge / value readers over one registry snapshot.
fn read(registry: &Registry) -> impl Fn(&str) -> f64 {
    let snap = registry.snapshot();
    move |name: &str| {
        snap.counters
            .get(name)
            .map(|&c| c as f64)
            .or_else(|| snap.gauges.get(name).map(|g| g.high_water as f64))
            .or_else(|| snap.values.get(name).copied())
            .unwrap_or(0.0)
    }
}

fn explore_probes(inputs: &Inputs, sizes: &Sizes, m: &mut Metrics) {
    let cfg = workloads::scope(sizes.scope, false);
    let proto = SequenceNumber::new();

    // One telemetry-attached certify-ram job.
    let registry = Arc::new(Registry::new());
    let sink = Arc::new(TraceSink::new());
    let outcome = Explorer::new(cfg)
        .parallel(inputs.threads)
        .with_telemetry(Arc::clone(&registry), Some(Arc::clone(&sink)))
        .explore(&proto);
    let full_states = match outcome {
        ExploreOutcome::Exhausted { states } => states as f64,
        _ => f64::NAN,
    };
    let get = read(&registry);
    let (candidates, dedup) = (get("explore.candidates"), get("explore.dedup_hits"));
    m.set("explore.expansions", get("explore.expansions"), "count");
    m.set("explore.dedup_hits", dedup, "count");
    m.set(
        "explore.admit_ratio",
        candidates / (candidates + dedup),
        "ratio",
    );
    m.set(
        "explore.merge_serial_share",
        get("explore.merge_serial_ns") / get("explore.wall_ns"),
        "ratio",
    );
    m.set(
        "explore.peak_frontier_bytes",
        get("explore.peak_frontier_bytes"),
        "bytes",
    );
    let levels: Vec<f64> = Json::parse(&sink.to_chrome_json())
        .ok()
        .and_then(|doc| {
            doc.get("traceEvents")
                .and_then(Json::as_arr)
                .map(<[Json]>::to_vec)
        })
        .unwrap_or_default()
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .filter_map(|e| e.get("dur").and_then(Json::as_f64))
        .collect();
    m.set("explore.levels", levels.len() as f64, "count");
    m.set(
        "explore.level_wall_ms_max",
        levels.iter().copied().fold(0.0, f64::max) / 1e3,
        "ms",
    );

    // The same scope on the certify-spill tier.
    let mut tiered = Explorer::new(cfg)
        .parallel(inputs.threads)
        .visited(VisitedSpec::tiered(sizes.spill_budget));
    tiered.explore(&proto);
    let visited = tiered.visited_set();
    m.set("visited.spills", visited.spills() as f64, "count");
    m.set(
        "visited.spill_io_bytes",
        visited.compaction_bytes() as f64,
        "bytes",
    );
    m.set("visited.disk_runs", visited.disk_runs() as f64, "count");
    m.set(
        "visited.peak_resident_bytes",
        visited.peak_memory_bytes() as f64,
        "bytes",
    );

    // And with partial-order reduction.
    let reduced = Explorer::new(ExploreConfig { por: true, ..cfg })
        .parallel(inputs.threads)
        .explore(&proto);
    if let ExploreOutcome::Exhausted { states } = reduced {
        m.set("por.reduction_ratio", full_states / states as f64, "ratio");
    }
}

/// `trace.overhead_frac` = 1 − traced ÷ untraced `certify-ram` states/sec,
/// from interleaved pairs (medians), so host drift hits both sides alike.
fn overhead_probe(inputs: &Inputs, sizes: &Sizes, spans: &Spans, m: &mut Metrics) {
    let mut bench = workloads::setup(Workload::CertifyRam, *inputs);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for n in 0..sizes.overhead_pairs {
        let a = bench.job(n, None);
        let b = bench.job(n, Some(spans));
        plain.push(a.work / a.secs);
        traced.push(b.work / b.secs);
    }
    m.set(
        "trace.overhead_frac",
        1.0 - median(&traced) / median(&plain),
        "frac",
    );
}

fn shrink_probes(inputs: &Inputs, m: &mut Metrics) {
    let (mut ns, mut replays, mut removed, mut original) = (Vec::new(), Vec::new(), 0, 0);
    let items = MENU
        .iter()
        .filter(|item| matches!(item.expect, Expect::Counterexample(_)));
    for item in items {
        let proto = catalog::by_name(item.protocol).expect("menu protocols are in the catalog");
        let outcome = Explorer::new(workloads::scope(item.scope, true))
            .parallel(inputs.threads)
            .explore(proto.as_ref());
        let ExploreOutcome::Counterexample { schedule, .. } = outcome else {
            continue;
        };
        let started = Instant::now();
        let Ok(shrunk) = shrink(proto.as_ref(), &schedule) else {
            continue;
        };
        ns.push(started.elapsed().as_nanos() as f64);
        replays.push(shrunk.attempts as f64);
        removed += shrunk.removed();
        original += shrunk.original_steps;
    }
    m.set("shrink.ns", mean(&ns), "ns");
    m.set("shrink.replays", mean(&replays), "count");
    m.set(
        "shrink.removed_frac",
        removed as f64 / original.max(1) as f64,
        "frac",
    );
}

fn campaign_probes(inputs: &Inputs, sizes: &Sizes, m: &mut Metrics) {
    let plan = workloads::campaign_plan(inputs.seed, inputs.quick);
    let parse: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            black_box(workloads::parse_expand(&plan));
            started.elapsed().as_nanos() as f64
        })
        .collect();
    m.set("plan.parse_expand_ns", median(&parse), "ns");
    let expansion = workloads::parse_expand(&plan);
    let runs = expansion.runs();

    // Simulation rounds of the plan's clean runs; stabilization drives of
    // its corrupted ones.
    let (mut sim_ns, mut sim_msgs, mut sim_steps) = (0u128, 0u64, 0u64);
    for spec in runs
        .iter()
        .filter(|r| r.corruption.is_none() && r.fault_plan.is_none())
        .take(sizes.sim_runs)
    {
        let proto = catalog::by_name(&spec.protocol).expect("validated plan");
        let mut sim = Simulation::builder(proto)
            .channel(spec.discipline.clone())
            .seed(spec.seed)
            .build();
        let cfg = SimConfig {
            max_steps_per_message: spec
                .budget
                .unwrap_or(SimConfig::default().max_steps_per_message),
            ..SimConfig::default()
        };
        let started = Instant::now();
        let result = sim.deliver(spec.messages, &cfg);
        if let Ok(stats) = result {
            sim_ns += started.elapsed().as_nanos();
            sim_msgs += stats.messages_delivered;
            sim_steps += stats.steps;
        }
    }
    m.set(
        "sim.deliver_ns_per_msg",
        sim_ns as f64 / sim_msgs.max(1) as f64,
        "ns",
    );
    m.set(
        "sim.steps_per_msg",
        sim_steps as f64 / sim_msgs.max(1) as f64,
        "count",
    );

    let mut drive = Vec::new();
    for spec in runs
        .iter()
        .filter(|r| r.corruption.is_some())
        .take(sizes.sim_runs)
    {
        let cfg = StabilizeConfig {
            severity: spec.corruption.expect("filtered on corruption"),
            discipline: spec.discipline.clone(),
            fault_plan: spec.fault_plan.clone(),
            messages: spec.messages,
            ..StabilizeConfig::default()
        };
        let proto = catalog::by_name(&spec.protocol).expect("validated plan");
        let mut sim = corrupted_simulation(proto, spec.seed, &cfg);
        let started = Instant::now();
        black_box(drive_corrupted(&mut sim, spec.seed, &cfg));
        drive.push(started.elapsed().as_nanos() as f64);
    }
    m.set("stabilize.drive_ns", mean(&drive), "ns");

    // Service, wire and cache, on one cold and one warm submission.
    let service = workloads::fresh_service(inputs.threads);
    let cold = workloads::submit(&service, &plan, inputs.threads, true, None);
    let warm = workloads::submit(&service, &plan, inputs.threads, false, None);
    m.set("service.tail_ns", cold.tail_s * 1e9, "ns");
    let gauges = service.registry().snapshot().gauges;
    m.set(
        "service.shard_imbalance_pct",
        gauges
            .get("service.shard_imbalance")
            .map_or(0.0, |g| g.value as f64),
        "%",
    );
    m.set("wire.to_line_ns", cold.to_line_ns, "ns");
    let started = Instant::now();
    for line in &cold.lines {
        black_box(WireMsg::parse_line(line).is_ok());
    }
    m.set(
        "wire.parse_line_ns",
        per_item_ns(started, cold.lines.len()),
        "ns",
    );
    m.set(
        "wire.bytes_per_run",
        cold.line_bytes as f64 / runs.len().max(1) as f64,
        "bytes",
    );
    m.set(
        "cache.hit_ratio",
        warm.cache_hits as f64 / runs.len().max(1) as f64,
        "ratio",
    );
    let started = Instant::now();
    for spec in runs {
        black_box(service.cache().lookup(spec));
    }
    m.set("cache.lookup_ns", per_item_ns(started, runs.len()), "ns");

    // Submission vs the batch runner on the same expansion, medians of 3.
    let (mut submitted, mut batch) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let service = workloads::fresh_service(inputs.threads);
        submitted.push(workloads::submit(&service, &plan, inputs.threads, false, None).secs);
        let started = Instant::now();
        black_box(CampaignRunner::new(inputs.threads).run(runs).is_ok());
        batch.push(started.elapsed().as_secs_f64());
    }
    m.set(
        "service.overhead_ratio",
        median(&submitted) / median(&batch),
        "ratio",
    );
}
