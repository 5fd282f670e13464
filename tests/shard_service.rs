//! Shard-merge determinism, end-to-end through the facade: the property
//! that makes the `nonfifo serve` daemon safe is that the expand →
//! execute → merge pipeline is a pure function of the plan — however the
//! expansion is partitioned, wherever the pieces run, whatever order they
//! come back in, and whatever mix of cached and fresh records fills the
//! slots. These tests pin that property for the in-process service (the
//! process-spawning paths live in `crates/cli/tests/serve.rs`) plus the
//! regressions around it: adversarial partitions, lost records healed by
//! retry, and warm-cache replay through a restarted daemon.

use nonfifo::campaign::{
    merge_reports, CampaignPlan, CampaignRunner, CampaignService, PlanExpansion, ServiceConfig,
    ShardSpec, WireMsg,
};
use std::sync::Mutex;

const PLAN: &str = "\
schema_version 1
scenario mixed
protocols abp seqnum window4
disciplines fifo prob:0.25
messages 5 9
seeds 0..2

scenario chaos
protocols seqnum
disciplines prob:0.2
messages 8
seeds 0..3
fault dup 0.1
";

fn expansion() -> PlanExpansion {
    let plan = CampaignPlan::parse(PLAN).expect("plan parses");
    PlanExpansion::of_plan(&plan).expect("plan validates")
}

fn batch_baseline() -> (String, String) {
    let report = CampaignRunner::new(1).run(expansion().runs()).unwrap();
    (report.render(), report.aggregate_metrics().to_json())
}

/// A deterministic "random" partition: assigns index `i` to shard
/// `xorshift(seed, i) % k`, allowing empty and wildly unbalanced shards —
/// shapes the weighted splitter never produces.
fn scrambled_partition(len: usize, k: usize, seed: u64) -> Vec<ShardSpec> {
    let mut shards: Vec<ShardSpec> = (0..k)
        .map(|shard| ShardSpec {
            shard,
            of: k,
            indices: Vec::new(),
        })
        .collect();
    let mut state = seed | 1;
    for i in 0..len {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        shards[(state as usize) % k].indices.push(i);
    }
    shards.retain(|s| !s.indices.is_empty());
    shards
}

/// Property: ANY partition of the expansion — cost-weighted or scrambled,
/// balanced or degenerate, executed and merged in any shard order —
/// reassembles byte-identically to the single-process batch report.
#[test]
fn arbitrary_partitions_merge_byte_identically() {
    let exp = expansion();
    let (render, aggregate) = batch_baseline();
    let all: Vec<usize> = (0..exp.len()).collect();
    let cases: Vec<Vec<ShardSpec>> = vec![
        exp.shards_weighted(&all, 1),
        exp.shards_weighted(&all, 2),
        exp.shards_weighted(&all, 4),
        exp.shards_weighted(&all, exp.len()),
        scrambled_partition(exp.len(), 3, 0x9e37),
        scrambled_partition(exp.len(), 5, 0xc2b2),
        scrambled_partition(exp.len(), 2, 0x1234_5678),
    ];
    for (case, shards) in cases.into_iter().enumerate() {
        let mut parts: Vec<_> = shards.iter().map(|s| s.execute(&exp, |_| {})).collect();
        // Completion order must not matter: merge the parts reversed.
        parts.reverse();
        let merged = merge_reports(&exp, Vec::new(), parts).unwrap();
        assert_eq!(merged.render(), render, "case {case}");
        assert_eq!(
            merged.aggregate_metrics().to_json(),
            aggregate,
            "case {case}"
        );
    }
}

/// Regression: the service's worker counts 1, 2, and 4 — the matrix CI
/// pins over real processes — hold in-process too, Run deltas included.
#[test]
fn service_reports_are_worker_count_invariant() {
    let (render, aggregate) = batch_baseline();
    let total = expansion().len();
    for workers in [1usize, 2, 4] {
        let service = CampaignService::new(ServiceConfig::default()).unwrap();
        let streamed = Mutex::new(Vec::new());
        let mut sink = |msg: &WireMsg| {
            if let WireMsg::Run { index, .. } = msg {
                streamed.lock().unwrap().push(*index as usize);
            }
        };
        let report = service.run_campaign(PLAN, workers, &mut sink).unwrap();
        let mut indices = streamed.into_inner().unwrap();
        indices.sort_unstable();
        assert_eq!(
            indices,
            (0..total).collect::<Vec<_>>(),
            "{workers} workers: every run streamed exactly once"
        );
        match report {
            WireMsg::Report {
                render: r,
                aggregate: a,
                ..
            } => {
                assert_eq!(r, render, "{workers} workers");
                assert_eq!(a.to_json(), aggregate, "{workers} workers");
            }
            other => panic!("wrong kind: {}", other.kind()),
        }
    }
}

/// Regression: a part that lost records (a crashed worker) merges to an
/// error naming the gap, and refilling exactly the missing indices —
/// whatever shard claims the refill — heals to the byte-identical report.
#[test]
fn lost_records_are_named_and_retry_heals_byte_identically() {
    let exp = expansion();
    let (render, _) = batch_baseline();
    let all: Vec<usize> = (0..exp.len()).collect();
    let shards = exp.shards_weighted(&all, 3);
    let mut parts: Vec<_> = shards.iter().map(|s| s.execute(&exp, |_| {})).collect();

    // Drop a prefix of shard 1 and a suffix of shard 2 — two different
    // crash shapes.
    parts[1].records.drain(..2);
    parts[2].records.truncate(1);
    let err = merge_reports(&exp, Vec::new(), parts.clone()).unwrap_err();
    assert!(
        err.to_string().contains("produced no record"),
        "gap is named: {err}"
    );

    let mut healed_parts = parts;
    for (shard, part) in [(1usize, 1usize), (2, 2)] {
        let missing = healed_parts[part].missing_from(&shards[shard].indices);
        assert!(!missing.is_empty());
        let refill = ShardSpec {
            shard: 99, // the merge keys on index + fingerprint, not shard id
            of: 100,
            indices: missing,
        }
        .execute(&exp, |_| {});
        healed_parts.push(refill);
    }
    let healed = merge_reports(&exp, Vec::new(), healed_parts).unwrap();
    assert_eq!(healed.render(), render);
}

/// Warm-cache replay through the daemon: a service restarted on the cache
/// file a previous service wrote replays every run without executing
/// anything, byte-identical except the hit counter.
#[test]
fn warm_cache_replays_through_a_restarted_service() {
    let total = expansion().len();
    let path = std::env::temp_dir()
        .join(format!("nonfifo-service-cache-{}.json", std::process::id()))
        .to_string_lossy()
        .into_owned();
    std::fs::remove_file(&path).ok();

    let cfg = ServiceConfig {
        cache_path: Some(path.clone()),
        ..ServiceConfig::default()
    };
    let cold_service = CampaignService::new(cfg.clone()).unwrap();
    let mut sink = |_: &WireMsg| {};
    let cold = cold_service.run_campaign(PLAN, 2, &mut sink).unwrap();
    assert_eq!(cold_service.cache().len(), total, "cache file populated");

    // A fresh service instance — only the file connects them.
    let warm_service = CampaignService::new(cfg).unwrap();
    let executed = Mutex::new(0usize);
    let mut sink = |msg: &WireMsg| {
        if matches!(msg, WireMsg::Run { .. }) {
            *executed.lock().unwrap() += 1;
        }
    };
    let warm = warm_service.run_campaign(PLAN, 4, &mut sink).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(executed.into_inner().unwrap(), 0, "nothing re-executed");

    match (cold, warm) {
        (
            WireMsg::Report {
                render: cr,
                aggregate: ca,
                cache_hits: 0,
            },
            WireMsg::Report {
                render: wr,
                aggregate: mut wa,
                cache_hits: hits,
            },
        ) => {
            assert_eq!(hits as usize, total);
            assert_eq!(cr, wr, "renders byte-identical across the restart");
            wa.counters.insert("campaign.cache_hits".to_string(), 0);
            assert_eq!(ca.to_json(), wa.to_json(), "aggregates differ only in hits");
        }
        other => panic!("unexpected reports: {other:?}"),
    }
}

/// The versioned plan schema rides the whole pipeline: a v1 declaration
/// is accepted everywhere, and an unsupported version is rejected with
/// the line number before any run executes.
#[test]
fn schema_versions_gate_the_service_pipeline() {
    let service = CampaignService::new(ServiceConfig::default()).unwrap();
    let mut sink = |_: &WireMsg| panic!("rejected plans must not stream");
    let future = PLAN.replace("schema_version 1", "schema_version 99");
    let err = service.run_campaign(&future, 2, &mut sink).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("line 1"), "{msg}");
    assert!(msg.contains("unsupported schema_version 99"), "{msg}");
}
