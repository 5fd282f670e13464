//! Byte-for-byte pin of what executed campaign runs record.
//!
//! `tests/fixtures/run_metrics_golden.ndjson` holds, for a small plan run
//! on one thread, one line per record (its `metrics.to_json()`), then the
//! campaign aggregate, then the rendered table as a JSON string. The
//! fixture was written by the registry-backed simulation telemetry that
//! preceded the plain-integer tally, so it pins that per-run snapshots,
//! their aggregate and the render did not move when the recording path
//! changed. The wire and cache goldens pin only synthetic snapshots; this
//! is the one pin on what a run actually records.

use nonfifo::campaign::{CampaignPlan, CampaignReport, CampaignRunner, RunOutcome};
use nonfifo::telemetry::json;

const GOLDEN: &str = include_str!("fixtures/run_metrics_golden.ndjson");

/// Every channel discipline, a chaos dup/drop/corrupt rider (corruption
/// flips headers past 2^31), a stalled blackout cell, a violating
/// alternating bit over a reordering channel, a corrupted-start
/// `stabilizing-dl` cell, and Theorem 5.1 growth cells.
const PLAN: &str = "\
scenario golden-disciplines
protocols seqnum abp
disciplines fifo prob:0.3 reorder:3 lossy:0.2
messages 6
seeds 1..3
budget 20000

scenario golden-chaos
protocols seqnum
disciplines prob:0.2
messages 12
seeds 3..5
fault dup 0.15
fault drop 0.1
fault corrupt 0.1

scenario golden-stall
protocols abp
disciplines fifo
messages 12
seeds 5
budget 300
fault partition 5 1000000000

scenario golden-violation
protocols abp
disciplines reorder:4
messages 20
seeds 0..4
budget 20000

scenario golden-stabilize
protocols stabilizing-dl
disciplines prob:0.2
messages 4
seeds 0..3
corruption heavy
fault dup 0.1

scenario golden-growth-bounded
protocols outnumber5
disciplines prob:0.3
messages 4
seeds 17
budget 5000000

scenario golden-growth-unbounded
protocols seqnum
disciplines prob:0.1 prob:0.5
messages 50
seeds 17
budget 5000000
";

/// The document the fixture holds, for a fresh cold run's report.
fn document(report: &CampaignReport) -> String {
    let mut doc = String::new();
    for record in &report.records {
        doc.push_str(&record.metrics.to_json());
        doc.push('\n');
    }
    doc.push_str(&report.aggregate_metrics().to_json());
    doc.push('\n');
    json::write_str(&mut doc, &report.render());
    doc.push('\n');
    doc
}

#[test]
fn executed_run_metrics_match_the_golden_fixture_byte_for_byte() {
    let plan = CampaignPlan::parse(PLAN).expect("golden plan parses");
    let report = CampaignRunner::new(1)
        .run(&plan.expand())
        .expect("golden plan runs");
    // The plan keeps covering the early-return paths it was built for, and
    // corrupted headers too large for a dense per-header array.
    for outcome in [
        RunOutcome::Delivered,
        RunOutcome::Stalled,
        RunOutcome::Violation,
    ] {
        assert!(report.count(outcome) > 0, "no {outcome} run in the plan");
    }
    let huge_header = report.records.iter().any(|r| {
        r.metrics.counters.keys().any(|k| {
            k.rsplit_once(".h")
                .and_then(|(_, h)| h.parse::<u64>().ok())
                .is_some_and(|h| h >= 1 << 30)
        })
    });
    assert!(huge_header, "no header index reached 2^30");
    let doc = document(&report);
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let lines: Vec<&str> = doc.lines().collect();
    assert_eq!(lines.len(), golden.len(), "one fixture line per record");
    for (i, (line, want)) in lines.iter().zip(&golden).enumerate() {
        assert_eq!(line, want, "line {} drifted", i + 1);
    }
    assert_eq!(doc, GOLDEN);
}
