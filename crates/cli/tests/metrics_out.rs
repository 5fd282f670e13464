//! `--metrics-out` on the real binary, pinned byte for byte: one clean
//! `simulate` run and one `chaos` run that stalls (exit 3), against
//! snapshots written by the registry-backed simulation telemetry that
//! preceded the plain-integer tally. CI's campaign-smoke job diffs the
//! same two commands against the same fixtures.

use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_nonfifo");

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs `args` in a fresh scratch directory (the stalled run writes its
/// repro schedule to the working directory) and returns the exit code and
/// the `--metrics-out` document.
fn metrics_of(name: &str, args: &[&str]) -> (i32, String) {
    let dir =
        std::env::temp_dir().join(format!("nonfifo-metrics-out-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = dir.join("metrics.json");
    let status = Command::new(BIN)
        .args(args)
        .arg("--metrics-out")
        .arg(&out)
        .current_dir(&dir)
        .output()
        .expect("spawn nonfifo")
        .status;
    let doc = std::fs::read_to_string(&out).expect("metrics written");
    std::fs::remove_dir_all(&dir).expect("clean scratch dir");
    (status.code().expect("exit code"), doc)
}

fn fixture(name: &str) -> String {
    std::fs::read_to_string(repo_root().join("tests/fixtures").join(name)).expect("fixture")
}

#[test]
fn simulate_metrics_match_the_fixture() {
    let (code, doc) = metrics_of(
        "simulate",
        &[
            "simulate",
            "seqnum",
            "probabilistic",
            "--messages",
            "60",
            "--seed",
            "3",
        ],
    );
    assert_eq!(code, 0);
    assert_eq!(doc, fixture("cli_simulate_metrics.json"));
}

#[test]
fn stalled_chaos_metrics_match_the_fixture() {
    let plan = repo_root().join("attacks/blackout.chaos");
    let (code, doc) = metrics_of(
        "chaos",
        &[
            "chaos",
            "stabilizing-dl",
            "--plan",
            plan.to_str().expect("utf-8 path"),
            "--messages",
            "30",
            "--seed",
            "4",
            "--retry",
        ],
    );
    assert_eq!(code, 3, "the blackout stalls the run");
    assert_eq!(doc, fixture("cli_chaos_stall_metrics.json"));
}
