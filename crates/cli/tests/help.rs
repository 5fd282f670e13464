//! `--help` / `-h` on the real binary: every subcommand prints its own
//! usage and exits 0, instead of failing with "--help needs a value".

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
