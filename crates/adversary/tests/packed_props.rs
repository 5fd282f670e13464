//! Round-trip properties of the packed state records the parallel
//! explorer keeps its frontier in.
//!
//! For every catalog protocol, under three channel disciplines, from a
//! clean root and from four corrupted roots, a breadth-first walk visits at
//! least 300 states. Each state is packed and unpacked into a scratch
//! system that still holds the previous state, as an explorer worker does.
//! The unpacked system must equal the original field for field (`Debug`),
//! have the same full and quotient keys, and give the same successor keys
//! and verdicts for every step.

use nonfifo_adversary::{
    apply_step, build_root, Discipline, ExploreConfig, ScheduleStep, StateCodec, System,
};
use nonfifo_channel::Channel as _;
use nonfifo_ioa::{Header, Packet};
use nonfifo_protocols::{catalog, AlternatingBit, SequenceNumber};
use std::collections::{HashSet, VecDeque};

const PROTOCOLS: &[&str] = &[
    "abp",
    "cycle3",
    "seqnum",
    "window2",
    "gbn2",
    "srej4",
    "outnumber3",
    "afek3",
    "stabilizing-dl",
];

const STATES: usize = 300;

/// Every step worth trying at `sys`; `apply_step` drops the disabled ones.
fn candidate_steps(sys: &System) -> Vec<ScheduleStep> {
    let mut headers: Vec<Header> = sys
        .fwd
        .parked_multiset()
        .iter()
        .map(|(p, _)| p.header())
        .collect();
    headers.sort_unstable();
    headers.dedup();
    let mut steps = vec![ScheduleStep::Send, ScheduleStep::Park];
    for h in headers {
        steps.push(ScheduleStep::Deliver(h));
        steps.push(ScheduleStep::Drop(h));
    }
    steps
}

fn keys(sys: &System) -> (u64, u64) {
    (
        StateCodec::full().key(sys),
        StateCodec::retired_quotient().key(sys),
    )
}

/// Up to [`STATES`] non-violating states, breadth first from the
/// counters-only root of `cfg`.
fn walk(proto: &str, cfg: &ExploreConfig) -> Vec<System> {
    let proto = catalog::by_name(proto).expect("catalog name");
    let root = build_root(proto.as_ref(), cfg, false);
    let mut seen = HashSet::from([keys(&root).0]);
    let mut queue = VecDeque::from([root]);
    let mut states = Vec::new();
    while let Some(sys) = queue.pop_front() {
        for step in candidate_steps(&sys) {
            let Some(next) = apply_step(&sys, cfg, step) else {
                continue;
            };
            if next.violation().is_none() && seen.insert(keys(&next).0) {
                queue.push_back(next);
            }
        }
        states.push(sys);
        if states.len() == STATES {
            break;
        }
    }
    states
}

#[test]
fn unpack_of_pack_is_the_same_state() {
    let disciplines = [
        Discipline::NonFifo,
        Discipline::BoundedReorder(2),
        Discipline::LossyFifo,
    ];
    let starts = [None, Some(0), Some(1), Some(2), Some(3)];
    let mut bytes = Vec::new();
    for &proto in PROTOCOLS {
        for discipline in disciplines {
            for corrupt_start in starts {
                let cfg = ExploreConfig {
                    max_messages: 8,
                    max_pool: 8,
                    discipline,
                    corrupt_start,
                    ..ExploreConfig::default()
                };
                let ctx = format!("{proto} / {discipline} / corrupt {corrupt_start:?}");
                let states = walk(proto, &cfg);
                assert_eq!(states.len(), STATES, "{ctx}: scope too small to walk");
                let mut scratch = states[0].clone();
                for (i, sys) in states.iter().enumerate() {
                    bytes.clear();
                    sys.pack(&mut bytes);
                    scratch.unpack(&bytes);
                    let ctx = format!("{ctx}, state {i}");
                    assert_eq!(format!("{scratch:?}"), format!("{sys:?}"), "{ctx}");
                    assert_eq!(keys(&scratch), keys(sys), "{ctx}");
                    for step in candidate_steps(sys) {
                        let a = apply_step(sys, &cfg, step);
                        let b = apply_step(&scratch, &cfg, step);
                        assert_eq!(
                            a.as_ref().map(|s| (keys(s), s.violation())),
                            b.as_ref().map(|s| (keys(s), s.violation())),
                            "{ctx}, step {step:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "latched violation")]
fn packing_a_violating_system_panics() {
    // The alternating bit's phantom delivery: park stale copies of bit 0,
    // complete two messages, then replay one stale copy.
    let mut sys = System::new(&AlternatingBit::new());
    sys.disable_event_log();
    sys.send_msg();
    for _ in 0..3 {
        sys.step_park_all();
    }
    assert!(sys.run_to_quiescence(16));
    sys.send_msg();
    assert!(sys.run_to_quiescence(16));
    sys.replay_receipts(&[Packet::header_only(Header::new(0))]);
    assert!(sys.violation().is_some());
    sys.pack(&mut Vec::new());
}

#[test]
#[should_panic(expected = "event log")]
fn packing_an_event_logged_system_panics() {
    let mut sys = System::new(&SequenceNumber::new());
    sys.send_msg();
    assert_eq!(sys.fwd.in_transit_len(), 0);
    sys.pack(&mut Vec::new());
}
