//! Property harness over the protocol × channel exploration matrix.
//!
//! For random small scopes, random protocols, and every channel
//! [`Discipline`], the sequential oracle and the parallel engine must agree
//! on the outcome *kind* and on the shortest-counterexample depth, and the
//! parallel engine must produce byte-identical reports at every thread
//! count. Cases run on the workspace PRNG so each is addressable by seed;
//! `PROPTEST_CASES` scales the case count (CI pins it for reproducible
//! runtime).

use nonfifo::adversary::{
    scope_root, Discipline, ExploreConfig, ExploreOutcome, Explorer, Schedule,
};
use nonfifo::protocols::{
    AlternatingBit, DataLink, GoBackN, Outnumber, SequenceNumber, SlidingWindow,
};
use nonfifo_rng::StdRng;

/// Cases per property: `PROPTEST_CASES` if set, else a small default that
/// keeps the whole harness in tier-1 time.
fn cases() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

fn for_seeds(cases: u64, case: impl Fn(u64, &mut StdRng)) {
    for seed in 0..cases {
        let mut rng = StdRng::seed_from_u64(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            case(seed, &mut rng);
        }));
        if let Err(payload) = result {
            eprintln!("property failed at seed {seed}; rerun replays it exactly");
            std::panic::resume_unwind(payload);
        }
    }
}

fn random_protocol(rng: &mut StdRng) -> Box<dyn DataLink> {
    match rng.gen_range(0..5) {
        0 => Box::new(SequenceNumber::new()),
        1 => Box::new(AlternatingBit::new()),
        2 => Box::new(GoBackN::new(1 + rng.gen_range(0..2) as u32)),
        3 => Box::new(SlidingWindow::new(1 + rng.gen_range(0..2) as u32)),
        _ => Box::new(Outnumber::new(3 + rng.gen_range(0..2) as u32)),
    }
}

fn random_discipline(rng: &mut StdRng) -> Discipline {
    match rng.gen_range(0..3) {
        0 => Discipline::NonFifo,
        1 => Discipline::BoundedReorder(rng.gen_range(0..4) as u64),
        _ => Discipline::LossyFifo,
    }
}

fn random_scope(rng: &mut StdRng) -> ExploreConfig {
    ExploreConfig {
        max_messages: 1 + rng.gen_range(0..3) as u64,
        max_depth: 4 + rng.gen_range(0..6),
        max_pool: 2 + rng.gen_range(0..3),
        // Generous: random scopes this small never reach it, so outcomes
        // stay comparable across engines.
        max_states: 2_000_000,
        discipline: random_discipline(rng),
        // A third of the scopes start from a seeded corrupted in-transit
        // multiset — the engines must agree there too.
        corrupt_start: if rng.gen_range(0..3) == 0 {
            Some(rng.next_u64())
        } else {
            None
        },
        // Half the scopes run reduced: every property here (engine
        // agreement, thread-count byte-identity, counterexample replay)
        // must hold with the reduction on too.
        por: rng.gen_range(0..2) == 1,
    }
}

fn kind(outcome: &ExploreOutcome) -> &'static str {
    match outcome {
        ExploreOutcome::Counterexample { .. } => "counterexample",
        ExploreOutcome::Exhausted { .. } => "exhausted",
        ExploreOutcome::Truncated { .. } => "truncated",
    }
}

#[test]
fn sequential_and_parallel_agree_across_the_matrix() {
    for_seeds(cases(), |seed, rng| {
        let proto = random_protocol(rng);
        let cfg = random_scope(rng);
        let seq = Explorer::new(cfg).explore(proto.as_ref());
        let par = Explorer::new(cfg).parallel(0).explore(proto.as_ref());
        assert_eq!(
            kind(&seq),
            kind(&par),
            "seed {seed}: engines disagree on outcome kind for {} under {} \
             (seq {seq:?}, par {par:?})",
            proto.name(),
            cfg.discipline,
        );
        if let (
            ExploreOutcome::Counterexample { depth: ds, .. },
            ExploreOutcome::Counterexample { depth: dp, .. },
        ) = (&seq, &par)
        {
            assert_eq!(
                ds,
                dp,
                "seed {seed}: shortest-counterexample depth differs for {} under {}",
                proto.name(),
                cfg.discipline,
            );
        }
    });
}

#[test]
fn parallel_reports_are_byte_identical_across_thread_counts() {
    for_seeds(cases(), |seed, rng| {
        let proto = random_protocol(rng);
        let cfg = random_scope(rng);
        let baseline = Explorer::new(cfg)
            .parallel(1)
            .explore(proto.as_ref())
            .report();
        for threads in [2, 8] {
            let report = Explorer::new(cfg)
                .parallel(threads)
                .explore(proto.as_ref())
                .report();
            assert_eq!(
                baseline,
                report,
                "seed {seed}: {threads}-thread report diverges for {} under {}",
                proto.name(),
                cfg.discipline,
            );
        }
    });
}

#[test]
fn counterexamples_replay_and_certificates_quiesce() {
    // Kind-agreement says the engines match each other; this says the
    // counterexamples they agree on are *real*: the emitted schedule
    // replays through the strict scheduler to a DL1 violation.
    for_seeds(cases(), |seed, rng| {
        let proto = random_protocol(rng);
        let cfg = random_scope(rng);
        if let ExploreOutcome::Counterexample { schedule, .. } =
            Explorer::new(cfg).parallel(0).explore(proto.as_ref())
        {
            // Replay from the scope's root: corrupted scopes only violate
            // when the seeded junk is present, so a clean boot would abort.
            let sys = Schedule::run_steps_from(schedule.steps(), scope_root(proto.as_ref(), &cfg))
                .unwrap_or_else(|e| panic!("seed {seed}: replay aborted: {e}"));
            assert!(
                sys.violation().is_some(),
                "seed {seed}: counterexample schedule replayed clean for {} under {}",
                proto.name(),
                cfg.discipline,
            );
        }
    });
}
