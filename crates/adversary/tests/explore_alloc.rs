//! Allocation regression pins for the exploration hot path.
//!
//! The zero-copy engine promises that steady-state expansion — unpack a
//! frontier record into a scratch system, refill a second scratch system
//! from it with `assign_from`, apply an action, hash it, pack it, merge it
//! — performs no heap allocation once the arena's buffers have warmed up. This pin makes that promise falsifiable: a counting global
//! allocator measures a warm exploration end to end, and the budget is a
//! small constant (the per-run root-system setup), not a function of the
//! hundreds of expansions the scope performs. A regression that puts even
//! one allocation back into the per-expansion loop blows the budget by an
//! order of magnitude. A second pin bounds a fresh arena's first run: its
//! buffers grow from empty a few times each, but no state costs an
//! allocation of its own.

use nonfifo_adversary::{ExploreConfig, Explorer};
use nonfifo_protocols::SequenceNumber;
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static TRACE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
static TRACED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static IN_HOOK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn maybe_trace() {
    if !TRACE.load(Ordering::Relaxed) {
        return;
    }
    IN_HOOK.with(|flag| {
        if flag.get() {
            return;
        }
        flag.set(true);
        if TRACED.fetch_add(1, Ordering::Relaxed).is_multiple_of(97) {
            let bt = std::backtrace::Backtrace::force_capture();
            eprintln!("=== sampled allocation ===\n{bt}");
        }
        flag.set(false);
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        maybe_trace();
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        maybe_trace();
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The counter is process-wide and tests run on parallel threads: every
/// measuring test holds this lock.
static MEASURING: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Allocations a fresh arena's first run may make at the default scope:
/// 458–465 measured with packed frontier records, plus headroom. Boxed
/// frontier systems made 1,475.
const FRESH_BUDGET: u64 = 600;

#[test]
fn warm_exploration_allocates_a_small_constant() {
    // The sequence-number certificate scope: a few hundred expansions, no
    // violation (so no schedule materialization muddies the count), single
    // thread (so no spawn overhead either — the promise under test is the
    // expansion loop itself).
    let _serial = MEASURING.lock().expect("a measuring test panicked");
    let mut explorer = Explorer::new(ExploreConfig::default()).parallel(1);

    // Warm-up: the first runs grow every buffer the engine will ever need
    // for this scope (shards, frontier arenas, scratches, the path arena).
    let cold = explorer.explore(&SequenceNumber::new());
    explorer.explore(&SequenceNumber::new());

    let before = allocations();
    let warm = explorer.explore(&SequenceNumber::new());
    let spent = allocations() - before;

    assert_eq!(
        cold.report(),
        warm.report(),
        "warming must not change results"
    );

    // Per-run constant: constructing the root system (boxed automata) and
    // nothing else. The scope performs several hundred expansions, so a
    // single stray allocation per expansion lands far above this bar.
    assert!(
        spent <= 32,
        "warm exploration allocated {spent} times; the expansion loop is \
         supposed to run allocation-free on recycled arena buffers"
    );
}

#[test]
fn fresh_exploration_allocates_per_buffer_not_per_state() {
    // A fresh arena's first run at the default scope (419 states): every
    // buffer grows from empty a few times, and that is all. A frontier or
    // candidate state that owned heap buffers of its own would put
    // hundreds of allocations per level back.
    let _serial = MEASURING.lock().expect("a measuring test panicked");
    let before = allocations();
    let outcome = Explorer::new(ExploreConfig::default())
        .parallel(1)
        .explore(&SequenceNumber::new());
    let spent = allocations() - before;
    assert!(outcome.is_certificate(), "{}", outcome.report());
    assert!(
        spent <= FRESH_BUDGET,
        "fresh exploration allocated {spent} times (budget {FRESH_BUDGET})"
    );
}

#[test]
#[ignore]
fn diagnose_allocation_sources() {
    let mut explorer = Explorer::new(ExploreConfig::default()).parallel(1);
    for run in 0..6 {
        let before = allocations();
        explorer.explore(&SequenceNumber::new());
        println!("run {run}: {} allocations", allocations() - before);
    }
}
