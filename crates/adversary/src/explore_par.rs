//! Parallel state-space exploration: the sequential oracle's search scaled
//! to every core, driven through [`Explorer::parallel`](crate::Explorer::parallel).
//!
//! [`run`] performs a **level-synchronized** breadth-first search
//! over the composed system: all states at adversary-action depth `d` are
//! expanded (in parallel) before any state at depth `d+1`, so the
//! "shortest counterexample" guarantee of the sequential explorer is
//! preserved exactly. Within a level, worker threads claim chunks of the
//! frontier from a shared atomic cursor — dynamic load balancing with no
//! external work-stealing runtime, in keeping with the workspace's
//! zero-dependency policy.
//!
//! **Zero-copy hot path.** Three structural choices keep the steady-state
//! expansion loop off the allocator (see `docs/explorer_internals.md`):
//!
//! - **Parent-pointer paths.** A frontier node does not own its schedule.
//!   Each level appends one `(parent index, last step)` record per admitted
//!   node to a per-level arena, and full paths are reconstructed by walking
//!   the parent chain — only on a violation or never. Expanding a node
//!   copies two words instead of cloning an O(depth) vector.
//! - **Packed frontier.** A frontier state is not a `System` but a
//!   lossless packed byte record ([`System::pack`], varint fields, about
//!   120 bytes at the bench scope), stored back to back in one flat arena
//!   per level in path-rank order. Each worker unpacks a node once into a
//!   scratch system, derives every successor in a second scratch system
//!   ([`System::assign_from`], then the action), and packs only the
//!   successors that survive the resident dedup probe into its own
//!   candidate arena. Both scratch systems stay hot in cache, the merge
//!   sorts 32-byte candidates that point into those arenas, and rank
//!   assignment copies each winner's bytes into the next level's arena.
//!   With the flat multiset and copy ledger underneath, a warm expansion
//!   performs no heap allocation (pinned by the allocation regression
//!   test in `tests/explore_alloc.rs`).
//! - **Tiered dedup.** The visited set behind the engine is a
//!   [`VisitedSet`] tier chosen by [`VisitedSpec`] (see [`crate::visited`]):
//!   the exact RAM tier runs 64 FNV shards on the fixed-key FNV-64 hasher
//!   ([`nonfifo_ioa::fingerprint`]) and the tiered tier spills past a byte
//!   budget to sorted disk runs; both are exact. State keys come from the shared
//!   [`StateCodec`](crate::codec::StateCodec), which folds in the
//!   multiset's incrementally maintained content digest, so hashing a
//!   state never walks the pool.
//!
//! **Determinism.** The outcome is a pure function of (protocol, config):
//! thread count and OS scheduling cannot change it.
//!
//! - Workers only *read* the visited set (it is frozen during a level);
//!   newly discovered states are merged after the level in sorted
//!   `(state key, parent rank, step)` order. All paths within a level have
//!   equal length and the frontier is kept sorted by path order, so
//!   comparing `(parent rank, step)` *is* comparing full paths — when two
//!   paths reach the same state in the same level, the lexicographically
//!   smallest path deterministically claims it, exactly as the old
//!   owned-path engine did (property-tested in `tests/explore_props.rs`).
//! - The merge itself is **sharded and parallel**: candidates are binned
//!   by the 64-way mixed-digest shard index ([`shard_of`]) as workers
//!   discover them, and each shard is sorted, deduplicated, and probed
//!   against the visited tier's spilled runs independently — shards are
//!   disjoint key spaces, so per-shard winners concatenated shard-major
//!   and then emitted in global path-rank order are exactly the winners
//!   the old single-threaded full-sort merge produced, whatever thread
//!   ran which shard (the determinism argument is spelled out in
//!   `docs/explorer_internals.md` §7). Disk-backed tiers are probed once
//!   per shard with a sorted key batch
//!   ([`VisitedSet::probe_spilled_sorted`]), so a 4 KiB run block is read
//!   once per level instead of once per candidate.
//! - Violations found within a level are collected, and the
//!   lexicographically smallest schedule wins — not the first one a thread
//!   happened to stumble on. (The sequential oracle instead returns the
//!   first violation in discovery order; both are shortest, so outcome
//!   kind and depth always agree, while the schedule bytes may differ
//!   between the two engines — never between thread counts.)
//! - The state budget is enforced during the sorted merge, so `Truncated`
//!   outcomes report a thread-count-independent state count. When a level
//!   contains both a violation and the budget edge, the violation wins
//!   (the conclusive answer beats the resource excuse); the sequential
//!   oracle may report `Truncated` on such knife-edge scopes.
//!
//! Frontier states carry counters-only executions
//! ([`System::disable_event_log`]), so a record is O(protocol state), not
//! O(history); the winning counterexample is re-materialised by replaying
//! its schedule through the strict scheduler — which doubles as an
//! end-to-end validation of every reported attack.

use crate::explore::{
    apply, build_root, enabled_actions_into, to_step, Action, ExploreConfig, ExploreOutcome,
};
use crate::explorer::record_run;
use crate::por::PorCtx;
use crate::schedule::{Schedule, ScheduleStep};
use crate::system::System;
use crate::visited::{shard_of, VisitedSet, VisitedSpec, SHARDS};
use crate::workpool::ChunkCursor;
use nonfifo_ioa::{CopyId, Packet};
use nonfifo_protocols::DataLink;
use nonfifo_telemetry::{Counter, Histogram, Registry, TraceSink};
use std::sync::Arc;
use std::time::Instant;

/// Frontier nodes a worker claims per cursor fetch. Small enough to
/// balance skewed levels, large enough to keep the cursor cold.
const CHUNK: usize = 16;

/// One parent-pointer path record: the frontier node at this level reached
/// its state by taking `step` from the previous level's node at index
/// `parent`. Full schedules are reconstructed by walking the chain — two
/// words per node instead of an owned `Vec<ScheduleStep>` per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct PathRec {
    /// Index of the parent node in the previous level's frontier. The
    /// frontier is kept sorted by path order, so for the equal-length paths
    /// of one BFS level, comparing `(parent, step)` is exactly comparing
    /// full paths lexicographically.
    parent: u32,
    /// The action taken from the parent.
    step: ScheduleStep,
}

/// A successor discovered during a level, pending the deterministic merge:
/// its key and path record, and where its packed state sits — bytes
/// `off..off + len` of worker `worker`'s candidate arena. Small and `Copy`,
/// so the merge sorts, swaps and pops 32-byte values.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    key: u64,
    rec: PathRec,
    worker: u32,
    off: u32,
    len: u32,
}

/// A worker's telemetry tallies for one level, added to the shared
/// counters once per level instead of once per successor.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    expansions: u64,
    candidates: u64,
    dedup_hits: u64,
    pruned: u64,
}

/// Per-worker scratch: the two scratch systems, action/oldest-copy buffers
/// for the expansion core, and the candidate/violation out-buffers.
/// Candidates are binned by visited-shard index at discovery time
/// ([`shard_of`]), so the post-level merge starts from 64 disjoint key
/// spaces per worker. Everything is reused level to level and run to run.
#[derive(Debug)]
struct WorkerScratch {
    /// The frontier node being expanded, unpacked once per node.
    parent: System,
    /// The successor being derived, refilled from `parent` per action.
    next: System,
    /// This level's candidate records, back to back.
    out: Vec<u8>,
    actions: Vec<Action>,
    oldest: Vec<(Packet, CopyId)>,
    candidates: Vec<Vec<Candidate>>,
    violations: Vec<PathRec>,
    tally: Tally,
}

impl WorkerScratch {
    fn new(root: &System) -> Self {
        WorkerScratch {
            parent: root.clone(),
            next: root.clone(),
            out: Vec::new(),
            actions: Vec::new(),
            oldest: Vec::new(),
            candidates: (0..SHARDS).map(|_| Vec::new()).collect(),
            violations: Vec::new(),
            tally: Tally::default(),
        }
    }
}

/// One level's frontier: packed [`System`] records back to back in
/// path-rank order, record `i` ending at byte `ends[i]`.
#[derive(Debug, Default)]
struct Frontier {
    bytes: Vec<u8>,
    ends: Vec<u32>,
}

impl Frontier {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    fn record(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.bytes[start..self.ends[i] as usize]
    }

    /// Appends one record.
    fn push(&mut self, record: &[u8]) {
        self.bytes.extend_from_slice(record);
        self.seal();
    }

    /// Ends the record written into `bytes` since the previous end.
    fn seal(&mut self) {
        self.ends.push(arena_offset(self.bytes.len()));
    }

    /// Exact resident size: the records plus their offsets.
    fn resident_bytes(&self) -> usize {
        self.bytes.len() + self.ends.len() * std::mem::size_of::<u32>()
    }
}

/// A byte offset into a level's frontier or candidate arena.
fn arena_offset(n: usize) -> u32 {
    u32::try_from(n).expect("one level's packed records outgrew 4 GiB")
}

/// Per-shard merge state, retained in the arena: the shard's combined
/// candidate bin, the sorted unique key batch handed to
/// [`VisitedSet::probe_spilled_sorted`], and the partition point left by
/// the in-place winner compaction (`bin[..start]` are rejected duplicates,
/// `bin[start..]` the shard's winners in descending path-record order so
/// rank assignment can pop them off the tail).
#[derive(Debug, Default)]
struct ShardMerge {
    bin: Vec<Candidate>,
    keys: Vec<u64>,
    hits: Vec<bool>,
    start: usize,
}

/// The reusable workspace an [`Explorer`](crate::Explorer) owns: the
/// visited set (any [`VisitedSpec`] tier), per-worker scratches (two
/// scratch systems and a candidate arena each), the path arena, the packed
/// frontier arenas of the current and the next level, and the merge
/// buffers. Running repeated explorations through one arena keeps the
/// steady-state expansion loop entirely off the allocator — the allocation
/// regression test relies on this.
#[derive(Debug)]
pub(crate) struct ExploreArena {
    visited: Box<dyn VisitedSet>,
    spec: VisitedSpec,
    workers: Vec<WorkerScratch>,
    /// `levels[d]` holds one [`PathRec`] per frontier node at depth `d`
    /// (`levels[0]` stays empty: the root has no incoming step).
    levels: Vec<Vec<PathRec>>,
    /// The level being expanded.
    frontier: Frontier,
    /// The level rank assignment is filling; swapped in after the merge.
    next: Frontier,
    /// Shard-major transpose buffer: `bins_in[s * stride + w]` is worker
    /// `w`'s candidate bin for shard `s`, swapped in header-only so the
    /// merge can hand disjoint shard groups to threads.
    bins_in: Vec<Vec<Candidate>>,
    /// One [`ShardMerge`] per visited shard.
    merges: Vec<ShardMerge>,
    /// Rank-assignment scratch: a 64-way min-heap over shard bin tails.
    heap: Vec<(PathRec, usize)>,
}

impl Default for ExploreArena {
    fn default() -> Self {
        ExploreArena {
            visited: VisitedSpec::Ram.build(),
            spec: VisitedSpec::Ram,
            workers: Vec::new(),
            levels: Vec::new(),
            frontier: Frontier::default(),
            next: Frontier::default(),
            bins_in: Vec::new(),
            merges: (0..SHARDS).map(|_| ShardMerge::default()).collect(),
            heap: Vec::with_capacity(SHARDS),
        }
    }
}

impl ExploreArena {
    /// Creates an empty arena on the exact in-RAM visited tier; buffers
    /// warm up over the first run.
    pub(crate) fn new() -> Self {
        ExploreArena::default()
    }

    /// Swaps the visited tier to `spec`. A no-op when the arena already
    /// runs that spec — the existing set (and its warmed allocations) is
    /// kept and merely cleared at the next run.
    pub(crate) fn install_visited(&mut self, spec: VisitedSpec) {
        if spec != self.spec {
            self.visited = spec.build();
            self.spec = spec;
        }
    }

    /// The visited set of the most recent run — spill counts and resident
    /// bytes are read here.
    pub(crate) fn visited(&self) -> &dyn VisitedSet {
        &*self.visited
    }

    pub(crate) fn visited_mut(&mut self) -> &mut dyn VisitedSet {
        &mut *self.visited
    }

    /// Clears logical state while keeping every allocation: the visited
    /// set retains capacity, frontier, level and merge buffers reset to
    /// length zero.
    fn reset(&mut self) {
        self.visited.clear();
        self.frontier.clear();
        self.next.clear();
        for bin in self.bins_in.iter_mut() {
            bin.clear();
        }
        for m in self.merges.iter_mut() {
            m.bin.clear();
        }
        for w in self.workers.iter_mut() {
            for bin in w.candidates.iter_mut() {
                bin.clear();
            }
            w.violations.clear();
        }
        for level in self.levels.iter_mut() {
            level.clear();
        }
    }

    /// Gives every worker scratch systems of `root`'s protocol, adding
    /// workers up to `threads`. `assign_from` swaps the automata when a
    /// reused arena switches protocols.
    fn seed_workers(&mut self, root: &System, threads: usize) {
        for w in self.workers.iter_mut() {
            w.parent.assign_from(root);
            w.next.assign_from(root);
        }
        while self.workers.len() < threads {
            self.workers.push(WorkerScratch::new(root));
        }
    }

    /// Reconstructs the full schedule ending in `last`, a record whose
    /// parent sits at depth `depth` (so the path has `depth + 1` steps).
    fn reconstruct(&self, depth: usize, last: PathRec) -> Vec<ScheduleStep> {
        let mut steps = vec![last.step];
        let mut idx = last.parent as usize;
        // A depth-0 violation has no interior path to walk — and on a fresh
        // arena `levels` is still empty, so even the degenerate `[1..=0]`
        // slice would be out of bounds. Reachable only from a corrupted
        // start, where the very first deliver can already be a phantom.
        if depth > 0 {
            for level in self.levels[1..=depth].iter().rev() {
                let rec = level[idx];
                steps.push(rec.step);
                idx = rec.parent as usize;
            }
        }
        steps.reverse();
        steps
    }
}

/// Pre-bound metric handles for the explorer. Recording is relaxed atomics
/// on shared cells; workers tally into their scratch and the engine adds
/// the tallies once per level, so the shared cells see a handful of
/// updates per level rather than one per successor. Nothing here is ever
/// read back into the search, keeping reports byte-identical with
/// telemetry on or off.
#[derive(Debug)]
pub(crate) struct ExploreTelemetry {
    registry: Arc<Registry>,
    trace: Option<Arc<TraceSink>>,
    /// Frontier nodes expanded (worker-side).
    expansions: Counter,
    /// Successors generated across all levels (worker-side).
    candidates: Counter,
    /// Successors rejected as already-visited: frozen prior-level hits in
    /// workers plus same-level duplicates caught by the sorted merge.
    dedup_hits: Counter,
    /// Unique states admitted to the visited set.
    states: Counter,
    /// Successor transitions put to sleep by the partial-order reduction
    /// (worker-side; stays 0 with `--por` off or inapplicable).
    pruned: Counter,
    /// Nanoseconds spent in the *serial* part of the per-level merge
    /// (transpose, admit, rank assignment — the per-shard sort/probe work
    /// runs on worker threads and is excluded). This over wall time is the
    /// engine's Amdahl serial fraction; CI guards its share.
    merge_serial: Counter,
    /// Frontier width, one observation per depth level.
    frontier_width: Histogram,
}

impl ExploreTelemetry {
    pub(crate) fn new(registry: Arc<Registry>, trace: Option<Arc<TraceSink>>) -> Self {
        ExploreTelemetry {
            expansions: registry.counter("explore.expansions"),
            candidates: registry.counter("explore.candidates"),
            dedup_hits: registry.counter("explore.dedup_hits"),
            states: registry.counter("explore.states"),
            pruned: registry.counter("explore.pruned_states"),
            merge_serial: registry.counter("explore.merge_serial_ns"),
            frontier_width: registry.histogram("explore.frontier_width"),
            registry,
            trace,
        }
    }
}

/// Runs the parallel engine on `threads` workers through `arena`, whose
/// visited tier the caller has installed. The outcome is a pure function
/// of (protocol, config) — identical for every thread count and whatever
/// the arena's previous runs left in its buffers; only the allocation
/// profile changes.
pub(crate) fn run(
    proto: &dyn DataLink,
    cfg: &ExploreConfig,
    threads: usize,
    tel: Option<&ExploreTelemetry>,
    arena: &mut ExploreArena,
) -> ExploreOutcome {
    let started = Instant::now();
    arena.reset();
    let (outcome, peak_frontier_bytes) = search(proto, cfg, threads, tel, arena);
    if let Some(t) = tel {
        record_run(
            &t.registry,
            arena.visited(),
            threads,
            started.elapsed(),
            Some(peak_frontier_bytes),
            None,
        );
    }
    outcome
}

/// The level loop of [`run`]: the outcome and the peak packed frontier
/// size in bytes.
fn search(
    proto: &dyn DataLink,
    cfg: &ExploreConfig,
    threads: usize,
    tel: Option<&ExploreTelemetry>,
    arena: &mut ExploreArena,
) -> (ExploreOutcome, usize) {
    let root = build_root(proto, cfg, false);
    // The sleep rule is a pure function of (state, action), so workers
    // apply it independently with no coordination — pruning cannot
    // depend on discovery order or thread count.
    let por = PorCtx::new(&root, cfg);
    let root_key = por.key(&root);
    arena.visited.insert(root_key);
    let mut states = 1usize;
    if let Some(t) = tel {
        t.states.inc();
    }
    arena.seed_workers(&root, threads);
    root.pack(&mut arena.frontier.bytes);
    arena.frontier.seal();
    let mut peak_frontier_bytes = 0usize;

    for depth in 0..cfg.max_depth {
        if arena.frontier.is_empty() {
            break;
        }
        let _level_span = tel.and_then(|t| t.trace.as_deref()).map(|trace| {
            trace.span_with_args(
                "explore",
                &format!("level {depth}"),
                vec![
                    ("depth".to_string(), depth as u64),
                    ("frontier".to_string(), arena.frontier.len() as u64),
                ],
            )
        });
        if let Some(t) = tel {
            t.frontier_width.record(arena.frontier.len() as u64);
        }
        peak_frontier_bytes = peak_frontier_bytes.max(arena.frontier.resident_bytes());
        expand_level(cfg, por, threads, arena);
        if let Some(t) = tel {
            for w in &arena.workers {
                t.expansions.add(w.tally.expansions);
                t.candidates.add(w.tally.candidates);
                t.dedup_hits.add(w.tally.dedup_hits);
                t.pruned.add(w.tally.pruned);
            }
        }

        // Violations: the lexicographically smallest path wins; within
        // one level that is the minimal (parent rank, step) pair.
        let best_violation = arena
            .workers
            .iter()
            .flat_map(|w| w.violations.iter().copied())
            .min();
        if let Some(rec) = best_violation {
            let steps = arena.reconstruct(depth, rec);
            return (materialize(proto, cfg, steps), peak_frontier_bytes);
        }

        // Deterministic sharded merge: every shard is a disjoint key
        // space, so each is sorted by (key, parent rank, step),
        // deduplicated, and disk-probed independently — on worker
        // threads — and the shard-local decisions concatenated
        // shard-major are exactly the decisions the old global sort
        // made. Only the transpose, the admit pass, and rank
        // assignment remain serial (timed as `explore.merge_serial_ns`
        // when telemetry is attached).
        let ExploreArena {
            visited,
            workers,
            levels,
            frontier,
            next,
            bins_in,
            merges,
            heap,
            ..
        } = &mut *arena;

        let serial_started = tel.map(|_| Instant::now());
        // Transpose worker-major bins into shard-major groups with
        // header-only Vec swaps; `bins_in[s * stride + w]` then holds
        // worker w's candidates for shard s.
        let stride = workers.len();
        while bins_in.len() < SHARDS * stride {
            bins_in.push(Vec::new());
        }
        let mut total = 0usize;
        for (w, scratch) in workers.iter_mut().enumerate() {
            for (s, bin) in scratch.candidates.iter_mut().enumerate() {
                if !bin.is_empty() {
                    total += bin.len();
                    std::mem::swap(&mut bins_in[s * stride + w], bin);
                }
            }
        }
        let mut serial_ns = serial_started.map_or(0, |t| t.elapsed().as_nanos() as u64);

        // Per-shard sort + same-level dedup + batched spilled-run
        // probe + winner compaction (phase A), fanned out over the
        // worker threads. Tiny levels stay inline: a scope spawn costs
        // more than sorting a few dozen candidates.
        let frozen: &dyn VisitedSet = &**visited;
        let merge_threads = threads.min(SHARDS);
        if merge_threads == 1 || total < CHUNK * SHARDS {
            for (s, m) in merges.iter_mut().enumerate() {
                merge_shard(m, &mut bins_in[s * stride..(s + 1) * stride]);
                frozen.probe_spilled_sorted(&m.keys, &mut m.hits);
                compact_winners(m);
            }
        } else {
            let per = SHARDS.div_ceil(merge_threads);
            std::thread::scope(|scope| {
                for (ms, bs) in merges
                    .chunks_mut(per)
                    .zip(bins_in[..SHARDS * stride].chunks_mut(per * stride))
                {
                    scope.spawn(move || {
                        for (j, m) in ms.iter_mut().enumerate() {
                            merge_shard(m, &mut bs[j * stride..(j + 1) * stride]);
                            frozen.probe_spilled_sorted(&m.keys, &mut m.hits);
                            compact_winners(m);
                        }
                    });
                }
            });
        }

        let serial_resumed = tel.map(|_| Instant::now());
        // Admit pass (serial): shard-major over the compacted winners.
        // Each winner key was proven absent by the resident probe at
        // expansion time plus the spilled probe above, so the tier
        // takes the probe-free insert.
        let mut level_dedup = 0u64;
        let mut level_states = 0u64;
        for m in merges.iter_mut() {
            level_dedup += m.start as u64;
            let mut i = m.start;
            while i < m.bin.len() {
                if visited.insert_new(m.bin[i].key) {
                    states += 1;
                    level_states += 1;
                    if states >= cfg.max_states {
                        if let Some(t) = tel {
                            t.states.add(level_states);
                            t.dedup_hits.add(level_dedup);
                        }
                        return (ExploreOutcome::Truncated { states }, peak_frontier_bytes);
                    }
                    i += 1;
                } else {
                    level_dedup += 1;
                    m.bin.remove(i);
                }
            }
        }
        if let Some(t) = tel {
            t.states.add(level_states);
            t.dedup_hits.add(level_dedup);
        }

        // Rank assignment (serial): each shard's winners sit at its
        // bin tail in descending (parent rank, step) order, so a
        // 64-way min-heap over the tails emits the level in global
        // path order with O(1) by-value pops — each node's index in
        // the next frontier and the level's record arena *is* its path
        // rank, the invariant that lets the merge compare two-word
        // records instead of whole paths. Each winner's packed bytes
        // move from its worker's candidate arena to the next level's.
        while levels.len() <= depth + 1 {
            levels.push(Vec::new());
        }
        let level = &mut levels[depth + 1];
        next.clear();
        heap.clear();
        for (s, m) in merges.iter().enumerate() {
            if m.bin.len() > m.start {
                heap_push(heap, (m.bin[m.bin.len() - 1].rec, s));
            }
        }
        while let Some((_, s)) = heap_pop(heap) {
            let m = &mut merges[s];
            let c = m.bin.pop().expect("heap tracks non-empty tails");
            level.push(c.rec);
            let out = &workers[c.worker as usize].out;
            next.push(&out[c.off as usize..][..c.len as usize]);
            if m.bin.len() > m.start {
                heap_push(heap, (m.bin[m.bin.len() - 1].rec, s));
            }
        }
        // What is left in the bins are the level's duplicates.
        for m in merges.iter_mut() {
            m.bin.clear();
        }
        std::mem::swap(frontier, next);
        if let (Some(t), Some(resumed)) = (tel, serial_resumed) {
            serial_ns += resumed.elapsed().as_nanos() as u64;
            t.merge_serial.add(serial_ns);
        }
    }
    (ExploreOutcome::Exhausted { states }, peak_frontier_bytes)
}

/// Expands every frontier node, leaving each worker's discoveries in
/// its scratch buffers. Work is claimed in [`CHUNK`]-sized slices from
/// an atomic cursor; a frontier too small to fill one chunk per worker
/// runs on the calling thread without spawning a scope.
fn expand_level(cfg: &ExploreConfig, por: PorCtx, threads: usize, arena: &mut ExploreArena) {
    let ExploreArena {
        visited,
        workers,
        frontier,
        ..
    } = arena;
    for w in workers.iter_mut() {
        w.out.clear();
        w.tally = Tally::default();
    }
    // Frozen for the level: workers only probe membership, so a shared
    // borrow of the tier is all they get (the trait requires `Sync`).
    let visited: &dyn VisitedSet = &**visited;
    let frontier = &*frontier;
    let nworkers = threads.min(frontier.len().div_ceil(CHUNK)).max(1);
    if nworkers == 1 {
        let scratch = &mut workers[0];
        for rank in 0..frontier.len() {
            expand_node(
                frontier.record(rank),
                rank as u32,
                0,
                visited,
                cfg,
                por,
                scratch,
            );
        }
        return;
    }
    let cursor = ChunkCursor::new(frontier.len(), CHUNK);
    std::thread::scope(|scope| {
        for (worker, scratch) in workers[..nworkers].iter_mut().enumerate() {
            let cursor = &cursor;
            scope.spawn(move || {
                while let Some(range) = cursor.claim() {
                    for rank in range {
                        let record = frontier.record(rank);
                        expand_node(
                            record,
                            rank as u32,
                            worker as u32,
                            visited,
                            cfg,
                            por,
                            scratch,
                        );
                    }
                }
            });
        }
    });
}

/// Expands the frontier node packed in `record`, at path rank `rank`, on
/// worker `worker`. The node is unpacked once; per action the steps are,
/// in order: refill `next` from the parent, apply, the violation check,
/// the sleep rule, the key, and the resident probe. Only candidates are
/// packed.
fn expand_node(
    record: &[u8],
    rank: u32,
    worker: u32,
    visited: &dyn VisitedSet,
    cfg: &ExploreConfig,
    por: PorCtx,
    scratch: &mut WorkerScratch,
) {
    let WorkerScratch {
        parent,
        next,
        out,
        actions,
        oldest,
        candidates,
        violations,
        tally,
    } = scratch;
    tally.expansions += 1;
    parent.unpack(record);
    enabled_actions_into(parent, cfg, oldest, actions);
    for &action in actions.iter() {
        next.assign_from(parent);
        apply(next, action);
        let rec = PathRec {
            parent: rank,
            step: to_step(action),
        };
        if next.violation().is_some() {
            violations.push(rec);
            continue;
        }
        // Sleep-set pruning, mirrored exactly from the sequential engine:
        // after the violation check, before dedup. Pure in (state, action),
        // so every thread schedule prunes the identical edge set.
        if por.sleeps(parent, next, action, cfg) {
            tally.pruned += 1;
            continue;
        }
        let key = por.key(next);
        // Frozen *resident* membership check — for disk-spilling tiers
        // this is the RAM delta only; spilled-run membership is settled
        // once per level by the merge's batched sorted probe, so the hot
        // loop never waits on a positioned read. Same-level duplicates are
        // likewise resolved in the merge.
        if visited.contains_resident(key) {
            tally.dedup_hits += 1;
            continue;
        }
        tally.candidates += 1;
        let off = out.len();
        next.pack(out);
        candidates[shard_of(key)].push(Candidate {
            key,
            rec,
            worker,
            off: arena_offset(off),
            len: arena_offset(out.len() - off),
        });
    }
}

/// Phase A of the sharded merge, one shard at a time: combine the workers'
/// bins for this shard, sort by `(key, parent rank, step)`, and build the
/// sorted unique key batch for the spilled-run probe. Runs concurrently
/// across shards — every buffer it touches is shard-local.
fn merge_shard(m: &mut ShardMerge, bins: &mut [Vec<Candidate>]) {
    m.bin.clear();
    m.keys.clear();
    m.start = 0;
    for bin in bins {
        m.bin.append(bin);
    }
    if m.bin.is_empty() {
        m.hits.clear();
        return;
    }
    m.bin.sort_unstable_by_key(|c| (c.key, c.rec));
    for c in &m.bin {
        if m.keys.last() != Some(&c.key) {
            m.keys.push(c.key);
        }
    }
    m.hits.clear();
    m.hits.resize(m.keys.len(), false);
}

/// Tail of phase A, after the spilled-run probe filled `m.hits`: compact
/// the shard's winners — the first occurrence of each key that is not
/// already on disk — to the tail of the bin in place, losers to the front,
/// then order the winners by *descending* path record so rank assignment
/// can pop the shard's minimum off the tail in O(1).
fn compact_winners(m: &mut ShardMerge) {
    let mut w = m.bin.len();
    let mut key_idx = m.keys.len();
    for i in (0..m.bin.len()).rev() {
        let key = m.bin[i].key;
        if key_idx == m.keys.len() || m.keys[key_idx] != key {
            key_idx -= 1;
        }
        let first = i == 0 || m.bin[i - 1].key != key;
        if first && !m.hits[key_idx] {
            // The swap target is always in the already-scanned suffix, so
            // the backward scan never revisits a displaced element.
            w -= 1;
            m.bin.swap(i, w);
        }
    }
    m.start = w;
    m.bin[w..].sort_unstable_by_key(|b| std::cmp::Reverse(b.rec));
}

/// Sift-up push into the arena-retained min-heap over shard bin tails.
/// Path records within a level are unique (a `(parent, step)` pair is one
/// edge), so ordering by record alone is total and deterministic.
fn heap_push(heap: &mut Vec<(PathRec, usize)>, item: (PathRec, usize)) {
    heap.push(item);
    let mut i = heap.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        if heap[parent].0 <= heap[i].0 {
            break;
        }
        heap.swap(i, parent);
        i = parent;
    }
}

/// Pop the minimum record off the tail heap (sift-down).
fn heap_pop(heap: &mut Vec<(PathRec, usize)>) -> Option<(PathRec, usize)> {
    let n = heap.len();
    if n == 0 {
        return None;
    }
    heap.swap(0, n - 1);
    let top = heap.pop();
    let n = heap.len();
    let mut i = 0;
    loop {
        let left = 2 * i + 1;
        if left >= n {
            break;
        }
        let child = if left + 1 < n && heap[left + 1].0 < heap[left].0 {
            left + 1
        } else {
            left
        };
        if heap[i].0 <= heap[child].0 {
            break;
        }
        heap.swap(i, child);
        i = child;
    }
    top
}

/// Re-runs the winning path through the strict scheduler to recover the
/// full invalid execution (frontier systems carry counters-only logs).
fn materialize(
    proto: &dyn DataLink,
    cfg: &ExploreConfig,
    steps: Vec<ScheduleStep>,
) -> ExploreOutcome {
    let schedule = Schedule::new(steps);
    // Replay from the same (possibly corrupted) root that produced the
    // violation — a clean boot would desynchronise corrupted-start runs.
    let sys = Schedule::run_steps_from(schedule.steps(), build_root(proto, cfg, true))
        .expect("explorer-found schedule must replay");
    assert!(
        sys.violation().is_some(),
        "explorer-found schedule must reproduce its violation"
    );
    ExploreOutcome::Counterexample {
        execution: sys.execution().clone(),
        depth: schedule.steps().len(),
        schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::state_key;
    use crate::explore::Discipline;
    use crate::visited::FnvSet;
    use crate::Explorer;
    use nonfifo_protocols::{
        AlternatingBit, GoBackN, NaiveCycle, Outnumber, SequenceNumber, SlidingWindow,
    };
    use nonfifo_rng::StdRng;

    fn explore(proto: &dyn DataLink, cfg: &ExploreConfig) -> ExploreOutcome {
        Explorer::new(*cfg).explore(proto)
    }

    fn explore_parallel(
        proto: &dyn DataLink,
        cfg: &ExploreConfig,
        threads: usize,
    ) -> ExploreOutcome {
        Explorer::new(*cfg).parallel(threads).explore(proto)
    }

    fn outcome_kind(o: &ExploreOutcome) -> &'static str {
        match o {
            ExploreOutcome::Counterexample { .. } => "counterexample",
            ExploreOutcome::Exhausted { .. } => "exhausted",
            ExploreOutcome::Truncated { .. } => "truncated",
        }
    }

    #[test]
    fn byte_identical_reports_across_thread_counts() {
        let cfg = ExploreConfig::default();
        let protos: Vec<Box<dyn DataLink>> = vec![
            Box::new(AlternatingBit::new()),
            Box::new(NaiveCycle::new(3)),
            Box::new(SequenceNumber::new()),
            Box::new(GoBackN::new(1)),
        ];
        for proto in &protos {
            let reports: Vec<String> = [1, 2, 8]
                .iter()
                .map(|&t| explore_parallel(proto.as_ref(), &cfg, t).report())
                .collect();
            assert_eq!(reports[0], reports[1], "{}: 1 vs 2 threads", proto.name());
            assert_eq!(reports[0], reports[2], "{}: 1 vs 8 threads", proto.name());
        }
    }

    #[test]
    fn agrees_with_sequential_oracle_on_kind_depth_and_states() {
        let cfg = ExploreConfig::default();
        let protos: Vec<Box<dyn DataLink>> = vec![
            Box::new(AlternatingBit::new()),
            Box::new(NaiveCycle::new(3)),
            Box::new(SequenceNumber::new()),
        ];
        for proto in &protos {
            let seq = explore(proto.as_ref(), &cfg);
            let par = explore_parallel(proto.as_ref(), &cfg, 4);
            assert_eq!(
                outcome_kind(&seq),
                outcome_kind(&par),
                "{}: outcome kinds diverge",
                proto.name()
            );
            match (&seq, &par) {
                (
                    ExploreOutcome::Counterexample { depth: a, .. },
                    ExploreOutcome::Counterexample { depth: b, .. },
                ) => assert_eq!(a, b, "{}: counterexample depths diverge", proto.name()),
                (
                    ExploreOutcome::Exhausted { states: a },
                    ExploreOutcome::Exhausted { states: b },
                ) => assert_eq!(a, b, "{}: certificate state counts diverge", proto.name()),
                _ => {}
            }
        }
    }

    #[test]
    fn parallel_counterexample_replays_and_is_shortest() {
        let outcome = explore_parallel(&AlternatingBit::new(), &ExploreConfig::default(), 8);
        let ExploreOutcome::Counterexample {
            depth, schedule, ..
        } = outcome
        else {
            panic!("expected counterexample");
        };
        assert!(depth <= 7, "depth {depth}");
        let sys = schedule.run(&AlternatingBit::new()).expect("replay");
        assert!(sys.violation().is_some());
    }

    #[test]
    fn truncation_is_deterministic_and_explicit() {
        let cfg = ExploreConfig {
            max_states: 10,
            ..ExploreConfig::default()
        };
        let a = explore_parallel(&SequenceNumber::new(), &cfg, 1);
        let b = explore_parallel(&SequenceNumber::new(), &cfg, 8);
        assert!(a.is_truncated(), "got {a:?}");
        assert_eq!(a.report(), b.report());
    }

    #[test]
    fn depth_zero_violations_reconstruct_from_a_fresh_arena() {
        // Corrupt seed 8 preloads junk whose very first deliver is already
        // a phantom: the shortest counterexample is one action, found at
        // depth 0 before the path arena holds any levels. Regression:
        // `reconstruct` used to slice `levels[1..=0]` on the still-empty
        // arena and panic out of bounds.
        let cfg = ExploreConfig {
            max_messages: 2,
            max_depth: 8,
            max_pool: 4,
            max_states: 300_000,
            corrupt_start: Some(8),
            ..ExploreConfig::default()
        };
        for threads in [1, 4] {
            match explore_parallel(&SequenceNumber::new(), &cfg, threads) {
                ExploreOutcome::Counterexample { schedule, .. } => {
                    assert_eq!(schedule.steps().len(), 1, "{threads} threads");
                }
                other => {
                    panic!("{threads} threads: expected a one-action counterexample, got {other:?}")
                }
            }
        }
    }

    #[test]
    fn corrupted_starts_flow_through_the_parallel_engine() {
        // Same corrupted root on every engine and thread count: reports are
        // byte-identical, and a parallel-found counterexample re-materialises
        // from the seeded root (materialize panics otherwise).
        for seed in 0..4 {
            let cfg = ExploreConfig {
                max_messages: 2,
                max_depth: 8,
                max_pool: 4,
                max_states: 300_000,
                corrupt_start: Some(seed),
                ..ExploreConfig::default()
            };
            let reference = explore(&SequenceNumber::new(), &cfg).report();
            for threads in [1, 4] {
                let par = explore_parallel(&SequenceNumber::new(), &cfg, threads).report();
                assert_eq!(par, reference, "seed {seed}, {threads} threads");
            }
        }
    }

    #[test]
    fn disciplines_flow_through_the_parallel_engine() {
        let lossy = ExploreConfig {
            discipline: Discipline::LossyFifo,
            ..ExploreConfig::default()
        };
        assert!(explore_parallel(&AlternatingBit::new(), &lossy, 4).is_certificate());
        let reorder = ExploreConfig {
            discipline: Discipline::BoundedReorder(8),
            ..ExploreConfig::default()
        };
        assert!(explore_parallel(&AlternatingBit::new(), &reorder, 4).is_counterexample());
    }

    #[test]
    fn candidates_and_frontier_records_stay_compact() {
        // The merge sorts, swaps and pops candidates: they stay small
        // handles into the packed arenas, never carrying a state.
        assert!(
            std::mem::size_of::<Candidate>() <= 32,
            "Candidate is {} bytes",
            std::mem::size_of::<Candidate>()
        );
        // At the default scope a packed frontier state costs well under
        // 256 bytes, offsets included; a boxed `System` costs kilobytes.
        let registry = Arc::new(Registry::new());
        Explorer::new(ExploreConfig::default())
            .parallel(2)
            .with_telemetry(Arc::clone(&registry), None)
            .explore(&SequenceNumber::new());
        let snap = registry.snapshot();
        let peak = snap.gauges["explore.peak_frontier_bytes"].value;
        let widest = snap.histograms["explore.frontier_width"].max;
        assert!(
            peak <= 256 * widest,
            "peak frontier {peak} bytes for a widest level of {widest} states"
        );
    }

    /// Seeded cases per property: `PROPTEST_CASES` if set, else 16.
    fn cases() -> u64 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(16)
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

    /// A small random scope: any discipline, a third of them from a
    /// corrupted start, half of them reduced.
    fn random_scope(rng: &mut StdRng) -> ExploreConfig {
        ExploreConfig {
            max_messages: 1 + rng.gen_range(0..3) as u64,
            max_depth: 4 + rng.gen_range(0..6),
            max_pool: 2 + rng.gen_range(0..3),
            max_states: 2_000_000,
            discipline: match rng.gen_range(0..3) {
                0 => Discipline::NonFifo,
                1 => Discipline::BoundedReorder(rng.gen_range(0..4) as u64),
                _ => Discipline::LossyFifo,
            },
            corrupt_start: (rng.gen_range(0..3) == 0).then(|| rng.next_u64()),
            por: rng.gen_range(0..2) == 1,
        }
    }

    #[test]
    fn arena_reuse_preserves_reports() {
        // Back-to-back explorations through ONE arena match fresh-arena
        // runs exactly: a fixed protocol switch (the assign_from
        // type-mismatch fallback on the workers' scratch systems), then
        // seeded rounds varying protocol, scope and thread count, so every
        // run inherits the previous run's recycled buffers.
        let mut arena = ExploreArena::new();
        let mut check = |proto: &dyn DataLink, cfg: &ExploreConfig, threads: usize, case: &str| {
            let warm = run(proto, cfg, threads, None, &mut arena).report();
            let fresh = run(proto, cfg, threads, None, &mut ExploreArena::new()).report();
            assert_eq!(
                warm,
                fresh,
                "{case}: warm-arena report diverges for {}",
                proto.name()
            );
        };
        for _ in 0..2 {
            for proto in [
                &AlternatingBit::new() as &dyn DataLink,
                &SequenceNumber::new(),
            ] {
                check(proto, &ExploreConfig::default(), 2, "fixed scope");
            }
        }
        for seed in 0..cases() {
            let mut rng = StdRng::seed_from_u64(seed);
            for round in 0..3 {
                let proto = random_protocol(&mut rng);
                let cfg = random_scope(&mut rng);
                let threads = 1 + rng.gen_range(0..3);
                check(
                    proto.as_ref(),
                    &cfg,
                    threads,
                    &format!("seed {seed} round {round}"),
                );
            }
        }
    }

    /// The pre-optimization engine, kept as a reference: every frontier
    /// node owns its full `Vec<ScheduleStep>` path, and the merge compares
    /// whole paths. The production engine's two-word `(parent rank, step)`
    /// records must reproduce its reports byte for byte.
    fn cloned_path_reference(proto: &dyn DataLink, cfg: &ExploreConfig) -> ExploreOutcome {
        struct Node {
            sys: System,
            path: Vec<ScheduleStep>,
        }
        let mut root = System::new(proto);
        root.disable_event_log();
        let mut visited = FnvSet::default();
        visited.insert(state_key(&root));
        let mut states = 1usize;
        let mut frontier = vec![Node {
            sys: root,
            path: Vec::new(),
        }];
        for _ in 0..cfg.max_depth {
            if frontier.is_empty() {
                break;
            }
            let mut violations: Vec<Vec<ScheduleStep>> = Vec::new();
            let mut candidates: Vec<(u64, Vec<ScheduleStep>, System)> = Vec::new();
            for node in &frontier {
                for action in crate::explore::enabled_actions(&node.sys, cfg) {
                    let mut next = node.sys.clone();
                    apply(&mut next, action);
                    let mut path = node.path.clone();
                    path.push(to_step(action));
                    if next.violation().is_some() {
                        violations.push(path);
                        continue;
                    }
                    let key = state_key(&next);
                    if !visited.contains(&key) {
                        candidates.push((key, path, next));
                    }
                }
            }
            if !violations.is_empty() {
                violations.sort_unstable();
                return materialize(proto, cfg, violations.swap_remove(0));
            }
            candidates.sort_unstable_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
            let mut next = Vec::new();
            for (key, path, sys) in candidates {
                if visited.insert(key) {
                    states += 1;
                    if states >= cfg.max_states {
                        return ExploreOutcome::Truncated { states };
                    }
                    next.push(Node { sys, path });
                }
            }
            frontier = next;
        }
        ExploreOutcome::Exhausted { states }
    }

    #[test]
    fn rank_merge_matches_cloned_path_reference() {
        let protos: Vec<Box<dyn DataLink>> = vec![
            Box::new(AlternatingBit::new()),
            Box::new(NaiveCycle::new(3)),
            Box::new(SequenceNumber::new()),
            Box::new(GoBackN::new(1)),
        ];
        let scopes = [
            ExploreConfig::default(),
            ExploreConfig {
                discipline: Discipline::BoundedReorder(2),
                ..ExploreConfig::default()
            },
            ExploreConfig {
                discipline: Discipline::LossyFifo,
                ..ExploreConfig::default()
            },
            ExploreConfig {
                max_states: 40,
                ..ExploreConfig::default()
            },
        ];
        for proto in &protos {
            for cfg in &scopes {
                let reference = cloned_path_reference(proto.as_ref(), cfg).report();
                for threads in [1, 4] {
                    let engine = explore_parallel(proto.as_ref(), cfg, threads).report();
                    assert_eq!(
                        reference,
                        engine,
                        "{} / {} / {threads} threads: parent-pointer engine \
                         diverged from the owned-path reference",
                        proto.name(),
                        cfg.discipline,
                    );
                }
            }
        }
    }

    #[test]
    fn telemetry_observes_without_perturbing() {
        let cfg = ExploreConfig::default();
        let plain = explore_parallel(&SequenceNumber::new(), &cfg, 4).report();

        let registry = Arc::new(Registry::new());
        let trace = Arc::new(TraceSink::new());
        let instrumented = Explorer::new(cfg)
            .parallel(4)
            .with_telemetry(Arc::clone(&registry), Some(Arc::clone(&trace)))
            .explore(&SequenceNumber::new())
            .report();
        assert_eq!(plain, instrumented, "telemetry must not change the outcome");

        let snap = registry.snapshot();
        let states = snap.counters["explore.states"];
        let candidates = snap.counters["explore.candidates"];
        assert!(states > 1, "visited more than the root");
        assert!(
            candidates >= states - 1,
            "every non-root state was a candidate"
        );
        assert_eq!(
            snap.histograms["explore.shard_occupancy"].count, SHARDS as u64,
            "one occupancy sample per shard"
        );
        assert_eq!(
            snap.histograms["explore.shard_occupancy"].sum, states,
            "shard occupancy sums to the unique-state count"
        );
        assert!(
            snap.histograms["explore.frontier_width"].count >= 1,
            "at least one level was recorded"
        );
        assert!(snap.values.contains_key("explore.states_per_sec"));
        assert!(
            snap.gauges["explore.peak_frontier_bytes"].value > 0,
            "packed frontier size was recorded"
        );
        assert!(!trace.is_empty(), "per-level spans were recorded");
    }
}
