//! Parallel state-space exploration: the engine of [`explore`] scaled to
//! every core, with the sequential explorer kept as its oracle.
//!
//! [`ParallelExplorer`] runs a **level-synchronized** breadth-first search
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
//! - **Pooled systems.** Expanded successors draw recycled, boxed
//!   [`System`]s from a pool and refill them in place
//!   ([`System::assign_from`]); merged-out duplicates and retired frontiers
//!   return to the pool. Pool, frontier and merge bins move the boxes, so
//!   sorting a shard moves 32-byte candidates, never a whole system. With
//!   the flat multiset, the monitor's flat copy ledger and fieldwise
//!   `clone_from` plumbing underneath, a warm expansion performs no heap
//!   allocation (pinned by the allocation regression test in
//!   `tests/explore_alloc.rs`).
//! - **Tiered dedup.** The visited set behind the engine is a
//!   [`VisitedSet`] tier chosen by [`VisitedSpec`] (see [`crate::visited`]):
//!   the exact RAM tier runs 64 FNV shards on the fixed-key FNV-64 hasher
//!   ([`nonfifo_ioa::fingerprint`]), the tiered tier spills past a byte
//!   budget to a sorted disk run, and the probabilistic tier trades
//!   exactness for a fixed Bloom footprint. State keys come from the shared
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
//! Frontier states are held with counters-only executions
//! ([`System::disable_event_log`]) so cloning a node is O(protocol state),
//! not O(history); the winning counterexample is re-materialised by
//! replaying its schedule through the strict scheduler — which doubles as
//! an end-to-end validation of every reported attack.

use crate::codec::EncodedState;
use crate::explore::{
    apply, build_root, enabled_actions_into, to_step, Action, ExploreConfig, ExploreOutcome,
};
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

/// A successor discovered during a level, pending the deterministic merge.
/// The system is boxed so the merge sorts, swaps and pops 32-byte
/// candidates instead of moving whole `System`s through its bins.
struct Candidate {
    key: u64,
    rec: PathRec,
    sys: Box<System>,
}

/// Per-worker scratch: action/oldest-copy buffers for the expansion core, a
/// local system pool, and the candidate/violation out-buffers. Candidates
/// are binned by visited-shard index at discovery time ([`shard_of`]), so
/// the post-level merge starts from 64 disjoint key spaces per worker.
/// Everything is reused level to level and run to run.
// Boxed systems are deliberate: pool pops and pushes move a pointer, not
// a whole `System`.
#[allow(clippy::vec_box)]
#[derive(Debug, Default)]
struct WorkerScratch {
    actions: Vec<Action>,
    oldest: Vec<(Packet, CopyId)>,
    pool: Vec<Box<System>>,
    candidates: Vec<Vec<Candidate>>,
    violations: Vec<PathRec>,
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

impl std::fmt::Debug for Candidate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Candidate")
            .field("key", &self.key)
            .field("rec", &self.rec)
            .finish_non_exhaustive()
    }
}

/// Caller-owned reusable workspace for [`ParallelExplorer::explore_in`]:
/// the visited set (any [`VisitedSpec`] tier), the system pool, per-worker
/// scratches, the path arena, and the merge buffers. Running repeated
/// explorations through one arena keeps the steady-state expansion loop
/// entirely off the allocator — the campaign runner and the allocation
/// regression test both rely on this.
// Pool and frontier hold boxed systems on purpose: recycling a system and
// building the next frontier move pointers, not whole `System`s.
#[allow(clippy::vec_box)]
#[derive(Debug)]
pub struct ExploreArena {
    visited: Box<dyn VisitedSet>,
    spec: VisitedSpec,
    pool: Vec<Box<System>>,
    workers: Vec<WorkerScratch>,
    /// `levels[d]` holds one [`PathRec`] per frontier node at depth `d`
    /// (`levels[0]` stays empty: the root has no incoming step).
    levels: Vec<Vec<PathRec>>,
    frontier: Vec<Box<System>>,
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
            pool: Vec::new(),
            workers: Vec::new(),
            levels: Vec::new(),
            frontier: Vec::new(),
            bins_in: Vec::new(),
            merges: (0..SHARDS).map(|_| ShardMerge::default()).collect(),
            heap: Vec::with_capacity(SHARDS),
        }
    }
}

impl ExploreArena {
    /// Creates an empty arena on the exact in-RAM visited tier; buffers
    /// warm up over the first run.
    pub fn new() -> Self {
        ExploreArena::default()
    }

    /// An empty arena deduplicating through `spec`'s visited tier.
    pub fn with_visited(spec: VisitedSpec) -> Self {
        let mut arena = ExploreArena::default();
        arena.install_visited(spec);
        arena
    }

    /// Swaps the visited tier to `spec`. A no-op when the arena already
    /// runs that spec — the existing set (and its warmed allocations) is
    /// kept and merely cleared at the next run.
    pub fn install_visited(&mut self, spec: VisitedSpec) {
        if spec != self.spec {
            self.visited = spec.build();
            self.spec = spec;
        }
    }

    /// The visited set of the most recent run — spill counts, resident
    /// bytes, and the probabilistic tier's false-dedup bound are read here.
    pub fn visited(&self) -> &dyn VisitedSet {
        &*self.visited
    }

    /// The spec the current visited set was built from.
    pub fn visited_spec(&self) -> VisitedSpec {
        self.spec
    }

    pub(crate) fn visited_mut(&mut self) -> &mut dyn VisitedSet {
        &mut *self.visited
    }

    /// Clears logical state while keeping every allocation: the visited
    /// set retains capacity, systems return to the pool, level/merge
    /// buffers reset to length zero.
    fn reset(&mut self, threads: usize) {
        self.visited.clear();
        while self.workers.len() < threads {
            self.workers.push(WorkerScratch::default());
        }
        let ExploreArena {
            pool,
            workers,
            levels,
            frontier,
            bins_in,
            merges,
            ..
        } = self;
        pool.append(frontier);
        for bin in bins_in.iter_mut() {
            pool.extend(bin.drain(..).map(|c| c.sys));
        }
        for m in merges.iter_mut() {
            pool.extend(m.bin.drain(..).map(|c| c.sys));
        }
        for w in workers.iter_mut() {
            while w.candidates.len() < SHARDS {
                w.candidates.push(Vec::new());
            }
            for bin in w.candidates.iter_mut() {
                pool.extend(bin.drain(..).map(|c| c.sys));
            }
            w.violations.clear();
        }
        for level in levels.iter_mut() {
            level.clear();
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

/// The work-stealing breadth-first exploration engine.
///
/// # Example
///
/// ```
/// use nonfifo_adversary::{ExploreConfig, ParallelExplorer};
/// use nonfifo_protocols::AlternatingBit;
///
/// let outcome = ParallelExplorer::new(2).explore(&AlternatingBit::new(), &ExploreConfig::default());
/// assert!(outcome.is_counterexample());
/// ```
#[derive(Debug, Clone)]
pub struct ParallelExplorer {
    threads: usize,
    telemetry: Option<ExploreTelemetry>,
}

/// Pre-bound metric handles for the explorer. Recording is relaxed atomics
/// on shared cells, so worker threads update them lock-free; nothing here
/// is ever read back into the search, keeping reports byte-identical with
/// telemetry on or off.
#[derive(Debug, Clone)]
struct ExploreTelemetry {
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
    fn new(registry: Arc<Registry>, trace: Option<Arc<TraceSink>>) -> Self {
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

    /// End-of-run derived metrics: visited-set shard occupancy (balance of
    /// the mixed-digest shard split, for tiers with resident shards),
    /// overall throughput, the peak resident frontier estimate, and the
    /// memory-footprint gauges of the tiered visited-set work
    /// (`explore.visited_bytes`, `explore.codec_bytes_per_state`).
    fn finalize(&self, visited: &dyn VisitedSet, elapsed_secs: f64, peak_frontier_bytes: usize) {
        let occupancy = self.registry.histogram("explore.shard_occupancy");
        let mut sizes = Vec::new();
        visited.shard_sizes(&mut sizes);
        for size in sizes {
            occupancy.record(size);
        }
        let states = visited.len();
        if elapsed_secs > 0.0 {
            self.registry
                .set_value("explore.states_per_sec", states as f64 / elapsed_secs);
        }
        self.registry
            .gauge("explore.peak_frontier_bytes")
            .set(peak_frontier_bytes as u64);
        self.registry
            .gauge("explore.visited_bytes")
            .set(visited.peak_memory_bytes() as u64);
        self.registry
            .gauge("explore.codec_bytes_per_state")
            .set(EncodedState::BYTES as u64);
        if visited.spills() > 0 {
            self.registry
                .counter("explore.visited_spills")
                .add(visited.spills());
        }
        // Wall time in the values map so CI can ratio merge_serial_ns
        // against it without parsing states_per_sec backwards.
        self.registry
            .set_value("explore.wall_ns", elapsed_secs * 1e9);
        if visited.disk_runs() > 0 {
            self.registry
                .gauge("explore.disk_runs")
                .set(visited.disk_runs());
        }
        if visited.compaction_bytes() > 0 {
            self.registry
                .counter("explore.compaction_bytes")
                .add(visited.compaction_bytes());
        }
    }
}

impl ParallelExplorer {
    /// Creates an explorer with `threads` workers; `0` means one per
    /// available core.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            threads
        };
        ParallelExplorer {
            threads,
            telemetry: None,
        }
    }

    /// Attaches a metrics registry (and optionally a trace sink) that every
    /// subsequent [`explore`](ParallelExplorer::explore) call records into:
    /// states/candidates/dedup counters, per-depth frontier widths, shard
    /// occupancy, throughput, peak frontier bytes, and per-level spans.
    /// Telemetry never feeds back into the search — outcomes stay
    /// byte-identical.
    pub fn with_telemetry(
        mut self,
        registry: Arc<Registry>,
        trace: Option<Arc<TraceSink>>,
    ) -> Self {
        self.telemetry = Some(ExploreTelemetry::new(registry, trace));
        self
    }

    /// The worker count this explorer will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Explores `proto` within `cfg`'s scope. Same contract as
    /// [`explore`](crate::explore()): shortest counterexample, certificate,
    /// or truncation — and the result is identical for every thread count.
    pub fn explore(&self, proto: &dyn DataLink, cfg: &ExploreConfig) -> ExploreOutcome {
        self.explore_in(proto, cfg, &mut ExploreArena::new())
    }

    /// [`explore`](ParallelExplorer::explore) through a caller-owned
    /// [`ExploreArena`], reusing its buffers. The outcome is identical to a
    /// fresh-arena run; only the allocation profile changes.
    pub fn explore_in(
        &self,
        proto: &dyn DataLink,
        cfg: &ExploreConfig,
        arena: &mut ExploreArena,
    ) -> ExploreOutcome {
        let started = Instant::now();
        arena.reset(self.threads);
        let (outcome, peak_frontier_bytes) = self.run(proto, cfg, arena);
        if let Some(tel) = &self.telemetry {
            tel.finalize(
                arena.visited(),
                started.elapsed().as_secs_f64(),
                peak_frontier_bytes,
            );
            tel.registry
                .gauge("explore.threads")
                .set(self.threads as u64);
        }
        outcome
    }

    fn run(
        &self,
        proto: &dyn DataLink,
        cfg: &ExploreConfig,
        arena: &mut ExploreArena,
    ) -> (ExploreOutcome, usize) {
        let tel = self.telemetry.as_ref();
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
        // The root reuses a pooled box when there is one, so a warm run
        // allocates no box of its own.
        let root = match arena.pool.pop() {
            Some(mut recycled) => {
                *recycled = root;
                recycled
            }
            None => Box::new(root),
        };
        arena.frontier.push(root);
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
                // The resident estimate walks the frontier, so only pay for
                // it when someone attached a registry to read it.
                let bytes: usize = arena.frontier.iter().map(|s| s.heap_bytes_estimate()).sum();
                peak_frontier_bytes = peak_frontier_bytes.max(bytes);
            }
            self.expand_level(cfg, por, arena);

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
                pool,
                workers,
                levels,
                frontier,
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
            let merge_threads = self.threads.min(SHARDS);
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
            // The expanded frontier is dead; recycle its systems.
            pool.append(frontier);

            // Admit pass (serial): shard-major over the compacted winners.
            // Each winner key was proven absent by the resident probe at
            // expansion time plus the spilled probe above, so exact tiers
            // take the probe-free insert; the probabilistic tier re-probes
            // its filter and may still reject (a same-level false dedup),
            // which stays on the rare path.
            let mut level_dedup = 0u64;
            for m in merges.iter_mut() {
                level_dedup += m.start as u64;
                let mut i = m.start;
                while i < m.bin.len() {
                    if visited.insert_new(m.bin[i].key) {
                        states += 1;
                        if let Some(t) = tel {
                            t.states.inc();
                        }
                        if states >= cfg.max_states {
                            if let Some(t) = tel {
                                t.dedup_hits.add(level_dedup);
                            }
                            return (ExploreOutcome::Truncated { states }, peak_frontier_bytes);
                        }
                        i += 1;
                    } else {
                        level_dedup += 1;
                        let c = m.bin.remove(i);
                        pool.push(c.sys);
                    }
                }
            }
            if let Some(t) = tel {
                t.dedup_hits.add(level_dedup);
            }

            // Rank assignment (serial): each shard's winners sit at its
            // bin tail in descending (parent rank, step) order, so a
            // 64-way min-heap over the tails emits the level in global
            // path order with O(1) by-value pops — each node's index in
            // the next frontier and the level's record arena *is* its path
            // rank, the invariant that lets the merge compare two-word
            // records instead of whole paths.
            while levels.len() <= depth + 1 {
                levels.push(Vec::new());
            }
            let level = &mut levels[depth + 1];
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
                frontier.push(c.sys);
                if m.bin.len() > m.start {
                    heap_push(heap, (m.bin[m.bin.len() - 1].rec, s));
                }
            }
            // What is left in the bins are the level's duplicates;
            // recycle their systems.
            for m in merges.iter_mut() {
                pool.extend(m.bin.drain(..).map(|c| c.sys));
            }
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
    fn expand_level(&self, cfg: &ExploreConfig, por: PorCtx, arena: &mut ExploreArena) {
        let tel = self.telemetry.as_ref();
        let ExploreArena {
            visited,
            pool,
            workers,
            frontier,
            ..
        } = arena;
        let nworkers = self.threads.min(frontier.len().div_ceil(CHUNK)).max(1);
        // Hand the recycled systems to the active workers round-robin so
        // every thread draws from a warm local pool.
        for (i, sys) in pool.drain(..).enumerate() {
            workers[i % nworkers].pool.push(sys);
        }
        if nworkers == 1 {
            let scratch = &mut workers[0];
            for (rank, sys) in frontier.iter().enumerate() {
                expand_node(sys, rank as u32, &**visited, cfg, por, tel, scratch);
            }
            return;
        }
        let cursor = ChunkCursor::new(frontier.len(), CHUNK);
        let frontier = &*frontier;
        // Frozen for the level: workers only probe membership, so a shared
        // borrow of the tier is all they get (the trait requires `Sync`).
        let visited: &dyn VisitedSet = &**visited;
        std::thread::scope(|scope| {
            for scratch in workers[..nworkers].iter_mut() {
                let cursor = &cursor;
                scope.spawn(move || {
                    while let Some(range) = cursor.claim() {
                        let start = range.start;
                        for (i, sys) in frontier[range].iter().enumerate() {
                            expand_node(sys, (start + i) as u32, visited, cfg, por, tel, scratch);
                        }
                    }
                });
            }
        });
    }
}

fn expand_node(
    sys: &System,
    rank: u32,
    visited: &dyn VisitedSet,
    cfg: &ExploreConfig,
    por: PorCtx,
    tel: Option<&ExploreTelemetry>,
    scratch: &mut WorkerScratch,
) {
    if let Some(t) = tel {
        t.expansions.inc();
    }
    enabled_actions_into(sys, cfg, &mut scratch.oldest, &mut scratch.actions);
    for k in 0..scratch.actions.len() {
        let action = scratch.actions[k];
        let mut next = match scratch.pool.pop() {
            Some(mut recycled) => {
                recycled.assign_from(sys);
                recycled
            }
            None => Box::new(sys.clone()),
        };
        apply(&mut next, action);
        let rec = PathRec {
            parent: rank,
            step: to_step(action),
        };
        if next.violation().is_some() {
            scratch.violations.push(rec);
            scratch.pool.push(next);
            continue;
        }
        // Sleep-set pruning, mirrored exactly from the sequential engine:
        // after the violation check, before dedup. Pure in (state, action),
        // so every thread schedule prunes the identical edge set.
        if por.sleeps(sys, &next, action, cfg) {
            if let Some(t) = tel {
                t.pruned.inc();
            }
            scratch.pool.push(next);
            continue;
        }
        let key = por.key(&next);
        // Frozen *resident* membership check — for disk-spilling tiers
        // this is the RAM delta only; spilled-run membership is settled
        // once per level by the merge's batched sorted probe, so the hot
        // loop never waits on a positioned read. Same-level duplicates are
        // likewise resolved in the merge.
        if !visited.contains_resident(key) {
            if let Some(t) = tel {
                t.candidates.inc();
            }
            scratch.candidates[shard_of(key)].push(Candidate {
                key,
                rec,
                sys: next,
            });
        } else {
            if let Some(t) = tel {
                t.dedup_hits.inc();
            }
            scratch.pool.push(next);
        }
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

/// Convenience wrapper: [`ParallelExplorer::new(threads)`] then
/// [`explore`](ParallelExplorer::explore).
pub fn explore_parallel(
    proto: &dyn DataLink,
    cfg: &ExploreConfig,
    threads: usize,
) -> ExploreOutcome {
    ParallelExplorer::new(threads).explore(proto, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::state_key;
    use crate::explore::{explore, Discipline};
    use crate::visited::FnvSet;
    use crate::visited::SHARDS;
    use nonfifo_protocols::{AlternatingBit, GoBackN, NaiveCycle, SequenceNumber};

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
    fn merge_elements_stay_pointer_sized() {
        // The merge sorts, swaps and pops candidates and the pool and
        // frontier move systems level after level: all of them must stay
        // handles, never by-value `System`s.
        fn elem<T>(_: &[T]) -> usize {
            std::mem::size_of::<T>()
        }
        assert!(
            std::mem::size_of::<Candidate>() <= 32,
            "Candidate is {} bytes",
            std::mem::size_of::<Candidate>()
        );
        let arena = ExploreArena::new();
        let word = std::mem::size_of::<usize>();
        assert_eq!(elem(&arena.frontier), word, "frontier element");
        assert_eq!(elem(&arena.pool), word, "arena pool element");
        assert_eq!(
            elem(&WorkerScratch::default().pool),
            word,
            "worker pool element"
        );
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        assert!(ParallelExplorer::new(0).threads() >= 1);
        assert_eq!(ParallelExplorer::new(3).threads(), 3);
    }

    #[test]
    fn arena_reuse_preserves_reports() {
        // Back-to-back explorations through one arena — including a switch
        // of protocol, which exercises the assign_from type-mismatch
        // fallback on pooled systems — match fresh-arena runs exactly.
        let explorer = ParallelExplorer::new(2);
        let cfg = ExploreConfig::default();
        let mut arena = ExploreArena::new();
        for _ in 0..2 {
            for proto in [
                &AlternatingBit::new() as &dyn DataLink,
                &SequenceNumber::new() as &dyn DataLink,
            ] {
                let warm = explorer.explore_in(proto, &cfg, &mut arena).report();
                let fresh = explorer.explore(proto, &cfg).report();
                assert_eq!(warm, fresh, "{}", proto.name());
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
        let plain = ParallelExplorer::new(4)
            .explore(&SequenceNumber::new(), &cfg)
            .report();

        let registry = Arc::new(Registry::new());
        let trace = Arc::new(TraceSink::new());
        let instrumented = ParallelExplorer::new(4)
            .with_telemetry(Arc::clone(&registry), Some(Arc::clone(&trace)))
            .explore(&SequenceNumber::new(), &cfg)
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
            "resident frontier estimate was recorded"
        );
        assert!(!trace.is_empty(), "per-level spans were recorded");
    }
}
