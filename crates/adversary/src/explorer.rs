//! The exploration facade: the one public way to run an exhaustive search.
//!
//! [`Explorer`] owns every decision a run depends on: the
//! [`ExploreConfig`] scope, the engine (the sequential oracle or the
//! level-synchronized parallel engine), the [`VisitedSpec`] tier and the
//! arena it lives in, and the telemetry sinks. Both engines record their
//! end-of-run metrics through one function, [`record_run`], so a metrics
//! export carries the same names whichever engine ran.
//!
//! ```
//! use nonfifo_adversary::{ExploreConfig, Explorer, VisitedSpec};
//! use nonfifo_protocols::SequenceNumber;
//!
//! // Sequential engine, exact disk-spilling tier under a 64 KiB budget:
//! // the report is byte-identical to the default in-RAM run.
//! let mut tiered = Explorer::new(ExploreConfig::default())
//!     .visited(VisitedSpec::tiered(64 * 1024));
//! let mut ram = Explorer::new(ExploreConfig::default());
//! let proto = SequenceNumber::new();
//! assert_eq!(tiered.explore(&proto).report(), ram.explore(&proto).report());
//! ```

use crate::codec::EncodedState;
use crate::explore::{run_sequential, ExploreConfig, ExploreOutcome};
use crate::explore_par::{self, ExploreArena, ExploreTelemetry};
use crate::visited::{VisitedSet, VisitedSpec};
use nonfifo_protocols::DataLink;
use nonfifo_telemetry::{Registry, TraceSink};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One front door for exhaustive exploration: owns the scope config, the
/// engine choice (sequential oracle or level-synchronized parallel), the
/// visited-tier spec, the reusable arena, and the telemetry sinks. Build
/// it fluent-style, then call [`explore`](Explorer::explore) any number of
/// times — runs reuse the arena's warmed buffers, and after each run the
/// visited set stays readable through
/// [`visited_set`](Explorer::visited_set) for spill introspection.
#[derive(Debug)]
pub struct Explorer {
    cfg: ExploreConfig,
    /// `None` = the sequential oracle; `Some(n)` = the parallel engine on
    /// `n` resolved worker threads.
    threads: Option<usize>,
    spec: VisitedSpec,
    registry: Option<Arc<Registry>>,
    trace: Option<Arc<TraceSink>>,
    arena: ExploreArena,
}

impl Explorer {
    /// A facade over `cfg` in the default configuration: sequential
    /// engine, exact in-RAM visited tier, no telemetry.
    pub fn new(cfg: ExploreConfig) -> Self {
        Explorer {
            cfg,
            threads: None,
            spec: VisitedSpec::Ram,
            registry: None,
            trace: None,
            arena: ExploreArena::new(),
        }
    }

    /// Switches to the parallel engine on `threads` workers (`0` = one per
    /// available core, resolved immediately).
    pub fn parallel(mut self, threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            threads
        };
        self.threads = Some(threads);
        self
    }

    /// Selects the visited tier runs deduplicate through. Every tier is
    /// exact, so reports are byte-identical to the default at any budget.
    pub fn visited(mut self, spec: VisitedSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Attaches a metrics registry (and optionally a trace sink) that
    /// every subsequent run records into, whichever engine runs.
    /// Telemetry never feeds back into the search — outcomes stay
    /// byte-identical with it on or off.
    pub fn with_telemetry(
        mut self,
        registry: Arc<Registry>,
        trace: Option<Arc<TraceSink>>,
    ) -> Self {
        self.registry = Some(registry);
        self.trace = trace;
        self
    }

    /// Resolved worker threads of the parallel engine, or `None` for the
    /// sequential oracle.
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// The visited set of the most recent run: spill count, disk bytes,
    /// peak resident bytes.
    pub fn visited_set(&self) -> &dyn VisitedSet {
        self.arena.visited()
    }

    /// Explores `proto` within the configured scope: a shortest
    /// counterexample, a certificate, or a truncation — deterministic in
    /// (protocol, config), whatever the engine, thread count or tier.
    pub fn explore(&mut self, proto: &dyn DataLink) -> ExploreOutcome {
        self.arena.install_visited(self.spec);
        if let Some(threads) = self.threads {
            let telemetry = self
                .registry
                .as_ref()
                .map(|registry| ExploreTelemetry::new(Arc::clone(registry), self.trace.clone()));
            return explore_par::run(
                proto,
                &self.cfg,
                threads,
                telemetry.as_ref(),
                &mut self.arena,
            );
        }
        let started = Instant::now();
        self.arena.visited_mut().clear();
        let (outcome, pruned) = run_sequential(proto, &self.cfg, self.arena.visited_mut());
        if let Some(registry) = &self.registry {
            // The oracle's loop is uninstrumented (it is the reference
            // implementation); its metrics are recorded after the fact.
            if let ExploreOutcome::Exhausted { states } | ExploreOutcome::Truncated { states } =
                &outcome
            {
                registry.counter("explore.states").add(*states as u64);
            }
            record_run(
                registry,
                self.arena.visited(),
                1,
                started.elapsed(),
                None,
                Some(pruned),
            );
        }
        outcome
    }
}

/// Records a finished run's end-of-run metrics — the one writer both
/// engines share, so their exports carry the same names: throughput and
/// wall time, the thread count (1 for the sequential oracle), the visited
/// tier's footprint and shard balance, its spill activity when there was
/// any, and the engine-specific extras — the peak packed frontier for the
/// parallel engine, the pruned-edge total for the oracle (the parallel
/// engine adds its pruning per level instead).
pub(crate) fn record_run(
    registry: &Registry,
    visited: &dyn VisitedSet,
    threads: usize,
    elapsed: Duration,
    peak_frontier_bytes: Option<usize>,
    pruned: Option<u64>,
) {
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        registry.set_value("explore.states_per_sec", visited.len() as f64 / secs);
    }
    // Wall time in the values map so CI can ratio merge_serial_ns against
    // it without parsing states_per_sec backwards.
    registry.set_value("explore.wall_ns", secs * 1e9);
    registry.gauge("explore.threads").set(threads as u64);
    registry
        .gauge("explore.visited_bytes")
        .set(visited.peak_memory_bytes() as u64);
    registry
        .gauge("explore.codec_bytes_per_state")
        .set(EncodedState::BYTES as u64);
    // Balance of the mixed-digest shard split, for tiers with resident
    // shards.
    let occupancy = registry.histogram("explore.shard_occupancy");
    let mut sizes = Vec::new();
    visited.shard_sizes(&mut sizes);
    for size in sizes {
        occupancy.record(size);
    }
    if let Some(bytes) = peak_frontier_bytes {
        registry
            .gauge("explore.peak_frontier_bytes")
            .set(bytes as u64);
    }
    if visited.spills() > 0 {
        registry
            .counter("explore.visited_spills")
            .add(visited.spills());
    }
    if visited.disk_runs() > 0 {
        registry.gauge("explore.disk_runs").set(visited.disk_runs());
    }
    if visited.compaction_bytes() > 0 {
        registry
            .counter("explore.compaction_bytes")
            .add(visited.compaction_bytes());
    }
    if let Some(pruned) = pruned {
        registry.counter("explore.pruned_states").add(pruned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Discipline;
    use nonfifo_protocols::{AlternatingBit, SequenceNumber};

    #[test]
    fn zero_threads_means_available_parallelism() {
        let cfg = ExploreConfig::default();
        assert!(Explorer::new(cfg).parallel(0).threads().unwrap() >= 1);
        assert_eq!(Explorer::new(cfg).parallel(3).threads(), Some(3));
        assert_eq!(Explorer::new(cfg).threads(), None);
    }

    #[test]
    fn tier_choice_is_invisible_in_exact_modes() {
        let cfg = ExploreConfig {
            discipline: Discipline::LossyFifo,
            ..ExploreConfig::default()
        };
        let proto = AlternatingBit::new();
        let reference = Explorer::new(cfg).explore(&proto).report();
        // A 128-byte budget forces a spill every dozen states in this scope.
        let mut tiered = Explorer::new(cfg).visited(VisitedSpec::tiered(128));
        assert_eq!(tiered.explore(&proto).report(), reference);
        assert!(
            tiered.visited_set().spills() > 0,
            "tiny budget must have spilled"
        );
        let mut par_tiered = Explorer::new(cfg)
            .parallel(4)
            .visited(VisitedSpec::tiered(128));
        assert_eq!(par_tiered.explore(&proto).report(), reference);
    }

    #[test]
    fn facade_runs_reuse_one_arena_across_engines_and_tiers() {
        let cfg = ExploreConfig::default();
        let proto = SequenceNumber::new();
        let reference = Explorer::new(cfg).explore(&proto).report();
        let mut facade = Explorer::new(cfg);
        for _ in 0..2 {
            facade.threads = None;
            assert_eq!(facade.explore(&proto).report(), reference);
            facade = facade.parallel(2);
            assert_eq!(facade.explore(&proto).report(), reference);
            facade = facade.visited(VisitedSpec::tiered(4096));
            assert_eq!(facade.explore(&proto).report(), reference);
            facade = facade.visited(VisitedSpec::Ram);
        }
    }
}
