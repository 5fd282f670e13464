//! The lock-free metrics registry.
//!
//! Registration (name → cell) takes a mutex once per metric; recording is a
//! relaxed atomic op on a shared cell, so the parallel explorer's worker
//! threads update counters without contending on anything but the cache
//! line. Cells are never removed: a handle stays valid for the life of the
//! registry.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::snapshot::{GaugeSnapshot, HistogramSnapshot, MetricsSnapshot, SCHEMA_VERSION};

/// Number of power-of-two histogram buckets: bucket `i` holds values whose
/// bit length is `i` (bucket 0 holds exactly the value 0).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotone counter handle. Cheap to clone; clones share the cell.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct GaugeCell {
    value: AtomicU64,
    high_water: AtomicU64,
}

/// A gauge handle: a current value plus the high-water mark it has reached.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<GaugeCell>);

impl Gauge {
    /// Sets the current value, advancing the high-water mark if exceeded.
    pub fn set(&self, v: u64) {
        self.0.value.store(v, Ordering::Relaxed);
        self.0.high_water.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// The largest value ever set.
    pub fn high_water(&self) -> u64 {
        self.0.high_water.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCell {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramCell {
    fn default() -> Self {
        HistogramCell {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A histogram handle with power-of-two buckets plus exact count/sum/min/max.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCell>);

/// The bucket index for a recorded value: its bit length.
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The largest value bucket `i` can hold (`0` for bucket 0, else `2^i − 1`).
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: u64) {
        let cell = &*self.0;
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.sum.fetch_add(v, Ordering::Relaxed);
        cell.min.fetch_min(v, Ordering::Relaxed);
        cell.max.fetch_max(v, Ordering::Relaxed);
        cell.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let cell = &*self.0;
        let count = cell.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: cell.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                cell.min.load(Ordering::Relaxed)
            },
            max: cell.max.load(Ordering::Relaxed),
            buckets: cell
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((bucket_upper(i), n))
                })
                .collect(),
        }
    }
}

/// The handle named `name` in `map`, created by `make` on first use. The
/// name is copied only when it is inserted.
fn entry<'m, V>(map: &'m mut BTreeMap<String, V>, name: &str, make: impl FnOnce() -> V) -> &'m V {
    if !map.contains_key(name) {
        map.insert(name.to_string(), make());
    }
    &map[name]
}

fn new_counter() -> Counter {
    Counter(Arc::new(AtomicU64::new(0)))
}

fn new_gauge() -> Gauge {
    Gauge(Arc::new(GaugeCell::default()))
}

fn new_histogram() -> Histogram {
    Histogram(Arc::new(HistogramCell::default()))
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
    /// Derived scalar measurements (rates, ratios) set at export time.
    values: BTreeMap<String, f64>,
}

/// The metrics registry: named counters, gauges, histograms, and derived
/// values, snapshot-able to a stable-schema JSON document.
///
/// Share one registry across threads with `Arc<Registry>`; handles returned
/// by [`counter`](Registry::counter) & co. record lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().expect("registry poisoned");
        entry(&mut inner.counters, name, new_counter).clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().expect("registry poisoned");
        entry(&mut inner.gauges, name, new_gauge).clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.inner.lock().expect("registry poisoned");
        entry(&mut inner.histograms, name, new_histogram).clone()
    }

    /// Sets the derived value named `name` (rates, ratios — quantities
    /// computed at export time rather than accumulated).
    pub fn set_value(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.values.insert(name.to_string(), value);
    }

    /// Folds a batch of metrics recorded elsewhere into the registry under
    /// one lock acquisition — how a single-threaded recorder that tallies
    /// plain integers publishes them:
    ///
    /// - counters add;
    /// - a gauge's high-water mark advances to the snapshot's, then its
    ///   value is set to the snapshot's (as [`Gauge::set`] would have
    ///   left it);
    /// - histograms add `count`, `sum` and their buckets, and widen
    ///   `min`/`max` (a histogram with no observations leaves both alone);
    /// - derived values are set.
    ///
    /// Every name in `snapshot` is registered, zero-valued ones included.
    pub fn absorb(&self, snapshot: &MetricsSnapshot) {
        let mut inner = self.inner.lock().expect("registry poisoned");
        for (name, &n) in &snapshot.counters {
            entry(&mut inner.counters, name, new_counter).add(n);
        }
        for (name, g) in &snapshot.gauges {
            let cell = &entry(&mut inner.gauges, name, new_gauge).0;
            cell.high_water.fetch_max(g.high_water, Ordering::Relaxed);
            cell.value.store(g.value, Ordering::Relaxed);
        }
        for (name, h) in &snapshot.histograms {
            let cell = &*entry(&mut inner.histograms, name, new_histogram).0;
            cell.count.fetch_add(h.count, Ordering::Relaxed);
            cell.sum.fetch_add(h.sum, Ordering::Relaxed);
            if h.count > 0 {
                cell.min.fetch_min(h.min, Ordering::Relaxed);
                cell.max.fetch_max(h.max, Ordering::Relaxed);
            }
            for &(le, n) in &h.buckets {
                cell.buckets[bucket_of(le)].fetch_add(n, Ordering::Relaxed);
            }
        }
        for (name, &x) in &snapshot.values {
            inner.values.insert(name.clone(), x);
        }
    }

    /// A point-in-time snapshot of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("registry poisoned");
        MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            counters: inner
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, g)| {
                    (
                        k.clone(),
                        GaugeSnapshot {
                            value: g.get(),
                            high_water: g.high_water(),
                        },
                    )
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
            values: inner.values.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let reg = Registry::new();
        let c = reg.counter("x");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("x").get(), 5, "handles share the cell");
    }

    #[test]
    fn gauge_tracks_high_water() {
        let reg = Registry::new();
        let g = reg.gauge("depth");
        g.set(3);
        g.set(9);
        g.set(2);
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_water(), 9);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(2), 3);
        let reg = Registry::new();
        let h = reg.histogram("sizes");
        for v in [0, 1, 2, 3, 7] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let hs = &snap.histograms["sizes"];
        assert_eq!(hs.count, 5);
        assert_eq!(hs.sum, 13);
        assert_eq!(hs.min, 0);
        assert_eq!(hs.max, 7);
        assert_eq!(hs.buckets, vec![(0, 1), (1, 1), (3, 2), (7, 1)]);
    }

    #[test]
    fn absorbing_snapshots_matches_recording_them() {
        let recorded = Registry::new();
        recorded.counter("x").add(3);
        let g = recorded.gauge("g");
        g.set(9);
        g.set(4);
        for v in [0, 5] {
            recorded.histogram("h").record(v);
        }
        let published = Registry::new();
        published.absorb(&recorded.snapshot());
        assert_eq!(published.snapshot(), recorded.snapshot());

        // A second batch: counters and histograms add, the gauge keeps its
        // high water and takes the batch's value, an empty histogram
        // registers without disturbing min/max.
        let batch = Registry::new();
        for reg in [&recorded, &batch] {
            reg.counter("x").add(2);
            reg.gauge("g").set(1);
            reg.histogram("h").record(70);
            reg.histogram("empty");
        }
        published.absorb(&batch.snapshot());
        assert_eq!(published.snapshot(), recorded.snapshot());
        assert_eq!(published.gauge("g").high_water(), 9);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let reg = Arc::new(Registry::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = reg.counter("n");
                let h = reg.histogram("h");
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.record(i % 16);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(reg.counter("n").get(), 8000);
        assert_eq!(reg.histogram("h").count(), 8000);
    }
}
