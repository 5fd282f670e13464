//! Point-in-time metric snapshots with a stable JSON schema.
//!
//! The schema is versioned and pinned ([`SCHEMA_VERSION`]): CI artifacts
//! and `BENCH_baseline.json` are compared across commits, so any change to
//! the document shape must bump the version and keep
//! [`MetricsSnapshot::from_json`] accepting what it wrote before.

use crate::json::{self, Json, JsonError};
use std::collections::BTreeMap;
use std::fmt;

/// The pinned schema version emitted in every snapshot document.
pub const SCHEMA_VERSION: u64 = 1;

/// A gauge's exported state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// The value at snapshot time.
    pub value: u64,
    /// The largest value ever set.
    pub high_water: u64,
}

/// A histogram's exported state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Exact sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Non-empty power-of-two buckets as `(inclusive upper bound, count)`,
    /// strictly ascending by bound (documents that are not are rejected,
    /// and [`MetricsSnapshot::merge_from`] relies on it).
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// The mean observation, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Everything a [`Registry`](crate::Registry) knows, frozen.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// The schema version of the document ([`SCHEMA_VERSION`] when written
    /// by this crate).
    pub schema_version: u64,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge states by name.
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Derived scalar values (rates, ratios) by name.
    pub values: BTreeMap<String, f64>,
}

/// Why a snapshot document was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The document is not valid JSON.
    Json(JsonError),
    /// The document is JSON but not a snapshot of a supported schema.
    Schema(String),
    /// A histogram's buckets are not strictly ascending by upper bound.
    BucketOrder {
        /// The histogram's name.
        histogram: String,
        /// Position of the first bucket whose bound does not exceed the
        /// previous one's.
        at: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Json(e) => write!(f, "{e}"),
            SnapshotError::Schema(msg) => write!(f, "snapshot schema error: {msg}"),
            SnapshotError::BucketOrder { histogram, at } => write!(
                f,
                "snapshot schema error: histogram '{histogram}' bucket {at} is not above \
                 the one before (buckets must be strictly ascending)"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<JsonError> for SnapshotError {
    fn from(e: JsonError) -> Self {
        SnapshotError::Json(e)
    }
}

fn schema_err<T>(msg: impl Into<String>) -> Result<T, SnapshotError> {
    Err(SnapshotError::Schema(msg.into()))
}

impl MetricsSnapshot {
    /// Serializes the snapshot as a compact, key-sorted JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends the [`to_json`](Self::to_json) document to `out`, for
    /// callers that embed snapshots inside a larger document (campaign
    /// wire lines and the result cache). This streaming writer is the one
    /// encoder of the schema; decoding goes through a [`Json`] tree.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"schema_version\":");
        json::write_u64(out, self.schema_version);
        out.push_str(",\"counters\":");
        write_map(out, &self.counters, |out, &n| json::write_u64(out, n));
        out.push_str(",\"gauges\":");
        write_map(out, &self.gauges, |out, g| {
            out.push_str("{\"value\":");
            json::write_u64(out, g.value);
            out.push_str(",\"high_water\":");
            json::write_u64(out, g.high_water);
            out.push('}');
        });
        out.push_str(",\"histograms\":");
        write_map(out, &self.histograms, |out, h| {
            for (key, n) in [
                ("{\"count\":", h.count),
                (",\"sum\":", h.sum),
                (",\"min\":", h.min),
                (",\"max\":", h.max),
            ] {
                out.push_str(key);
                json::write_u64(out, n);
            }
            out.push_str(",\"buckets\":[");
            for (i, &(le, n)) in h.buckets.iter().enumerate() {
                out.push_str(if i > 0 { ",[" } else { "[" });
                json::write_u64(out, le);
                out.push(',');
                json::write_u64(out, n);
                out.push(']');
            }
            out.push_str("]}");
        });
        out.push_str(",\"values\":");
        write_map(out, &self.values, |out, &x| json::write_f64(out, x));
        out.push('}');
    }

    /// Parses a snapshot document written by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Rejects malformed JSON, documents without a `schema_version`, and
    /// versions newer than this crate understands.
    pub fn from_json(text: &str) -> Result<MetricsSnapshot, SnapshotError> {
        Self::from_json_value(&Json::parse(text)?)
    }

    /// Parses a snapshot from an already-parsed [`Json`] value (the inverse
    /// of [`write_json`](Self::write_json)). A `null` in `values` reads as
    /// NaN: non-finite values have no JSON spelling and are written as
    /// `null`, so this keeps every written document readable.
    ///
    /// # Errors
    ///
    /// Rejects documents without a `schema_version`, versions newer than
    /// this crate understands, and histograms whose buckets are not
    /// strictly ascending.
    pub fn from_json_value(doc: &Json) -> Result<MetricsSnapshot, SnapshotError> {
        let version = match doc.get("schema_version").and_then(Json::as_u64) {
            Some(v) => v,
            None => return schema_err("missing schema_version"),
        };
        if version == 0 || version > SCHEMA_VERSION {
            return schema_err(format!(
                "unsupported schema_version {version} (this build reads ≤ {SCHEMA_VERSION})"
            ));
        }
        let mut snap = MetricsSnapshot {
            schema_version: version,
            ..MetricsSnapshot::default()
        };
        if let Some(fields) = doc.get("counters").and_then(Json::as_obj) {
            for (k, v) in fields {
                match v.as_u64() {
                    Some(n) => snap.counters.insert(k.clone(), n),
                    None => return schema_err(format!("counter '{k}' is not a u64")),
                };
            }
        }
        if let Some(fields) = doc.get("gauges").and_then(Json::as_obj) {
            for (k, v) in fields {
                let (value, high_water) = match (
                    v.get("value").and_then(Json::as_u64),
                    v.get("high_water").and_then(Json::as_u64),
                ) {
                    (Some(a), Some(b)) => (a, b),
                    _ => return schema_err(format!("gauge '{k}' is malformed")),
                };
                snap.gauges
                    .insert(k.clone(), GaugeSnapshot { value, high_water });
            }
        }
        if let Some(fields) = doc.get("histograms").and_then(Json::as_obj) {
            for (k, v) in fields {
                snap.histograms.insert(k.clone(), parse_histogram(k, v)?);
            }
        }
        if let Some(fields) = doc.get("values").and_then(Json::as_obj) {
            for (k, v) in fields {
                let x = match v {
                    Json::Null => Some(f64::NAN),
                    v => v.as_f64(),
                };
                match x {
                    Some(x) => snap.values.insert(k.clone(), x),
                    None => return schema_err(format!("value '{k}' is not a number")),
                };
            }
        }
        Ok(snap)
    }

    /// Renders the snapshot as a human-readable summary table.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .chain(self.values.keys())
            .map(String::len)
            .max()
            .unwrap_or(0)
            .max("metric".len());
        out.push_str(&format!("{:<width$}  value\n", "metric"));
        out.push_str(&format!("{:-<width$}  {:-<24}\n", "", ""));
        for (k, v) in &self.counters {
            out.push_str(&format!("{k:<width$}  {v}\n"));
        }
        for (k, g) in &self.gauges {
            out.push_str(&format!(
                "{k:<width$}  {} (high water {})\n",
                g.value, g.high_water
            ));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "{k:<width$}  n={} mean={:.2} min={} max={}\n",
                h.count,
                h.mean(),
                h.min,
                h.max
            ));
        }
        for (k, v) in &self.values {
            out.push_str(&format!("{k:<width$}  {v:.2}\n"));
        }
        out
    }

    /// Folds `other` into `self`, metric by metric, as if both snapshots
    /// had been recorded into one registry:
    ///
    /// - counters add;
    /// - gauges keep the maximum of both `value`s and `high_water`s (the
    ///   only merge that is commutative and still means "high water");
    /// - histograms add `count`/`sum`, widen `min`/`max`, and merge buckets
    ///   by upper bound;
    /// - derived `values` are overwritten by `other`'s (last write wins —
    ///   merge in a deterministic order).
    ///
    /// Every rule except `values` is commutative and associative, so
    /// folding per-run snapshots in run order yields the same aggregate on
    /// any thread count.
    ///
    /// A key is copied only when `self` does not have it yet, and
    /// histogram buckets merge in place (both sides are ascending).
    pub fn merge_from(&mut self, other: &MetricsSnapshot) {
        merge_keyed(&mut self.counters, &other.counters, |slot, &n| *slot += n);
        merge_keyed(&mut self.gauges, &other.gauges, |slot, g| {
            slot.value = slot.value.max(g.value);
            slot.high_water = slot.high_water.max(g.high_water);
        });
        merge_keyed(&mut self.histograms, &other.histograms, |slot, h| {
            slot.min = if slot.count == 0 {
                h.min
            } else if h.count == 0 {
                slot.min
            } else {
                slot.min.min(h.min)
            };
            slot.max = slot.max.max(h.max);
            slot.count += h.count;
            slot.sum += h.sum;
            merge_buckets(&mut slot.buckets, &h.buckets);
        });
        merge_keyed(&mut self.values, &other.values, |slot, &x| *slot = x);
    }
}

/// Folds `from` into `into`: `merge` for every key both maps hold, a copy
/// of the entry (key included) for every key only `from` holds.
fn merge_keyed<V: Clone>(
    into: &mut BTreeMap<String, V>,
    from: &BTreeMap<String, V>,
    mut merge: impl FnMut(&mut V, &V),
) {
    for (k, v) in from {
        match into.get_mut(k) {
            Some(slot) => merge(slot, v),
            None => {
                into.insert(k.clone(), v.clone());
            }
        }
    }
}

/// Writes `map` as a JSON object, each value by `value`.
fn write_map<V>(
    out: &mut String,
    map: &BTreeMap<String, V>,
    mut value: impl FnMut(&mut String, &V),
) {
    out.push('{');
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(out, k);
        out.push(':');
        value(out, v);
    }
    out.push('}');
}

/// Adds `from`'s bucket counts into `into` by upper bound. Both lists are
/// strictly ascending; so is the result. Shared bounds add in place in one
/// walk; a bound new to `into` is appended, and the list re-sorted once.
fn merge_buckets(into: &mut Vec<(u64, u64)>, from: &[(u64, u64)]) {
    let held = into.len();
    let mut i = 0;
    for &(le, n) in from {
        while i < held && into[i].0 < le {
            i += 1;
        }
        if i < held && into[i].0 == le {
            into[i].1 += n;
        } else {
            into.push((le, n));
        }
    }
    if into.len() > held {
        into.sort_unstable_by_key(|&(le, _)| le);
    }
}

fn parse_histogram(name: &str, v: &Json) -> Result<HistogramSnapshot, SnapshotError> {
    let field = |key: &str| {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| SnapshotError::Schema(format!("histogram '{name}' missing {key}")))
    };
    let mut buckets: Vec<(u64, u64)> = Vec::new();
    if let Some(items) = v.get("buckets").and_then(Json::as_arr) {
        for (at, item) in items.iter().enumerate() {
            match item.as_arr() {
                Some([le, n]) => match (le.as_u64(), n.as_u64()) {
                    (Some(le), _) if buckets.last().is_some_and(|&(prev, _)| prev >= le) => {
                        return Err(SnapshotError::BucketOrder {
                            histogram: name.to_string(),
                            at,
                        })
                    }
                    (Some(le), Some(n)) => buckets.push((le, n)),
                    _ => return schema_err(format!("histogram '{name}' has a bad bucket")),
                },
                _ => return schema_err(format!("histogram '{name}' has a bad bucket")),
            }
        }
    }
    Ok(HistogramSnapshot {
        count: field("count")?,
        sum: field("sum")?,
        min: field("min")?,
        max: field("max")?,
        buckets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn populated() -> MetricsSnapshot {
        let reg = Registry::new();
        reg.counter("chan.fwd.sends").add(12);
        reg.counter("chan.fwd.drops").add(3);
        let g = reg.gauge("sim.fwd.in_transit");
        g.set(9);
        g.set(4);
        let h = reg.histogram("sim.packets_per_message");
        for v in [1, 2, 2, 5] {
            h.record(v);
        }
        reg.set_value("explore.states_per_sec", 123456.75);
        reg.snapshot()
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let snap = populated();
        let text = snap.to_json();
        let back = MetricsSnapshot::from_json(&text).unwrap();
        assert_eq!(back, snap);
        // And the re-serialization is byte-identical (stable schema).
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn schema_version_is_pinned_and_checked() {
        let snap = populated();
        assert_eq!(snap.schema_version, SCHEMA_VERSION);
        assert!(snap.to_json().contains("\"schema_version\":1"));
        let future = snap
            .to_json()
            .replacen("\"schema_version\":1", "\"schema_version\":999", 1);
        assert!(matches!(
            MetricsSnapshot::from_json(&future),
            Err(SnapshotError::Schema(_))
        ));
        assert!(matches!(
            MetricsSnapshot::from_json("{}"),
            Err(SnapshotError::Schema(_))
        ));
        assert!(matches!(
            MetricsSnapshot::from_json("not json"),
            Err(SnapshotError::Json(_))
        ));
    }

    #[test]
    fn streamed_document_matches_its_json_tree() {
        let snap = populated();
        let mut out = String::from("prefix:");
        snap.write_json(&mut out);
        let text = out.strip_prefix("prefix:").unwrap();
        assert_eq!(text, snap.to_json());
        // Decoding goes through the tree, whose writer spells every scalar
        // the same way.
        let tree = Json::parse(text).unwrap();
        assert_eq!(tree.to_string(), text);
        assert_eq!(MetricsSnapshot::from_json_value(&tree).unwrap(), snap);
    }

    #[test]
    fn non_finite_values_round_trip_byte_identically() {
        let reg = Registry::new();
        reg.set_value("x", f64::INFINITY);
        reg.set_value("y", f64::NAN);
        reg.set_value("z", f64::NEG_INFINITY);
        let text = reg.snapshot().to_json();
        assert!(text.contains("\"x\":null"), "{text}");
        let back = MetricsSnapshot::from_json(&text).unwrap();
        assert!(back.values["x"].is_nan() && back.values["y"].is_nan());
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn unsorted_buckets_are_rejected_by_name() {
        let doc = |buckets: &str| {
            format!(
                "{{\"schema_version\":1,\"histograms\":{{\"h\":{{\"count\":2,\"sum\":5,\
                 \"min\":1,\"max\":4,\"buckets\":{buckets}}}}}}}"
            )
        };
        assert!(MetricsSnapshot::from_json(&doc("[[1,1],[4,1]]")).is_ok());
        for (buckets, at) in [("[[4,1],[1,1]]", 1), ("[[1,1],[2,0],[2,1]]", 2)] {
            assert_eq!(
                MetricsSnapshot::from_json(&doc(buckets)),
                Err(SnapshotError::BucketOrder {
                    histogram: "h".to_string(),
                    at
                }),
                "{buckets}"
            );
        }
    }

    #[test]
    fn merge_adds_counters_and_widens_gauges_and_histograms() {
        let mut a = populated();
        let b = populated();
        a.merge_from(&b);
        assert_eq!(a.counters["chan.fwd.sends"], 24);
        // Gauges take the max, not the sum.
        assert_eq!(a.gauges["sim.fwd.in_transit"].value, 4);
        assert_eq!(a.gauges["sim.fwd.in_transit"].high_water, 9);
        let h = &a.histograms["sim.packets_per_message"];
        assert_eq!(h.count, 8);
        assert_eq!(h.sum, 20);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 5);
        // Buckets merged by upper bound: each count doubled.
        for &(le, n) in &h.buckets {
            let orig = b.histograms["sim.packets_per_message"]
                .buckets
                .iter()
                .find(|&&(l, _)| l == le)
                .unwrap()
                .1;
            assert_eq!(n, 2 * orig);
        }
        // Derived values: last write wins.
        assert_eq!(a.values["explore.states_per_sec"], 123456.75);
    }

    #[test]
    fn merge_into_empty_is_identity_and_order_independent() {
        let b = populated();
        let mut empty = MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            ..MetricsSnapshot::default()
        };
        empty.merge_from(&b);
        assert_eq!(empty, b);

        // Commutativity on the structural metrics (values excluded by
        // construction: both sides carry the same derived values here).
        let reg = Registry::new();
        reg.counter("chan.fwd.sends").add(5);
        reg.gauge("sim.fwd.in_transit").set(30);
        reg.histogram("sim.packets_per_message").record(64);
        let c = reg.snapshot();
        let mut bc = b.clone();
        bc.merge_from(&c);
        let mut cb = c.clone();
        cb.merge_from(&b);
        cb.values = bc.values.clone();
        assert_eq!(bc, cb);
    }

    #[test]
    fn summary_mentions_every_metric() {
        let snap = populated();
        let table = snap.summary();
        for name in [
            "chan.fwd.sends",
            "sim.fwd.in_transit",
            "sim.packets_per_message",
            "explore.states_per_sec",
        ] {
            assert!(table.contains(name), "summary missing {name}:\n{table}");
        }
        assert!(table.contains("high water 9"));
    }
}
