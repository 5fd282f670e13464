//! The benchmark's own span recorder for the traced run.
//!
//! Spans are recorded around each public library call the benchmark makes
//! (a job, `Explorer::explore`, `shrink`, `run_campaign`, each streamed
//! wire line) and kept in memory until the run ends. Every span carries
//! its parent's id and the id of the job (trace) it belongs to, so the
//! written file is a forest of per-job trees from which self times follow.

use nonfifo_telemetry::{Json, TraceSink};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// `0` for a job's root span.
    pub parent: u64,
    /// Shared by every span of one job.
    pub trace: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Thread-safe in-memory span store.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    next_id: AtomicU64,
    done: Mutex<Vec<Span>>,
}

/// Where a child span attaches: the job it belongs to and its parent.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub trace: u64,
    pub parent: u64,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder started.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.done.lock().expect("span store poisoned").push(span);
    }

    /// Runs `f` inside a new root span (a job); `f` receives the context
    /// its child spans attach to.
    pub fn job<R>(&self, name: &str, f: impl FnOnce(Ctx) -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.record(
            Ctx {
                trace: id,
                parent: 0,
            },
            id,
            name,
            f,
        )
    }

    /// Runs `f` inside a child span of `at`.
    pub fn child<R>(&self, at: Ctx, name: &str, f: impl FnOnce(Ctx) -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.record(at, id, name, f)
    }

    fn record<R>(&self, at: Ctx, id: u64, name: &str, f: impl FnOnce(Ctx) -> R) -> R {
        let start_ns = self.now_ns();
        let out = f(Ctx {
            trace: at.trace,
            parent: id,
        });
        self.push(Span {
            id,
            parent: at.parent,
            trace: at.trace,
            name: name.to_string(),
            start_ns,
            end_ns: self.now_ns(),
        });
        out
    }

    /// Adopts the complete (`X`) events of an engine [`TraceSink`] created
    /// at `sink_origin_ns` as children of `at` — the explorer's per-level
    /// spans join the job tree they ran under.
    pub fn adopt_sink(&self, at: Ctx, sink: &TraceSink, sink_origin_ns: u64) {
        let Ok(doc) = Json::parse(&sink.to_chrome_json()) else {
            return;
        };
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap_or(&[]);
        for ev in events {
            if ev.get("ph").and_then(Json::as_str) != Some("X") {
                continue;
            }
            let (Some(ts), Some(dur)) = (
                ev.get("ts").and_then(Json::as_f64),
                ev.get("dur").and_then(Json::as_f64),
            ) else {
                continue;
            };
            // `level 7` -> `engine.level`: one aggregate per engine phase.
            let name = ev
                .get("name")
                .and_then(Json::as_str)
                .and_then(|n| n.split_whitespace().next())
                .unwrap_or("span");
            let start_ns = sink_origin_ns + (ts * 1e3) as u64;
            self.push(Span {
                id: self.next_id.fetch_add(1, Ordering::Relaxed),
                parent: at.parent,
                trace: at.trace,
                name: format!("engine.{name}"),
                start_ns,
                end_ns: start_ns + (dur * 1e3) as u64,
            });
        }
    }

    /// Every finished span, in start order.
    pub fn finished(&self) -> Vec<Span> {
        let mut spans = self.done.lock().expect("span store poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Per span-name totals: `(count, total ns, self ns)`, where a span's self
/// time is its duration minus the time its direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (u64, u64, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let slot = out.entry(s.name.clone()).or_default();
        slot.0 += 1;
        slot.1 += dur;
        slot.2 += own;
    }
    out
}

/// The spans as a JSON array of `{id, parent, trace, name, start_ns,
/// end_ns}` objects.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("id".into(), Json::Uint(s.id)),
                    ("parent".into(), Json::Uint(s.parent)),
                    ("trace".into(), Json::Uint(s.trace)),
                    ("name".into(), Json::Str(s.name.clone())),
                    ("start_ns".into(), Json::Uint(s.start_ns)),
                    ("end_ns".into(), Json::Uint(s.end_ns)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_share_the_job_trace_and_point_at_their_parent() {
        let spans = Spans::new();
        spans.job("job", |job| {
            spans.child(job, "call", |call| {
                spans.child(call, "line", |_| ());
            });
        });
        let done = spans.finished();
        assert_eq!(done.len(), 3);
        let job = done.iter().find(|s| s.name == "job").unwrap();
        let call = done.iter().find(|s| s.name == "call").unwrap();
        let line = done.iter().find(|s| s.name == "line").unwrap();
        assert_eq!(job.parent, 0);
        assert_eq!(call.parent, job.id);
        assert_eq!(line.parent, call.id);
        assert!(done.iter().all(|s| s.trace == job.id));
        let totals = self_times(&done);
        assert_eq!(totals["job"].0, 1);
        assert!(totals["job"].2 <= totals["job"].1);
    }
}
