//! The four workloads: seeded inputs, one closed-loop job, and the check
//! that decides whether the job's output was right.
//!
//! Every workload is a closed loop with one client: the next job starts
//! when the last one finishes. The program only ever sees the generated
//! inputs; the seed stays on this side.

use crate::spans::{Ctx, Spans};
use nonfifo_adversary::{shrink, ExploreConfig, ExploreOutcome, Explorer, VisitedSpec};
use nonfifo_campaign::{
    CampaignPlan, CampaignRunner, CampaignService, PlanExpansion, ServiceConfig, WireMsg,
};
use nonfifo_protocols::{catalog, DataLink, SequenceNumber};
use nonfifo_rng::StdRng;
use nonfifo_telemetry::{MetricsSnapshot, Registry, TraceSink};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The pinned certification scope (ROADMAP bench scope): 8 messages,
/// depth 26, pool 10.
pub const CERTIFY_SCOPE: (u64, usize, usize) = (8, 26, 10);
/// States `seqnum` reaches at [`CERTIFY_SCOPE`].
pub const CERTIFY_STATES: usize = 87_515;
/// The visited-tier budget of `certify-spill` (the CI memory-smoke budget).
pub const SPILL_BUDGET: usize = 256 * 1024;

/// Quick mode's tiny certification scope and its state count.
pub const QUICK_SCOPE: (u64, usize, usize) = (3, 14, 6);
const QUICK_STATES: usize = 167;
pub const QUICK_SPILL_BUDGET: usize = 512;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CertifyRam,
    CertifySpill,
    SearchPor,
    CampaignStream,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CertifyRam,
        Workload::CertifySpill,
        Workload::SearchPor,
        Workload::CampaignStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CertifyRam => "certify-ram",
            Workload::CertifySpill => "certify-spill",
            Workload::SearchPor => "search-por",
            Workload::CampaignStream => "campaign-stream",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// What one unit of this workload's throughput is.
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::CertifyRam | Workload::CertifySpill => "states",
            Workload::SearchPor => "searches",
            Workload::CampaignStream => "runs",
        }
    }
}

/// How the inputs are generated.
#[derive(Debug, Clone, Copy)]
pub struct Inputs {
    pub seed: u64,
    pub threads: usize,
    /// Tiny scopes for the self-tests.
    pub quick: bool,
    /// Deliberately wrong expectations: every check must then fail.
    pub wrong: bool,
}

/// One finished job.
#[derive(Debug, Clone, Default)]
pub struct JobSample {
    /// Submit-to-done latency.
    pub secs: f64,
    /// Work units completed (see [`Workload::work_unit`]).
    pub work: f64,
    /// Seconds of the part of the job `work` is rated against (the whole
    /// job, except `campaign-stream`'s cold submission alone).
    pub work_secs: f64,
    pub ok: bool,
    /// `campaign-stream`: submit to first `Run` line.
    pub ttfl_s: Option<f64>,
    /// `campaign-stream`: the warm resubmission.
    pub replay_s: Option<f64>,
}

/// A ready-to-run workload: the generated inputs plus per-job state.
pub trait Bench {
    /// Runs job number `n`. With `spans`, records a span tree around every
    /// public call the job makes.
    fn job(&mut self, n: usize, spans: Option<&Spans>) -> JobSample;

    /// The untimed warm-up job of set-up. It must cost the same whatever
    /// the seed, so set-up time does not follow the job order.
    fn warm_up(&mut self) -> bool {
        self.job(0, None).ok
    }

    /// Jobs per round. The measuring loop stops only on a round boundary,
    /// so a workload that mixes job kinds measures the same mix every run.
    fn round(&self) -> usize {
        1
    }

    /// A digest of the generated inputs and the job order of the first
    /// `jobs` jobs, for the seed-determinism self-test.
    fn describe(&self, jobs: usize) -> String;
}

pub fn setup(workload: Workload, inputs: Inputs) -> Box<dyn Bench> {
    match workload {
        Workload::CertifyRam => Box::new(Certify::new(inputs, VisitedSpec::Ram)),
        Workload::CertifySpill => {
            let budget = if inputs.quick {
                QUICK_SPILL_BUDGET
            } else {
                SPILL_BUDGET
            };
            Box::new(Certify::new(inputs, VisitedSpec::tiered(budget)))
        }
        Workload::SearchPor => Box::new(SearchPor::new(inputs)),
        Workload::CampaignStream => Box::new(CampaignStream::new(inputs)),
    }
}

/// The explore config of a `(messages, depth, pool)` scope.
pub fn scope(scope: (u64, usize, usize), por: bool) -> ExploreConfig {
    ExploreConfig {
        max_messages: scope.0,
        max_depth: scope.1,
        max_pool: scope.2,
        max_states: 20_000_000,
        por,
        ..ExploreConfig::default()
    }
}

/// Runs `explorer` on `proto`, inside an `explore` span with the engine's
/// per-level spans adopted beneath it when traced.
fn traced_explore(explorer: Explorer, proto: &dyn DataLink, at: Traced<'_>) -> ExploreOutcome {
    within(at, "explore", |call| {
        let Some((spans, ctx)) = call else {
            let mut explorer = explorer;
            return explorer.explore(proto);
        };
        let sink = Arc::new(TraceSink::new());
        let origin = spans.now_ns();
        let outcome = explorer
            .with_telemetry(Arc::new(Registry::new()), Some(Arc::clone(&sink)))
            .explore(proto);
        spans.adopt_sink(ctx, &sink, origin);
        outcome
    })
}

/// Where a traced call's span attaches; `None` when tracing is off.
pub type Traced<'a> = Option<(&'a Spans, Ctx)>;

/// Runs `f` inside a child span `name` of `at` when traced; `f` receives
/// the span its own children attach to.
fn within<'a, R>(at: Traced<'a>, name: &str, f: impl FnOnce(Traced<'a>) -> R) -> R {
    match at {
        Some((spans, ctx)) => spans.child(ctx, name, |inner| f(Some((spans, inner)))),
        None => f(None),
    }
}

/// Runs `f` as one job, inside a root span when traced.
fn job_span<'a, R>(spans: Option<&'a Spans>, name: &str, f: impl FnOnce(Traced<'a>) -> R) -> R {
    match spans {
        Some(spans) => spans.job(name, |ctx| f(Some((spans, ctx)))),
        None => f(None),
    }
}

// ---------------------------------------------------------------- certify

/// `certify-ram` / `certify-spill`: repeated exhaustive certifications of
/// `seqnum` at the pinned scope, each on a fresh parallel explorer.
struct Certify {
    cfg: ExploreConfig,
    spec: VisitedSpec,
    threads: usize,
    /// The certificate both tiers must print, byte for byte.
    expected: String,
}

impl Certify {
    fn new(inputs: Inputs, spec: VisitedSpec) -> Self {
        let (scope_bounds, states) = if inputs.quick {
            (QUICK_SCOPE, QUICK_STATES)
        } else {
            (CERTIFY_SCOPE, CERTIFY_STATES)
        };
        let states = if inputs.wrong { states + 1 } else { states };
        Certify {
            cfg: scope(scope_bounds, false),
            spec,
            threads: inputs.threads,
            expected: ExploreOutcome::Exhausted { states }.report(),
        }
    }
}

impl Bench for Certify {
    fn job(&mut self, _n: usize, spans: Option<&Spans>) -> JobSample {
        let started = Instant::now();
        let (ok, states) = job_span(spans, "job.certify", |traced| {
            let explorer = Explorer::new(self.cfg)
                .parallel(self.threads)
                .visited(self.spec);
            let outcome = traced_explore(explorer, &SequenceNumber::new(), traced);
            let states = match outcome {
                ExploreOutcome::Exhausted { states } => states,
                _ => 0,
            };
            (outcome.report() == self.expected, states)
        });
        let secs = started.elapsed().as_secs_f64();
        JobSample {
            secs,
            work: states as f64,
            work_secs: secs,
            ok,
            ..JobSample::default()
        }
    }

    fn describe(&self, jobs: usize) -> String {
        format!(
            "seqnum {}/{}/{} visited={} jobs={jobs}",
            self.cfg.max_messages, self.cfg.max_depth, self.cfg.max_pool, self.spec
        )
    }
}

// ------------------------------------------------------------- search-por

/// What a menu search must find.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A counterexample with this many adversary actions.
    Counterexample(usize),
    /// A certificate over this many (reduced) states.
    Certificate(usize),
}

/// One entry of the `search-por` menu.
#[derive(Debug, Clone, Copy)]
pub struct MenuItem {
    pub protocol: &'static str,
    pub scope: (u64, usize, usize),
    pub expect: Expect,
}

/// The fixed `search-por` menu, with results measured at 2 threads.
pub const MENU: [MenuItem; 8] = [
    MenuItem {
        protocol: "abp",
        scope: (10, 30, 12),
        expect: Expect::Counterexample(6),
    },
    MenuItem {
        protocol: "cycle3",
        scope: (10, 30, 12),
        expect: Expect::Counterexample(8),
    },
    MenuItem {
        protocol: "gbn4",
        scope: (10, 30, 12),
        expect: Expect::Counterexample(12),
    },
    MenuItem {
        protocol: "srej4",
        scope: (10, 30, 12),
        expect: Expect::Counterexample(17),
    },
    MenuItem {
        protocol: "seqnum",
        scope: (10, 30, 12),
        expect: Expect::Certificate(834),
    },
    MenuItem {
        protocol: "srej4",
        scope: (6, 20, 8),
        expect: Expect::Certificate(839),
    },
    MenuItem {
        protocol: "outnumber5",
        scope: (6, 20, 8),
        expect: Expect::Certificate(48_869),
    },
    MenuItem {
        protocol: "window4",
        scope: (4, 14, 6),
        expect: Expect::Certificate(35_123),
    },
];

/// Quick mode keeps the menu's millisecond entries.
const QUICK_MENU: [usize; 4] = [0, 1, 4, 5];
/// A full round: the menu with the set-up warm-up entry (`gbn4`'s
/// counterexample) first and the deepest counterexample (`srej4`, depth 17)
/// twice. Nine jobs a round put the median inside one job kind instead of
/// on the gap between the fourth- and fifth-cheapest kinds, where it would
/// swing with every run.
const FULL_MENU: [usize; 9] = [2, 0, 1, 3, 3, 4, 5, 6, 7];

/// Runs one menu search the way `nonfifo explore --por` does, shrinking a
/// counterexample's schedule. Returns whether the result matched `expect`.
pub fn menu_search(
    item: &MenuItem,
    proto: &dyn DataLink,
    threads: usize,
    expect: Expect,
    spans: Traced<'_>,
) -> bool {
    let explorer = Explorer::new(scope(item.scope, true)).parallel(threads);
    let outcome = traced_explore(explorer, proto, spans);
    match outcome {
        ExploreOutcome::Counterexample {
            depth, schedule, ..
        } => {
            let shrunk = within(spans, "shrink", |_| shrink(proto, &schedule));
            // The shrunk script must still be a counterexample no longer
            // than the shortest one the search found.
            let shrunk_ok = shrunk.is_ok_and(|s| s.schedule.steps().len() <= depth);
            shrunk_ok && expect == Expect::Counterexample(depth)
        }
        ExploreOutcome::Exhausted { states } => expect == Expect::Certificate(states),
        ExploreOutcome::Truncated { .. } => false,
    }
}

/// The seeded job order of `search-por`: rounds that each visit every
/// menu entry once, in an order shuffled by the seed.
#[derive(Debug, Clone)]
struct JobOrder {
    rng: StdRng,
    round: usize,
    order: Vec<usize>,
}

impl JobOrder {
    /// The menu index of job `n`, drawing new rounds as needed.
    fn pick(&mut self, n: usize) -> usize {
        while self.order.len() <= n {
            let mut round: Vec<usize> = (0..self.round).collect();
            for i in (1..round.len()).rev() {
                round.swap(i, self.rng.gen_range(0..i + 1));
            }
            self.order.extend(round);
        }
        self.order[n]
    }
}

/// `search-por`: short `--por` searches, in rounds that each run the whole
/// menu once in a seeded order.
struct SearchPor {
    items: Vec<(MenuItem, Box<dyn DataLink>)>,
    order: JobOrder,
    threads: usize,
    wrong: bool,
}

impl SearchPor {
    fn new(inputs: Inputs) -> Self {
        let picks: &[usize] = if inputs.quick {
            &QUICK_MENU
        } else {
            &FULL_MENU
        };
        let items: Vec<_> = picks
            .iter()
            .map(|&i| {
                let item = MENU[i];
                let proto =
                    catalog::by_name(item.protocol).expect("menu protocols are in the catalog");
                (item, proto)
            })
            .collect();
        SearchPor {
            order: JobOrder {
                rng: StdRng::seed_from_u64(inputs.seed ^ 0x5ea2_c4f0_0000_0001),
                round: items.len(),
                order: Vec::new(),
            },
            items,
            threads: inputs.threads,
            wrong: inputs.wrong,
        }
    }
}

impl Bench for SearchPor {
    fn job(&mut self, n: usize, spans: Option<&Spans>) -> JobSample {
        let (item, proto) = &self.items[self.order.pick(n)];
        let expect = match (item.expect, self.wrong) {
            (Expect::Counterexample(d), true) => Expect::Counterexample(d + 1),
            (Expect::Certificate(s), true) => Expect::Certificate(s + 1),
            (e, false) => e,
        };
        let started = Instant::now();
        let ok = job_span(spans, "job.search", |traced| {
            menu_search(item, proto.as_ref(), self.threads, expect, traced)
        });
        let secs = started.elapsed().as_secs_f64();
        JobSample {
            secs,
            work: 1.0,
            work_secs: secs,
            ok,
            ..JobSample::default()
        }
    }

    fn round(&self) -> usize {
        self.items.len()
    }

    /// Searches the first counterexample entry (with its shrink), not the
    /// seed's first job.
    fn warm_up(&mut self) -> bool {
        let (item, proto) = &self.items[0];
        menu_search(item, proto.as_ref(), self.threads, item.expect, None)
    }

    fn describe(&self, jobs: usize) -> String {
        let mut order = self.order.clone();
        let names: Vec<String> = (0..jobs)
            .map(|n| {
                let (item, _) = &self.items[order.pick(n)];
                let (m, d, p) = item.scope;
                format!("{}@{m}/{d}/{p}", item.protocol)
            })
            .collect();
        names.join(" ")
    }
}

// -------------------------------------------------------- campaign-stream

/// The seeded campaign plan of `campaign-stream`: clean deliveries across
/// four channel disciplines, Theorem 5.1 growth cells, and corrupted-start
/// `stabilizing-dl` runs under a dup/drop chaos rider. The seed picks the
/// run seeds, the protocol order and the rider's rates; the axes' sizes
/// (and so the run count) are fixed, so every seed costs about the same.
pub fn campaign_plan(seed: u64, quick: bool) -> String {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xca3e_a160_0000_0002);
    let (clean_seeds, growth_seeds, stab_seeds) = if quick { (1, 1, 2) } else { (10, 8, 78) };
    let [b0, b1, b2, b3] = [(); 4].map(|()| rng.gen_range(0..1_000_000) as u64);
    let mut protocols = ["abp", "seqnum", "window4", "gbn4", "srej4"];
    for i in (1..protocols.len()).rev() {
        protocols.swap(i, rng.gen_range(0..i + 1));
    }
    let dup = [0.05, 0.1, 0.15][rng.gen_range(0..3)];
    let drop = [0.02, 0.05, 0.08][rng.gen_range(0..3)];
    let mut plan = format!(
        "# campaign-stream plan, seed {seed}\n\
         schema_version 1\n\
         scenario clean\n\
         protocols {}\n\
         disciplines fifo prob:0.3 reorder:2 lossy:0.1\n\
         messages 8 16\n\
         seeds {b0}..{}\n",
        protocols.join(" "),
        b0 + clean_seeds
    );
    plan += &format!(
        "scenario growth-bounded\n\
         protocols outnumber5\n\
         disciplines prob:0.1 prob:0.3 prob:0.5\n\
         messages 4 6\n\
         seeds {b1}..{}\n\
         budget 5000000\n\
         scenario growth-unbounded\n\
         protocols seqnum\n\
         disciplines prob:0.1 prob:0.3 prob:0.5\n\
         messages 50 100\n\
         seeds {b2}..{}\n\
         budget 5000000\n",
        b1 + growth_seeds,
        b2 + growth_seeds
    );
    for severity in ["light", "medium", "heavy"] {
        plan += &format!(
            "scenario stabilize-{severity}\n\
             protocols stabilizing-dl\n\
             disciplines prob:0.2 prob:0.4\n\
             messages 4\n\
             seeds {b3}..{}\n\
             corruption {severity}\n\
             fault dup {dup}\n\
             fault drop {drop}\n",
            b3 + stab_seeds
        );
    }
    plan
}

/// The aggregate counter of runs replayed from the cache.
const CACHE_HITS: &str = "campaign.cache_hits";

/// What a `campaign-stream` submission must produce: the batch runner's
/// output over the same expansion (the serve-smoke contract).
struct Reference {
    render: String,
    aggregate: String,
    runs: usize,
}

/// The timings and checks of one submission.
pub struct Submission {
    pub secs: f64,
    pub ttfl_s: Option<f64>,
    /// Last `Run` line to the returned report.
    pub tail_s: f64,
    pub run_lines: usize,
    pub line_bytes: usize,
    /// Mean `WireMsg::to_line` cost over the streamed messages.
    pub to_line_ns: f64,
    pub lines: Vec<String>,
    pub render: String,
    pub aggregate: MetricsSnapshot,
    pub cache_hits: u64,
}

/// Submits `plan` to `service` the way `nonfifo serve` streams it: every
/// message is encoded with `WireMsg::to_line`.
pub fn submit(
    service: &CampaignService,
    plan: &str,
    workers: usize,
    keep_lines: bool,
    spans: Traced<'_>,
) -> Submission {
    struct Stream {
        first_run: Option<Instant>,
        last_run: Option<Instant>,
        run_lines: usize,
        bytes: usize,
        encode_ns: u128,
        encoded: usize,
        lines: Vec<String>,
    }
    let stream = Mutex::new(Stream {
        first_run: None,
        last_run: None,
        run_lines: 0,
        bytes: 0,
        encode_ns: 0,
        encoded: 0,
        lines: Vec::new(),
    });
    let started = Instant::now();
    let result = within(spans, "run_campaign", |call| {
        let mut sink = |msg: &WireMsg| {
            let (line, ns) = within(call, "wire.line", |_| {
                let t = Instant::now();
                let line = msg.to_line();
                (line, t.elapsed().as_nanos())
            });
            let mut s = stream.lock().expect("stream state poisoned");
            s.encode_ns += ns;
            s.encoded += 1;
            s.bytes += line.len();
            if matches!(msg, WireMsg::Run { .. }) {
                let now = Instant::now();
                s.first_run.get_or_insert(now);
                s.last_run = Some(now);
                s.run_lines += 1;
            }
            if keep_lines {
                s.lines.push(line);
            }
        };
        service.run_campaign(plan, workers, &mut sink)
    });
    let done = Instant::now();
    let s = stream.into_inner().expect("stream state poisoned");
    let (render, aggregate, cache_hits) = match result {
        Ok(WireMsg::Report {
            render,
            cache_hits,
            aggregate,
        }) => (render, aggregate, cache_hits),
        _ => (String::new(), MetricsSnapshot::default(), 0),
    };
    Submission {
        secs: (done - started).as_secs_f64(),
        ttfl_s: s.first_run.map(|t| (t - started).as_secs_f64()),
        tail_s: s.last_run.map_or(0.0, |t| (done - t).as_secs_f64()),
        run_lines: s.run_lines,
        line_bytes: s.bytes,
        to_line_ns: s.encode_ns as f64 / s.encoded.max(1) as f64,
        lines: s.lines,
        render,
        aggregate,
        cache_hits,
    }
}

/// A fresh in-process service (cold cache) with `workers` shard threads.
pub fn fresh_service(workers: usize) -> CampaignService {
    CampaignService::new(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    })
    .expect("a service without a cache file always starts")
}

/// `campaign-stream`: each job submits the seeded plan to a fresh
/// in-process service, then resubmits it once warm.
struct CampaignStream {
    plan: String,
    reference: Reference,
    threads: usize,
}

/// Parses and expands a plan (the `setup` half of a submission).
pub fn parse_expand(plan: &str) -> PlanExpansion {
    let parsed = CampaignPlan::parse(plan).expect("generated plans parse");
    PlanExpansion::of_plan(&parsed).expect("generated plans expand")
}

/// The batch runner's report and aggregate over `expansion`.
pub fn batch_reference(expansion: &PlanExpansion, threads: usize) -> (String, String) {
    let report = CampaignRunner::new(threads)
        .run(expansion.runs())
        .expect("the batch runner accepts every generated run");
    (report.render(), report.aggregate_metrics().to_json())
}

impl CampaignStream {
    fn new(inputs: Inputs) -> Self {
        let plan = campaign_plan(inputs.seed, inputs.quick);
        let expansion = parse_expand(&plan);
        let (mut render, aggregate) = batch_reference(&expansion, inputs.threads);
        if inputs.wrong {
            render.push('!');
        }
        CampaignStream {
            plan,
            reference: Reference {
                render,
                aggregate,
                runs: expansion.len(),
            },
            threads: inputs.threads,
        }
    }
}

impl Bench for CampaignStream {
    fn job(&mut self, _n: usize, spans: Option<&Spans>) -> JobSample {
        let started = Instant::now();
        let (cold, warm) = job_span(spans, "job.campaign", |traced| {
            let service = fresh_service(self.threads);
            let cold = submit(&service, &self.plan, self.threads, false, traced);
            let warm = submit(&service, &self.plan, self.threads, false, traced);
            (cold, warm)
        });
        let secs = started.elapsed().as_secs_f64();
        let reference = &self.reference;
        let cold_ok = cold.render == reference.render
            && cold.aggregate.to_json() == reference.aggregate
            && cold.run_lines == reference.runs
            && cold.cache_hits == 0;
        // The warm pass replays every run from the cache: all hits, no run
        // executed (so no `Run` line streamed), the same report, and the
        // same aggregate apart from the hit counter itself.
        let mut warm_aggregate = warm.aggregate.clone();
        let hits = warm_aggregate.counters.insert(CACHE_HITS.into(), 0);
        let warm_ok = warm.render == reference.render
            && warm_aggregate.to_json() == reference.aggregate
            && hits == Some(reference.runs as u64)
            && warm.cache_hits == reference.runs as u64
            && warm.run_lines == 0;
        JobSample {
            secs,
            work: reference.runs as f64,
            work_secs: cold.secs,
            ok: cold_ok && warm_ok,
            ttfl_s: cold.ttfl_s,
            replay_s: Some(warm.secs),
        }
    }

    fn describe(&self, jobs: usize) -> String {
        format!("{}jobs={jobs}", self.plan)
    }
}
