//! `nonfifo-perfbench`: one workload process of the repository benchmark.
//!
//! ```text
//! nonfifo-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                   [--out <dir>] [--quick] [--wrong-expectations]
//! nonfifo-perfbench --describe --workload <name> --seed <n> [--quick]
//! nonfifo-perfbench --probe-memory <jobs> [--quick]
//! ```
//!
//! The measured run (`--trace 0`) sets the workload up, runs jobs in a
//! closed loop for `--seconds` and prints the raw samples the end-to-end
//! metrics are computed from. The traced run (`--trace 1`) records span trees
//! around its jobs and probes every layer; see `README.md` next to this
//! crate. The last line of standard output is always one JSON object;
//! `run.py` turns it into the benchmark's result line.

mod calibrate;
mod layers;
mod spans;
mod stats;
mod workloads;

use calibrate::Calibration;
use nonfifo_adversary::{Explorer, VisitedSpec};
use nonfifo_protocols::SequenceNumber;
use nonfifo_telemetry::{Json, Registry};
use spans::Spans;
use stats::{num, nums};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use workloads::{Bench, Inputs, JobSample, Workload};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: String,
    quick: bool,
    wrong: bool,
    describe: bool,
    probe_memory: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: ".bench_build/perfbench".into(),
        quick: false,
        wrong: false,
        describe: false,
        probe_memory: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--out" => args.out = value()?,
            "--probe-memory" => {
                let jobs = value()?
                    .parse()
                    .map_err(|e| format!("--probe-memory: {e}"))?;
                args.probe_memory = Some(jobs);
            }
            "--quick" => args.quick = true,
            "--wrong-expectations" => args.wrong = true,
            "--describe" => args.describe = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(jobs) = args.probe_memory {
        println!("{}", probe_memory(jobs, args.quick));
        return ExitCode::SUCCESS;
    }
    let Some(workload) = args.workload else {
        eprintln!("error: --workload is required");
        return ExitCode::from(2);
    };
    let inputs = Inputs {
        seed: args.seed,
        threads: threads(),
        quick: args.quick,
        wrong: args.wrong,
    };
    if args.describe {
        println!("{}", workloads::setup(workload, inputs).describe(24));
        return ExitCode::SUCCESS;
    }
    let doc = if args.trace {
        traced_run(workload, inputs, &args)
    } else {
        Ok(measured_run(workload, inputs, args.seconds))
    };
    match doc {
        Ok(doc) => {
            println!("{doc}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs jobs in a closed loop until `seconds` have passed and the current
/// round is complete (at least one job).
/// `between` runs after every job, outside its timing.
fn closed_loop(
    bench: &mut dyn Bench,
    seconds: f64,
    spans: Option<&Spans>,
    between: &mut dyn FnMut(),
) -> Vec<JobSample> {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.is_empty()
        || samples.len() % bench.round() != 0
        || started.elapsed().as_secs_f64() < seconds
    {
        samples.push(bench.job(samples.len(), spans));
        between();
    }
    samples
}

/// One set-up and a closed loop of `seconds`, reported as raw samples:
/// `run.py` runs several of these processes and computes the metrics.
fn measured_run(workload: Workload, inputs: Inputs, seconds: f64) -> Json {
    let mut calibration = Calibration::new(inputs.threads);
    calibration.sample();
    // Set-up = input generation, plan parse/expand and reference outputs,
    // plus one untimed warm-up job.
    let started = Instant::now();
    let mut bench = workloads::setup(workload, inputs);
    let warmup_ok = bench.warm_up();
    let setup_s = started.elapsed().as_secs_f64();
    calibration.sample();
    let samples = closed_loop(bench.as_mut(), seconds, None, &mut || {
        calibration.sample_due();
    });
    calibration.sample();

    let failed = samples.iter().filter(|s| !s.ok).count() + usize::from(!warmup_ok);
    let column = |f: &dyn Fn(&JobSample) -> Option<f64>| {
        nums(&samples.iter().filter_map(f).collect::<Vec<f64>>())
    };
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.name().into())),
        ("seed".into(), Json::Uint(inputs.seed)),
        ("threads".into(), Json::Uint(inputs.threads as u64)),
        ("work_unit".into(), Json::Str(workload.work_unit().into())),
        ("attempted".into(), Json::Uint(samples.len() as u64)),
        ("failed".into(), Json::Uint(failed as u64)),
        ("setup_s".into(), num(setup_s)),
        ("calibration_s".into(), nums(calibration.samples())),
        ("reference_s".into(), num(calibrate::REFERENCE_S)),
        ("job_s".into(), column(&|s| Some(s.secs))),
        ("work".into(), column(&|s| Some(s.work))),
        ("work_s".into(), column(&|s| Some(s.work_secs))),
        ("ttfl_s".into(), column(&|s| s.ttfl_s)),
        ("replay_s".into(), column(&|s| s.replay_s)),
    ])
}

/// Traced jobs of the workload, then the layer probes; the span forest is
/// written to `<out>/trace-<workload>-seed<n>.json`.
fn traced_run(workload: Workload, inputs: Inputs, args: &Args) -> Result<Json, String> {
    let spans = Spans::new();
    let mut bench = workloads::setup(workload, inputs);
    // Half the run traces the workload's own jobs; the layer probes take
    // the rest.
    let samples = closed_loop(bench.as_mut(), args.seconds / 2.0, Some(&spans), &mut || {});
    let failed = samples.iter().filter(|s| !s.ok).count();
    let layer = layers::probe_all(&inputs, &spans);

    let finished = spans.finished();
    let self_times = spans::self_times(&finished);
    let trace_path = format!(
        "{}/trace-{}-seed{}.json",
        args.out,
        workload.name(),
        inputs.seed
    );
    std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&trace_path, spans::to_json(&finished).to_string()))
        .map_err(|e| format!("writing {trace_path}: {e}"))?;
    let self_json = Json::Obj(
        self_times
            .iter()
            .map(|(name, &(count, total, own))| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("count".into(), Json::Uint(count)),
                        ("total_ms".into(), num(total as f64 / 1e6)),
                        ("self_ms".into(), num(own as f64 / 1e6)),
                    ]),
                )
            })
            .collect(),
    );
    Ok(Json::Obj(vec![
        ("workload".into(), Json::Str(workload.name().into())),
        ("seed".into(), Json::Uint(inputs.seed)),
        ("trace".into(), Json::Bool(true)),
        ("threads".into(), Json::Uint(inputs.threads as u64)),
        ("attempted".into(), Json::Uint(samples.len() as u64)),
        ("failed".into(), Json::Uint(failed as u64)),
        ("spans".into(), Json::Uint(finished.len() as u64)),
        ("trace_file".into(), Json::Str(trace_path)),
        ("self_times".into(), self_json),
        ("metrics".into(), layer.to_json()),
    ]))
}

/// One process certifying the `certify-ram` scope `jobs` times on ONE
/// reused [`Explorer`], reporting the explorer's own memory gauges. The
/// caller reads the process's peak RSS from outside; comparing a 1-job and
/// a k-job process gives the RSS growth per reused job.
fn probe_memory(jobs: usize, quick: bool) -> Json {
    let bounds = if quick {
        workloads::QUICK_SCOPE
    } else {
        workloads::CERTIFY_SCOPE
    };
    let registry = Arc::new(Registry::new());
    let mut explorer = Explorer::new(workloads::scope(bounds, false))
        .parallel(threads())
        .visited(VisitedSpec::Ram)
        .with_telemetry(Arc::clone(&registry), None);
    let mut ok = true;
    for _ in 0..jobs {
        ok &= explorer.explore(&SequenceNumber::new()).is_certificate();
    }
    let snap = registry.snapshot();
    let gauge = |name: &str| snap.gauges.get(name).map_or(0, |g| g.high_water);
    Json::Obj(vec![
        ("jobs".into(), Json::Uint(jobs as u64)),
        ("ok".into(), Json::Bool(ok)),
        (
            "peak_frontier_bytes".into(),
            Json::Uint(gauge("explore.peak_frontier_bytes")),
        ),
        (
            "visited_bytes".into(),
            Json::Uint(gauge("explore.visited_bytes")),
        ),
    ])
}
