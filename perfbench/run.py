#!/usr/bin/env python3
"""Repository benchmark driver: builds the benchmark crate, runs one workload
process, measures its memory from outside, and prints the result.

    python3 perfbench/run.py --workload certify-ram --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it print every metric by name and unit. ``--trace 0`` is the
measured run (end-to-end metrics), ``--trace 1`` the traced run (per-layer
metrics and a span file). Every result, with its host metadata and per-job
samples, is also appended to ``.bench_build/perfbench/history.jsonl``.
See ``perfbench/README.md``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(".bench_build", "perfbench")
WORKLOADS = ["certify-ram", "certify-spill", "search-por", "campaign-stream"]
# A workload process that outlives this is killed and the run fails.
PROCESS_TIMEOUT_S = 170
# Jobs the reused-explorer memory probe runs in its second process.
REUSE_JOBS = 3
# Workload processes per measured run, each running seconds / PROCESSES.
PROCESSES = 4


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Builds the benchmark binary (release); returns its path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"error: build failed: {e}")
        return None
    if done.returncode != 0:
        log("error: the benchmark crate does not build here")
        return None
    binary = os.path.join(target_dir(), "release", "nonfifo-perfbench")
    return binary if os.path.exists(binary) else None


def run_process(args):
    """Runs one benchmark process to completion.

    Returns (last stdout line as JSON, peak RSS in MiB). The peak RSS is the
    child's own VmHWM, read from outside through wait4's rusage.
    """
    tmp = os.path.join(OUT_DIR, "tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    # Spill files of the tiered visited set go to the temp dir: keep them
    # inside the checkout.
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, env=env)
    timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[1:]} exited with {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise RuntimeError(f"{args[1:]} printed nothing")
    # Linux reports ru_maxrss in KiB.
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def metadata(args):
    def tool(cmd):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
            return out.stdout.strip() or None
        except OSError:
            return None

    rev = None
    if os.path.isdir(".git"):
        rev = tool(["git", "rev-parse", "HEAD"])
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "git_rev": rev or "unknown (not a git checkout)",
        "build_profile": "release",
        "rustc": tool(["rustc", "--version"]),
        "unix_time": time.time(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def quantile(values, q):
    """Linear-interpolated quantile (statistics.quantiles' "inclusive")."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo, hi = int(pos), min(int(pos) + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def end_to_end(parts, rss):
    """End-to-end metrics from the raw samples of the workload processes.

    Timings are scaled to reference seconds per process (see
    src/calibrate.rs); the plain wall-time figures are returned as well.
    """
    scaled, wall = {"setup": [], "job": []}, {"setup": [], "job": []}
    work = work_s = work_s_wall = 0.0
    for p in parts:
        scale = p["reference_s"] / statistics.median(p["calibration_s"])
        for key, samples in (("setup", [p["setup_s"]]), ("job", p["job_s"])):
            wall[key] += samples
            scaled[key] += [s * scale for s in samples]
        work += sum(p["work"])
        work_s += sum(p["work_s"]) * scale
        work_s_wall += sum(p["work_s"])
    metrics = {
        "setup_s": metric(statistics.median(scaled["setup"]), "s"),
        "job_s_p50": metric(statistics.median(scaled["job"]), "s"),
        "job_s_p90": metric(quantile(scaled["job"], 0.9), "s"),
        "work_per_sec": metric(work / work_s, "1/s"),
        "peak_rss_mb": metric(statistics.median(rss), "MB"),
    }
    unit = parts[0]["work_unit"]
    named = {
        "calibration_s": metric(statistics.median(
            [c for p in parts for c in p["calibration_s"]]), "s"),
        "wall.setup_s": metric(statistics.median(wall["setup"]), "s"),
        "wall.job_s_p50": metric(statistics.median(wall["job"]), "s"),
        "wall.job_s_p90": metric(quantile(wall["job"], 0.9), "s"),
        f"wall.{unit}_per_sec": metric(work / work_s_wall, "1/s"),
    }
    for key in ("ttfl_s", "replay_s"):
        samples = [v for p in parts for v in p[key]]
        if samples:
            name = "wall.ttfl_s_p50" if key == "ttfl_s" else "wall.replay_s"
            named[name] = metric(statistics.median(samples), "s")
    named["peak_rss_mb.each"] = metric(rss, "MB")
    return metrics, named


def measure(binary, args, extra):
    """Runs the workload; returns (attempted, failed, metrics, named, record)."""
    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--out", OUT_DIR] + extra
    if not args.trace:
        # Several shorter processes, each with its own set-up: setup_s and
        # peak_rss_mb become medians over processes.
        parts, rss = [], []
        for _ in range(PROCESSES):
            doc, peak = run_process(
                base + ["--seconds", str(args.seconds / PROCESSES), "--trace", "0"])
            parts.append(doc)
            rss.append(peak)
        metrics, named = end_to_end(parts, rss)
        attempted = sum(p["attempted"] for p in parts)
        failed = sum(p["failed"] for p in parts)
        named["failed_frac"] = metric(failed / max(attempted, 1), "frac")
        return attempted, failed, metrics, named, {"processes": parts, "peak_rss_mb": rss}

    doc, _ = run_process(base + ["--seconds", str(args.seconds), "--trace", "1"])
    metrics = dict(doc["metrics"])
    # Memory from outside next to the explorer's own gauges: one process
    # certifying once, one reusing a single Explorer for REUSE_JOBS jobs.
    quick = ["--quick"] if "--quick" in extra else []
    one, rss_one = run_process([binary, "--probe-memory", "1"] + quick)
    _, rss_many = run_process([binary, "--probe-memory", str(REUSE_JOBS)] + quick)
    accounted = one["peak_frontier_bytes"] + one["visited_bytes"]
    metrics["explore.accounted_mem_ratio"] = metric(
        accounted / (rss_one * 1024 * 1024), "ratio")
    metrics["explore.reuse_rss_growth_mb"] = metric(
        (rss_many - rss_one) / (REUSE_JOBS - 1), "MB")
    named = {"spans": metric(doc["spans"], "count")}
    failed = doc["failed"] + (not one["ok"])
    return doc["attempted"], failed, metrics, named, doc


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=16)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--quick", action="store_true",
                   help="tiny scopes (self-tests)")
    p.add_argument("--wrong-expectations", action="store_true",
                   help="check against deliberately wrong expectations")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        import selftest
        return selftest.run(binary, sys.executable, os.path.abspath(__file__))
    if args.workload is None:
        p.error("--workload is required")

    extra = (["--quick"] if args.quick else []) + (
        ["--wrong-expectations"] if args.wrong_expectations else [])
    try:
        attempted, failed, metrics, named, raw = measure(binary, args, extra)
    except (RuntimeError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1

    record = {"meta": metadata(args), "metrics": metrics, "named": named, "raw": raw}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "history.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")

    kind = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"# {args.workload} seed={args.seed} {kind}: {attempted} jobs, "
          f"{failed} failed, nproc={os.cpu_count()}")
    for name, m in {**named, **metrics}.items():
        print(f"{name:32} {m['value']!s:>24} {m['unit']}")
    if args.trace:
        print(f"# spans written to {raw['trace_file']}")
    print(json.dumps({
        "correct": failed == 0 and attempted >= 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, BENCH_DIR)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    sys.exit(main(sys.argv[1:]))
