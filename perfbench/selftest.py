"""Self-tests of the benchmark, on tiny scopes (``run.py --self-test``).

1. Every metric named in BENCHMARK.json is emitted, with its unit, by both
   the measured and the traced run of every workload.
2. A deliberately wrong expectation makes jobs fail (failed_frac > 0).
3. The same seed gives the same generated inputs and job order; another
   seed changes them.
4. The benchmark crate's unit tests pass.
"""

import json
import math
import os
import subprocess

WORKLOADS = ["certify-ram", "certify-spill", "search-por", "campaign-stream"]


def _result(python, run_py, *flags):
    out = subprocess.run([python, run_py, *flags], capture_output=True,
                         text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{flags} exited {out.returncode}: {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metric_names(python, run_py, spec):
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            doc = _result(python, run_py, "--workload", workload, "--seed", "3",
                          "--seconds", "1", "--trace", str(trace), "--quick")
            assert sorted(doc) == ["attempted", "correct", "failed", "metrics"], doc
            assert doc["correct"] is True and doc["failed"] == 0, doc
            assert doc["attempted"] >= 1, doc
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = doc["metrics"]
            assert set(got) == set(want), (
                f"{workload} trace={trace}: missing {sorted(set(want) - set(got))}, "
                f"unexpected {sorted(set(got) - set(want))}")
            for name, unit in want.items():
                value = got[name]["value"]
                assert got[name]["unit"] == unit, (workload, name, got[name])
                assert isinstance(value, (int, float)) and math.isfinite(value), (
                    workload, name, value)


def check_wrong_expectations_fail(python, run_py):
    for workload in WORKLOADS:
        doc = _result(python, run_py, "--workload", workload, "--seed", "3",
                      "--seconds", "1", "--trace", "0", "--quick",
                      "--wrong-expectations")
        assert doc["failed"] > 0 and doc["correct"] is False, (workload, doc)


def check_seed_determinism(binary):
    def describe(workload, seed):
        out = subprocess.run([binary, "--describe", "--workload", workload,
                              "--seed", str(seed)], capture_output=True,
                             text=True, check=True, timeout=120)
        return out.stdout

    for workload in ["search-por", "campaign-stream"]:
        first = describe(workload, 11)
        assert first == describe(workload, 11), f"{workload}: same seed differs"
        assert first != describe(workload, 12), f"{workload}: seed ignored"


def check_unit_tests(bench_dir):
    subprocess.run(["cargo", "test", "--release", "--offline", "--quiet",
                    "--manifest-path", os.path.join(bench_dir, "Cargo.toml")],
                   check=True, timeout=850)


def run(binary, python, run_py):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    checks = [
        ("metric names and units", lambda: check_metric_names(python, run_py, spec)),
        ("wrong expectations fail", lambda: check_wrong_expectations_fail(python, run_py)),
        ("seed determinism", lambda: check_seed_determinism(binary)),
        ("unit tests", lambda: check_unit_tests(os.path.dirname(run_py))),
    ]
    failures = 0
    for name, check in checks:
        try:
            check()
            print(f"ok   {name}")
        except (AssertionError, subprocess.CalledProcessError) as e:
            failures += 1
            print(f"FAIL {name}: {e}")
    print(f"self-test: {len(checks) - failures} passed, {failures} failed")
    return 1 if failures else 0
