#!/usr/bin/env python3
"""Smoke self-test of the benchmark. For every workload, at tiny budgets:

  - every end-to-end metric (untraced run) and every per-layer metric
    (traced run) appears with its declared unit;
  - the count metrics are identical across two invocations with
    different seeds;
  - no operation failed (fail_pct 0) and the run reports itself correct.

It also checks that BENCHMARK.json matches the metric table in run.py, and
that the benchmark fails cleanly (non-zero exit, no result line) in a
directory holding only BENCHMARK.json and perfbench/.

    python3 perfbench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the metric table lives in run.py)

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def invoke(cwd, workload, seed, trace):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def check_workload(workload):
    for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        results = []
        for seed in (1, 2):
            proc = invoke(ROOT, workload, seed, trace)
            res = result_line(proc)
            expect(res is not None,
                   f"{workload} trace={trace} seed={seed}: result line")
            if res is None:
                sys.stderr.write(proc.stderr[-3000:])
                return
            results.append(res)
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload} trace={trace} seed={seed}: result keys")
            want = {e[0]: e[1] for e in table}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{workload} trace={trace} seed={seed}: "
                   "every metric with its unit")
            expect(res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1,
                   f"{workload} trace={trace} seed={seed}: fail_pct 0")
        a, b = (r["metrics"] for r in results)
        exact = [n for n in want if n in run.EXACT]
        differ = [n for n in exact if a[n]["value"] != b[n]["value"]]
        expect(not differ, f"{workload} trace={trace}: count metrics repeat "
               f"exactly across invocations {differ or ''}")


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        expect(json.load(f) == run.benchmark_json(),
               "BENCHMARK.json matches run.py (regenerate with "
               "--write-benchmark-json)")


def check_fails_without_sources():
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = invoke(bare, "overhead", 1, 0)
    expect(proc.returncode != 0 and result_line(proc) is None,
           "fails without printing a result when src/ is absent")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    check_benchmark_json()
    for workload, _ in run.WORKLOADS:
        check_workload(workload)
    check_fails_without_sources()
    if failures:
        print(f"{len(failures)} check(s) failed")
        sys.exit(1)
    print("all checks passed")


if __name__ == "__main__":
    main()
