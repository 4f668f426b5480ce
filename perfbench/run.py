#!/usr/bin/env python3
"""Teapot benchmark: builds the driver from source, runs one workload and
prints every metric by name and unit; the last line of standard output is
the result as one JSON object.

    python3 perfbench/run.py --workload overhead --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --write-benchmark-json   # regenerate BENCHMARK.json

Run it from the repository root. The driver is built with CMake (Release)
into .bench_build/perfbench. See perfbench/README.md for what each workload
and metric means.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")

RUN_SECONDS = 30
DRIVER_TIMEOUT_S = 170

WORKLOADS = [
    ("overhead", "Figure 7: 9 registry programs on fixed large inputs, five "
                 "builds interleaved; all time in vm, runtime and baselines, "
                 "no fuzzing"),
    ("inject", "Table 3: 8 programs with injected gadgets scanned by 1-worker "
               "campaigns, scored against ground truth; short varied inputs, "
               "fuzz work"),
    ("proggen", "held out: 8 generated programs never tuned against, "
                "2-worker campaigns with short epochs; compile-heavy set-up, "
                "compute-heavy guest work"),
]

# name, unit, better, bound (share of the parent's median; end-to-end only).
END_TO_END = [
    ("execs_per_s", "1/s", "higher", 0.25),
    ("teapot_exec_ms", "ms", "lower", 0.25),
    ("teapot_over_specfuzz", "x", "lower", 0.2),
    ("spectaint_over_teapot", "x", "higher", 0.2),
    ("recall_pct", "%", "higher", 0.05),
    ("precision_pct", "%", "higher", 0.05),
    ("gadgets_found", "count", "higher", 0.05),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_pct", "%", "higher", 0.01),
]

PER_LAYER = [
    ("lang.compile_s", "s", "lower"),
    ("passes.rewrite_s", "s", "lower"),
    ("passes.insts_added", "count", "lower"),
    ("passes.branch_sites", "count", "lower"),
    ("passes.marker_sites", "count", "lower"),
    ("vm.native_exec_ms", "ms", "lower"),
    ("vm.teapot_over_native", "x", "lower"),
    ("vm.guest_insts_per_exec.native", "count", "lower"),
    ("vm.guest_insts_per_exec.specfuzz", "count", "lower"),
    ("vm.guest_insts_per_exec.nodift", "count", "lower"),
    ("vm.guest_insts_per_exec.teapot", "count", "lower"),
    ("vm.minsts_per_s", "M/s", "higher"),
    ("vm.tlb_guest_hits_per_exec", "count", "higher"),
    ("vm.tlb_runtime_hits_per_exec", "count", "higher"),
    ("vm.slow_path_calls_per_exec", "count", "lower"),
    ("vm.fast_path_retires_per_exec", "count", "higher"),
    ("runtime.nodift_exec_ms", "ms", "lower"),
    ("runtime.dift_ms", "ms", "lower"),
    ("runtime.simulations_per_exec", "count", "lower"),
    ("runtime.nested_per_exec", "count", "lower"),
    ("runtime.rollbacks_per_exec", "count", "lower"),
    ("baselines.specfuzz_exec_ms", "ms", "lower"),
    ("baselines.spectaint_exec_ms", "ms", "lower"),
    ("fuzz.epochs", "count", "lower"),
    ("fuzz.corpus_size", "count", "higher"),
    ("fuzz.edges", "count", "higher"),
    ("fuzz.corpus_adds", "count", "higher"),
    ("fuzz.execs_to_last_gadget", "count", "lower"),
    ("fuzz.epoch_ms_p50", "ms", "lower"),
    ("fuzz.epoch_ms_max", "ms", "lower"),
    ("host.probe_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
] + [("trace.self_ms." + layer, "ms", "lower")
     for layer in ("bench", "host", "lang", "passes", "vm", "runtime",
                   "baselines", "fuzz", "api")]

# Metrics that count deterministic work: identical in every run of the same
# code, whatever the seed or the host's speed.
EXACT = {"recall_pct", "precision_pct", "gadgets_found", "ok_pct"} | {
    name for name, unit, _ in PER_LAYER if unit == "count"}


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(cmd, what):
    """Runs a build step with its output on stderr; exits on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        log(f"perfbench: {what} failed (exit {proc.returncode})")
        sys.exit(2)


def build():
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        sys.exit(2)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, "configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs], "build")


def commit_stamp():
    """The git commit, or a digest of src/ when the tree is not a git
    checkout (a benchmark checkout is an export)."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10).stdout.strip()
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top and os.path.samefile(top, ROOT) and out.returncode == 0:
            dirty = subprocess.run(["git", "status", "--porcelain", "src"],
                                   cwd=ROOT, capture_output=True, text=True,
                                   timeout=10).stdout.strip()
            return out.stdout.strip() + ("-dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def fmt(v):
    return f"{v:.6g}"


def report(result, trace, trace_file):
    host = result["host"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"rounds {result['rounds']}  set-up reps {result['setup_reps']}")
    print(f"host: nproc {host['nproc']}, {host['cpu_model']}, "
          f"{host['compiler']} {host['build_type']}, commit {host['commit']}")
    print(f"times are scaled to the reference host: x (reference probe "
          f"{host['reference_probe_ms']} ms / probe)^{host['probe_exponent']}"
          f"; raw = as measured here")
    table = PER_LAYER if trace else END_TO_END
    print(f"{'metric':36} {'value':>14} {'unit':6} {'raw':>14} {'probe ms':>9}")
    for entry in table:
        name, unit = entry[0], entry[1]
        m = result["metrics"][name]
        raw = fmt(m["raw"]) if "raw" in m else ""
        probe = fmt(m["probe_ms"]) if "probe_ms" in m else ""
        print(f"{name:36} {fmt(m['value']):>14} {unit:6} {raw:>14} {probe:>9}")
    fail_pct = 100.0 * result["failed"] / max(result["attempted"], 1)
    print(f"operations: {result['attempted']} attempted, {result['failed']} "
          f"failed (fail_pct {fail_pct:.4g}%)")
    for note in result["failures"]:
        print(f"  failure: {note}")
    if trace:
        print(f"trace (Chrome Trace Event format): {trace_file}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny budgets, for the self-test")
    ap.add_argument("--proggen-base", type=int,
                    help="first ProgGen seed of the proggen workload")
    ap.add_argument("--write-benchmark-json", action="store_true",
                    help="write BENCHMARK.json from the metric table and exit")
    args = ap.parse_args()

    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(benchmark_json(), f, indent=2)
            f.write("\n")
        return
    if args.workload is None:
        ap.error("--workload is required")

    build()
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    if args.smoke:
        tag += "-smoke"
    out = os.path.join(results, tag + ".json")
    trace_file = os.path.join(results, "trace-" + tag + ".json")
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out, "--trace-out", trace_file,
           "--commit", commit_stamp()]
    if args.smoke:
        cmd.append("--smoke")
    if args.proggen_base is not None:
        cmd += ["--proggen-base", str(args.proggen_base)]
    if os.path.exists(out):
        os.remove(out)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        sys.exit(3)
    if proc.returncode != 0 or not os.path.exists(out):
        log(f"perfbench: driver failed (exit {proc.returncode})")
        sys.exit(3)
    with open(out) as f:
        result = json.load(f)

    table = PER_LAYER if args.trace else END_TO_END
    missing = [e[0] for e in table if e[0] not in result["metrics"]]
    if missing:
        log("perfbench: driver did not report " + ", ".join(missing))
        sys.exit(3)
    report(result, args.trace, trace_file)
    line = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {e[0]: {"value": result["metrics"][e[0]]["value"],
                           "unit": e[1]} for e in table},
    }
    print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
