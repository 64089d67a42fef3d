#!/usr/bin/env python3
"""Repository benchmark: builds the engine and runs one or all workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_hit --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

Each workload runs in a fresh process (perfbench_runner, built from the
repository sources with CMake into $CARGO_TARGET_DIR or .bench_build). The
runner generates its inputs from --seed, sets up (several times; setup_s is
the median), measures a closed loop for --seconds and checks every answer.

Output: a human-readable summary, then as the last stdout line one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list; with --trace 1 its per_layer
list, where layers the workload never calls read 0. The full report (host
facts, sample counts, quality, failures) is written to
.bench_results/<workload>-seed<seed>-trace<t>.json; traced runs also write
their spans beside it as JSON lines.

Exit status is 0 only when every operation succeeded and every correctness
check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
# exact_hugeg runs on request but is not in BENCHMARK.json: see README.md.
WORKLOADS = ["serve_hit", "sample_build", "exact_hugeg", "mapped_scan"]
BUILD_TIMEOUT_S = 850  # a fresh checkout compiles the engine first
RUN_TIMEOUT_S = 170    # per workload process


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(deadline):
    """Configures (once) and builds the runner; returns its path."""
    if not (ROOT / "src" / "aqp" / "engine.h").is_file():
        raise RuntimeError(f"engine sources not found under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_runner",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=max(1.0, deadline - time.monotonic()))
    runner = out / "perfbench_runner"
    if not runner.is_file():
        raise RuntimeError("build produced no perfbench_runner")
    return runner


def run_workload(runner, workload, args, deadline):
    """Runs one workload in a fresh process; returns its report dict."""
    data_dir = build_dir() / "perfbench_data" / f"{workload}-{os.getpid()}"
    results = ROOT / ".bench_results"
    data_dir.mkdir(parents=True, exist_ok=True)
    results.mkdir(exist_ok=True)
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(runner), "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--data-dir", os.path.relpath(data_dir, ROOT)]
    if args.trace:
        cmd += ["--trace-out", os.path.relpath(results / f"{stem}.spans.jsonl", ROOT)]
    # The program runs with its defaults: no CVOPT_* overrides.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CVOPT_")}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: runner printed nothing (exit {proc.returncode})")
    report = json.loads(lines[-1])
    report["exit_code"] = proc.returncode
    with open(results / f"{stem}.json", "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    return report


def result_metrics(report, names, units, fill_missing):
    """The report's metrics restricted to `names`, in that order."""
    out = {}
    for name in names:
        m = report["metrics"].get(name)
        if m is None:
            if not fill_missing:
                raise RuntimeError(f"{report['workload']}: metric {name} missing")
            m = {"value": 0, "unit": units[name]}
        out[name] = {"value": m["value"], "unit": m["unit"]}
    return out


def fmt(v):
    return f"{v:.6g}" if isinstance(v, (int, float)) else str(v)


def print_summary(report, shown, bypassed):
    attempted = report["attempted"]
    failed = report["failed"]
    print(f"== {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"correct {report['correct']}  attempted {attempted}  failed {failed}  "
          f"failed_ratio {fmt(failed / attempted if attempted else 1.0)}")
    for name, m in shown.items():
        note = "  (layer not called by this workload)" if name in bypassed else ""
        print(f"  {name:32s} {fmt(m['value']):>14s} {m['unit']}{note}")
    for name, m in report["metrics"].items():
        if name not in shown:
            print(f"  {name:32s} {fmt(m['value']):>14s} {m['unit']}  (not in this mode's BENCHMARK.json list)")
    for name, m in report["info"].items():
        print(f"  {name:32s} {fmt(m['value']):>14s} {m['unit']}")
    for name, text in report["text"].items():
        print(f"  {name:32s} {text}")
    info = report["info"]
    if "avg_rel_error" in info and "total_strata" in info:
        print(f"  exhaustive_strata/total_strata   "
              f"{fmt(info['exhaustive_strata']['value'])}/{fmt(info['total_strata']['value'])}")
    for msg in report["failures"]:
        print(f"  FAILED: {msg}")


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    group = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[group]]
    units = {m["name"]: m["unit"] for m in spec[group]}
    workloads = WORKLOADS if args.workload == "all" else [args.workload]

    try:
        runner = build(time.monotonic() + BUILD_TIMEOUT_S)
        deadline = time.monotonic() + RUN_TIMEOUT_S * len(workloads)
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for w in workloads:
            report = run_workload(runner, w, args, deadline)
            metrics = result_metrics(report, names, units, fill_missing=bool(args.trace))
            bypassed = {n for n in names if n not in report["metrics"]}
            print_summary(report, metrics, bypassed)
            ok = report["correct"] and report["exit_code"] == 0
            combined["correct"] = combined["correct"] and ok
            combined["attempted"] += report["attempted"]
            combined["failed"] += report["failed"]
            prefix = "" if len(workloads) == 1 else w + "."
            for n, m in metrics.items():
                combined["metrics"][prefix + n] = m
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"benchmark failed: {e}")
        return 2
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] and combined["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
