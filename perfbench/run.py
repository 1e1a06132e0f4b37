#!/usr/bin/env python3
"""Build and run the change-detection benchmark.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload core_sharded_mv --seed 1 --seconds 20 --trace 0

builds perfbench/ (and the library sources in src/) with CMake on first
use, runs one workload in a fresh process and passes its output through;
the last line is the JSON result. Run it from the repository root.

Helpers:

    python3 perfbench/run.py --smoke
        tiny inputs on every workload, traced and untraced, edge_replay
        included; checks that every metric BENCHMARK.json names is printed,
        finite and in its unit.
    python3 perfbench/run.py --workload fleet_ckpt --spread 5 [--trace 0]
        runs seeds 1..5 and prints each metric's median, quartiles and
        interquartile spread as a share of the median, next to its bound.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Every workload the program runs. BENCHMARK.json gates all but edge_replay,
# whose timings follow the host's memory speed too closely to be gated on a
# shared machine (NOTES.md, "Steadiness").
WORKLOADS = ("edge_replay", "core_sharded_mv", "fleet_ckpt")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_base():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds scd_perfbench; returns the binary path."""
    out = build_base()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not any(os.path.exists(os.path.join(out, f))
                   for f in ("build.ninja", "Makefile")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"] + gen,
                           check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                       stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "scd_perfbench")


def run_once(binary, workload, seed, seconds, trace, smoke=False, echo=True):
    """Runs one workload in a fresh process; returns (result, stdout lines)."""
    work = os.path.join(build_base(), "work",
                        f"{workload}-{seed}-{trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work] + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines:
            print(line, flush=True)
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1]), lines


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_metrics(result, wanted):
    """Problems with a result's metric set against BENCHMARK.json entries."""
    problems = []
    metrics = result.get("metrics", {})
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"missing {m['name']}")
            continue
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']} is not a finite number: {value}")
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']} unit {got.get('unit')} != {m['unit']}")
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    if not result.get("correct"):
        problems.append("correct is false")
    return problems


def smoke(binary):
    spec = load_spec()
    failed = False
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run_once(binary, workload, 1, 1, trace, smoke=True,
                                 echo=False)
            problems = check_metrics(result, spec[key])
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            log(f"smoke {workload} trace={trace}: {status}")
            failed = failed or bool(problems)
    return 1 if failed else 0


def spread(binary, workload, runs, seconds, trace, first_seed):
    spec = load_spec()
    metrics = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    values = {m["name"]: [] for m in metrics}
    host_read_ns = []
    for seed in range(first_seed, first_seed + runs):
        result, lines = run_once(binary, workload, seed, seconds, trace,
                                 echo=False)
        log(f"seed {seed}: correct={result['correct']} "
            f"failed={result['failed']}/{result['attempted']}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        for line in lines:
            if line.startswith("# host random read:"):
                words = line.split()
                host_read_ns += [float(words[4]), float(words[9])]
    if host_read_ns:
        log(f"host random read, median over the set: "
            f"{statistics.median(host_read_ns):.2f} ns")
    log(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
        f"{'iqr/med':>8} {'bound':>6}")
    for m in metrics:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        share = (q3 - q1) / abs(med) if med else 0.0
        bound = m.get("bound")
        flag = ""
        if bound is not None and m["name"] != "setup_s" and share > bound / 3:
            flag = "  > bound/3"
        log(f"{m['name']:34} {med:14.6g} {q1:14.6g} {q3:14.6g} "
            f"{share:8.4f} {bound if bound is not None else '-':>6}{flag}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--spread", type=int, metavar="RUNS")
    args = p.parse_args()
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1
    try:
        if args.smoke:
            return smoke(binary)
        if not args.workload:
            p.error("--workload is required")
        if args.spread:
            return spread(binary, args.workload, args.spread, args.seconds,
                          args.trace, args.seed)
        run_once(binary, args.workload, args.seed, args.seconds, args.trace)
        return 0
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        log(f"benchmark failed: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
