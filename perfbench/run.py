#!/usr/bin/env python3
"""The ExoCC benchmark: builds the compiler and the perfbench driver from
this checkout, runs one workload, checks its outputs, and prints the result
as one JSON object on the last line of stdout.

  python3 perfbench/run.py --workload suite_cold --seed 1 --seconds 20 --trace 0

Steadiness mode runs a workload once per seed (seed, seed+1, ...) and
prints each metric's median, quartiles and spread against its bound:

  python3 perfbench/run.py --workload tune_gemmini --repeat 10 --seed 1

With --trace both, every seed runs untraced and traced, and the tracing
overhead (traced minus untraced op_ms_p50) is printed. The workloads and
metrics are described in perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build():
    """Builds exocc-serve, the ExoCC libraries and the driver."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no ExoCC sources in {ROOT}")
        return False
    exo, bench = BUILD / "exo", BUILD / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (exo / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", ROOT, "-B", exo,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", exo, "-j", jobs,
                  "--target", "exocc-serve"])
    if not (bench / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", HERE, "-B", bench,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      f"-DEXO_ROOT={ROOT}", f"-DEXO_BUILD={exo}"])
    steps.append(["cmake", "--build", bench, "-j", jobs])
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.log", "a") as out:
        for step in steps:
            if subprocess.run([str(s) for s in step], stdout=out,
                              stderr=subprocess.STDOUT).returncode != 0:
                log(f"build step failed: {' '.join(map(str, step))}; "
                    f"see {BUILD / 'build.log'}")
                return False
    return True


def run_once(workload, seed, seconds, trace):
    """One run of the driver; returns (ok, result dict or None, shown lines)."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [BUILD / "perfbench" / "perfbench", "--workload", workload,
           "--seed", seed, "--seconds", seconds, "--trace", trace,
           "--root", ROOT, "--serve", BUILD / "exo" / "src" / "exocc-serve"]
    try:
        proc = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE,
                              text=True, cwd=ROOT, timeout=seconds + 150,
                              env=dict(os.environ, TMPDIR=str(tmp)))
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed}: timed out")
        return False, None, []
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{workload} seed {seed}: no result line (exit {proc.returncode})")
        return False, None, lines
    want = {m["name"]: m["unit"]
            for m in spec()["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        log(f"{workload}: metrics {sorted(got)} do not match BENCHMARK.json")
        return False, result, lines[:-1]
    ok = proc.returncode == 0 and result.get("correct") is True
    return ok, result, lines[:-1]


def shown_values(lines):
    """The readable `  name value unit` lines printed above a result."""
    values = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3:
            try:
                values[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return values


def steadiness(args):
    """Prints, per metric and readable line, the median, quartiles, spread
    and range over the seeds. The readable lines include both clocks'
    times (op_wall_ms_p50, op_ref_ms_p50, ...), so one set compares them."""
    bounds = {m["name"]: m.get("bound") for m in spec()["end_to_end"]}
    per_layer = {m["name"] for m in spec()["per_layer"]}
    modes = [0, 1] if args.trace == "both" else [int(args.trace)]
    values = {}
    for i in range(args.repeat):
        seed = args.seed + i
        for trace in modes:
            ok, result, shown = run_once(args.workload, seed, args.seconds,
                                         trace)
            if not ok:
                log(f"{args.workload} seed {seed} trace {trace} failed")
                return 1
            got = {k: v["value"] for k, v in result["metrics"].items()}
            if trace == modes[0]:
                got.update(shown_values(shown))
            for name, v in got.items():
                values.setdefault(name, []).append(v)
            log(f"seed {seed} trace {trace}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in got.items()
                if k in bounds or k == "trace.op_ms_p50"))
    print(f"{args.workload}: {args.repeat} seeds from {args.seed}, "
          f"{args.seconds} s each")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'min':>12} {'max':>12} {'bound':>6}")
    for name, vals in sorted(values.items()):
        if len(vals) < 2 or (name in per_layer and args.trace != "1"):
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print(f"{name:34} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} "
              f"{min(vals):12.4f} {max(vals):12.4f} "
              f"{bound if bound is not None else '-':>6}")
    if args.trace == "both":
        plain = statistics.median(values["op_ms_p50"])
        traced = statistics.median(values["trace.op_ms_p50"])
        print(f"tracing overhead: {traced - plain:+.4f} ms per op "
              f"({(traced - plain) / plain:+.2%} of {plain:.4f} ms)")
    return 0


def main():
    p = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec()["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", default="0", choices=("0", "1", "both"))
    p.add_argument("--repeat", type=int, default=0,
                   help="steadiness mode: run this many seeds")
    args = p.parse_args()
    if args.trace == "both" and not args.repeat:
        p.error("--trace both needs --repeat")
    if not build():
        return 1
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.repeat:
        return steadiness(args)
    ok, result, shown = run_once(args.workload, args.seed, args.seconds,
                                 int(args.trace))
    for line in shown:
        print(line)
    if result is not None:
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
