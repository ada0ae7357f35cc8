#!/usr/bin/env python3
"""End-to-end benchmark of the neutralizer reproduction.

Builds the nn_e2e program (benchmark/CMakeLists.txt, Release, against the
repository's src/ tree) under benchmark/out/build, runs each requested
workload in its own process, checks its outputs, and prints every
metric by name and unit with its value (over several runs, their
median), quartiles and sample count.

    python3 benchmark/run.py                          # every workload, once
    python3 benchmark/run.py --workload hostile-mix --runs 5 --seed 7
    python3 benchmark/run.py --workload appliance-112 --trace   # per layer

A harness that runs BENCHMARK.json's command appends
`--workload W --seed S --seconds T --trace 0|1`. Run length is fixed by
the benchmark: T must equal run_seconds in BENCHMARK.json, so two sets
of results can never differ in it.

Each run's result (with diagnostics) is written to benchmark/out/results/
(or --results DIR);
a traced run also writes its spans to benchmark/out/spans/. The last line
of standard output is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics, or with --trace the per-layer ones).
The exit status is 0 only when every run passed its output checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
BUILD = os.path.join(OUT, "build")
NN_E2E = os.path.join(BUILD, "nn_e2e")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# A run may overrun its measured time by set-up, input generation and
# the final drain; anything past this is a hang.
GRACE_SECONDS = 120


def fail(message):
    print(message, file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open(SPEC) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC}: {e}")


def build():
    """Configures and builds nn_e2e; the log goes to out/build.log."""
    os.makedirs(OUT, exist_ok=True)
    log_path = os.path.join(OUT, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "nn_e2e", "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            if proc.returncode != 0:
                with open(log_path) as f:
                    tail = f.readlines()[-30:]
                sys.stderr.write("".join(tail))
                fail(f"build failed (see {log_path})")


def run_once(workload, seed, seconds, trace, results_dir):
    """Runs one workload in its own process; returns its result dict."""
    cmd = [NN_E2E, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    tag = f"{workload}-seed{seed}" + ("-trace" if trace else "")
    if trace:
        spans = os.path.join(OUT, "spans", tag + ".csv")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        cmd += ["--trace", "--spans", spans]
    started = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=seconds + GRACE_SECONDS)
    except subprocess.TimeoutExpired:
        return {"workload": workload, "seed": seed, "correct": False,
                "attempted": 0, "failed": 0, "metrics": {}, "diagnostics": {},
                "failures": ["timed out"]}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"workload": workload, "seed": seed, "correct": False,
                  "attempted": 0, "failed": 0, "metrics": {},
                  "diagnostics": {},
                  "failures": [f"nn_e2e exited {proc.returncode} without a "
                               f"result: {proc.stderr.strip()[-300:]}"]}
    if proc.returncode != 0 and result.get("correct"):
        result["correct"] = False
        result["failures"].append(f"nn_e2e exited {proc.returncode}")
    result["wall_s"] = round(time.time() - started, 3)
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, tag + ".json"), "w") as f:
        json.dump(result, f, indent=1)
    return result


def check_names(result, expected):
    """nn_e2e must report exactly the metrics BENCHMARK.json names."""
    got = set(result.get("metrics", {}))
    missing = [n for n in expected if n not in got]
    extra = sorted(got - set(expected))
    if missing or extra:
        result["correct"] = False
        result["failures"].append(
            f"metric names differ from BENCHMARK.json: missing {missing}, "
            f"unexpected {extra}")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def fmt(v):
    return f"{v:.6g}"


def print_table(workload, results, names, units):
    print(f"\n== {workload}: {len(results)} run(s), seeds "
          + ", ".join(str(r["seed"]) for r in results))
    print(f"  {'metric':40} {'unit':7} {'value':>12} {'q1':>12} {'q3':>12} "
          f"{'n':>8}")
    for name in names:
        runs = [r["metrics"][name] for r in results if name in r["metrics"]]
        if not runs:
            continue
        if len(runs) == 1:
            m = runs[0]
            q1, med, q3, n = m["q1"], m["value"], m["q3"], m["n"]
        else:
            q1, med, q3 = quartiles([m["value"] for m in runs])
            n = len(runs)
        print(f"  {name:40} {units.get(name, runs[0]['unit']):7} "
              f"{fmt(med):>12} {fmt(q1):>12} {fmt(q3):>12} {n:>8}")
    diags = {}
    for r in results:
        for name, d in r.get("diagnostics", {}).items():
            diags.setdefault(name, []).append(d)
    if diags:
        print("  diagnostics (not gated):")
        for name, ds in diags.items():
            med = statistics.median(d["value"] for d in ds)
            print(f"    {name:38} {ds[0]['unit']:7} {fmt(med):>12} "
                  f"{'':>12} {'':>12} {ds[0]['n']:>8}")
    attempted = sum(r.get("attempted", 0) for r in results)
    failed = sum(r.get("failed", 0) for r in results)
    print(f"  ops_attempted {attempted}  ops_failed {failed}")
    for r in results:
        for f in r.get("failures", []):
            print(f"  FAILED (seed {r['seed']}): {f}")


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    help="one of %s, or all" % ", ".join(workloads))
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of the first run; run i uses seed + i")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="measured wall time per run; must equal "
                         "run_seconds in BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=1,
                    help="runs per workload, each with its own seed")
    ap.add_argument("--results", default=os.path.join(OUT, "results"),
                    help="directory for the per-run result JSONs "
                         "(compare.py reads two of these)")
    ap.add_argument("--trace", nargs="?", const="1", default="0",
                    choices=["0", "1"],
                    help="1 (or a bare --trace) runs the traced "
                         "per-layer ledger instead of the end-to-end "
                         "measurement")
    args = ap.parse_args()
    chosen = workloads if args.workload == "all" else [args.workload]
    if any(w not in workloads for w in chosen) or args.runs < 1:
        fail(f"unknown workload or bad --runs; workloads: "
             f"{', '.join(workloads)}")
    if args.seconds != spec["run_seconds"]:
        fail(f"--seconds {args.seconds:g}: run length is fixed at "
             f"run_seconds = {spec['run_seconds']} (BENCHMARK.json)")
    trace = args.trace == "1"
    group = "per_layer" if trace else "end_to_end"
    names = [m["name"] for m in spec[group]]
    units = {m["name"]: m["unit"] for m in spec[group]}

    build()
    by_workload = {}
    for w in chosen:
        results = []
        for i in range(args.runs):
            r = run_once(w, args.seed + i, spec["run_seconds"], trace,
                         args.results)
            check_names(r, names)
            results.append(r)
        by_workload[w] = results
        print_table(w, results, names, units)

    every = [r for rs in by_workload.values() for r in rs]
    summary = {
        "correct": all(r["correct"] for r in every),
        "attempted": sum(r.get("attempted", 0) for r in every),
        "failed": sum(r.get("failed", 0) for r in every),
        "metrics": {},
    }
    for w, rs in by_workload.items():
        for name in names:
            values = [r["metrics"][name]["value"] for r in rs
                      if name in r["metrics"]]
            if not values:
                continue
            key = name if len(by_workload) == 1 else f"{w}/{name}"
            summary["metrics"][key] = {"value": statistics.median(values),
                                       "unit": units[name]}
    print(json.dumps(summary))
    sys.exit(0 if summary["correct"] else 1)


if __name__ == "__main__":
    main()
