#!/usr/bin/env python3
"""Compares two sets of benchmark results, metric by metric.

    python3 benchmark/compare.py BASE_DIR NEW_DIR

Each directory holds result JSONs written by benchmark/run.py (its
--results directory, benchmark/out/results/ by default). For every (metric, workload) pair the tool
prints each set's median and quartiles over its runs and a verdict:

  within-bound  NEW's median is no worse than BASE's by more than the
                metric's bound in BENCHMARK.json;
  worse         NEW's median is worse by more than the bound;
  unresolved    a set's own spread (quartile distance over median) is
                wider than the bound, so neither verdict can be drawn,
                unless every NEW run reads better than every BASE run;
  better        NEW wins at least 9 of 10 paired runs and the medians
                differ by more than BASE's own spread.

Per-layer metrics (traced runs) have no bound; they are listed with
their medians and relative change only. Standard library only. Exit
status 1 if any pair is worse.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load(directory):
    """{(trace, workload): [result, ...]} sorted by seed."""
    groups = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        key = (bool(r.get("trace")), r["workload"])
        groups.setdefault(key, []).append(r)
    for rs in groups.values():
        rs.sort(key=lambda r: r["seed"])
    return groups


def summary(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(base, new, bound, higher_better, more_failures):
    """Applies the rules in the module docstring to two value lists;
    a set with more failed operations than its base never reads better."""
    bq1, bmed, bq3 = summary(base)
    nq1, nmed, nq3 = summary(new)

    def better(a, b):
        return a > b if higher_better else a < b

    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0,
                 (nq3 - nq1) / abs(nmed) if nmed else 0)
    worse_by = ((bmed - nmed) if higher_better else (nmed - bmed)) / abs(bmed) \
        if bmed else 0.0
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if better(n, b))
    if not more_failures and pairs and wins >= 0.9 * len(pairs) and \
            better(nmed, bmed) and abs(nmed - bmed) > (bq3 - bq1):
        return "better", worse_by, spread
    if spread > bound:
        if not more_failures and all(better(n, b) for n in new
                                     for b in base):
            return "better", worse_by, spread
        return "unresolved", worse_by, spread
    if worse_by > bound:
        return "worse", worse_by, spread
    return "within-bound", worse_by, spread


def fmt(v):
    return f"{v:.5g}"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    with open(SPEC) as f:
        spec = json.load(f)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    any_worse = False
    print(f"{'workload':15} {'metric':36} {'base median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'worse by':>9} {'spread':>7} "
          f"{'bound':>6}  verdict")
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        for w in [w["name"] for w in spec["workloads"]]:
            b_runs, n_runs = base.get((trace, w)), new.get((trace, w))
            if not b_runs or not n_runs:
                continue
            for m in spec[group]:
                name = m["name"]
                b = [r["metrics"][name]["value"] for r in b_runs
                     if name in r["metrics"]]
                n = [r["metrics"][name]["value"] for r in n_runs
                     if name in r["metrics"]]
                if not b or not n:
                    continue
                bq1, bmed, bq3 = summary(b)
                nq1, nmed, nq3 = summary(n)
                cell_b = f"{fmt(bmed)} [{fmt(bq1)}, {fmt(bq3)}] n={len(b)}"
                cell_n = f"{fmt(nmed)} [{fmt(nq1)}, {fmt(nq3)}] n={len(n)}"
                if "bound" in m:
                    more_failures = sum(r["failed"] for r in n_runs) > \
                        sum(r["failed"] for r in b_runs)
                    v, worse_by, spread = verdict(b, n, m["bound"],
                                                  m["better"] == "higher",
                                                  more_failures)
                    any_worse = any_worse or v == "worse"
                    print(f"{w:15} {name:36} {cell_b:>30} {cell_n:>30} "
                          f"{worse_by:>+9.2%} {spread:>7.1%} "
                          f"{m['bound']:>6.0%}  {v}")
                else:
                    change = (nmed - bmed) / abs(bmed) if bmed else 0.0
                    print(f"{w:15} {name:36} {cell_b:>30} {cell_n:>30} "
                          f"{change:>+9.2%} {'':>7} {'':>6}  (per layer)")
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
