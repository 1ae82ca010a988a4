#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmark/compare.py PARENT CHANGE

PARENT and CHANGE are results JSON files written by benchmark/run.py,
or directories of them. Runs are grouped by workload and paired in
order: the i-th parent run with the i-th change run, so run the two
commits alternately, each with its own seed list. Every end-to-end
metric of BENCHMARK.json gets one row per workload, and so does every
per-layer metric of traced runs, plus three metrics with absolute
bounds: fail_frac (failed / attempted) and validate's cpi_err_rr_pct
and cpi_err_gto_pct, none of which may get worse at all.

Verdicts:
  improved    at least 10 pairs, the change wins at least 9 of 10 of
              them (ties count for neither), and the medians differ by
              more than the parent's interquartile range
  worse       the change's median is worse than the parent's by more
              than the metric's bound (a share of the parent median, or
              the absolute bound)
  unresolved  not worse, but the parent's own spread is wider than the
              bound and not every change run reads better than every
              parent run; per-layer metrics, which have no bound, unless
              they repeat exactly
  unchanged   otherwise

Exits 1 when any row is worse. Uses the python3 standard library only.
"""

import argparse
import glob
import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9

# Metrics with an absolute bound, read from each run record.
ABSOLUTE = {
    "fail_frac": {"unit": "ratio", "better": "lower", "bound": 0.0},
    "cpi_err_rr_pct": {"unit": "%", "better": "lower", "bound": 0.0},
    "cpi_err_gto_pct": {"unit": "%", "better": "lower", "bound": 0.0},
}


def quartiles(values):
    """(q1, q3) as statistics.quantiles gives them; equal for one value."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound, absolute=False):
    """Classify one (metric, workload) pairing; see the module doc."""
    sign = 1.0 if better == "lower" else -1.0
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    gain = sign * (pm - cm)  # > 0 when the change reads better
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) \
            and gain > iqr:
        return "improved"
    if bound is None:
        same = len(set(parent) | set(change)) == 1
        return "unchanged" if same else "unresolved"
    allowed = bound if absolute else bound * abs(pm)
    if -gain > allowed:
        return "worse"
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if iqr > allowed and not all_better:
        return "unresolved"
    return "unchanged"


def load_runs(path):
    """Run records of a results file, or of every results file in a dir."""
    files = sorted(glob.glob(os.path.join(path, "*.json"))) \
        if os.path.isdir(path) else [path]
    runs = []
    for name in files:
        with open(name) as f:
            runs.extend(json.load(f)["runs"])
    return runs


def series(runs, trace):
    """{workload: {metric: [values in run order]}} for one run kind."""
    out = {}
    for run in runs:
        if run.get("trace", 0) != trace:
            continue
        values = out.setdefault(run["workload"], {})
        for name, m in run["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        if not trace:
            values.setdefault("fail_frac", []).append(
                run["failed"] / max(1, run["attempted"]))
            for name in ("cpi_err_rr_pct", "cpi_err_gto_pct"):
                if name in run.get("info", {}):
                    values.setdefault(name, []).append(run["info"][name])
    return out


def compare(parent_runs, change_runs, spec):
    """Rows (metric, workload, parent, change, wins, pairs, verdict)."""
    rows = []
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        metrics = [(m["name"], m["better"], m.get("bound"), False)
                   for m in declared]
        if not trace:
            metrics += [(name, m["better"], m["bound"], True)
                        for name, m in ABSOLUTE.items()]
        parent, change = series(parent_runs, trace), series(change_runs,
                                                            trace)
        for name, better, bound, absolute in metrics:
            for workload in sorted(set(parent) & set(change)):
                p = parent[workload].get(name)
                c = change[workload].get(name)
                if not p or not c:
                    continue
                sign = 1.0 if better == "lower" else -1.0
                wins = sum(1 for a, b in zip(p, c) if sign * (a - b) > 0)
                rows.append((name, workload, p, c, wins, min(len(p), len(c)),
                             verdict(p, c, better, bound, absolute)))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    rows = compare(load_runs(args.parent), load_runs(args.change), spec)
    print("%-26s %-11s %13s %13s %8s %6s  %s" % (
        "metric", "workload", "parent p50", "change p50", "delta",
        "wins", "verdict"))
    for name, workload, p, c, wins, pairs, v in rows:
        pm, cm = statistics.median(p), statistics.median(c)
        delta = "%+7.2f%%" % (100 * (cm - pm) / pm) if pm else "      -"
        print("%-26s %-11s %13.6g %13.6g %8s %3d/%-2d  %s" % (
            name, workload, pm, cm, delta, wins, pairs, v))
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
