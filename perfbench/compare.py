#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each input holds one JSON line per run, as written by
`perfbench/run.py ... --record FILE`. Runs pair up in recorded order per
(workload, trace) -- record them alternating parent and change, one seed per
pair. For every workload and metric the tool prints both sides' medians and
quartiles and a verdict:

  better      the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's interquartile range;
  worse       (end-to-end) the change's median is worse than the parent's by
              more than the metric's bound in BENCHMARK.json; (per-layer) the
              mirror of the "better" rule;
  unresolved  (end-to-end) the parent's own spread is wider than the bound
              and not every change run reads better than every parent run;
  unchanged   otherwise.

It also flags any rise of the failed/attempted share, and, when a file holds
both traced and untraced runs, prints the tracing overhead on qps. The exit
code is 1 when any verdict is "worse" or the failure share rose.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault((r["workload"], r["trace"]), []).append(
                    r["result"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[1], q[2]


def verdict(parent, change, better_is_lower, bound):
    """Verdict per the rules in the module docstring."""
    def is_better(c, p):
        return c < p if better_is_lower else c > p

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if is_better(c, p))
    losses = sum(1 for p, c in pairs if is_better(p, c))
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    iqr = p3 - p1
    if pairs and wins >= 0.9 * len(pairs) and abs(cm - pm) > iqr:
        return "better"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and abs(cm - pm) > iqr:
            return "worse"
        return "unchanged"
    scale = abs(pm) if pm else 1.0
    if iqr / scale > bound:
        all_better = all(is_better(c, p) for c in change for p in parent)
        return "unchanged" if all_better else "unresolved"
    worse_by = (cm - pm) / scale if better_is_lower else (pm - cm) / scale
    return "worse" if worse_by > bound else "unchanged"


def fail_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = load(argv[1]), load(argv[2])
    bad = False
    for wl in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            p_runs = parent.get((wl, trace), [])
            c_runs = change.get((wl, trace), [])
            if not p_runs or not c_runs:
                continue
            print("== %s (%s runs: parent %d, change %d)" % (
                wl, "traced" if trace else "untraced", len(p_runs),
                len(c_runs)))
            pf, cf = fail_share(p_runs), fail_share(c_runs)
            flag = "  FAILURE SHARE ROSE" if cf > pf else ""
            bad = bad or cf > pf
            print("   failed/attempted: parent %.6g change %.6g%s" % (
                pf, cf, flag))
            print("   %-34s %-9s %27s %27s  %s" % (
                "metric", "unit", "parent q1/med/q3", "change q1/med/q3",
                "verdict"))
            for name in p_runs[0]["metrics"]:
                spec = specs.get(name)
                if spec is None or not all(name in r["metrics"]
                                           for r in p_runs + c_runs):
                    continue
                pv = [r["metrics"][name]["value"] for r in p_runs]
                cv = [r["metrics"][name]["value"] for r in c_runs]
                v = verdict(pv, cv, spec["better"] == "lower",
                            spec.get("bound"))
                bad = bad or v == "worse"
                print("   %-34s %-9s %9.4g %8.4g %8.4g %9.4g %8.4g %8.4g  %s"
                      % ((name, spec["unit"]) + quartiles(pv) + quartiles(cv)
                         + (v,)))
    for label, runs in (("parent", parent), ("change", change)):
        for wl in [w["name"] for w in bench["workloads"]]:
            plain, traced = runs.get((wl, 0)), runs.get((wl, 1))
            if plain and traced:
                q0 = statistics.median(r["metrics"]["qps"]["value"]
                                       for r in plain)
                q1 = statistics.median(r["metrics"]["trace.qps"]["value"]
                                       for r in traced)
                print("tracing overhead (%s, %s): qps %.1f untraced, %.1f "
                      "traced (%+.1f%%)" % (label, wl, q0, q1,
                                            100.0 * (q1 - q0) / q0))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
