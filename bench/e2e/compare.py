#!/usr/bin/env python3
"""Compares two sets of benchmark runs (choosing-metrics guide, section 8).

    compare.py [--benchmark BENCHMARK.json] RUNS_A... [-- RUNS_B...]

Each RUN is a file written by `cyqr_bench --json-out`. Runs are grouped by
workload and by traced/untraced. For every workload x metric the report
gives each side's median and quartiles; with two sides it also gives the
change of B against A, the pairs B wins (runs paired by seed, else by
order; ties count for neither), and a verdict for end-to-end metrics:

  unresolved   a side's spread (quartile distance over median) exceeds the
               metric's bound and B does not beat A on every run
  regression   B's median is worse than A's by more than the bound
  gain         B wins at least 9 of 10 pairs and the medians differ by more
               than A's quartile distance
  ok           within the bound

Each workload also gets a failed/attempted row over all its runs, with a
verdict of its own:

  incorrect      a run of either side failed an output check
  regression     B fails a larger share of its operations than A in at
                 least 9 of 10 pairs, the rule a gain needs
  more-failures  B fails a larger share overall, but not pair by pair:
                 none of the workload's metrics may then count as a gain
  ok             B fails no larger share than A

A serving request fails when the server shed it and every retry within its
budget. A host that stops the process for 100 ms can still cause that, so
one failure more is not yet a regression; it only voids the workload's
gains.

Per-layer metrics (traced runs) get medians and wins but no verdict. With
one side only, the report gives medians and spreads and flags any
end-to-end spread above its bound as unresolved. Exits 1 when any row is
unresolved, a regression or incorrect.
"""

import argparse
import json
import os
import statistics
import sys

DEFAULT_SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "..", "..", "BENCHMARK.json")


def load_runs(paths):
    runs = {}
    for path in paths:
        with open(path) as f:
            record = json.load(f)
        key = (record["workload"], int(record["trace"]))
        runs.setdefault(key, []).append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def pairs(side_a, side_b):
    """Runs of A and B paired by seed when the seeds match, else by order."""
    by_seed_a = {r["seed"]: r for r in side_a}
    by_seed_b = {r["seed"]: r for r in side_b}
    common = sorted(set(by_seed_a) & set(by_seed_b))
    if len(common) == min(len(side_a), len(side_b)):
        return [(by_seed_a[s], by_seed_b[s]) for s in common]
    return list(zip(side_a, side_b))


def values(runs, name):
    return [r["result"]["metrics"][name]["value"] for r in runs
            if name in r["result"]["metrics"]]


def row(name, unit, better, bound, side_a, side_b, gain_allowed):
    a = values(side_a, name)
    cells = [name, unit]
    q1a, meda, q3a = quartiles(a)
    cells.append(f"{meda:.6g} [{q1a:.6g}, {q3a:.6g}]")
    verdict = ""
    if side_b is None:
        cells.append(f"spread {spread(a):.3f}")
        if bound is not None and spread(a) > bound:
            verdict = "unresolved"
        return cells + [verdict], verdict
    b = values(side_b, name)
    q1b, medb, q3b = quartiles(b)
    sign = 1.0 if better == "higher" else -1.0
    wins = ties = 0
    matched = pairs(side_a, side_b)
    for ra, rb in matched:
        va = ra["result"]["metrics"][name]["value"]
        vb = rb["result"]["metrics"][name]["value"]
        if va == vb:
            ties += 1
        elif (vb - va) * sign > 0:
            wins += 1
    change = (medb - meda) / abs(meda) if meda else 0.0
    worse = -change * sign
    cells += [f"{medb:.6g} [{q1b:.6g}, {q3b:.6g}]", f"{100 * change:+.2f}%",
              f"{wins}/{len(matched)}",
              f"spread {spread(a):.3f}/{spread(b):.3f}"]
    if bound is not None:
        b_beats_all = all((vb - va) * sign > 0 for va in a for vb in b)
        if max(spread(a), spread(b)) > bound and not b_beats_all:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "regression"
        elif gain_allowed and matched and wins >= 0.9 * len(matched) and \
                abs(medb - meda) > q3a - q1a:
            verdict = "gain"
        else:
            verdict = "ok"
        cells.append(f"bound {bound:.3f}")
    return cells + [verdict], verdict


def failure_share(runs):
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    return failed / attempted if attempted else 0.0


def failure_row(side_a, side_b):
    """failed/attempted over all runs of each side, and its verdict."""
    cells = ["failed/attempted", "ratio", f"{failure_share(side_a):.6g}"]
    verdict = ""
    if side_b is not None:
        matched = pairs(side_a, side_b)
        worse = sum(failure_share([rb]) > failure_share([ra])
                    for ra, rb in matched)
        cells += [f"{failure_share(side_b):.6g}",
                  f"{worse}/{len(matched)} worse"]
        if matched and worse >= 0.9 * len(matched):
            verdict = "regression"
        elif failure_share(side_b) > failure_share(side_a):
            verdict = "more-failures"
        else:
            verdict = "ok"
    runs = side_a + (side_b or [])
    if any(not r["result"]["correct"] for r in runs):
        verdict = "incorrect"
    return cells + [verdict], verdict


def main():
    argv = sys.argv[1:]
    side_b_paths = None
    if "--" in argv:
        split = argv.index("--")
        argv, side_b_paths = argv[:split], argv[split + 1:]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--benchmark", default=DEFAULT_SPEC)
    parser.add_argument("runs_a", nargs="+")
    args = parser.parse_args(argv)
    with open(args.benchmark) as f:
        spec = json.load(f)
    side_a = load_runs(args.runs_a)
    side_b = load_runs(side_b_paths) if side_b_paths is not None else None

    failing = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            runs_a = side_a.get((workload, trace))
            runs_b = None if side_b is None else side_b.get((workload, trace))
            if not runs_a or (side_b is not None and not runs_b):
                continue
            counts = f"{len(runs_a)} runs" + (
                f" vs {len(runs_b)} runs" if runs_b else "")
            print(f"== {workload} ({'traced' if trace else 'untraced'}, "
                  f"{counts})")
            cells, failures = failure_row(runs_a, runs_b)
            if failures in ("regression", "incorrect"):
                failing += 1
            print("  " + "  ".join(cells))
            for metric in group:
                bound = metric.get("bound") if trace == 0 else None
                cells, verdict = row(metric["name"], metric["unit"],
                                     metric.get("better"), bound, runs_a,
                                     runs_b, failures == "ok")
                if verdict in ("unresolved", "regression"):
                    failing += 1
                print("  " + "  ".join(cells))
    sys.exit(1 if failing else 0)


if __name__ == "__main__":
    main()
