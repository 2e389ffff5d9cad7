#!/usr/bin/env python3
"""Compare vRIO benchmark results of a parent and a change.

  compare.py --parent P.json [P2.json ...] --change C.json [C2.json ...]
      For every (workload, metric): medians and quartiles of both sides
      and a label, with the end-to-end bounds of BENCHMARK.json:
        improved    >= 10 pairs (runs matched by seed), the change wins
                    >= 9/10 of them, and the medians differ by more than
                    the parent's quartile spread;
        worse       the change's median is worse by more than the bound;
        unresolved  the parent's own spread is wider than the bound and
                    not every change run beats every parent run;
        unchanged   otherwise.
      Per-layer metrics have no bound: improved, worse (the same pair
      rule in the other direction) or unchanged.

  compare.py --self A.json B.json
      Two sets of runs of the same code over the same seeds must agree:
      host metrics within their bounds, simulated metrics bit-identical.
      Exits 1 otherwise.

Result files come from `run.sh --repeat N --out FILE`.  Run the two
sides alternately (one seed at a time, swapping which goes first) so
that drift in the machine hits both alike.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Metrics of the modelled rack: a pure function of (seed, shard count).
SIMULATED = {"ops_per_s", "lat_mean_us", "lat_worst1pct_us"}


def load(paths):
    """{(workload, metric): {seed: value}} over all result files."""
    out = {}
    for path in paths:
        with open(path) as f:
            for run in json.load(f)["runs"]:
                for name, m in run["result"]["metrics"].items():
                    out.setdefault((run["workload"], name), {})[
                        run["seed"]] = m["value"]
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def label(better, bound, parent, change):
    """Label one metric; parent and change map seed -> value."""
    sign = 1 if better == "lower" else -1  # sign * (c - p) > 0 is worse
    p_vals, c_vals = list(parent.values()), list(change.values())
    mp, mc = statistics.median(p_vals), statistics.median(c_vals)
    q1, q3 = quartiles(p_vals)
    pairs = [(parent[s], change[s]) for s in parent if s in change]
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    enough = len(pairs) >= 10
    apart = abs(mc - mp) > q3 - q1
    if enough and wins >= 0.9 * len(pairs) and apart and sign * (mc - mp) < 0:
        return "improved"
    if bound is None:
        if enough and losses >= 0.9 * len(pairs) and apart:
            return "worse"
        return "unchanged"
    worse_by = sign * (mc - mp) / abs(mp) if mp else 0.0
    if worse_by > bound:
        return "worse"
    all_better = max(sign * c for c in c_vals) < min(sign * p for p in p_vals)
    if mp and (q3 - q1) / abs(mp) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def fmt(values):
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def compare(bench, parent, change):
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    counts = {}
    print(f"{'workload':<13} {'metric':<38} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'delta':>8}  label")
    for w in [x["name"] for x in bench["workloads"]]:
        for name, spec in specs.items():
            p, c = parent.get((w, name)), change.get((w, name))
            if not p or not c:
                continue
            lab = label(spec["better"], spec.get("bound"), p, c)
            counts[lab] = counts.get(lab, 0) + 1
            mp, mc = statistics.median(p.values()), statistics.median(
                c.values())
            delta = f"{(mc - mp) / abs(mp):+.2%}" if mp else "-"
            print(f"{w:<13} {name:<38} {fmt(list(p.values())):>36} "
                  f"{fmt(list(c.values())):>36} {delta:>8}  {lab}")
    print("summary: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


def self_check(bench, a, b):
    failures = 0
    for w in [x["name"] for x in bench["workloads"]]:
        for spec in bench["end_to_end"]:
            name = spec["name"]
            va, vb = a.get((w, name)), b.get((w, name))
            if not va or not vb:
                print(f"{w:<13} {name:<16} missing")
                failures += 1
                continue
            if name in SIMULATED:
                seeds = sorted(set(va) & set(vb))
                ok = bool(seeds) and all(va[s] == vb[s] for s in seeds)
                verdict = f"identical over {len(seeds)} seeds" if ok else \
                    "DIFFERS"
            else:
                ma, mb = statistics.median(va.values()), statistics.median(
                    vb.values())
                diff = abs(mb - ma) / abs(ma) if ma else 0.0
                ok = diff <= spec["bound"]
                verdict = (f"medians {ma:.6g} vs {mb:.6g}, {diff:.2%} "
                           f"{'<=' if ok else '>'} bound {spec['bound']:.0%}")
            failures += not ok
            print(f"{w:<13} {name:<16} {'ok  ' if ok else 'FAIL'} {verdict}")
    print("self-check " + ("passed" if not failures else
                           f"FAILED ({failures})"))
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--parent", nargs="+")
    p.add_argument("--change", nargs="+")
    p.add_argument("--self", nargs=2, metavar=("A", "B"), dest="self_files")
    args = p.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.self_files:
        return self_check(bench, load([args.self_files[0]]),
                          load([args.self_files[1]]))
    if not args.parent or not args.change:
        p.error("give --parent and --change, or --self A B")
    return compare(bench, load(args.parent), load(args.change))


if __name__ == "__main__":
    sys.exit(main())
