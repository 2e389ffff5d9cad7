#!/usr/bin/env python3
"""Run the vRIO benchmark over several workloads and seeds.

Called by run.sh (which builds the harness first and passes --bin):

  run.sh --smoke                       correctness gate of every workload
  run.sh --trace 1                     one traced run of every workload
  run.sh --repeat N [--first-seed K] [--seconds S] [--trace 0|1]
         [--out FILE]

Each workload runs in its own process.  Results are written to --out
(default benchmark/out/results.json) as {"meta": ..., "runs": [...]},
the input format of compare.py, and summarised on stdout as the median
and quartile spread of every metric.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def build_meta(binary):
    meta = {"nproc": os.cpu_count(), "machine": platform.machine()}
    cache = os.path.join(os.path.dirname(binary), "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    meta["build_type"] = line.split("=", 1)[1].strip()
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
                    out = subprocess.run([cxx, "--version"], capture_output=True,
                                         text=True).stdout
                    meta["compiler"] = out.splitlines()[0] if out else cxx
    return meta


def run_one(binary, workload, seed, args):
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if args.smoke:
        cmd.append("--smoke")
    else:
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.monotonic() - start
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, wall


def summarise(runs):
    """Median and (q3 - q1) / median of every metric, per workload."""
    by = {}
    for r in runs:
        for name, m in r["result"]["metrics"].items():
            by.setdefault((r["workload"], name), (m["unit"], []))[1].append(
                m["value"])
    print(f"{'workload':<13} {'metric':<40} {'median':>14} {'spread':>8}  unit")
    for (workload, name), (unit, values) in by.items():
        med = statistics.median(values)
        spread = ""
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f"{(q3 - q1) / abs(med):.4f}" if med else "-"
        print(f"{workload:<13} {name:<40} {med:>14.6g} {spread:>8}  {unit}")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--bin", required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=os.path.join(HERE, "out", "results.json"))
    args = p.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]

    names = [w["name"] for w in bench["workloads"]]
    runs, bad = [], 0
    seeds = [1] if args.smoke else range(args.first_seed,
                                         args.first_seed + args.repeat)
    for seed in seeds:
        for w in names:
            rc, result, wall = run_one(args.bin, w, seed, args)
            ok = rc == 0 and result is not None and result["correct"]
            bad += not ok
            print(f"{w:<13} seed {seed:<4} {'ok' if ok else 'FAILED'}  "
                  f"{wall:6.1f} s", flush=True)
            if result is not None:
                runs.append({"workload": w, "seed": seed,
                             "trace": args.trace, "wall_s": wall,
                             "result": result})
    if not args.smoke:
        meta = build_meta(args.bin)
        meta.update({"seconds": args.seconds, "trace": args.trace,
                     "date": time.strftime("%Y-%m-%d")})
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump({"meta": meta, "runs": runs}, f, indent=1)
            f.write("\n")
        summarise(runs)
        print(f"results: {args.out}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
