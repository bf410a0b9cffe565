#!/usr/bin/env python3
"""Run every workload several times and show how steady each metric is.

    python3 svcbench/steady.py [--runs 10] [--seconds 10] [--trace 0]
                               [--workloads spread,hot_shift] [--first-seed 1]

Each run is its own process (svcbench/run.py) with its own seed
(first-seed, first-seed + 1, ...).  For every metric it prints the median,
the quartiles (statistics.quantiles, n=4), the spread (Q3 - Q1) / median,
and the metric's bound from BENCHMARK.json next to it.  A spread within a
third of the bound is marked "ok", within the bound "wide", beyond it
"OVER".  With --runs 1 it is simply the command that runs every workload
once.  Exits non-zero if any run fails or reports incorrect output.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}, {}
    with open(path) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}
    return spec, bounds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    fingerprint = next((l for l in lines if l.startswith("fingerprint:")), "")
    return json.loads(lines[-1]), fingerprint


def main():
    spec, bounds = load_spec()
    default_workloads = [w["name"] for w in spec.get("workloads", [])] or [
        "spread", "session_churn", "hot_shift"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec.get("run_seconds", 10))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--workloads", default=",".join(default_workloads))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    bad = False
    for workload in args.workloads.split(","):
        values, shares = {}, set()
        units = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            result, fingerprint = run_once(workload, seed, args.seconds,
                                           args.trace)
            if i == 0:
                print(fingerprint)
            if not result["correct"]:
                bad = True
                print(f"{workload} seed {seed}: INCORRECT OUTPUT")
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"\n== {workload}: {args.runs} runs, {args.seconds} s, "
              f"trace {args.trace}, failed share {sorted(shares)}")
        print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name) if args.trace == 0 else None
            if bound is None:
                verdict = ""
            elif spread <= bound / 3:
                verdict = "ok"
            elif spread <= bound:
                verdict = "wide"
            else:
                verdict = "OVER"
            print(f"{name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {'' if bound is None else bound:>6}  "
                  f"{verdict} {units[name]}")
        sys.stdout.flush()
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
