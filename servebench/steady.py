#!/usr/bin/env python3
"""Runs one workload several times and reports how steady its metrics are.

    python3 servebench/steady.py --workload mixed --runs 10
    python3 servebench/steady.py --workload mixed --runs 10 --other ../parent

Each run uses its own seed (--first-seed, --first-seed + 1, ...). For every
metric it prints the median, the first and third quartiles (as Python's
statistics.quantiles(values, n=4) gives them) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound
from BENCHMARK.json. A traced run (--trace 1) is summarized with its
end-to-end figures as well, which gives the tracing overhead. With --other DIR the same seeds also run in a second
checkout, alternating which side runs first, and the last column is the
change of the second side's median against the first side's, signed so
that positive is worse. The share of failed operations is printed per side;
it must be identical for the two sides. Exits non-zero when a run fails,
reports correct=false, or (with --other) a metric worsens beyond its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = m
    for m in spec["per_layer"]:
        metrics[m["name"]] = dict(m, bound=None)
    return spec, metrics


def run_once(root, spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed in {root} (seed {seed}), exit "
                         f"{proc.returncode}")
    result = json.loads(lines[-1])
    result["note"] = " ".join(l for l in lines if "cpu steal" in l)
    # The printed metric lines carry every figure of the run, including the
    # end-to-end ones a traced run computes but does not report.
    for line in lines:
        f = line.split()
        if len(f) == 4 and f[0] == "metric" and f[1] not in result["metrics"]:
            result["metrics"][f[1]] = {"value": float(f[2]), "unit": f[3]}
    if not result["correct"]:
        raise SystemExit(f"run in {root} (seed {seed}) reported correct=false")
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return statistics.median(values), q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--other", help="second checkout to compare against")
    args = ap.parse_args()

    root = os.path.dirname(HERE)
    spec, metrics = load_spec(root)
    seconds = args.seconds or spec["run_seconds"]
    sides = [root] + ([os.path.abspath(args.other)] if args.other else [])
    results = {side: [] for side in sides}
    for i in range(args.runs):
        seed = args.first_seed + i
        order = sides if i % 2 == 0 else list(reversed(sides))
        for side in order:
            r = run_once(side, spec, args.workload, seed, seconds, args.trace)
            results[side].append(r)
            values = " ".join(f"{k}={v['value']:.6g}"
                              for k, v in sorted(r["metrics"].items()))
            print(f"run {i + 1}/{args.runs} seed {seed} "
                  f"{os.path.basename(side) or side}: {r['note']} "
                  f"attempted {r['attempted']} failed {r['failed']} {values}",
                  file=sys.stderr)

    bad = False
    for side in sides:
        rs = results[side]
        share = sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
        print(f"side {side}: {len(rs)} runs, failed share {share:.6g}")
    header = f"{'metric':36s} {'unit':9s} {'median':>13s} {'q1':>13s} " \
             f"{'q3':>13s} {'spread':>7s} {'bound':>6s}"
    if args.other:
        header += f" {'change':>8s}"
    print(header)
    names = sorted(results[root][0]["metrics"])
    for name in names:
        m = metrics.get(name, {})
        bound = m.get("bound")
        stats = [summarize([r["metrics"][name]["value"] for r in results[s]])
                 for s in sides]
        med, q1, q3, spread = stats[0]
        row = f"{name:36s} {m.get('unit', '?'):9s} {med:13.4f} {q1:13.4f} " \
              f"{q3:13.4f} {spread:7.3f} " \
              f"{bound if bound is not None else '-':>6}"
        if args.other:
            other = stats[1][0]
            change = (other - med) / med if med else 0.0
            if m.get("better") == "higher":
                change = -change
            row += f" {change:+8.3f}"
            if bound is not None and change > bound:
                bad = True
        print(row)
    if args.other:
        shares = [sum(r["failed"] for r in results[s]) /
                  sum(r["attempted"] for r in results[s]) for s in sides]
        bad = bad or shares[0] != shares[1]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
