#!/usr/bin/env python3
"""Collects sets of benchmark runs and compares them.

    python3 perfbench/compare.py collect SET.jsonl [--workloads a,b]
                                 [--seeds 1-10] [--seconds S]
    python3 perfbench/compare.py spread SET.jsonl
    python3 perfbench/compare.py compare BASE.jsonl NEW.jsonl

`collect` makes timed runs (--trace 0) of perfbench/run.py, one per
workload and seed (from the root of a checkout), and appends each result
to SET.jsonl. `spread` prints, per workload and end-to-end metric, the
median, the quartiles and the spread (interquartile distance over the
median), and exits 1 when a spread exceeds the metric's bound. `compare` prints the same for two
sets and whether they agree within the bound BENCHMARK.json fixes for the
metric: "agree", "worse" or "better"; "unresolved" where either set's
spread exceeds the bound. Quartiles are statistics.quantiles(values, n=4).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args, bench):
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in parse_seeds(args.seeds):
                cmd = [*bench["command"], "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                      text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {proc.returncode}",
                          file=sys.stderr)
                    print(proc.stderr[-2000:], file=sys.stderr)
                    return 1
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "result": result}) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}",
                      file=sys.stderr)
    return 0


def load_set(path):
    """{workload: {metric: [values]}} over the runs in a set file."""
    runs = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            metrics = runs.setdefault(rec["workload"], {})
            for name, m in rec["result"]["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            metrics.setdefault("__incorrect", []).append(
                0 if rec["result"]["correct"] else 1)
    return runs


def stats(values):
    """(median, q1, q3, spread) with spread = (q3 - q1) / median."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def verdict(base, new, metric):
    """agree / worse / better / unresolved for two value lists."""
    bound = metric["bound"]
    mb, _, _, sb = stats(base)
    mn, _, _, sn = stats(new)
    if sb > bound or sn > bound:
        return "unresolved"
    change = (mn - mb) / mb
    if metric["better"] == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "agree"


def fmt(v):
    return f"{v:.6g}"


def spread_report(args, bench):
    runs = load_set(args.set)
    ok = True
    for workload, metrics in runs.items():
        bad = sum(metrics["__incorrect"])
        print(f"{workload}: {len(metrics['__incorrect'])} runs, "
              f"{bad} incorrect")
        ok &= bad == 0
        for metric in bench["end_to_end"]:
            values = metrics.get(metric["name"])
            if not values:
                print(f"  {metric['name']}: missing")
                ok = False
                continue
            med, q1, q3, spread = stats(values)
            target = ("steady" if spread < metric["bound"] / 3 else
                      "within bound" if spread <= metric["bound"] else
                      "TOO WIDE")
            if target == "TOO WIDE":
                ok = False
            print(f"  {metric['name']:<18} median {fmt(med):>12} "
                  f"q1 {fmt(q1):>12} q3 {fmt(q3):>12} "
                  f"spread {spread:7.2%} (bound {metric['bound']:.0%}) "
                  f"{target}")
    return 0 if ok else 1


def compare_report(args, bench):
    base = load_set(args.base)
    new = load_set(args.new)
    worse = False
    for workload in sorted(set(base) | set(new)):
        print(workload)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = base.get(workload, {}).get(name)
            b = new.get(workload, {}).get(name)
            if not a or not b:
                print(f"  {name:<18} missing in one set")
                continue
            ma, qa1, qa3, _ = stats(a)
            mb, qb1, qb3, _ = stats(b)
            v = verdict(a, b, metric)
            worse |= v == "worse"
            print(f"  {name:<18} base {fmt(ma)} [{fmt(qa1)}, {fmt(qa3)}]  "
                  f"new {fmt(mb)} [{fmt(qb1)}, {fmt(qb3)}]  "
                  f"bound {metric['bound']:.0%}  {v}")
    return 1 if worse else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--workloads")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--seconds", type=int)
    s = sub.add_parser("spread")
    s.add_argument("set")
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    if args.cmd == "collect":
        return collect(args, bench)
    if args.cmd == "spread":
        return spread_report(args, bench)
    return compare_report(args, bench)


if __name__ == "__main__":
    sys.exit(main())
