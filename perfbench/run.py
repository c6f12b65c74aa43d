#!/usr/bin/env python3
"""The repo benchmark: builds the emulator from source, runs one workload
for a fixed time and prints one JSON result line.

    python3 perfbench/run.py --workload crowded|sparse|store --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build). Each operation runs in a fresh perfbench_op
process; operations repeat until --seconds have passed. With --trace 0 the
result carries the end-to-end metrics (medians over the operations), with
--trace 1 the per-layer metrics of traced operations, each paired with a
timed one. The last line of standard output is the JSON result; progress
and the error rate go to standard error. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Operation kind and arguments per workload; the seed is appended.
WORKLOADS = {
    "crowded": ("scale", ["sessions=6000", "sectors=8", "threads=1"]),
    "sparse": ("scale", ["sessions=10000", "sectors=1000", "threads=2",
                         "arrival_window=240"]),
    "store": ("store", ["rows=4000000"]),
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "bytes_per_item": "B",
}

SCALE_LAYER = {
    "sim.run_until_self_s": "s",
    "sim.events_fired": "count",
    "sim.heap_high_water": "count",
    "sim.round_s": "s",
    "sim.parallel_efficiency": "ratio",
    "sim.sectors_dispatched": "count",
    "sim.sectors_elided": "count",
    "net.recomputes": "count",
    "net.flows_resolved": "count",
    "net.flows_per_recompute": "ratio",
    "net.peak_link_flows": "count",
    "app.spawn_s": "s",
    "app.drain_s": "s",
    "app.sessions_started": "count",
    "app.stalls": "count",
    "control.appp_ticks": "count",
    "control.infp_ticks": "count",
    "control.steerings": "count",
    "eona.published": "count",
    "eona.delivered": "count",
    "eona.dropped": "count",
    "eona.rate_limited": "count",
    "telemetry.beacons": "count",
    "scenarios.build_world_s": "s",
    "scenarios.coordinate_s": "s",
    "scenarios.summarize_s": "s",
    "mem.setup_bytes_per_session": "B",
    "mem.run_bytes_per_session": "B",
}

STORE_LAYER = {
    "telemetry.append_s": "s",
    "telemetry.rows": "count",
    "telemetry.segments": "count",
    "telemetry.groups": "count",
    "telemetry.window_query_s": "s",
    "telemetry.scan_query_s": "s",
    "telemetry.rows_matched": "count",
    "telemetry.tick_query_p50_us": "us",
    "telemetry.tick_query_p99_us": "us",
    "telemetry.scan_query_p50_ms": "ms",
    "telemetry.scan_query_p90_ms": "ms",
}

TRACE_LAYER = {
    "traced_matches_timed": "count",
    "trace_overhead_s": "s",
}

PER_LAYER = {**SCALE_LAYER, **STORE_LAYER, **TRACE_LAYER}

MIB = 1024.0 * 1024.0
OP_TIMEOUT_S = 150


class TooFewSamples(ValueError):
    pass


def percentile_ready(n, q, beyond=10):
    """Whether the nearest-rank q-percentile of n samples has at least
    `beyond` samples above it."""
    return n - max(1, math.ceil(q * n)) >= beyond


def nearest_rank(values, q, beyond=10):
    """Nearest-rank percentile: the ceil(q*n)-th smallest value. Refuses
    unless at least `beyond` samples lie above the reported one."""
    n = len(values)
    if not percentile_ready(n, q, beyond):
        raise TooFewSamples(f"p{q * 100:g} of {n} samples needs {beyond} "
                            "samples beyond it")
    return sorted(values)[max(1, math.ceil(q * n)) - 1]


# --- evaluating operations --------------------------------------------------

def scale_op_failure(op, sessions, reference_digest):
    """Why a scale operation failed, or None. A run fails if it ended in an
    exception (an invariant violation included), if it did not admit
    exactly `sessions`, or if its result differs from the reference."""
    if not op.get("ok"):
        return op.get("error", "operation failed")
    if op["admitted"] != sessions:
        return f"admitted {op['admitted']} of {sessions} sessions"
    if reference_digest is not None and op["digest"] != reference_digest:
        return "result differs from the first run with the same seed"
    return None


def evaluate_scale(ops, sessions):
    """(attempted, failed, errors, good ops) for timed scale operations."""
    errors = []
    good = []
    reference = next((op["digest"] for op in ops if op.get("ok")), None)
    for op in ops:
        why = scale_op_failure(op, sessions, reference)
        if why is None:
            good.append(op)
        else:
            errors.append(why)
    return len(ops), len(errors), errors, good


def evaluate_store(ops):
    """(attempted, failed, errors, good ops): an operation is one query,
    failed when its answer differs from the row-scan oracle; a crashed
    process counts one failed operation."""
    attempted = failed = 0
    errors = []
    good = []
    reference = next((op["digest"] for op in ops if op.get("ok")), None)
    for op in ops:
        if not op.get("ok"):
            attempted += 1
            failed += 1
            errors.append(op.get("error", "operation failed"))
            continue
        attempted += op["queries"]
        failed += op["failed"]
        if op["failed"]:
            errors.append(op["first_error"])
        if op["digest"] != reference:
            attempted += 1
            failed += 1
            errors.append("answers differ from the first run with the same seed")
        good.append(op)
    return attempted, failed, errors, good


def evaluate(kind, ops, sessions):
    return (evaluate_scale(ops, sessions) if kind == "scale"
            else evaluate_store(ops))


def median_of(ops, key):
    return statistics.median(op[key] for op in ops)


def end_to_end_metrics(kind, good):
    per_op = []
    for op in good:
        items = op["admitted"] if kind == "scale" else op["rows"]
        per_op.append({
            "setup_s": op["setup_s"],
            "wall_s": op["wall_s"],
            "throughput_per_s": items / op["wall_s"],
            "peak_rss_mb": op["peak_rss_bytes"] / MIB,
            "bytes_per_item":
                (op["peak_rss_bytes"] - op["rss_before_bytes"]) / items,
        })
    return {name: median_of(per_op, name) if per_op else 0.0
            for name in END_TO_END}


def per_layer_metrics(kind, pairs):
    """Per-layer values over (timed, traced) operation pairs: medians of
    the traced values, the overhead traced - timed wall, and whether every
    traced result equals its timed twin."""
    values = dict.fromkeys(PER_LAYER, 0.0)
    complete = [(t, r) for t, r in pairs if t.get("ok") and r.get("ok")]
    values["traced_matches_timed"] = float(
        bool(complete) and len(complete) == len(pairs)
        and all(t["digest"] == r["digest"] for t, r in complete))
    if not complete:
        return values
    traced = [r for _, r in complete]
    values["trace_overhead_s"] = statistics.median(
        r["wall_s"] - t["wall_s"] for t, r in complete)
    own = SCALE_LAYER if kind == "scale" else STORE_LAYER
    for name in own:
        if name in traced[0]:
            values[name] = median_of(traced, name)
    if kind == "store" and store_samples_ready(complete):
        tick = [v for r in traced for v in r["tick_query_us"]]
        scan = [v for r in traced for v in r["scan_query_ms"]]
        values["telemetry.tick_query_p50_us"] = nearest_rank(tick, 0.50)
        values["telemetry.tick_query_p99_us"] = nearest_rank(tick, 0.99)
        values["telemetry.scan_query_p50_ms"] = nearest_rank(scan, 0.50)
        values["telemetry.scan_query_p90_ms"] = nearest_rank(scan, 0.90)
    return values


def evaluate_pairs(kind, pairs, sessions):
    """Failures in a traced run: each operation is checked as in a timed
    run, and each pair whose traced result differs from the timed one
    counts one more failed operation."""
    ops = [op for pair in pairs for op in pair]
    attempted, failed, errors, _ = evaluate(kind, ops, sessions)
    for timed, traced in pairs:
        attempted += 1
        if not (timed.get("ok") and traced.get("ok")
                and timed["digest"] == traced["digest"]):
            failed += 1
            errors.append("traced result differs from the timed result")
    return attempted, failed, errors


def store_samples_ready(pairs):
    traced = [r for _, r in pairs if r.get("ok")]
    tick = sum(len(r["tick_query_us"]) for r in traced)
    scan = sum(len(r["scan_query_ms"]) for r in traced)
    return percentile_ready(tick, 0.99) and percentile_ready(scan, 0.90)


# --- building and running ---------------------------------------------------

def build():
    """Configures and builds perfbench_op; returns its path or None."""
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    cmake = shutil.which("cmake")
    if cmake is None or not (ROOT / "src" / "CMakeLists.txt").exists():
        print("perfbench: cmake or the emulator sources are missing",
              file=sys.stderr)
        return None
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        configure = [cmake, "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append([cmake, "--build", str(build_dir), "--target",
                  "perfbench_op", "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    binary = build_dir / "perfbench_op"
    return binary if binary.exists() else None


def run_op(binary, kind, args):
    try:
        proc = subprocess.run([str(binary), kind, *args], capture_output=True,
                              text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {OP_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        op = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        op = {"ok": False,
              "error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    if proc.returncode != 0 and op.get("ok"):
        op = {"ok": False, "error": f"exit {proc.returncode}"}
    return op


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    kind, op_args = WORKLOADS[args.workload]
    op_args = op_args + [f"seed={args.seed}"]
    sessions = next((int(a.split("=")[1]) for a in op_args
                     if a.startswith("sessions=")), 0)
    traced_args = [a for a in op_args if not a.startswith("threads=")]

    start = time.monotonic()
    ops, pairs = [], []
    while True:
        if args.trace:
            # The traced operation always advances sectors on one thread, so
            # on `sparse` it doubles as a thread-identity check.
            pairs.append((run_op(binary, kind, op_args),
                          run_op(binary, kind + "-traced", traced_args)))
            enough = kind != "store" or store_samples_ready(pairs)
        else:
            ops.append(run_op(binary, kind, op_args))
            enough = True
        elapsed = time.monotonic() - start
        # Failing traced operations yield no samples; stop anyway.
        if elapsed >= args.seconds and (enough or elapsed >= 4 * args.seconds):
            break

    if args.trace:
        attempted, failed, errors = evaluate_pairs(kind, pairs, sessions)
        values = per_layer_metrics(kind, pairs)
        units = PER_LAYER
        runs = len(pairs)
    else:
        attempted, failed, errors, good = evaluate(kind, ops, sessions)
        values = end_to_end_metrics(kind, good)
        units = END_TO_END
        runs = len(ops)

    for why in dict.fromkeys(errors):
        print(f"perfbench: failed operation: {why}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed={args.seed} trace={args.trace} "
          f"processes={runs * (2 if args.trace else 1)} "
          f"error_rate={failed / attempted:.6g} ({failed}/{attempted})",
          file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
