"""Tests of the benchmark's Python half: the percentile rule, the failure
accounting behind error_rate, the metric folding, the comparison
verdicts and the spread gate. Run from the root of a checkout:

    python3 -m unittest discover -s perfbench/tests
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import compare  # noqa: E402
import run  # noqa: E402


def scale_op(admitted=100, digest="d", wall=2.0, ok=True):
    if not ok:
        return {"ok": False, "error": "invariant violation: boom"}
    return {"ok": True, "sessions": 100, "admitted": admitted,
            "digest": digest, "wall_s": wall, "setup_s": 0.5,
            "rss_before_bytes": 1_000_000, "peak_rss_bytes": 3_000_000}


def store_op(queries=100, failed=0, digest="d"):
    return {"ok": True, "rows": 1000, "queries": queries, "failed": failed,
            "first_error": "link_rate: value" if failed else "",
            "digest": digest, "wall_s": 3.0, "setup_s": 1e-6,
            "ingest_s": 0.5, "rss_before_bytes": 0,
            "peak_rss_bytes": 64_000}


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(run.nearest_rank(values, 0.5), 50)
        self.assertEqual(run.nearest_rank(values, 0.9), 90)

    def test_needs_ten_samples_beyond(self):
        with self.assertRaises(run.TooFewSamples):
            run.nearest_rank(list(range(100)), 0.99)
        self.assertEqual(run.nearest_rank(list(range(1, 1001)), 0.99), 990)
        with self.assertRaises(run.TooFewSamples):
            run.nearest_rank(list(range(999)), 0.99)
        self.assertTrue(run.percentile_ready(100, 0.9))
        self.assertFalse(run.percentile_ready(99, 0.9))


class ErrorRate(unittest.TestCase):
    def test_short_admission_fails(self):
        attempted, failed, errors, good = run.evaluate_scale(
            [scale_op(), scale_op(admitted=99)], 100)
        self.assertEqual((attempted, failed, len(good)), (2, 1, 1))
        self.assertIn("admitted 99 of 100", errors[0])

    def test_exception_fails_and_is_not_retried(self):
        attempted, failed, errors, good = run.evaluate_scale(
            [scale_op(ok=False), scale_op()], 100)
        self.assertEqual((attempted, failed), (2, 1))
        self.assertIn("invariant violation", errors[0])

    def test_nondeterministic_result_fails(self):
        _, failed, _, _ = run.evaluate_scale(
            [scale_op(digest="a"), scale_op(digest="b")], 100)
        self.assertEqual(failed, 1)

    def test_wrong_store_answer_fails(self):
        attempted, failed, errors, _ = run.evaluate_store(
            [store_op(), store_op(failed=3)])
        self.assertEqual((attempted, failed), (200, 3))
        self.assertTrue(errors)

    def test_traced_mismatch_fails(self):
        pairs = [(scale_op(digest="a"), scale_op(digest="a")),
                 (scale_op(digest="a"), scale_op(digest="b"))]
        attempted, failed, _ = run.evaluate_pairs("scale", pairs, 100)
        # four operations plus two pair comparisons; the odd traced result
        # fails once as an operation and once as a comparison
        self.assertEqual((attempted, failed), (6, 2))
        values = run.per_layer_metrics("scale", pairs)
        self.assertEqual(values["traced_matches_timed"], 0.0)


class Metrics(unittest.TestCase):
    def test_end_to_end_scale(self):
        m = run.end_to_end_metrics("scale", [scale_op(wall=2.0),
                                             scale_op(wall=4.0),
                                             scale_op(wall=3.0)])
        self.assertEqual(set(m), set(run.END_TO_END))
        self.assertEqual(m["wall_s"], 3.0)
        self.assertAlmostEqual(m["throughput_per_s"], 100 / 3.0)
        self.assertEqual(m["bytes_per_item"], 20_000)

    def test_end_to_end_store_counts_rows(self):
        m = run.end_to_end_metrics("store", [store_op()])
        self.assertAlmostEqual(m["throughput_per_s"], 1000 / 3.0)
        self.assertEqual(m["bytes_per_item"], 64)

    def test_store_layer_percentiles(self):
        traced = dict(store_op(), **{
            "tick_query_us": [float(i) for i in range(1, 1001)],
            "scan_query_ms": [float(i) for i in range(1, 101)],
            "telemetry.rows": 1000})
        values = run.per_layer_metrics("store", [(store_op(), traced)])
        self.assertEqual(set(values), set(run.PER_LAYER))
        self.assertEqual(values["telemetry.tick_query_p99_us"], 990.0)
        self.assertEqual(values["telemetry.scan_query_p90_ms"], 90.0)
        self.assertEqual(values["traced_matches_timed"], 1.0)
        self.assertEqual(values["sim.events_fired"], 0.0)


class Verdicts(unittest.TestCase):
    metric = {"name": "wall_s", "better": "lower", "bound": 0.1}

    def test_agree_worse_better(self):
        base = [10.0, 10.1, 9.9, 10.0]
        self.assertEqual(compare.verdict(base, [10.2] * 4, self.metric),
                         "agree")
        self.assertEqual(compare.verdict(base, [12.0] * 4, self.metric),
                         "worse")
        self.assertEqual(compare.verdict(base, [8.0] * 4, self.metric),
                         "better")
        higher = dict(self.metric, better="higher")
        self.assertEqual(compare.verdict(base, [12.0] * 4, higher), "better")

    def test_unresolved_when_spread_exceeds_bound(self):
        wide = [5.0, 10.0, 15.0, 20.0]
        self.assertEqual(compare.verdict(wide, [10.0] * 4, self.metric),
                         "unresolved")


class Spread(unittest.TestCase):
    bench = {"end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}

    def spread_exit(self, setup_values):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "set.jsonl"
            with open(path, "w") as f:
                for seed, setup in enumerate(setup_values, 1):
                    metrics = {"setup_s": {"value": setup, "unit": "s"},
                               "wall_s": {"value": 2.0, "unit": "s"}}
                    f.write(json.dumps({"workload": "store", "seed": seed,
                                        "result": {"correct": True,
                                                   "metrics": metrics}})
                            + "\n")
            with contextlib.redirect_stdout(io.StringIO()):
                return compare.spread_report(
                    argparse.Namespace(set=path), self.bench)

    def test_setup_s_is_gated_like_every_metric(self):
        self.assertEqual(self.spread_exit([1.0, 1.01, 0.99, 1.0]), 0)
        self.assertEqual(self.spread_exit([0.5, 1.0, 1.5, 2.0]), 1)


class Build(unittest.TestCase):
    def test_no_sources_no_binary(self):
        saved = run.ROOT
        try:
            run.ROOT = Path(__file__).resolve().parent / "no-such-checkout"
            self.assertIsNone(run.build())
        finally:
            run.ROOT = saved


if __name__ == "__main__":
    unittest.main()
