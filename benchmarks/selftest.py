"""Fast self-test of the benchmark's own arithmetic (no pipeline runs).

    python3 benchmarks/selftest.py
"""

from __future__ import annotations

import statistics
import unittest

import run
import spans


class FakeClock:
    """Returns the queued times in order."""

    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


class SpanArithmetic(unittest.TestCase):
    def test_self_time_from_nested_spans(self):
        # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
        table = spans.span_table(
            [
                (0, -1, "root", 0.0, 10.0),
                (1, 0, "a", 1.0, 4.0),
                (2, 1, "c", 2.0, 3.0),
                (3, 0, "b", 5.0, 9.0),
            ]
        )
        self.assertEqual(table["root"]["self_s"], 3.0)
        self.assertEqual(table["a"]["self_s"], 2.0)
        self.assertEqual(table["b"]["self_s"], 4.0)
        self.assertEqual(table["c"]["busy_s"], 1.0)

    def test_recursive_span_is_busy_once(self):
        table = spans.span_table([(0, -1, "f", 0.0, 5.0), (1, 0, "f", 1.0, 2.0)])
        self.assertEqual(table["f"]["calls"], 2)
        self.assertEqual(table["f"]["busy_s"], 5.0)
        self.assertEqual(table["f"]["self_s"], 5.0)

    def test_tracer_records_parents_and_times(self):
        tracer = spans.Tracer(clock=FakeClock([0.0, 1.0, 3.0, 7.0]))
        inner = tracer.timed("inner", lambda: None)
        tracer.timed("outer", inner)()
        self.assertEqual(tracer.spans, [(0, -1, "outer", 0.0, 7.0), (1, 0, "inner", 1.0, 3.0)])

    def test_harness_self_time_and_distinct_ratio(self):
        tracer = spans.Tracer(clock=FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0]))

        def remember(tr, args):
            tr.keys["hybrid_cp.predict"].add(args["key"])

        predict = tracer.timed("hybrid_cp.predict", lambda key: None, on_call=remember)

        def run_all():
            for key in ("x", "x", "y"):
                predict(key)

        tracer.timed(spans.ROOT_SPAN, run_all)()
        layers = spans.layer_metrics(tracer)
        self.assertEqual(layers["hybrid_cp.predict.calls"], 3)
        self.assertEqual(layers["hybrid_cp.predict.busy_s"], 4.0)
        self.assertEqual(layers["hybrid_cp.predict.distinct_ratio"], 2 / 3)
        self.assertEqual(layers["harness.self_s"], 6.0)
        self.assertEqual(layers["expert_models.simulate_expert.distinct_ratio"], 0.0)

    def test_distinct_ratio(self):
        self.assertEqual(spans.distinct_ratio(6, 42), 6 / 42)
        self.assertEqual(spans.distinct_ratio(0, 0), 0.0)

    def test_mlp_flops(self):
        self.assertEqual(spans.mlp_flops((3, 4, 2)), 2 * (3 * 4 + 4 * 2))


class RunArithmetic(unittest.TestCase):
    def test_mismatched_digest_fails_the_repetition(self):
        reps = [
            {"ok": False, "error": "x"},
            {"ok": True, "digests": {"a": "1"}},
            {"ok": True, "digests": {"a": "1"}},
            {"ok": True, "digests": {"a": "2"}},
        ]
        run.mark_mismatches(reps, "digests")
        self.assertEqual([r["ok"] for r in reps], [False, True, True, False])

    def test_only_exact_counts_must_repeat(self):
        reps = [
            {"ok": True, "layers": {"m.calls": 3, "m.busy_s": 1.0}},
            {"ok": True, "layers": {"m.calls": 3, "m.busy_s": 2.0}},
        ]
        run.mark_mismatches(reps, "layers", run.exact_counts)
        self.assertTrue(all(r["ok"] for r in reps))

    def test_quartiles_match_statistics(self):
        vals = [5.0, 1.0, 3.0, 2.0, 4.0]
        self.assertEqual(run.quartiles(vals), statistics.quantiles(vals, n=4))
        self.assertEqual(run.quartiles([2.0]), [2.0, 2.0, 2.0])


if __name__ == "__main__":
    unittest.main()
