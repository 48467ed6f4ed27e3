"""Self-tests for the benchmark's own logic.

    python3 bench/selftest.py

Covers the tail-percentile rule, self-time subtraction for nested spans, and
that every count-type layer metric repeats exactly for a fixed seed.
"""

from __future__ import annotations

import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class TestPercentileRule(unittest.TestCase):
    def test_grid_choice_keeps_ten_samples_beyond(self):
        cases = {19: 50.0, 20: 50.0, 99: 50.0, 100: 90.0, 999: 90.0, 1000: 99.0,
                 9999: 99.0, 10000: 99.9, 100000: 99.99}
        for n, expected in cases.items():
            with self.subTest(n=n):
                p = run.tail_percentile(n)
                self.assertEqual(p, expected)
                values = list(range(1, n + 1))
                beyond = sum(1 for x in values if x > run.nearest_rank(values, p))
                self.assertTrue(beyond >= 10 or p == run.TAIL_GRID[0])

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.nearest_rank(values, 50.0), 50)
        self.assertEqual(run.nearest_rank(values, 90.0), 90)
        self.assertEqual(run.nearest_rank(values, 99.99), 100)
        self.assertEqual(run.nearest_rank([7.0], 50.0), 7.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSelfTime(unittest.TestCase):
    def test_synthetic_nesting(self):
        # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
        spans = [
            ["solver", "root", 0.0, 10.0, -1, 0, None],
            ["linalg", "a", 1.0, 4.0, 0, 0, None],
            ["balls", "g", 2.0, 3.0, 1, 0, None],
            ["lll", "b", 5.0, 9.0, 0, 0, None],
        ]
        self.assertEqual(tracing.self_times(spans), [3.0, 2.0, 1.0, 4.0])

    def test_wrapped_calls_record_parents(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock)

        def leaf():
            clock.now += 2.0

        traced_leaf = tracer.wrap("balls", "leaf", leaf)

        def middle():
            clock.now += 1.0
            traced_leaf()
            clock.now += 0.5

        traced_middle = tracer.wrap("frequencies", "middle", middle)

        def top():
            traced_middle()
            traced_leaf()
            clock.now += 0.25

        tracer.wrap("cli", "top", top)()
        parents = [rec[tracing.PARENT] for rec in tracer.spans]
        self.assertEqual(parents, [-1, 0, 1, 0])
        self.assertEqual(tracing.self_times(tracer.spans), [0.25, 1.5, 2.0, 2.0])
        metrics = tracing.layer_metrics(tracer.spans, exponent_mass=len)
        self.assertEqual(metrics["balls.self_s"], 4.0)
        self.assertEqual(metrics["balls.calls"], 2)
        self.assertEqual(metrics["frequencies.self_s"], 1.5)
        self.assertEqual(metrics["cli.self_s"], 0.25)


COUNT_METRICS = ("cyclotomic.exponent_mass", "lll.dim_sum", "solver.candidates",
                 "solver.passes", "solver.skipped_heavy", "linalg.rref_calls")


class TestCountsRepeat(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.modules = run.load_modules()

    def traced_counts(self, name: str, seed: int, ops: int) -> dict:
        wl = workloads.WORKLOADS[name](self.modules)
        pass_ops = wl.make_passes(random.Random(seed), 1)[0][:ops]
        tracer = tracing.Tracer()
        fn = tracer.wrap(*wl.entry, getattr(self.modules[wl.entry[0]], wl.entry[1]))
        tracer.install(self.modules)
        try:
            for op in pass_ops:
                wl.call(fn, op)
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(
            tracer.spans, lambda form: workloads.exponent_mass(self.modules["cyclotomic"], form))
        return {k: v for k, v in metrics.items() if k.endswith(".calls") or k in COUNT_METRICS}

    def test_counts_repeat_for_a_fixed_seed(self):
        for name, ops, layer in (("scan", 10, "lll"), ("certify", 30, "cyclotomic"),
                                 ("evaluate", 6, "cli")):
            with self.subTest(workload=name):
                first = self.traced_counts(name, 0, ops)
                self.assertGreater(first[f"{layer}.calls"], 0)
                self.assertEqual(first, self.traced_counts(name, 0, ops))

    def test_uninstall_restores_every_name(self):
        before = {layer: dict(vars(mod)) for layer, mod in self.modules.items()}
        tracer = tracing.Tracer()
        tracer.install(self.modules)
        self.assertIsNot(self.modules["solver"].rref, self.modules["linalg"].rref)
        tracer.uninstall()
        for layer, mod in self.modules.items():
            for name, value in before[layer].items():
                self.assertIs(getattr(mod, name), value, f"{layer}.{name}")


if __name__ == "__main__":
    unittest.main()
