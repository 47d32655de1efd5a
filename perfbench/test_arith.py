#!/usr/bin/env python3
"""Self-tests of the benchmark's own arithmetic (arith.py).

    python3 perfbench/test_arith.py
"""

import sys
import unittest

sys.dont_write_bytecode = True
import arith  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_grid_cells_report_p90(self):
        # 120 cell latencies: p95 keeps only 6 beyond it, p90 keeps 12.
        self.assertEqual(arith.tail_percentile(120), 90.0)
        self.assertEqual(120 - arith.nearest_rank(120, 90.0), 12)

    def test_ladder_edges(self):
        self.assertIsNone(arith.tail_percentile(19))  # median keeps only 9
        self.assertEqual(arith.tail_percentile(20), 50.0)
        self.assertEqual(arith.tail_percentile(99), 75.0)
        self.assertEqual(arith.tail_percentile(100), 90.0)
        self.assertEqual(arith.tail_percentile(200), 95.0)
        self.assertEqual(arith.tail_percentile(1000), 99.0)
        self.assertEqual(arith.tail_percentile(10000), 99.9)

    def test_nearest_rank_percentile(self):
        values = list(range(1, 121))  # 1..120; input order must not matter
        values.reverse()
        self.assertEqual(arith.percentile(values, 50), 60)
        self.assertEqual(arith.percentile(values, 90), 108)

    def test_summary_matches_statistics_quantiles(self):
        med, q1, q3 = arith.summarize([4.0, 1.0, 3.0, 2.0, 5.0])
        self.assertEqual((med, q1, q3), (3.0, 1.5, 4.5))
        self.assertEqual(arith.summarize([2.5]), (2.5, 2.5, 2.5))


def span(i, parent, start, end, name="x.y"):
    return {"id": i, "parent": parent, "run": 0, "name": name,
            "start_ns": start, "end_ns": end}


class SelfTime(unittest.TestCase):
    def test_nested_children(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 30), span(2, 0, 50, 90),
                 span(3, 2, 60, 70)]
        st = arith.self_times(spans)
        self.assertEqual(st, {0: 40, 1: 20, 2: 30, 3: 10})

    def test_overlapping_children_count_once(self):
        # Two fleet workers in parallel under one run span.
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 60), span(2, 0, 40, 80)]
        self.assertEqual(arith.self_times(spans)[0], 30)

    def test_children_clipped_to_parent(self):
        spans = [span(0, -1, 0, 50), span(1, 0, 40, 70)]
        self.assertEqual(arith.self_times(spans)[0], 40)

    def test_by_layer(self):
        spans = [span(0, -1, 0, 100, "run.sweep-grid"),
                 span(1, 0, 0, 60, "sweep.executor_run"),
                 span(2, -1, 100, 130, "layers"),
                 span(3, 2, 100, 120, "sim.dispatch"),
                 span(4, 3, 100, 115, "sim.dispatch.batch")]
        self.assertEqual(arith.self_time_by_layer(spans),
                         {"run": 40, "sweep": 60, "layers": 10, "sim": 20})


class WaitFrac(unittest.TestCase):
    def test_derivation(self):
        # Two workers for 2 s of wall with 3 s of CPU: a quarter waited.
        self.assertAlmostEqual(arith.wait_frac(3.0, 2.0, 2), 0.25)
        self.assertAlmostEqual(arith.wait_frac(1.0, 1.0, 1), 0.0)
        self.assertAlmostEqual(arith.wait_frac(0.55, 1.0, 1), 0.45)


class DigestFold(unittest.TestCase):
    A = "00000000000000aa"
    B = "00000000000000bb"

    def test_known_value(self):
        # FNV-1a 64 of the empty input is its offset basis.
        self.assertEqual(arith.fold_digests([]), "cbf29ce484222325")
        self.assertEqual(arith.fold_digests(["a"]), "%016x" % self.fnv(b"a\n"))

    def test_order_matters(self):
        self.assertNotEqual(arith.fold_digests([self.A, self.B]),
                            arith.fold_digests([self.B, self.A]))

    def test_grid_order_is_kept(self):
        cells = ["%016x" % (i * 7919) for i in range(120)]
        self.assertEqual(arith.fold_digests(cells),
                         "%016x" % self.fnv("".join(c + "\n" for c in cells).encode()))

    @staticmethod
    def fnv(data):
        h = 0xCBF29CE484222325
        for b in data:
            h = ((h ^ b) * 0x100000001B3) % (1 << 64)
        return h


if __name__ == "__main__":
    unittest.main()
