"""Self-tests of tools/bench/perfbench_row.py: the paired-ratio interval, the
schema check of the optional "paired" field, and --compare's pooling.

    python3 -m unittest discover -s tests/bench
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools" / "bench"))
import perfbench_row as pr  # noqa: E402


def cell(value):
    return {"median": value, "q1": value, "q3": value}


def row(commit, pairs, ratios=None, baseline="parent", seed=1):
    r = {
        "commit": commit, "nproc": 4, "compiler": "g++", "build_type": "RelWithDebInfo",
        "pairs": pairs, "seed": seed, "note": "", "matches_reference": True,
        "workloads": {"sharded_scale": {m: dict(cell(1.0), unit=u)
                                        for m, u in pr.METRICS.items()}},
    }
    if ratios is not None:
        r["paired"] = {"baseline": baseline,
                       "ratios": {"sharded_scale": {m: list(ratios) for m in pr.METRICS}}}
    return r


class MedianInterval(unittest.TestCase):
    def test_ten_pairs_use_the_second_and_ninth_ratio(self):
        med, low, high, cover = pr.median_interval([0.9 + 0.01 * i for i in range(10)][::-1])
        self.assertAlmostEqual(med, 0.945)
        self.assertAlmostEqual(low, 0.91)
        self.assertAlmostEqual(high, 0.98)
        self.assertAlmostEqual(cover, 1.0 - 22.0 / 1024.0)

    def test_too_few_pairs_fall_back_to_the_full_range(self):
        med, low, high, cover = pr.median_interval([3.0, 1.0, 2.0])
        self.assertEqual((med, low, high), (2.0, 1.0, 3.0))
        self.assertAlmostEqual(cover, 0.75)

    def test_coverage_never_drops_below_the_target_once_reachable(self):
        for n in range(6, 41):
            self.assertGreaterEqual(pr.median_interval(list(range(n)))[3], pr.MIN_COVERAGE)


class Schema(unittest.TestCase):
    def check(self, rows):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "rows.json"
            path.write_text(json.dumps({"schema": pr.SCHEMA, "rows": rows}))
            return pr.check(path)

    def test_rows_without_paired_ratios_stay_valid(self):
        self.assertEqual(self.check([row("a", 3)]), [])

    def test_paired_ratios_need_one_positive_number_per_pair(self):
        self.assertEqual(self.check([row("a", 3), row("b", 3, [0.9, 0.8, 1.0])]), [])
        self.assertTrue(self.check([row("b", 3, [0.9, 0.8])]))
        self.assertTrue(self.check([row("b", 3, [0.9, -0.8, 1.0])]))
        bad = row("b", 3, [0.9, 0.8, 1.0])
        del bad["paired"]["baseline"]
        self.assertTrue(self.check([bad]))


class Compare(unittest.TestCase):
    def test_batches_of_the_same_two_commits_and_seed_pool_their_pairs(self):
        rows = [row("other", 5), row("change", 5, [5.0] * 5, baseline="other"),
                row("parent", 5, seed=2), row("change", 5, [3.0] * 5, seed=2),
                row("parent", 5), row("change", 5, [0.8] * 5),
                row("parent", 5), row("change", 5, [0.9] * 5)]
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "rows.json"
            path.write_text(json.dumps({"schema": pr.SCHEMA, "rows": rows}))
            lines = pr.compare(path)
        self.assertTrue(any("2 batch(es)" in line for line in lines))
        wall = [line for line in lines if "wall_s" in line and "pairs)" in line]
        self.assertEqual(len(wall), 1)
        self.assertIn("0.8500 [0.8000, 0.9000]", wall[0])
        self.assertIn("10 pairs", wall[0])


if __name__ == "__main__":
    unittest.main()
