"""Fast tests of the benchmark's measurement rules on synthetic inputs.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import unittest

import measure


class PercentileRule(unittest.TestCase):
    def test_p90_needs_100_samples(self):
        self.assertFalse(measure.tail_allowed(99, 90))
        self.assertTrue(measure.tail_allowed(100, 90))
        with self.assertRaises(ValueError):
            measure.tail(list(range(99)), 90)
        self.assertEqual(measure.tail(list(range(1, 101)), 90), 90)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(measure.highest_tail(39))
        self.assertEqual(measure.highest_tail(40), 75)
        self.assertEqual(measure.highest_tail(100), 90)
        self.assertEqual(measure.highest_tail(199), 90)
        self.assertEqual(measure.highest_tail(200), 95)
        self.assertEqual(measure.highest_tail(1000), 99)
        self.assertEqual(measure.highest_tail(10000), 99.9)
        for n in (40, 100, 200, 1000, 10000):
            self.assertGreaterEqual(measure.beyond(n, measure.highest_tail(n)), 10)

    def test_tail_or_lower_names_the_percentile_it_holds(self):
        self.assertEqual(measure.tail_or_lower(list(range(1, 101)), 90), (90, 90))
        self.assertEqual(measure.tail_or_lower(list(range(1, 41)), 90), (75, 30))
        self.assertEqual(measure.tail_or_lower([3, 1, 2], 90), (50.0, 2))

    def test_nearest_rank_and_median(self):
        self.assertEqual(measure.percentile([5, 1, 3, 2, 4], 50), 3)
        self.assertEqual(measure.percentile([1, 2, 3, 4], 100), 4)
        self.assertEqual(measure.median([4, 1, 3]), 3)
        self.assertEqual(measure.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            measure.median([])


class FailureAccounting(unittest.TestCase):
    def test_failures_count_against_attempts(self):
        t = measure.Tally()
        for ms in range(1, 10):
            t.ok("miss", ms / 1e3)
        t.fail("miss", "table7/1000: tables.txt diverged from its pinned digest")
        self.assertEqual((t.attempted, t.failed), (10, 1))
        self.assertAlmostEqual(t.error_rate(), 0.1)
        self.assertIn("tables.txt", t.reasons[0])

    def test_a_failure_misses_every_percentile(self):
        t = measure.Tally()
        t.ok("hit", 0.001)
        t.fail("hit", "refused")
        t.fail("hit", "refused")
        self.assertTrue(math.isinf(measure.median(t.samples("hit"))))
        self.assertTrue(math.isinf(measure.percentile(t.samples("hit"), 90)))

    def test_merge_and_empty(self):
        a, b = measure.Tally(), measure.Tally()
        self.assertEqual(a.error_rate(), 0.0)
        a.ok("miss", 1.0)
        b.fail("miss", "POST answered 400")
        b.ok("hit", 0.5)
        a.merge(b)
        self.assertEqual((a.attempted, a.failed), (3, 1))
        self.assertEqual(len(a.samples("miss")), 2)
        self.assertEqual(a.samples("hit"), [0.5])


class Normalization(unittest.TestCase):
    DOC = (
        b'{"reach":{"status":"clean","report":{"configs":40,"states_explored":16468,'
        b'"edges":131744,"wall_ms":372}},"refine":{"report":{"wall_ms":1140}}}\n'
    )

    def test_only_wall_ms_in_check_json(self):
        out = measure.normalize("check.json", self.DOC)
        self.assertNotIn(b"372", out)
        self.assertNotIn(b"1140", out)
        self.assertEqual(out.count(b'"wall_ms":0'), 2)
        self.assertIn(b'"states_explored":16468', out)
        self.assertEqual(measure.normalize("tables.txt", self.DOC), self.DOC)

    def test_digest_ignores_host_time_only(self):
        slower = self.DOC.replace(b"372", b"9999")
        self.assertEqual(measure.digest("check.json", self.DOC), measure.digest("check.json", slower))
        other = self.DOC.replace(b"16468", b"16469")
        self.assertNotEqual(measure.digest("check.json", self.DOC), measure.digest("check.json", other))
        self.assertNotEqual(measure.digest("tables.txt", self.DOC), measure.digest("tables.txt", slower))


def span(i, name, start, end, parent=None):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent}


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            span(0, "round", 0.0, 10.0),
            span(1, "job", 1.0, 9.0, 0),
            span(2, "admit", 1.0, 2.0, 1),
            span(3, "run", 2.0, 7.0, 1),
            span(4, "fetch", 7.0, 8.5, 1),
        ]
        st = measure.self_times(spans)
        self.assertAlmostEqual(st["round"], 2.0)
        self.assertAlmostEqual(st["job"], 0.5)
        self.assertAlmostEqual(st["run"], 5.0)

    def test_overlapping_children_count_once(self):
        spans = [
            span(0, "round", 0.0, 10.0),
            span(1, "job", 1.0, 6.0, 0),
            span(2, "job", 4.0, 8.0, 0),  # two clients overlap on 4..6
            span(3, "job", 5.0, 7.0, 0),  # inside the union already
        ]
        st = measure.self_times(spans)
        self.assertAlmostEqual(st["round"], 3.0)  # 10 - |1..8|
        self.assertAlmostEqual(st["job"], 5.0 + 4.0 + 2.0)

    def test_children_outside_the_parent_are_clipped(self):
        spans = [span(0, "probe", 2.0, 4.0), span(1, "check", 3.0, 6.0, 0)]
        self.assertAlmostEqual(measure.self_times(spans)["probe"], 1.0)

    def test_same_name_sums(self):
        spans = [span(0, "job", 0.0, 1.0), span(1, "job", 5.0, 7.5)]
        self.assertAlmostEqual(measure.self_times(spans)["job"], 3.5)


if __name__ == "__main__":
    unittest.main()
