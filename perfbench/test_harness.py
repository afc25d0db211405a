"""Tests of the benchmark's own maths (harness.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import unittest

import harness


def phase(p50_us, valid=True, failed=0, backlog=False, n=10000):
    return {"p50_us": p50_us if n >= 100 else None, "valid": valid,
            "failed": failed, "backlog": backlog}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(harness.percentile(values, 50), 50)
        self.assertEqual(harness.percentile(values, 99), 99)
        self.assertEqual(harness.percentile(values, 100), 100)
        self.assertEqual(harness.percentile([7], 99.9), 7)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            harness.percentile([], 50)

    def test_samples_beyond(self):
        self.assertEqual(harness.samples_beyond(1000, 99), 10)
        self.assertEqual(harness.samples_beyond(999, 99), 9)
        self.assertEqual(harness.samples_beyond(100, 50), 50)

    def test_highest_supported_percentile_needs_ten_beyond(self):
        self.assertIsNone(harness.highest_supported_percentile(19))
        self.assertEqual(harness.highest_supported_percentile(20), 50.0)
        self.assertEqual(harness.highest_supported_percentile(999), 90.0)
        self.assertEqual(harness.highest_supported_percentile(1000), 99.0)
        self.assertEqual(harness.highest_supported_percentile(10000), 99.9)
        self.assertEqual(harness.highest_supported_percentile(10**6), 99.999)

    def test_failures_count_as_infinite_latency(self):
        lat = [10.0] * 95 + [math.inf] * 5
        s = harness.summarize_phase(lat, [0.0] * 100, [0.0] * 100, failed=5,
                                    outstanding_at_end=0, rate=1000,
                                    late_limit_us=100)
        self.assertEqual(s["p50_us"], 10.0)
        self.assertEqual(s["phase_p99_us"], math.inf)
        self.assertFalse(harness.phase_meets_slo(s, limit_us=1000))


class WindowTest(unittest.TestCase):
    def test_a_stalled_window_does_not_move_the_median(self):
        # Five 100 ms windows of 200 requests; one window stalls at 5 ms.
        lat, due = [], []
        for w in range(5):
            for i in range(200):
                due.append(w * 100000.0 + i * 500.0)
                lat.append(5000.0 if w == 2 else 30.0 + (i % 10))
        p90, windows = harness.windowed_percentile(lat, due, 90.0)
        self.assertEqual(windows, 5)
        self.assertEqual(p90, 38.0)
        self.assertEqual(harness.percentile(sorted(lat), 90.0), 5000.0)

    def test_windows_need_ten_samples_beyond(self):
        lat = [1.0] * 99
        value, windows = harness.windowed_percentile(lat, [0.0] * 99, 90.0)
        self.assertIsNone(value)
        self.assertEqual(windows, 0)
        value, windows = harness.windowed_percentile(lat + [2.0],
                                                     [0.0] * 100, 90.0)
        self.assertEqual((value, windows), (1.0, 1))


class LatenessTest(unittest.TestCase):
    def test_median_lateness_decides_validity(self):
        late_tail = [0.5] * 90 + [5000.0] * 10  # host stalls: tail only
        s = harness.summarize_phase([10.0] * 100, late_tail, [0.0] * 100, 0,
                                    0, 1000, 100)
        self.assertTrue(s["valid"])
        self.assertEqual(s["late_p99_us"], 5000.0)
        behind = [0.5] * 40 + [500.0] * 60  # a generator behind schedule
        s = harness.summarize_phase([10.0] * 100, behind, [0.0] * 100, 0, 0,
                                    1000, 100)
        self.assertFalse(s["valid"])
        self.assertFalse(harness.phase_meets_slo(s, limit_us=1000))

    def test_backlog_is_more_than_fifty_ms_of_arrivals(self):
        keep_up = harness.summarize_phase([10.0] * 100, [0.0] * 100,
                                          [0.0] * 100, 0,
                                          outstanding_at_end=5000,
                                          rate=100000, late_limit_us=100)
        self.assertFalse(keep_up["backlog"])
        behind = harness.summarize_phase([10.0] * 100, [0.0] * 100,
                                         [0.0] * 100, 0,
                                         outstanding_at_end=5001,
                                         rate=100000, late_limit_us=100)
        self.assertTrue(behind["backlog"])


class SloSearchTest(unittest.TestCase):
    RUNGS = [10, 20, 30, 40, 50, 60, 70, 80]

    def search(self, latency_at, limit=100.0, max_probes=3):
        calls = []

        def probe(rate):
            calls.append(rate)
            return latency_at(rate)
        slo, _ = harness.slo_search(self.RUNGS, probe, limit, max_probes)
        return slo, calls

    def test_ladder(self):
        self.assertEqual(harness.rate_ladder(100, 2, 4), [100, 200, 400, 800])

    def test_bisects_and_interpolates(self):
        # p50_us = 2 * rate + 20: 40 passes (100), 50 fails (120).
        slo, calls = self.search(lambda r: phase(2.0 * r + 20))
        self.assertEqual(calls, [40, 60, 50])
        self.assertAlmostEqual(slo, 40.0)

    def test_interpolates_between_adjacent_probes(self):
        # 80 at 30, 120 at 40: the limit is crossed half way.
        slo, calls = self.search(lambda r: phase(4.0 * r - 40))
        self.assertEqual(calls, [40, 20, 30])
        self.assertAlmostEqual(slo, 35.0)

    def test_failures_backlog_and_lateness_fail_a_rung(self):
        for bad in (phase(50.0, failed=1), phase(50.0, backlog=True),
                    phase(50.0, valid=False), phase(50.0, n=10)):
            slo, calls = self.search(
                lambda r, bad=bad: phase(50.0) if r <= 20 else bad)
            self.assertEqual(calls, [40, 20, 30])
            self.assertEqual(slo, 20.0)  # no finite crossing: the pass rate

    def test_no_interpolation_into_a_probe_that_failed_on_more_than_latency(self):
        # The bad probe's p50 (90) is under the limit (100); only its
        # backlog, failures or late generator failed it. Interpolating
        # would clamp to its rate, a rate that failed.
        for bad in (phase(90.0, backlog=True), phase(90.0, failed=3),
                    phase(90.0, valid=False), phase(150.0, backlog=True)):
            slo, calls = self.search(
                lambda r, bad=bad: phase(50.0) if r <= 20 else bad)
            self.assertEqual(calls, [40, 20, 30])
            self.assertEqual(slo, 20.0)
        slo, calls = self.search(lambda r: phase(90.0, backlog=True))
        self.assertEqual(calls, [40, 20, 10])
        self.assertEqual(slo, 0.0)  # none passed and none is a crossing

    def test_every_rung_passing_reports_the_top(self):
        slo, calls = self.search(lambda r: phase(1.0), max_probes=4)
        self.assertEqual(calls, [40, 60, 70, 80])
        self.assertEqual(slo, 80.0)

    def test_nothing_passing_interpolates_from_the_origin(self):
        slo, calls = self.search(lambda r: phase(400.0))
        self.assertEqual(calls, [40, 20, 10])
        self.assertAlmostEqual(slo, 10 * 100.0 / 400.0)
        slo, _ = self.search(lambda r: phase(math.inf))
        self.assertEqual(slo, 0.0)

    def test_probe_budget(self):
        slo, calls = self.search(lambda r: phase(1.0), max_probes=2)
        self.assertEqual(calls, [40, 60])
        self.assertEqual(slo, 60.0)


class StealTest(unittest.TestCase):
    def test_share_of_the_cpus_time(self):
        # 2 CPUs for 0.5 s at 100 ticks/s: 100 ticks; 5 stolen is 5%.
        self.assertAlmostEqual(harness.steal_share(5, 0.5, 2, 100), 0.05)
        self.assertEqual(harness.steal_share(0, 0.5, 2, 100), 0.0)

    def test_keeps_the_least_stolen_blocks_in_order(self):
        blocks = [(0.01, "a"), (0.20, "b"), (0.0, "c"), (0.05, "d"),
                  (0.0, "e")]
        self.assertEqual(harness.least_stolen(blocks, 3), ["a", "c", "e"])
        self.assertEqual(harness.least_stolen(blocks, 9),
                         ["a", "b", "c", "d", "e"])
        ties = [(0.0, "x"), (0.0, "y"), (0.0, "z")]
        self.assertEqual(harness.least_stolen(ties, 2), ["x", "y"])


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            (0, -1, "replay", 0, 100, 0),
            (1, 0, "core.build", 10, 40, 0),
            (2, 0, "serve.engine.query", 50, 60, 1),
            (3, 1, "order.make", 15, 20, 0),
        ]
        selfs = harness.self_times(spans)
        self.assertEqual(selfs, {0: 60, 1: 25, 2: 10, 3: 5})

    def test_overlapping_children_count_once(self):
        spans = [
            (0, -1, "net.rtt", 0, 100, 0),
            (1, 0, "a", 10, 50, 0),
            (2, 0, "b", 30, 70, 0),
            (3, 0, "c", 90, 120, 0),  # clipped to the parent's end
        ]
        self.assertEqual(harness.self_times(spans)[0], 100 - 60 - 10)

    def test_layer_of(self):
        self.assertEqual(harness.layer_of("labeling.flat.query"), "labeling")
        self.assertEqual(harness.layer_of("replay"), "replay")


if __name__ == "__main__":
    unittest.main()
