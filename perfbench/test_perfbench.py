"""Tests of the benchmark itself: statistics helpers, seeded inputs and
the oracles that feed failed operations.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The oracle tests build the project (as a benchmark run does) on first
use.
"""

import copy
import json
import os
import shutil
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import stats  # noqa: E402


class TailTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        value, pct, beyond, n = stats.tail(list(range(1, 101)))
        self.assertEqual((value, beyond, n), (90, 10, 100))
        self.assertAlmostEqual(pct, 90.0)

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 9.0] * 10
        self.assertEqual(stats.tail(values), stats.tail(sorted(values)))

    def test_thin_tail_reports_max_with_zero_beyond(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 0, 3))
        self.assertEqual(stats.tail([1.0] * 10)[2:], (0, 10))

    def test_eleven_samples_is_the_first_real_percentile(self):
        value, pct, beyond, n = stats.tail(list(range(11)))
        self.assertEqual((value, beyond, n), (0, 10, 11))


def span(sid, parent, start, end, op=1, name="s"):
    return {"id": sid, "parent": parent, "op": op, "name": name,
            "start_us": float(start), "end_us": float(end)}


class SelfTimeTest(unittest.TestCase):
    def test_sequential_children(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 30), span(2, 0, 40, 90)]
        self.assertEqual(stats.self_times(spans), {0: 30.0, 1: 20.0,
                                                   2: 50.0})

    def test_overlapping_children_are_subtracted_once(self):
        # Two workers of a jobs=4 launch run at the same time: the parent
        # is covered from 10 to 60, not for 30 + 30 us.
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 40), span(2, 0, 30, 60),
                 span(3, 0, 70, 80)]
        self.assertEqual(stats.self_times(spans)[0], 100 - 50 - 10)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(0, -1, 0, 50), span(1, 0, 40, 70)]
        self.assertEqual(stats.self_times(spans)[0], 40.0)

    def test_conservation_holds_for_nested_spans(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 60),
                 span(2, 1, 20, 30), span(3, -1, 200, 260, op=2),
                 span(4, 3, 210, 250, op=2)]
        worst, failing = stats.conservation(spans, {1: 100.0, 2: 60.0}, 0.01)
        self.assertEqual((worst, failing), (0.0, []))

    def test_conservation_flags_missing_time(self):
        spans = [span(0, -1, 0, 100)]
        worst, failing = stats.conservation(spans, {1: 150.0}, 0.01)
        self.assertEqual(failing, [1])
        self.assertAlmostEqual(worst, 50 / 150)


class RatioTest(unittest.TestCase):
    def test_ratio_is_printed_with_its_base(self):
        text = stats.ratio_text(120.0, 160.0, "jobs=1 ms", "jobs=4 ms")
        self.assertEqual(text, "0.75 = jobs=1 ms 120 / jobs=4 ms 160")

    def test_zero_base(self):
        self.assertEqual(stats.ratio(5, 0), 0.0)

    def test_spread(self):
        self.assertAlmostEqual(stats.spread([1, 2, 3, 4, 5]), 3.0 / 3)


class DerivedMetricTest(unittest.TestCase):
    def test_setup_sums_each_apps_fastest_repetition(self):
        res = run.Result()
        run.put_setup(res, {"nn": [3.0, 1.0, 2.0], "bfs": [9.0, 8.0, 4.0]},
                      "test")
        self.assertAlmostEqual(res.metrics["setup_s"], 0.005)

    def test_overhead_is_against_both_bracketing_untraced_runs(self):
        # An untraced run that is slow only because it came first must
        # not make the overhead read negative by its whole warm-up.
        res = run.Result()
        run.put_overhead(res, traced=10.5, before=11.0, after=10.0)
        self.assertAlmostEqual(res.metrics["trace.overhead_s"], 0.0)
        self.assertIn("differ by 1", res.notes["trace.overhead_s"])


def plan_ops(workload, p):
    if workload == "profile-exact":
        return p["apps"]
    if workload == "simulate-jobs4":
        return [(a, c) for a in p["apps"] for c in p["configs"]]
    return [p["requests"][i] for i in p["cold"] + p["warm"]]


class SeedTest(unittest.TestCase):
    def test_seed_changes_order_only(self):
        for workload in run.WORKLOADS:
            a, b = run.plan(workload, 1), run.plan(workload, 2)
            ops_a, ops_b = plan_ops(workload, a), plan_ops(workload, b)
            self.assertEqual(len(ops_a), len(ops_b), workload)
            self.assertEqual(sorted(ops_a), sorted(ops_b), workload)
            self.assertNotEqual(ops_a, ops_b, workload)

    def test_same_seed_same_inputs(self):
        for workload in run.WORKLOADS:
            self.assertEqual(run.plan(workload, 5), run.plan(workload, 5))

    def test_daemon_cold_pass_is_seed_independent(self):
        a, b = run.plan("daemon-mixed", 1), run.plan("daemon-mixed", 9)
        self.assertEqual(a["cold"], b["cold"])
        self.assertEqual(a["requests"], b["requests"])

    def test_pass_count_depends_on_seconds_only(self):
        self.assertEqual(run.pass_count("profile-exact", 1), 3)
        self.assertEqual(run.pass_count("profile-exact", 60), 4)
        self.assertEqual(run.pass_count("simulate-jobs4", 30), 8)
        self.assertEqual(run.pass_count("daemon-mixed", 1), 1)


class OracleTest(unittest.TestCase):
    """A tampered expected value must show up as one failed operation."""

    @classmethod
    def setUpClass(cls):
        os.makedirs(run.RUN_DIR, exist_ok=True)
        run.build()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(run.RUN_DIR, ignore_errors=True)
        try:
            os.rmdir(run.RUN_ROOT)
        except OSError:
            pass

    def write(self, name, doc):
        path = os.path.join(run.RUN_DIR, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def test_tampered_artifact_metric_fails_one_operation(self):
        with open(run.BASELINE) as f:
            baseline = json.load(f)
        nn = copy.deepcopy(baseline)
        nn["workloads"] = [w for w in nn["workloads"] if w["app"] == "nn"]
        good = self.write("nn-good.json", nn)
        tampered = copy.deepcopy(nn)
        tampered["workloads"][0]["metrics"]["sim.cycles"] += 1
        bad = self.write("nn-bad.json", tampered)
        checked = run.check_artifacts([good, bad])
        res = run.Result()
        for path in (good, bad):
            res.op(checked[path][0], path)
        self.assertEqual((res.attempted, len(res.failures)), (2, 1))
        self.assertIn("nn-bad.json", res.failures[0])

    def test_tampered_cycle_count_fails_one_operation(self):
        with open(run.PINS) as f:
            pins = json.load(f)
        for entry in pins["simulations"]:
            if (entry["app"], entry["config"]) == ("nn", "pascal:1"):
                entry["cycles"] += 1
        tampered = self.write("pins-bad.json", pins)
        p = {"apps": ["nn", "backprop"], "configs": run.SIM_CONFIGS}
        res = run.Result()
        run.run_simulate_jobs4(p, 1, run.RUN_DIR, res, pins=tampered)
        self.assertEqual((res.attempted, len(res.failures)), (8, 1))
        self.assertIn("simulate nn pascal:1: cycles", res.failures[0])
        self.assertFalse(run.report("simulate-jobs4", res, 0))

    def test_untampered_pins_pass(self):
        p = {"apps": ["nn"], "configs": run.SIM_CONFIGS}
        res = run.Result()
        run.run_simulate_jobs4(p, 1, run.RUN_DIR, res)
        self.assertEqual((res.attempted, res.failures), (4, []))


if __name__ == "__main__":
    unittest.main()
