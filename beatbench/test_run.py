"""Tests of the benchmark's own checks and plumbing (no cargo build).

Run from the repository root:

    python3 -m unittest discover -s beatbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

REF = run.load_reference()
LOW = REF["decks"]["low-256"]["diag"]


def diag(**changes):
    d = dict(LOW)
    d.update(changes)
    return d


class DivergenceIsFlagged(unittest.TestCase):
    """The medium-order multimode deck at 96^2 diverges: enstrophy goes
    1e-3 -> 1e4 at step 16, then 1e12, and the run finally aborts while
    allocating terabytes. Each stage must count as a failed run."""

    def test_reference_result_passes(self):
        self.assertEqual(run.check_diag(diag(), LOW), [])

    def test_blown_up_enstrophy_is_flagged(self):
        problems = run.check_diag(diag(enstrophy=1e12, amplitude=3.0e3), LOW)
        self.assertTrue(any("enstrophy" in p for p in problems), problems)
        self.assertTrue(any("amplitude" in p for p in problems), problems)

    def test_non_finite_state_is_flagged(self):
        # The worker writes NaN and infinities as JSON null.
        problems = run.check_diag(diag(enstrophy=None, z_max=float("inf")), LOW)
        self.assertEqual(len(problems), 2, problems)
        self.assertTrue(all("not finite" in p for p in problems), problems)

    def test_small_drift_beyond_tolerance_is_flagged(self):
        drifted = LOW["amplitude"] * (1 + 10 * run.DIAG_RTOL)
        self.assertEqual(len(run.check_diag(diag(amplitude=drifted), LOW)), 1)

    def test_reduction_order_noise_passes(self):
        noisy = LOW["enstrophy"] * (1 + 1e-14)
        self.assertEqual(run.check_diag(diag(enstrophy=noisy), LOW), [])

    def test_missing_diagnostics_are_flagged(self):
        self.assertEqual(run.check_diag(None, LOW), ["no diagnostics"])

    def test_aborting_worker_is_one_failed_attempt(self):
        # An abort (as in the terabyte allocation) kills only the worker.
        data, err = run.run_worker([sys.executable, "-c", "import os; os.abort()"])
        self.assertIsNone(data)
        self.assertIn("exit code", err)

    def test_hanging_worker_is_stopped(self):
        data, err = run.run_worker([sys.executable, "-c", "import time; time.sleep(30)"],
                                   timeout=0.5)
        self.assertIsNone(data)
        self.assertIn("timed out", err)

    def test_worker_output_is_the_last_line(self):
        data, err = run.run_worker([sys.executable, "-c", "print('noise'); print('{\"a\": 1}')"])
        self.assertEqual((data, err), ({"a": 1}, None))


class BitwiseAndSelfTest(unittest.TestCase):
    def test_one_ulp_differs(self):
        bits = REF["decks"]["low-256-thread2"]["bits"]
        same = {"bits": dict(bits)}
        self.assertEqual(run.check_bits(same, bits), [])
        off = dict(bits, enstrophy="%016x" % (int(bits["enstrophy"], 16) + 1))
        self.assertEqual(len(run.check_bits({"bits": off}, bits)), 1)

    def layers(self, spans, timed, dropped=0):
        return {"phase_self_s": spans, "rank_step_s": timed,
                "metrics": {"telemetry.dropped_spans": dropped}}

    def test_self_times_must_sum_to_step_time(self):
        self.assertEqual(run.check_layers(self.layers(0.995, 1.0)), [])
        self.assertEqual(len(run.check_layers(self.layers(0.95, 1.0))), 1)

    def test_dropped_spans_fail(self):
        self.assertEqual(len(run.check_layers(self.layers(1.0, 1.0, dropped=3))), 1)


class Statistics(unittest.TestCase):
    def test_percentile_interpolates(self):
        xs = list(range(11))
        self.assertEqual(run.percentile(xs, 0.5), 5)
        self.assertAlmostEqual(run.percentile(xs, 0.9), 9.0)
        self.assertAlmostEqual(run.percentile([1.0, 2.0], 0.5), 1.5)

    def test_tail_rule(self):
        self.assertTrue(run.tail_ok(run.P90_MIN_SAMPLES, 0.9))
        self.assertFalse(run.tail_ok(run.P90_MIN_SAMPLES - 1, 0.9))

    def test_result_line_has_exactly_the_contract_keys(self):
        line = run.result_line(True, 3, 0, {"setup_s": (0.5, "s", 9)})
        out = json.loads(line)
        self.assertEqual(sorted(out), ["attempted", "correct", "failed", "metrics"])
        self.assertEqual(out["metrics"], {"setup_s": {"value": 0.5, "unit": "s"}})


class MetricNames(unittest.TestCase):
    """Every name BENCHMARK.json promises is what the benchmark prints."""

    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_names_and_units_match_benchmark_json(self):
        self.assertEqual([m["name"] for m in self.bench["end_to_end"]], run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.bench["per_layer"]}, run.LAYER_UNITS)
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(run.WORKLOADS))

    def test_solver_and_serve_report_every_end_to_end_metric(self):
        seg = {"step_s": [0.1] * 20, "busiest_cpu_s": [0.09] * 20, "proc_cpu_s": [0.18] * 20,
               "setup_s": [0.02] * 3, "setup_cpu_s": [0.01] * 3, "nodes": 256,
               "peak_rss_kib": 2048}
        self.assertEqual(sorted(run.solve_e2e([seg, seg])), sorted(run.END_TO_END))
        job = {"latency_s": 0.01, "step_s": [0.001], "done_s": 1.0, "nodes": 1024, "steps": 6}
        data = {"setup_s": [0.001], "setup_cpu_s": [0.0005], "cpu_s": 0.5, "peak_rss_kib": 4096}
        self.assertEqual(sorted(run.serve_e2e(data, [job])), sorted(run.END_TO_END))

    def test_wall_clock_figures_are_per_layer_names(self):
        seg = {"step_s": [0.1] * 20, "busiest_cpu_s": [0.09] * 20, "setup_s": [0.02] * 3,
               "nodes": 256}
        job = {"latency_s": 0.01, "step_s": [0.001], "done_s": 1.0, "nodes": 1024, "steps": 6}
        data = {"setup_s": [0.001]}
        for figures in (run.solve_wall([seg]), run.serve_wall(data, [job])):
            self.assertLessEqual(set(figures), set(run.LAYER_UNITS))

    def test_end_to_end_metrics_are_cpu_times(self):
        # Wall-clock time is reported but carries no bound: with the same
        # segments run slower in wall-clock terms, nothing bounded moves.
        seg = {"step_s": [0.1] * 20, "busiest_cpu_s": [0.09] * 20, "proc_cpu_s": [0.18] * 20,
               "setup_s": [0.02] * 3, "setup_cpu_s": [0.01] * 3, "nodes": 256,
               "peak_rss_kib": 2048}
        slow = dict(seg, step_s=[0.3] * 20, setup_s=[0.06] * 3)
        self.assertEqual(run.solve_e2e([seg]), run.solve_e2e([slow]))
        self.assertAlmostEqual(run.solve_e2e([seg])["cpu_s_per_job"][0], 0.18)


class ServeGenerator(unittest.TestCase):
    def test_same_seed_same_jobs(self):
        self.assertEqual(run.serve_schedule("7/0", 2), run.serve_schedule("7/0", 2))
        self.assertNotEqual(run.serve_schedule("7/0", 2), run.serve_schedule("8/0", 2))

    def test_offered_load_and_shares(self):
        sched, rate = run.serve_schedule("1/0", 5)
        n = len(sched)
        self.assertEqual(n, max(run.P90_MIN_SAMPLES, round(rate * 5)))
        due = [x["due_s"] for x in sched]
        self.assertEqual(due, sorted(due))
        self.assertLessEqual(due[-1], n / rate)
        kinds = [x["spec"]["name"] for x in sched]
        counts = {k: kinds.count(k) for k in run.SERVE_TYPES}
        self.assertLessEqual(max(counts.values()) - min(counts.values()), 1)
        prios = {x["spec"]["priority"] for x in sched}
        self.assertEqual(prios, set(range(10)))

    def test_jobs_are_plain_specs(self):
        # The service receives job specs only: no seed, no benchmark state.
        sched, _ = run.serve_schedule("1/0", 1)
        allowed = {"deck", "order", "mesh_n", "steps", "ranks", "min_ranks", "name",
                   "priority", "profile"}
        self.assertTrue(all(set(x["spec"]) <= allowed for x in sched))

    def test_refused_and_failed_jobs_count(self):
        ref = REF["decks"]["serve:low-1r"]
        ok = {"status": 201, "state": "completed", "latency_s": 0.01,
              "result": {"amplitude": ref["amplitude"], "enstrophy": ref["enstrophy"]}}
        self.assertEqual(run.check_job(ok, ref), [])
        self.assertEqual(len(run.check_job(dict(ok, status=429), ref)), 1)
        self.assertEqual(len(run.check_job(dict(ok, state="failed"), ref)), 1)
        bad = dict(ok, result={"amplitude": float("nan"), "enstrophy": 1e12})
        self.assertEqual(len(run.check_job(bad, ref)), 2)


if __name__ == "__main__":
    unittest.main()
