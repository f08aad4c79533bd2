"""Self-test of the benchmark's own checks and statistics.

Run from the repository root: python3 bench/selftest.py
"""

import json
import os
import statistics
import sys
import tempfile
import unittest

import checks
import run

SWEEP_OK = (
    "parameter,value,v_eh_v,t_ceh_s,eta_v,eta_e,sndr_db,enob,error\n"
    "alpha,0.05,0.3057423820288401,0.21726821691653073,0.7643559550721002,0.7766141957004106,49.801001890404,7.98023287216,\n"
    "alpha,0.1,0.305593066478446,0.2270644348283414,0.7639826661961149,0.7423831605626754,49.802705274061346,7.980515826256,\n"
    "alpha,0.15000000000000002,0.30541924013045807,0.23232983607782423,0.7635481003261452,0.7247329949180715,49.83212671119507,7.985403108172,\n"
    "alpha,0.2,0.3052129222112918,0.2422316004393274,0.7630323055282295,0.6941690886643068,49.81567217375992,7.982669796306,\n"
    "alpha,0.25,0.304964418375668,0.25215905430051316,0.76241104593917,0.6657543465295427,49.81154653555183,7.981984474344,\n"
    "alpha,0.3,0.30467066440177104,0.26214141619889386,0.7616766610044275,0.6391692500364383,49.804577103886906,7.980826761443,\n"
).encode()

SUMMARY_OK = {"v_eh_v": 0.305593066478446, "t_ceh_s": 0.2270644348283414, "eta_v": 0.7639826661961149,
              "eta_e": 0.7423831605626754, "enob": 7.980515826256}


def sweep_check(serial: bytes, parallel: bytes = None) -> list:
    return checks.check_sweep(serial, serial if parallel is None else parallel, run.SWEEP_VALUES, "lowfreq")


class SweepChecks(unittest.TestCase):
    def test_valid_sweep_passes(self):
        self.assertEqual(sweep_check(SWEEP_OK), [])

    def test_serial_and_parallel_files_must_match(self):
        self.assertTrue(sweep_check(SWEEP_OK, SWEEP_OK.replace(b"0.7643559550721002", b"0.7643559550721003")))

    def test_row_error_fails(self):
        bad = SWEEP_OK.replace(b"7.98023287216,\n", b"7.98023287216,not converged\n")
        self.assertTrue(sweep_check(bad))

    def test_efficiency_above_one_fails(self):
        self.assertTrue(sweep_check(SWEEP_OK.replace(b"0.7766141957004106", b"1.7766141957004106")))

    def test_truncated_or_garbled_file_fails(self):
        self.assertTrue(sweep_check(SWEEP_OK[: len(SWEEP_OK) // 2]))
        self.assertTrue(sweep_check(SWEEP_OK.replace(b"0.3052129222112918", b"0.30521x9222112918")))
        self.assertTrue(sweep_check(b"\xff" + SWEEP_OK))

    def test_missing_row_fails(self):
        self.assertTrue(sweep_check(SWEEP_OK.rsplit(b"alpha,0.3,", 1)[0]))

    def test_reference_row_out_of_bounds_fails(self):
        self.assertTrue(sweep_check(SWEEP_OK.replace(b"0.305593066478446", b"0.295593066478446")))


class SummaryChecks(unittest.TestCase):
    def test_valid_summary_passes(self):
        self.assertEqual(checks.check_summary(SUMMARY_OK, "lowfreq"), [])
        self.assertEqual(checks.check_summary(SUMMARY_OK, "lowfreq_pass"), [])

    def test_out_of_bound_values_fail(self):
        for key, value in [("v_eh_v", 0.30716 * 1.03), ("t_ceh_s", 0.22491 * 0.8), ("enob", 7.7),
                           ("eta_v", 1.01), ("eta_e", 1.5), ("enob", None), ("v_eh_v", float("nan"))]:
            with self.subTest(key=key, value=value):
                self.assertTrue(checks.check_summary(dict(SUMMARY_OK, **{key: value}), "lowfreq"))

    def test_designs_have_their_own_bounds(self):
        self.assertTrue(checks.check_summary(SUMMARY_OK, "highfreq"))
        high = dict(SUMMARY_OK, v_eh_v=0.304, t_ceh_s=58.32e-6 * 1.1)
        self.assertEqual(checks.check_summary(high, "highfreq"), [])

    def test_changed_digest_fails(self):
        self.assertEqual(checks.check_repeat({"a": "1"}, {"a": "1"}, "x"), [])
        self.assertTrue(checks.check_repeat({"a": "1"}, {"a": "2"}, "x"))
        self.assertTrue(checks.check_repeat({"a": "1"}, {}, "x"))


class Accounting(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.run = run.Run("run_ref", 0, self.dir.name)

    def tearDown(self):
        self.dir.cleanup()

    def test_nonzero_exit_counts_as_failed(self):
        wall, code, rss, err = run.run_child(
            [sys.executable, "-c", "import sys; sys.exit(3)"], os.path.join(self.dir.name, "c.out"))
        self.assertEqual(code, 3)
        self.assertGreater(wall, 0.0)
        self.assertGreater(rss, 0.0)
        self.assertFalse(self.run.record(run.exit_problems("child", code, err)))
        self.assertTrue(self.run.record(run.exit_problems("child", 0, "")))
        self.assertEqual((self.run.attempted, self.run.failed), (2, 1))

    def test_failed_cli_run_is_not_timed(self):
        missing = os.path.join(self.dir.name, "missing.cfg")
        self.assertIsNone(run.cli_run(self.run, "lowfreq", missing))
        self.assertEqual((self.run.attempted, self.run.failed), (1, 1))

    def test_bracketed_child_is_timed_against_the_kernel(self):
        wall, rel, code, _, _ = run.bracketed_child(
            self.run, [sys.executable, "-c", "import time; time.sleep(0.2)"], os.path.join(self.dir.name, "c.out"))
        self.assertEqual(code, 0)
        self.assertGreater(wall, 0.2)
        before, after = self.run.samples["ref_kernel_s"]
        self.assertAlmostEqual(rel, wall / ((before + after) / 2.0))

    def test_seeded_configs_change_only_the_phase(self):
        paths, _ = run.make_configs("run_ref", 7, self.dir.name)
        again, _ = run.make_configs("run_ref", 7, tempfile.mkdtemp(dir=self.dir.name))
        for name, path in paths.items():
            with open(path) as fh, open(run.CONFIGS[name]) as orig, open(again[name]) as same:
                text = fh.read()
                self.assertEqual(text, same.read())
                added = set(text.splitlines()) - set(orig.read().splitlines())
                self.assertEqual(len(added), 1)
                self.assertTrue(added.pop().startswith("signal.phase_rad = "))
        self.assertEqual(run.make_configs("api_pass", 0, self.dir.name)[0],
                         {"lowfreq_pass": run.CONFIGS["lowfreq_pass"]})


class ResultLine(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        sys.path.insert(0, run.SRC)
        import layers
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        layer_units = {m: u for m, (_, u, _) in layers.LAYER_METRICS.items()}
        for key, units in (("end_to_end", run.E2E_UNITS), ("per_layer", {**layer_units, **run.TRACE_UNITS})):
            self.assertEqual({m["name"]: m["unit"] for m in bench[key]}, units)
        self.assertFalse(set(run.RAW_UNITS) & set(run.E2E_UNITS))


class Statistics(unittest.TestCase):
    def test_describe(self):
        d = checks.describe([3.0, 1.0, 2.0, 4.0, 5.0])
        self.assertEqual((d["median"], d["n"]), (3.0, 5))
        self.assertEqual((d["q1"], d["q3"]), tuple(statistics.quantiles([1, 2, 3, 4, 5], n=4)[::2]))
        self.assertEqual(checks.describe([2.5]), {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1})
        with self.assertRaises(ValueError):
            checks.describe([])

    def test_spread(self):
        self.assertEqual(checks.spread([1.0] * 10), 0.0)
        values = [float(v) for v in range(1, 11)]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(checks.spread(values), (q3 - q1) / med)

    def test_self_times(self):
        sys.path.insert(0, run.SRC)
        import layers
        spans = [{"parent": None, "start": 0.0, "end": 10.0},
                 {"parent": 0, "start": 1.0, "end": 3.0},
                 {"parent": 0, "start": 4.0, "end": 8.0},
                 {"parent": 2, "start": 5.0, "end": 6.0}]
        layers.self_times(spans)
        self.assertEqual([s["self_s"] for s in spans], [4.0, 2.0, 3.0, 1.0])


if __name__ == "__main__":
    unittest.main()
