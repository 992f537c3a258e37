"""Tests of the benchmark itself: its statistics helpers, its metric table
against BENCHMARK.json, its verdict rules, and the known-answer table the
measured process derives from Stores.Registry.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import re
import statistics
import subprocess
import unittest

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Statistics(unittest.TestCase):
    def test_quartile_spread_matches_statistics_quantiles(self):
        xs = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 14.0]
        q1, _, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(run.quartile_spread(xs),
                               (q3 - q1) / statistics.median(xs))
        self.assertEqual(run.quartile_spread([5.0] * 10), 0.0)

    def test_percentile(self):
        xs = list(range(1, 101))  # 1..100
        self.assertEqual(run.percentile(xs, 0), 1)
        self.assertEqual(run.percentile(xs, 100), 100)
        self.assertAlmostEqual(run.percentile(xs, 50), 50.5)
        self.assertAlmostEqual(run.percentile(xs, 99), 99.01)
        self.assertAlmostEqual(run.percentile([4.0, 1.0], 50), 2.5)
        self.assertEqual(run.percentile([7.0], 90), 7.0)
        self.assertEqual(run.percentile([], 50), 0.0)

    def test_ratio(self):
        self.assertEqual(run.ratio(1, 4), 0.25)
        self.assertEqual(run.ratio(3, 0), 0.0)


class MetricTable(unittest.TestCase):
    def setUp(self):
        self.bench = load_benchmark()
        self.defs = run.load_metrics()

    def test_names_and_units_valid_and_unique(self):
        names = [m["name"] for m in self.bench["workloads"]]
        for key in ("end_to_end", "per_layer"):
            for m in self.bench[key]:
                names.append(m["name"])
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("lower", "higher"))
        self.assertEqual(len(names), len(set(names)))

    def test_end_to_end_bounds(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_benchmark_json_agrees_with_definitions(self):
        for key in ("end_to_end", "per_layer"):
            mine = [(m["name"], m["unit"], m["better"]) for m in self.defs[key]]
            theirs = [(m["name"], m["unit"], m["better"])
                      for m in self.bench[key]]
            self.assertEqual(mine, theirs)
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         [w["name"] for w in self.defs["workloads"]])
        self.assertEqual(tuple(w["name"] for w in self.defs["workloads"]),
                         run.WORKLOADS)
        for m in self.defs["per_layer"]:
            for key in ("layer", "moves", "on"):
                self.assertTrue(m[key], (m["name"], key))

    def test_traced_run_yields_every_per_layer_metric(self):
        traced = {"t_start": 0.0, "t_end": 2.0, "wall": 1.0,
                  "self": {"driver.record": 0.5, "cell": 0.1},
                  "counts": {"crash_gen.images_tested": 4,
                             "crash_gen.images_generated": 8},
                  "check_s": [0.001, 0.002], "heap_words": 10}
        values, layer = run.layer_values(1.5, traced)
        self.assertEqual(set(values),
                         {m["name"] for m in self.defs["per_layer"]})
        self.assertEqual(layer, {"driver": 0.5})
        self.assertAlmostEqual(values["unaccounted_s"], 0.5)
        self.assertAlmostEqual(values["trace_overhead_s"], 0.5)
        self.assertAlmostEqual(values["crash_gen.tested_ratio"], 0.5)


class Verdicts(unittest.TestCase):
    def cell(self, expected, roots, status="ok", seed=1, store="s"):
        return {"store": store, "variant": "buggy", "seed": seed,
                "expected": expected, "status": status,
                "root_causes": roots, "images_tested": 1}

    def test_cell_verdict(self):
        v = run.cell_verdict
        self.assertEqual(v(self.cell("bugs", ["r"])), "ok")
        self.assertEqual(v(self.cell("bugs", [])), "miss")
        self.assertEqual(v(self.cell("bugs-or-miss", [])), "miss")
        self.assertEqual(v(self.cell("clean", [])), "ok")
        self.assertEqual(v(self.cell("clean", ["r"])), "false positive")
        self.assertNotIn(v(self.cell("clean", [], status="timeout")),
                         ("ok", "miss"))

    def test_store_verdict_over_seeds(self):
        v = run.store_verdict
        self.assertEqual(v([self.cell("bugs", []), self.cell("bugs", ["r"])]),
                         "ok")
        self.assertEqual(v([self.cell("bugs", []), self.cell("bugs", [])]),
                         "missed known bug")
        self.assertEqual(v([self.cell("bugs-or-miss", [])]), "known-miss")
        self.assertEqual(v([self.cell("clean", []), self.cell("clean", ["r"])]),
                         "false positive")
        self.assertNotEqual(v([self.cell("bugs", ["r"]),
                               self.cell("bugs", [], status="failed: x")]),
                            "ok")

    def test_checker_counts_failures_and_fingerprint_changes(self):
        chk = run.Checker()
        chk.cells([self.cell("bugs", [], store="a"),
                   self.cell("bugs-or-miss", [], store="b"),
                   self.cell("clean", [], store="c"),
                   self.cell("bugs", [], store="d", seed=1),
                   self.cell("bugs", ["r"], store="d", seed=2)], "rep 1")
        self.assertEqual((chk.attempted, chk.failed), (5, 1))
        self.assertEqual(len(chk.problems), 1)
        self.assertEqual(len(chk.known_misses), 1)
        self.assertEqual(len(chk.seed_misses), 1)
        chk.same(["a", "b"], ["a", "b"], "same")
        self.assertEqual(len(chk.problems), 1)
        chk.same(["a"], ["a", "b"], "lost one")
        self.assertEqual(len(chk.problems), 2)


class KnownAnswers(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.chdir(run.ROOT)
        exe = run.build()
        assert exe is not None, "benchmark build failed"
        out = subprocess.run([exe, "known-answers"], capture_output=True,
                             text=True, check=True)
        cls.table = json.loads(out.stdout.strip().splitlines()[-1])

    def test_table_covers_every_registry_entry(self):
        answers = {(a["store"], a["variant"]): a["expected"]
                   for a in self.table["answers"]}
        for store in self.table["registry"]:
            self.assertIn((store, "buggy"), answers)
            self.assertEqual(answers[(store, "fixed")], "clean")
        self.assertEqual(len(answers), 2 * len(self.table["registry"]))
        self.assertTrue(set(answers.values())
                        <= {"bugs", "clean", "bugs-or-miss"})

    def test_fleet_runs_every_registry_cell(self):
        cells = set(self.table["fleet_cells"])
        expected = {"%s/%s" % (s, v) for s in self.table["registry"]
                    for v in ("buggy", "fixed")}
        self.assertEqual(cells, expected)

    def test_unreliable_detection_names_registry_stores(self):
        for store in self.table["unreliable_detection"]:
            self.assertIn(store, self.table["registry"])


if __name__ == "__main__":
    unittest.main()
