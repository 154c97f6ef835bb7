"""Self-tests of compare_suite.py: directions, bounds, medians over runs,
the combined workload=all format, and missing or incorrect results."""

import json
import tempfile
import unittest
from pathlib import Path

import compare_suite

SPEC = {"end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "requests_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.1},
]}


def result(workload, setup_s=1.0, rate=100.0, correct=True, seed="1",
           sim_us=500.0):
    return {"workload": workload, "correct": correct, "attempted": 10,
            "failed": 0, "info": {"seed": seed}, "metrics": {
                "setup_s": {"value": setup_s, "unit": "s"},
                "requests_per_s": {"value": rate, "unit": "1/s"},
                "sim_total_us": {"value": sim_us, "unit": "sim_us",
                                 "exact": True}}}


class CompareSuiteTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)
        (self.dir / "BENCHMARK.json").write_text(json.dumps(SPEC))

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, data):
        path = self.dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data))
        return str(path)

    def run_compare(self, base, change):
        return compare_suite.main(
            [base, change, "--benchmark", str(self.dir / "BENCHMARK.json")])

    def test_identical_results_pass(self):
        a = self.write("a.json", result("mixes"))
        self.assertEqual(self.run_compare(a, a), 0)

    def test_lower_is_better_within_and_beyond_bound(self):
        base = self.write("a.json", result("mixes", setup_s=1.0))
        within = self.write("b.json", result("mixes", setup_s=1.24))
        beyond = self.write("c.json", result("mixes", setup_s=1.3))
        self.assertEqual(self.run_compare(base, within), 0)
        self.assertEqual(self.run_compare(base, beyond), 1)

    def test_higher_is_better_direction(self):
        base = self.write("a.json", result("mixes", rate=100.0))
        faster = self.write("b.json", result("mixes", rate=200.0))
        slower = self.write("c.json", result("mixes", rate=85.0))
        self.assertEqual(self.run_compare(base, faster), 0)
        self.assertEqual(self.run_compare(base, slower), 1)

    def test_directory_uses_median_of_runs(self):
        for i, rate in enumerate([100.0, 50.0, 100.0]):
            self.write(f"base/{i}.json", result("mixes", rate=rate))
        for i, rate in enumerate([95.0, 95.0, 10.0]):
            self.write(f"change/{i}.json", result("mixes", rate=rate))
        self.assertEqual(
            self.run_compare(str(self.dir / "base"),
                             str(self.dir / "change")), 0)

    def test_combined_all_format(self):
        combined = {"revision": "x", "seed": 1, "workloads": {
            "mixes": result("mixes"), "fleet": result("fleet", rate=10.0)}}
        a = self.write("a.json", combined)
        runs = compare_suite.load_runs(a)
        self.assertEqual(sorted(runs), ["fleet", "mixes"])
        worse = dict(combined, workloads=dict(
            combined["workloads"], fleet=result("fleet", rate=5.0)))
        self.assertEqual(self.run_compare(a, self.write("b.json", worse)), 1)

    def test_missing_metric_fails(self):
        base = self.write("a.json", result("mixes"))
        partial = result("mixes")
        del partial["metrics"]["setup_s"]
        self.assertEqual(self.run_compare(base, self.write("b.json", partial)),
                         1)

    def test_missing_workload_fails(self):
        base = self.write("a.json", result("mixes"))
        other = self.write("b.json", result("fleet"))
        self.assertEqual(self.run_compare(base, other), 1)

    def test_incorrect_run_fails(self):
        base = self.write("a.json", result("mixes"))
        bad = self.write("b.json", result("mixes", correct=False))
        self.assertEqual(self.run_compare(base, bad), 1)

    def test_simulated_change_on_same_seed_fails(self):
        base = self.write("a.json", result("mixes", sim_us=500.0))
        same = self.write("b.json", result("mixes", sim_us=500.0 * (1 + 1e-12)))
        moved = self.write("c.json", result("mixes", sim_us=499.0))
        self.assertEqual(self.run_compare(base, same), 0)
        self.assertEqual(self.run_compare(base, moved), 1)

    def test_simulated_values_of_other_seeds_are_not_compared(self):
        base = self.write("a.json", result("mixes", seed="1", sim_us=500.0))
        other = self.write("b.json", result("mixes", seed="2", sim_us=450.0))
        self.assertEqual(self.run_compare(base, other), 0)

    def test_worse_share_signs(self):
        self.assertAlmostEqual(compare_suite.worse_share(1.0, 1.1, "lower"),
                               0.1)
        self.assertAlmostEqual(compare_suite.worse_share(1.0, 1.1, "higher"),
                               -0.1)


if __name__ == "__main__":
    unittest.main()
