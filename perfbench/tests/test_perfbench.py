"""Tests for the benchmark's own code.

Run from the repository root (they build the benchmark program first, as
run.py does, so the first run takes about a minute):

    python3 -m unittest discover -s perfbench/tests -v
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class SpecTest(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        spec = run.load_spec()
        metrics = spec["end_to_end"] + spec["per_layer"]
        names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in metrics]
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))
        for metric in metrics:
            self.assertTrue(UNIT.fullmatch(metric["unit"]), metric)
            self.assertIn(metric["better"], ("higher", "lower"))
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in run.load_spec()["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))

    def test_sim_mismatch_is_detected(self):
        reference = {"lat_p50_us": 5.503, "cp.net_pct": 40.0}
        self.assertEqual(run.sim_mismatches(reference, {"lat_p50_us": 5.503}), [])
        # Critical-path shares depend on tracing, so they are not compared.
        self.assertEqual(run.sim_mismatches(reference, {"cp.net_pct": 0.0}), [])
        self.assertEqual(run.sim_mismatches(reference, {"lat_p50_us": 5.504}), ["lat_p50_us"])


class ProgramTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_gates_reject_perturbed_results(self):
        proc = subprocess.run([str(run.BINARY), "selftest"], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertNotIn("FAIL", proc.stdout)

    def test_back_to_back_runs_give_identical_sim_metrics(self):
        first, first_code, _ = run.run_child(["check", "lsm_scan", "7"])
        second, second_code, _ = run.run_child(["check", "lsm_scan", "7"])
        self.assertEqual((first_code, second_code), (0, 0))
        self.assertEqual(first["gate"], "")
        self.assertEqual(first["sim"], second["sim"])
        self.assertNotEqual(first["wall"], second["wall"])

    def test_every_declared_metric_is_measured_somewhere(self):
        spec = run.load_spec()
        # Derived by run.py from the processes' reports.
        emitted = {"peak_rss_mb", "sim.wall_ns_per_event", "trace.run_cpu_s",
                   "trace.overhead_pct", "wall.setup_s", "wall.run_s"}
        for workload in run.WORKLOADS:
            report, code, _ = run.run_child(["traced", workload, "1"])
            self.assertEqual(code, 0, report["gate"])
            for name in list(report["sim"]) + list(report["wall"]):
                self.assertTrue(NAME.fullmatch(name), name)
            emitted |= set(report["sim"]) | set(report["wall"])
        declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
        self.assertEqual(declared - emitted, set())

    def test_refuses_to_run_without_sources(self):
        scratch = Path(tempfile.mkdtemp(dir=run.BUILD_DIR.parent))
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", scratch)
            shutil.copytree(run.BENCH_DIR, scratch / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "netkv", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=scratch, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(scratch)
        self.assertNotEqual(proc.returncode, 0)
        for line in proc.stdout.splitlines():
            self.assertNotIn("correct", json.loads(line))


if __name__ == "__main__":
    unittest.main()
