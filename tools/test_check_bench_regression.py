#!/usr/bin/env python3
"""Tests of check_bench_regression.py's exact sim-counter gate and its
build-type check.

Run: python3 tools/test_check_bench_regression.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_bench_regression  # noqa: E402

COUNTERS = "sim_events_per_s,sim_ops_per_s,acked_writes_audited"


def row(name, **counters):
    return {"name": name, "run_type": "iteration", "real_time": 1.0, **counters}


BASELINE = [
    row("E17/RepKvWeakScaling/nodes:3/1/3/iterations:2", acked_writes_audited=17.0,
        sim_events_per_s=13588.197291832314, sim_ops_per_s=3197.2228921958385),
    row("E17/RepKvKillMidBench/nodes:6/iterations:2", acked_writes_audited=42.0,
        sim_events_per_s=36686.08121119521, sim_ops_per_s=4526.817218862135),
]


class ExactGateTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, rows, context=None):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            json.dump({"context": context or {}, "benchmarks": rows}, f)
        return path

    def check(self, current_rows, baseline_context=None, current_context=None, exact=COUNTERS,
              baseline_rows=BASELINE):
        baseline = self.write("baseline.json", baseline_rows, baseline_context)
        current = self.write("current.json", current_rows, current_context)
        self.stderr = io.StringIO()
        args = ["--baseline", baseline, "--current", current]
        if exact:
            args += ["--exact", exact]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(self.stderr):
            return check_bench_regression.main(args)

    def test_identical_counters_pass(self):
        # Three repetitions of each row, as CI runs them.
        self.assertEqual(self.check([dict(r) for r in BASELINE for _ in range(3)]), 0)

    def test_one_perturbed_counter_fails(self):
        current = [dict(r) for r in BASELINE for _ in range(3)]
        current[4]["sim_ops_per_s"] *= 1.0 + 1e-12
        self.assertEqual(self.check(current), 1)

    def test_no_overlapping_rows_fails(self):
        current = [row("E17/RepKvWeakScaling/nodes:64/32/2/iterations:1",
                       acked_writes_audited=497.0, sim_events_per_s=1.0, sim_ops_per_s=1.0)]
        self.assertEqual(self.check(current), 1)

    def test_different_build_types_are_refused_in_both_modes(self):
        # Rows both gates accept: the exact counters and items_per_second.
        rows = [dict(r, items_per_second=1000.0) for r in BASELINE]
        release = {"build_type": "Release", "compiler": "GNU 12.2.0"}
        debug = {"build_type": "Debug", "compiler": "GNU 12.2.0"}
        for exact in (COUNTERS, ""):
            self.assertEqual(self.check(rows, release, debug, exact, rows), 1)
            self.assertIn("'Release' differs from current build_type 'Debug'",
                          self.stderr.getvalue())
            self.assertEqual(self.check(rows, release, release, exact, rows), 0)
            # A baseline that declares no build type (recorded before bench
            # binaries stamped one) is still compared.
            self.assertEqual(self.check(rows, {}, debug, exact, rows), 0)


if __name__ == "__main__":
    unittest.main()
