#!/usr/bin/env python3
"""Self-test of the benchmark harness (not of conirep).

    python3 bench/selftest.py

Checks that a seed fixes the inputs, that the tracer restores every wrapped
name, that self time is computed as documented, that speed samples are
picked from the documented window, that BENCHMARK.json matches
the metrics run.py prints, that every workload passes a smoke run in
seconds, and that the benchmark refuses to run without the package source.
Writes only under bench/out/.
"""
from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
from speed import Speedometer  # noqa: E402
from tracer import COUNTS, SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS, make_plan  # noqa: E402


def _run(args, cwd=ROOT, timeout=120):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


class Seeds(unittest.TestCase):
    def test_same_seed_same_matrices(self):
        for workload in WORKLOADS:
            a = make_plan(workload, 11).matrices()
            b = make_plan(workload, 11).matrices()
            c = make_plan(workload, 12).matrices()
            self.assertEqual(a.keys(), b.keys())
            for key in a:
                np.testing.assert_array_equal(a[key], b[key])
            self.assertTrue(any(not np.array_equal(a[k], c[k]) for k in a), workload)

    def test_quadrature_images_keep_ir(self):
        conirep = importlib.import_module("conirep")
        irs = {seed: [conirep.evaluate(C).ir for C in make_plan("quadrature", seed, True)
                      .matrices().values()] for seed in (1, 2)}
        np.testing.assert_allclose(irs[1], irs[2], rtol=0, atol=1e-12)


class Tracing(unittest.TestCase):
    def setUp(self):
        self.mods = {name: importlib.import_module(name) for name in run.MODULES}

    def _names(self):
        return {(m, a): getattr(self.mods[m], a) for m, a, _ in SPANS + COUNTS}

    def test_wrappers_restore_originals(self):
        before = self._names()
        tracer = Tracer()
        tracer.install(self.mods)
        try:
            wrapped = self._names()
            self.assertTrue(all(wrapped[k] is not before[k] for k in before))
            C = np.array([[2.0, 3.0, 0.0], [3.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
            self.mods["conirep"].evaluate(C)
            self.mods["conirep"].ir_num(C, 4, threads=2)
        finally:
            tracer.restore()
        after = self._names()
        self.assertTrue(all(after[k] is before[k] for k in before))
        names = {span[2] for span in tracer.spans}
        self.assertTrue({"evaluator.evaluate", "region.intersect", "nnls.scalar",
                         "oracle.ir_num", "nnls.batch"} <= names)
        ids = {span[0] for span in tracer.spans}
        self.assertTrue(all(span[1] == 0 or span[1] in ids for span in tracer.spans))
        self.assertGreater(tracer.counts["linalg.gram_schmidt_calls"], 0)

    def test_self_time_subtracts_union_of_children(self):
        tracer = Tracer()
        # parent [0, 10]; two overlapping worker children [1, 5] and [3, 7];
        # a nested grandchild [2, 3] inside the first child
        tracer.spans = [(1, 0, "oracle.ir_num", "", 0.0, 10.0, 1),
                        (2, 1, "nnls.batch", "", 1.0, 5.0, 2),
                        (3, 1, "nnls.batch", "", 3.0, 7.0, 3),
                        (4, 2, "nnls.scalar", "", 2.0, 3.0, 2)]
        self.assertEqual(tracer.self_times(), [4.0, 3.0, 4.0, 1.0])


class Speed(unittest.TestCase):
    def test_window_without_stretch_keeps_adjacent_samples(self):
        speed = Speedometer()
        speed.stamps = [0.0, 9.5, 10.5, 20.0]
        speed.times = [1.0, 2.0, 4.0, 8.0]
        # a call over [10, 11]: stretched, it reaches 1 s either side
        self.assertEqual(speed.around(10.0, 11.0), 3.0)
        speed.stretch, speed.window = False, 0.6
        self.assertEqual(speed.around(10.0, 11.0), 3.0)
        # a long call over [12, 19]: stretched, it reaches 7 s either side;
        # unstretched, no sample is in the window and the nearest one counts
        speed.stretch = True
        self.assertEqual(speed.around(12.0, 19.0), 4.0)
        speed.stretch = False
        self.assertEqual(speed.around(12.0, 19.0), 8.0)
        self.assertEqual(speed.normalize(12.0, 19.0), 7.0 * speed.nominal / 8.0)


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_run(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))

    def test_smoke_runs(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        want = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
        for workload in WORKLOADS:
            for trace in (0, 1):
                t0 = time.perf_counter()
                out = _run(["bench/run.py", "--workload", workload, "--seed", "3",
                            "--seconds", "1", "--trace", str(trace), "--smoke"])
                self.assertEqual(out.returncode, 0, out.stderr)
                self.assertLess(time.perf_counter() - t0, 60.0)
                last = json.loads(out.stdout.strip().splitlines()[-1])
                self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(last["correct"], out.stdout)
                self.assertEqual(set(last["metrics"]), want[trace])

    def test_refuses_without_package(self):
        bare = BENCH / "out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "bench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in BENCH.glob("*.py"):
            shutil.copy(f, bare / "bench")
        try:
            out = _run(["bench/run.py", "--workload", "ladder", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
