#!/usr/bin/env python3
"""Smoke test of perfbench/run.py at a tiny scale.

Run from the root of a checkout (builds `cxlg` first, about 40 s cold):

    python3 perfbench/test_smoke.py
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402

SCALE = 10
SEED = bench.HELD_OUT_SEED


def invoke(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.binary = bench.build()

    def test_workloads_match_the_spec(self):
        self.assertEqual(sorted(w["name"] for w in self.spec["workloads"]),
                         sorted(bench.WORKLOADS))

    def test_every_metric_prints_with_its_unit(self):
        for workload, wl in bench.WORKLOADS.items():
            tiny = dataclasses.replace(wl, scale=SCALE)
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    out, errors = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(errors):
                        result = bench.measure(self.binary, workload, tiny, SEED, 1, bool(trace))
                    lines = out.getvalue().splitlines()
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], errors.getvalue())
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in self.spec[kind]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, unit in want.items():
                        printed = [l for l in lines if l.startswith(f"{name} = ")]
                        self.assertEqual(len(printed), 1, name)
                        self.assertTrue(printed[0].endswith(f" {unit}"), printed[0])
                    self.assertTrue(any(l.startswith("digest sha256:") for l in lines))

    def test_unknown_experiment_counts_as_failed(self):
        # `cxlg run` refuses the whole run list, so every operation fails,
        # and run.py still reports.
        wl = bench.Workload(SCALE, "mem", ("fig3", "no_such_experiment"))
        result = bench.measure(self.binary, "forced-failure", wl, SEED, 0.0, False)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], 2)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(result["metrics"]["ok_frac"]["value"], 0.0)

    def test_fails_without_a_workspace(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = invoke(bare, "--workload", "latency-sweep", "--seed", "1",
                          "--seconds", "1", "--trace", "0")
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
