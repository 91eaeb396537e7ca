#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_perfbench.py

They drive run.py exactly as a benchmark run does (building first if
needed), so they need the toolchain the build needs. They check:

  * a short run of every workload, untraced and traced, prints one result
    object whose metrics are exactly BENCHMARK.json's for the mode, with
    their units;
  * each correctness check rejects a deliberately corrupted output
    (run.py --corrupt), failing the run: the campaign checks in untraced
    runs, the analysis and serve equivalence checks of the layer suite in
    traced runs;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits nonzero quickly without printing a result;
  * run.py refuses a harness result that lacks a metric or misstates a unit.
"""

import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, seconds=1.0, trace=0, seed=7, corrupt=None, cwd=ROOT, timeout=300):
    cmd = [sys.executable, str(pathlib.Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class Schema(unittest.TestCase):
    def check_schema(self, trace):
        mode = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in SPEC[mode]}
        for w in WORKLOADS:
            with self.subTest(workload=w, trace=trace):
                proc = run(w, trace=trace)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                res = result_of(proc)
                self.assertEqual(set(res), RESULT_KEYS)
                self.assertIs(res["correct"], True)
                self.assertIsInstance(res["attempted"], int)
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], 0)
                self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, want)
                for name, m in res["metrics"].items():
                    self.assertEqual(set(m), {"value", "unit"}, name)
                    self.assertIsInstance(m["value"], (int, float), name)
                if not trace:
                    for name, m in res["metrics"].items():
                        self.assertGreater(m["value"], 0, name)

    def test_untraced_schema(self):
        self.check_schema(trace=0)

    def test_traced_schema(self):
        self.check_schema(trace=1)


class CorruptedOutputs(unittest.TestCase):
    # check -> (workload, trace)
    CHECKS = {
        "campaign_digest": ("campaign_packet", 0),
        "campaign_resim": ("campaign_fluid", 0),
        "analyze_stream": ("campaign_fluid", 1),
        "serve_predict": ("campaign_packet", 1),
    }

    def test_each_check_rejects_corruption(self):
        for check, (workload, trace) in self.CHECKS.items():
            with self.subTest(check=check):
                proc = run(workload, trace=trace, corrupt=check)
                self.assertEqual(proc.returncode, 1, proc.stderr[-2000:])
                self.assertIs(result_of(proc)["correct"], False)
                self.assertIn("FAILED", proc.stderr)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_repository(self):
        build = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
        bare = build / "test-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180, env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")
        self.assertLess(time.monotonic() - t0, 180)
        shutil.rmtree(bare, ignore_errors=True)


class MetricSelection(unittest.TestCase):
    def setUp(self):
        spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
        self.mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.mod)
        self.raw = {m["name"]: {"value": 1.5, "unit": m["unit"]} for m in SPEC["end_to_end"]}

    def test_complete_result_is_kept(self):
        got = self.mod.select_metrics(self.raw, SPEC, "end_to_end")
        self.assertEqual(set(got), {m["name"] for m in SPEC["end_to_end"]})

    def test_missing_metric_is_refused(self):
        del self.raw["setup_s"]
        with self.assertRaises(SystemExit):
            self.mod.select_metrics(self.raw, SPEC, "end_to_end")

    def test_wrong_unit_is_refused(self):
        self.raw["setup_s"]["unit"] = "ms"
        with self.assertRaises(SystemExit):
            self.mod.select_metrics(self.raw, SPEC, "end_to_end")

    def test_non_finite_value_is_refused(self):
        self.raw["setup_s"]["value"] = float("nan")
        with self.assertRaises(SystemExit):
            self.mod.select_metrics(self.raw, SPEC, "end_to_end")


if __name__ == "__main__":
    unittest.main()
