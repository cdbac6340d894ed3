#!/usr/bin/env python3
"""Smoke test of the benchmark on tiny inputs.

    python3 wheelsbench/test_smoke.py

Runs every workload of BENCHMARK.json through run.py --smoke, untraced and
traced, and checks that each metric BENCHMARK.json names is printed with its
unit; that a deliberately failed output check is counted; and that run.py
fails without printing a result where the library sources are missing.
"""

import json
import pathlib
import shutil
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra, cwd=ROOT):
    command = [sys.executable, "wheelsbench/run.py", "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace),
               "--smoke", *extra]
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE, text=True)


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["facts"], json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, specs):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in specs})
        for m in specs:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))

    def test_every_metric_printed_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                proc = run(workload, 0)
                self.assertEqual(proc.returncode, 0)
                facts, result = parse(proc)
                self.check_metrics(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(facts["failed_ratio"], 0)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0)

                proc = run(workload, 1)
                self.assertEqual(proc.returncode, 0)
                _, result = parse(proc)
                self.check_metrics(result, SPEC["per_layer"])
                self.assertTrue(result["correct"])

    def test_failed_check_raises_failed_ratio(self):
        proc = run("trace_io", 0, "--break-check")
        self.assertEqual(proc.returncode, 0)
        facts, result = parse(proc)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertGreater(facts["failed_ratio"], 0)

    def test_fails_without_library_sources(self):
        isolated = ROOT / ".bench_work" / "isolated"
        shutil.rmtree(isolated, ignore_errors=True)
        isolated.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", isolated)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, isolated / path)
        proc = run("drive", 0, cwd=isolated)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")
        shutil.rmtree(isolated)


if __name__ == "__main__":
    unittest.main()
