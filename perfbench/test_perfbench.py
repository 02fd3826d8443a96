#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_perfbench.py

Run from the repository root. Builds the benchmark through run.py and runs
every workload at tiny scale (a few racks, short horizons), checking that:

  * two runs of one seed reproduce every simulated result and the digest;
  * the seed changes the inputs of flashcrowd and paper-churn, and the city
    workloads have none;
  * city-solo and city-sharded compute the same digest and event count;
  * every printed metric is listed in BENCHMARK.json with its unit, and its
    name uses only [A-Za-z0-9_.-];
  * every end-to-end metric is nonzero;
  * without the library sources the benchmark fails fast without a result.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]
BINARY = ROOT / ".bench_build" / "perfbench" / "perfbench"
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def bench(workload, seed, trace):
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "0",
               "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"{workload} seed {seed} exited "
                             f"{done.returncode}:\n{done.stdout}\n{done.stderr}")
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def inputs(workload, seed):
    done = subprocess.run(
        [str(BINARY), "--inputs", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=60, check=True)
    return done.stdout.strip()


class PerfbenchTest(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {}

    @classmethod
    def setUpClass(cls):
        # Traced runs print the per-layer metrics, untraced ones the
        # end-to-end metrics; both print every simulated result.
        for workload in cls.workloads:
            cls.runs[workload] = [bench(workload, 7, 1), bench(workload, 7, 1),
                                  bench(workload, 7, 0)]

    def test_same_seed_reproduces_sim_results(self):
        for workload, runs in self.runs.items():
            first = runs[0][0]
            self.assertTrue(first["sim"], workload)
            for info, result in runs:
                self.assertTrue(result["correct"], (workload, info))
                self.assertEqual(info["sim"], first["sim"], workload)
                self.assertEqual(info["digest"], first["digest"], workload)

    def test_seed_changes_inputs(self):
        for workload in ("flashcrowd", "paper-churn"):
            self.assertNotEqual(inputs(workload, 1), inputs(workload, 2))
            self.assertEqual(inputs(workload, 1), inputs(workload, 1))
        for workload in ("city-solo", "city-sharded"):
            self.assertEqual(inputs(workload, 1), "{}")

    def test_city_pair_agrees(self):
        solo = self.runs["city-solo"][0][0]
        sharded = self.runs["city-sharded"][0][0]
        self.assertEqual(solo["digest"], sharded["digest"])
        self.assertEqual(solo["sim_events"], sharded["sim_events"])

    def test_metrics_match_benchmark_json(self):
        declared = {m["name"]: m["unit"]
                    for m in self.spec["end_to_end"] + self.spec["per_layer"]}
        for workload, runs in self.runs.items():
            (_, traced), _, (_, untraced) = runs
            self.assertEqual(set(traced["metrics"]),
                             {m["name"] for m in self.spec["per_layer"]})
            self.assertEqual(set(untraced["metrics"]),
                             {m["name"] for m in self.spec["end_to_end"]})
            for result in (traced, untraced):
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                for name, metric in result["metrics"].items():
                    self.assertRegex(name, NAME)
                    self.assertEqual(metric["unit"], declared[name], name)
            for name, metric in untraced["metrics"].items():
                self.assertGreater(metric["value"], 0, (workload, name))

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench")
            done = subprocess.run(
                RUN + ["--workload", "city-solo", "--seed", "1", "--seconds",
                       "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main(argv=sys.argv[:1], verbosity=2)
