"""The benchmark's own tests, on tiny simulated windows (`--quick`).

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests

They build perfbench once and take about a minute.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run as bench  # noqa: E402


def run_bench(*args):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, proc.stderr


def quick(workload, trace, *extra):
    return run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--quick", *extra)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.runs = {(w, t): quick(w, t) for w in bench.WORKLOADS for t in (0, 1)}

    def test_declared_workloads_are_the_ones_run(self):
        declared = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(declared, list(bench.WORKLOADS))

    def test_every_printed_metric_is_declared_and_every_declared_one_printed(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in self.spec[key]}
            for w in bench.WORKLOADS:
                printed = self.runs[(w, trace)][0]["metrics"]
                self.assertEqual(set(printed), set(declared), f"{w} --trace {trace}")
                for name, m in printed.items():
                    self.assertEqual(m["unit"], declared[name], name)
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_tiny_runs_fail_no_cell(self):
        for (w, trace), (result, _) in self.runs.items():
            self.assertTrue(result["correct"], f"{w} --trace {trace}")
            self.assertEqual(result["failed"], 0, f"{w} --trace {trace}")
            self.assertGreaterEqual(result["attempted"], 2 * bench.CELLS_PER_GRID)
            if trace == 0:
                for name in ("sim_events_per_s", "wall_s", "setup_s", "peak_rss_mb"):
                    self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_tampered_reference_digest_is_a_failed_cell(self):
        with open(os.path.join(ROOT, bench.COMMITTED)) as f:
            committed = f.read().splitlines()
        tampered = list(committed)
        tampered[2] = tampered[2].replace("count=", "count=1", 1)
        gate = bench.Gate({}, None)
        gate.committed(committed, tampered)
        self.assertEqual((gate.attempted, gate.failed), (bench.CELLS_PER_GRID, 1),
                         "exactly the tampered cell fails")

    def test_fanout_replay_hands_each_job_to_the_first_free_worker(self):
        self.assertEqual(bench.fanout_makespan([1.0, 2.0, 3.0], 1), 6.0)
        # Worker 0 takes 3, worker 1 takes 1 then 1 then 1.
        self.assertEqual(bench.fanout_makespan([3.0, 1.0, 1.0, 1.0], 2), 3.0)
        self.assertEqual(bench.fanout_makespan([1.0, 1.0, 3.0], 2), 4.0)

    def test_missing_pinned_reference_fails_every_cell(self):
        gate = bench.Gate({}, None)
        gate.pinned([], None)
        self.assertEqual(gate.failed, bench.CELLS_PER_GRID)

    def test_recorded_references_cover_the_pinned_seed(self):
        for w in bench.WORKLOADS:
            refs = bench.load_refs(w).get(bench.REF_SEED, {})
            self.assertEqual(len(refs), bench.CELLS_PER_GRID, w)

    def test_traced_self_times_fit_in_the_traced_wall(self):
        for w in bench.WORKLOADS:
            stderr = self.runs[(w, 1)][1]
            path = re.search(r"^spans: (.+)$", stderr, re.M).group(1)
            with open(path) as f:
                doc = json.load(f)
            self.assertEqual(doc["workload"], w)
            for p in doc["passes"]:
                spans = p["trace"]["spans"]
                self.assertTrue(spans, "a traced pass records spans")
                names = {s["name"] for s in spans}
                for layer in ("simulate", "render.table3", "render.figure4",
                              "render.digest", "setup.build_scenario",
                              "setup.session_install"):
                    self.assertIn(layer, names)
                self_sum = sum(s["self_ns"] for s in spans)
                self.assertLessEqual(self_sum, p["wall_ns"], w)
                for s in spans:
                    self.assertLessEqual(s["start_ns"], s["end_ns"])
                    if s["parent"] is not None:
                        parent = spans[s["parent"]]
                        self.assertLessEqual(parent["start_ns"], s["start_ns"])
                        self.assertLessEqual(s["end_ns"], parent["end_ns"])


if __name__ == "__main__":
    unittest.main()
