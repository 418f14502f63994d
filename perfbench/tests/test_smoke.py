"""Tiny-size smoke invocations of perfbench/run.py.

Builds the program like a real run (into $CARGO_TARGET_DIR, default
.bench_build under the checkout), so the first run takes a few minutes.
Run from the checkout root:

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "..", "run.py")
with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
    END_TO_END = {m["name"] for m in json.load(f)["end_to_end"]}


def run(*args):
    r = subprocess.run([sys.executable, RUN, *args], capture_output=True, text=True,
                       timeout=1200)
    return r.returncode, r.stdout, r.stderr


@unittest.skipUnless(shutil.which("cargo"), "needs cargo to build the program")
class Smoke(unittest.TestCase):
    def test_tiny_timed_runs(self):
        for workload in ("resume_tcp", "paper_inproc"):
            with self.subTest(workload=workload):
                rc, out, err = run("--workload", workload, "--seed", "3", "--seconds", "1",
                                   "--jobs", "12", "--trace", "0")
                self.assertEqual(rc, 0, err)
                result = json.loads(out.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], err)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), END_TO_END)
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)
                self.assertIn("\nsim_jobs_per_s = ", out)

    def test_wrong_cached_reference_fails_the_run(self):
        # Seed 5 at 12 jobs is not pinned, so the cached run is the reference.
        cache = os.path.join(os.getcwd(), ".perfbench", "cache", "all-jobs12-seed5")
        shutil.rmtree(cache, ignore_errors=True)
        os.makedirs(cache)
        with open(os.path.join(cache, "reference.json"), "w") as f:
            json.dump({"stdout_sha256": "0" * 64, "store_sha256": "0" * 64}, f)
        try:
            rc, out, err = run("--workload", "paper_inproc", "--seed", "5", "--seconds", "1",
                               "--jobs", "12", "--trace", "0")
        finally:
            shutil.rmtree(cache)
        self.assertEqual(rc, 0, err)
        result = json.loads(out.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("store projection differs from the reference", err)

    def test_tiny_traced_run_closes_the_table(self):
        rc, out, err = run("--workload", "paper_inproc", "--seed", "3", "--jobs", "12",
                           "--trace", "1")
        self.assertEqual(rc, 0, err)
        result = json.loads(out.strip().splitlines()[-1])
        self.assertTrue(result["correct"], err)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertAlmostEqual(m["trace.spans_s"] + m["trace.residual_s"], m["trace.wall_s"])
        self.assertEqual(m["transport.degraded_cells"], 0)
        self.assertGreater(m["des.events"], 0)

    def test_outside_a_checkout_fails_without_a_result(self):
        tmp = os.path.join(os.getcwd(), ".perfbench", "not-a-checkout")
        os.makedirs(tmp, exist_ok=True)
        r = subprocess.run([sys.executable, RUN, "--workload", "resume_tcp"], cwd=tmp,
                           capture_output=True, text=True, timeout=60)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout, "")


if __name__ == "__main__":
    unittest.main()
