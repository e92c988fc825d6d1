"""Self-test of the benchmark on tiny precisions.

    python3 benchmarks/selftest.py        (from the root of the checkout)

Checks that run.py prints every metric of BENCHMARK.json with its
unit, that a traced run writes its spans, that a corrupted reference
digest is counted as a failure, and that run.py refuses to run
without the qsigns sources.  The file name keeps it out of pytest's
default collection, so it is not part of the tier-1 suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*extra, script=HERE / "run.py", cwd=ROOT):
    proc = subprocess.run([sys.executable, str(script), "--profile", "tiny",
                           "--seconds", "0.5", "--seed", "7", *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


class RunnerTest(unittest.TestCase):

    def setUp(self):
        (ROOT / ".bench_work").mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def test_every_end_to_end_metric_with_its_unit(self):
        proc, result = run("--workload", "all", "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        for w in BENCHMARK["workloads"]:
            for m in BENCHMARK["end_to_end"]:
                got = result["metrics"]["%s.%s" % (w["name"], m["name"])]
                self.assertEqual(got["unit"], m["unit"])
                self.assertGreater(got["value"], 0)
        self.assertEqual(proc.stdout.count("fail_frac"), len(BENCHMARK["workloads"]))

    def test_traced_run_writes_spans_and_every_layer_metric(self):
        spans_file = self.tmp / "spans.json"
        proc, result = run("--workload", "all", "--trace", "1",
                           "--spans", str(spans_file))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        for w in BENCHMARK["workloads"]:
            for m in BENCHMARK["per_layer"]:
                got = result["metrics"]["%s.%s" % (w["name"], m["name"])]
                self.assertEqual(got["unit"], m["unit"])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertGreater(metrics["halfint.qseries.mul.sd.calls"], 0)
        self.assertGreater(metrics["dense.qseries.mul.dd.calls"], 0)
        self.assertEqual(metrics["halfint.qseries.mul.dd.calls"], 0)
        self.assertEqual(metrics["tables.qseries.calls"], 0)
        self.assertEqual(metrics["halfint.qseries.u_op.kept_frac"], 0.25)
        spans = json.loads(spans_file.read_text())
        names = {s[0] for cmd in spans["halfint"][0] for s in cmd["spans"]}
        self.assertTrue({"cli.main", "forms.delta_form", "forms.g_form",
                         "qseries.mul", "forms.integer_table",
                         "coeffio.serialize"} <= names, names)
        for cmd in spans["tables"][0]:
            self.assertGreater(cmd["main_s"], 0)
            self.assertLessEqual(cmd["covered_s"], cmd["main_s"])

    def test_corrupted_reference_digest_counts_as_failure(self):
        bench = self.tmp / "benchmarks"
        shutil.copytree(HERE, bench,
                        ignore=shutil.ignore_patterns("__pycache__"))
        ref = json.loads((bench / "reference.json").read_text())
        ref["tiny"]["delta"] = "0" * 64
        (bench / "reference.json").write_text(json.dumps(ref))
        proc, result = run("--workload", "halfint", "--trace", "0",
                           script=bench / "run.py")
        self.assertEqual(proc.returncode, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("delta.txt digest", proc.stdout)
        frac = [line.split()[2] for line in proc.stdout.splitlines()
                if "fail_frac" in line]
        self.assertGreater(float(frac[0]), 0)

    def test_refuses_to_run_without_sources(self):
        shutil.copy(ROOT / "BENCHMARK.json", self.tmp)
        shutil.copytree(HERE, self.tmp / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, result = run("--workload", "halfint", "--trace", "0",
                           script=self.tmp / "benchmarks" / "run.py",
                           cwd=self.tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result)


class OracleTest(unittest.TestCase):

    def test_tau(self):
        self.assertEqual(checks.tau_table(12)[1:],
                         [1, -24, 252, -1472, 4830, -6048, -16744, 84480,
                          -113643, -115920, 534612, -370944])

    def test_sigma7(self):
        self.assertEqual(checks.sigma7_table(4), [0, 1, 129, 2188, 16513])

    def test_sign_changes(self):
        self.assertEqual(checks.sign_changes([1, 0, -2, -1, 0, 3, 3]), 2)


if __name__ == "__main__":
    unittest.main()
