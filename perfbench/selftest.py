"""Self-tests of the benchmark harness: python3 perfbench/selftest.py

Tiny runs of every workload must pass their checks, and corrupted outputs,
wrong exit codes and changed digests must each count as a failed op.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest

import run

sys.path.insert(0, str(run.SRC))

from troplane import cli, mapping, verify  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, CliOut  # noqa: E402


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.OUT_DIR.mkdir(exist_ok=True)
        cls.workdir = run.Path(tempfile.mkdtemp(dir=run.OUT_DIR))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def workload(self, name):
        return WORKLOADS[name](0, self.workdir)

    def first_output(self, name, i=0):
        wl = self.workload(name)
        op = wl.make(i)
        return wl, op, wl.call(op)

    def test_tiny_runs_pass(self):
        # 10 ops reach the first cheap (-inf or error) input of analyze/figure
        for name, ops in (("analyze", 10), ("figure", 10), ("piecewise", 3),
                          ("verify", 2)):
            with self.subTest(workload=name):
                tally = run.Tally(self.workload(name), None)
                run.drive(tally.workload, tally, 0, ops, ops)
                self.assertEqual((tally.attempted, tally.failed), (ops, 0),
                                 tally.reasons)

    def test_golden_digests_match(self):
        for name in WORKLOADS:
            golden = run.load_golden(name, 0)
            self.assertTrue(golden, f"no golden digests for {name}")
            tally = run.Tally(self.workload(name), golden[:2])
            run.drive(tally.workload, tally, 0, 2, 2)
            self.assertEqual(tally.failed, 0, tally.reasons)

    def test_changed_digest_fails(self):
        tally = run.Tally(self.workload("piecewise"), ["0" * run.DIGEST_HEX])
        run.drive(tally.workload, tally, 0, 1, 1)
        self.assertEqual(tally.failed, 1)

    def test_altered_F_entry_is_caught(self):
        wl, op, out = self.first_output("analyze")
        report = json.loads(out.stdout)
        report["canonical"]["F"][0][1] = "-99"
        bad = CliOut(0, json.dumps(report), "")
        self.assertIsNone(wl.check(op, out))
        self.assertIsNotNone(wl.check(op, bad))

    def test_truncated_svg_is_caught(self):
        wl, op, out = self.first_output("figure")
        self.assertIsNone(wl.check(op, out))
        cut = out.stdout[:len(out.stdout) // 2]
        self.assertIsNotNone(wl.check(op, CliOut(0, cut, "")))

    def test_unlabelled_cell_is_caught(self):
        wl, op, report = self.first_output("piecewise")
        self.assertIsNone(wl.check(op, report))
        short = mapping.PiecewiseReport(report.matrix, report.entries[1:])
        self.assertIsNotNone(wl.check(op, short))

    def test_unexpected_failing_suite_is_caught(self):
        wl, op, out = self.first_output("verify")
        self.assertIsNone(wl.check(op, out))
        lines = out.stdout.replace("semiring-laws: trials=1 pass",
                                   "semiring-laws: trials=1 FAIL (1)")
        self.assertIsNotNone(wl.check(op, CliOut(1, lines, "")))

    def test_wrong_exit_code_counts_as_failed(self):
        for name, i in (("analyze", 8), ("figure", 0), ("verify", 0)):
            with self.subTest(workload=name):
                wl, op, out = self.first_output(name, i)
                tally = run.Tally(wl, None)
                tally.record(op, dataclasses.replace(out, rc=out.rc + 1), None)
                self.assertEqual(tally.failed, 1)

    def test_raising_op_counts_as_failed(self):
        wl = self.workload("piecewise")
        tally = run.Tally(wl, None)
        tally.record(wl.make(0), None, "raised ValueError: boom")
        self.assertEqual(tally.failed, 1)

    def test_tracer_repeats_and_restores(self):
        originals = (cli.main, list(verify.SUITES))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for pass_id in (0, 1):
                tracer.pass_id = pass_id
                for name in WORKLOADS:  # piecewise op 1 has antennas
                    run.drive(self.workload(name), None, 0, 2, 2,
                              tracer=tracer)
        finally:
            tracer.uninstall()
        self.assertIs(cli.main, originals[0])
        self.assertEqual(verify.SUITES, originals[1])
        self.assertEqual(tracer.counts(0), tracer.counts(1))
        metrics = tracer.metrics(4 * len(WORKLOADS), 1.0, 1.0)
        names = [n for n, _, _ in tracing.per_layer_metrics()]
        self.assertEqual(list(metrics), names)
        self.assertEqual(len(names), 70)
        for fn in tracing.FUNCTIONS:
            self.assertGreater(metrics[f"{fn}.calls_per_op"][0], 0, fn)
        self.assertGreater(metrics["verify.convexity.self_ms_per_op"][0], 0)

    def test_no_program_exits_nonzero_without_result(self):
        bare = run.Path(tempfile.mkdtemp(dir=run.OUT_DIR))
        try:
            shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "analyze",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
