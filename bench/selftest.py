"""Quick self-test of the benchmark harness on desk-size instances.

    python3 bench/selftest.py

Runs the ``tiny`` workload (M2 flip and triangular_example1 at D=2) through
the timed and the traced paths, and checks the correctness gate, the
installation and removal of the tracing wrappers, and the dense change of
basis. Takes a few seconds.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import algcert  # noqa: E402
from algcert import algebra, certificates, closure, linalg  # noqa: E402
from algcert.formats import dump_presentation  # noqa: E402
from algcert.instances import build_matrix_algebra  # noqa: E402
from tracer import ENUMERATORS, PER_LAYER_UNITS, Tracer, _resolve  # noqa: E402
from workloads import WORKLOADS, Job, change_of_basis, signature  # noqa: E402

TINY = WORKLOADS["tiny"]


class HarnessTest(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def test_timed_run_passes_gate(self):
        outcome = run.measure(TINY, 3, 0.2, self.workdir)
        self.assertEqual(outcome.mismatches, [])
        self.assertEqual(outcome.failed, 0)
        self.assertGreaterEqual(outcome.attempted, len(TINY.jobs))
        self.assertEqual(set(outcome.metrics), set(run.END_TO_END_UNITS))
        self.assertTrue(all(v > 0 for v in outcome.metrics.values()))

    def test_gate_reports_mismatch(self):
        paths = run.set_up(TINY, 0, self.workdir)
        results = run.run_pass(TINY.jobs, paths, 0)
        gate = run.Gate(TINY, paths, 0)
        gate.check(results)
        self.assertEqual(gate.mismatches, [])
        wrong = run.Gate(TINY, paths, 0, lambda code, report: {**signature(code, report), "exit": 9})
        wrong.check(results)
        self.assertEqual(len(wrong.mismatches), len(TINY.jobs))

    def test_budget_error_counts_as_failed(self):
        paths = run.set_up(TINY, 0, self.workdir)
        job = Job("m2_flip_Q", ("certify", "thm1"))
        tracer = Tracer()
        os.environ["ALGCERT_MAX_WORDS"] = "3"
        tracer.install()
        try:
            result = run.run_job(job, paths[job.instance], 0)
        finally:
            tracer.uninstall()
            del os.environ["ALGCERT_MAX_WORDS"]
        self.assertTrue(result.failed)
        self.assertIn("budget", result.error)
        self.assertGreater(tracer.metrics()["certificates.budget_used"], 1)

    def test_wrappers_cover_every_binding_site(self):
        original_ideal = algebra.ideal_span
        original_mul = algebra.AlgebraPresentation.mul
        original_add = linalg.RationalField.add
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(certificates.ideal_span, original_ideal)
            self.assertIs(certificates.ideal_span, algebra.ideal_span)
            self.assertIs(certificates.lie_closure, closure.lie_closure)
            self.assertIs(algcert.run_cli, sys.modules["algcert.cli"].run_cli)
            self.assertIs(algebra.AlgebraPresentation.mul.__wrapped__, original_mul)
            self.assertIs(linalg.RationalField.add.__wrapped__, original_add)
            self.assertEqual(tracer.unwrapped(tracer.originals), [])
        finally:
            tracer.uninstall()
        self.assertIs(certificates.ideal_span, original_ideal)
        self.assertIs(algebra.AlgebraPresentation.mul, original_mul)
        self.assertIs(linalg.RationalField.add, original_add)

    def test_enumerators_exist(self):
        modules = {"certificates": certificates, "closure": closure}
        for module, path in ENUMERATORS:
            self.assertIsNotNone(_resolve(modules, module, path), path)

    def test_traced_run_matches_untraced(self):
        outcome = run.measure_traced(TINY, 0, 0.1, self.workdir)
        metrics = outcome.metrics
        self.assertEqual(outcome.mismatches, [])
        self.assertEqual(outcome.failed, 0)
        self.assertEqual(set(metrics), set(PER_LAYER_UNITS) | set(run.TRACE_UNITS))
        for name in ("cli.self_s", "formats.load.calls", "instances.build_s",
                     "algebra.mul.calls", "algebra.ideal_span.calls",
                     "linalg.span_add.calls", "linalg.field_ops",
                     "closure.lie.calls", "certificates.self_s"):
            self.assertGreater(metrics[name], 0, name)
        self.assertGreater(outcome.info["details"]["certificates.self_s.thm1"], 0)
        # validate then certify: thm2 re-runs the ideal checks of its own gate
        self.assertGreater(metrics["algebra.ideal_span.repeat_ratio"], 0)

    def test_change_of_basis_keeps_signatures(self):
        P = build_matrix_algebra(2, linalg.QQ, "flip")
        dense = change_of_basis(P, random.Random(5), det_band=(5, 64))
        self.assertTrue(any(c.denominator > 1 for c in dense.generators["E12"].coords))
        for stem, presentation in (("plain", P), ("dense", dense)):
            dump_presentation(presentation, str(self.workdir / f"{stem}.json"))
        for command in (("validate",), ("certify", "thm1"), ("certify", "thm2")):
            sigs = [
                run.run_job(Job(stem, command), str(self.workdir / f"{stem}.json"), 0)
                .signature(signature)
                for stem in ("plain", "dense")
            ]
            self.assertEqual(sigs[0], sigs[1], command)

    def test_benchmark_json_matches_harness(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {w["name"]: w["why"] for w in doc["workloads"]},
            {name: WORKLOADS[name].why for name in run.BENCH_WORKLOADS},
        )
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual(
            {m["name"]: m["unit"] for m in doc["per_layer"]},
            {**PER_LAYER_UNITS, **run.TRACE_UNITS},
        )

    def test_fails_without_sources(self):
        bare = self.workdir / "bare"
        shutil.copytree(Path(run.__file__).parent, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        child = subprocess.run(
            [sys.executable, str(bare / "bench" / "run.py"), "--workload", "matrix_sparse",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
        )
        self.assertNotEqual(child.returncode, 0)
        self.assertEqual(child.stdout, "")


if __name__ == "__main__":
    unittest.main()
