"""Verdict benchmark for algcert.

Runs one workload's fixed job list through ``algcert.cli.run_cli``, in this
process, for a given number of seconds, and prints its metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

    python3 bench/run.py --workload matrix_sparse --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0

``--trace 0`` reports the end-to-end metrics: ``verdict_s`` and ``cpu_s``
(median over passes of the job list), ``setup_s`` (median over repeated
set-ups), ``completion_ratio`` and ``peak_rss_mib``; the three times are
rescaled to a fixed CPU speed by ``probe.py``. ``--trace 1``
alternates untraced passes with traced set-ups and passes and reports the
per-layer metrics of ``tracer.py``, after checking that traced reports equal
untraced ones apart from ``wall_time_s``. ``--workload all`` runs every
workload in its own fresh process, one after the other.

Exit code 0 when every job's exit code, verdict and ranks match the
expected values, 1 on a mismatch, 2 on a usage or installation error. A job
that exits 1 or raises is counted as failed, not as a mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "algcert-bench"
SETUP_REPS = 15
SETUP_MIN_S = 1.5
BENCH_WORKLOADS = ("matrix_sparse", "ideal_gate", "dense_basis")

END_TO_END_UNITS = {
    "verdict_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "completion_ratio": "ratio",
    "peak_rss_mib": "MiB",
}
TRACE_UNITS = {"trace.verdict_s": "s", "trace.overhead_s": "s"}


def _cpu_seconds():
    children = os.times()
    return time.process_time() + children.children_user + children.children_system


def _commit():
    """The checked-out commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "algcert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment():
    """Pin the run environment and describe it."""
    # Unset, so the default word budget applies; record what it was.
    budget = os.environ.pop("ALGCERT_MAX_WORDS", None)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "ALGCERT_MAX_WORDS_removed": budget,
    }


@dataclass
class JobResult:
    job: object
    code: int | None  # None when run_cli raised
    wall: float
    cpu: float
    stdout: str
    error: str

    @property
    def failed(self):
        return self.code is None or self.code == 1

    def signature(self, signature):
        report = json.loads(self.stdout) if self.stdout else None
        return signature(self.code, report)

    def canonical(self):
        """The report without its wall_time_s field."""
        if not self.stdout:
            return None
        report = json.loads(self.stdout)
        report.pop("wall_time_s")
        return json.dumps(report, sort_keys=True, separators=(",", ":"))


def run_job(job, path, seed):
    # Looked up on each call, so that a traced run reaches the wrapper.
    from algcert import cli

    out, err = io.StringIO(), io.StringIO()
    error = ""
    start, cpu0 = time.perf_counter(), _cpu_seconds()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run_cli(job.argv(path, seed))
    except Exception as exc:  # a crashing job is counted as failed, not fatal
        code = None
        error = f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - start, _cpu_seconds() - cpu0
    return JobResult(job, code, wall, cpu, out.getvalue(), error or err.getvalue().strip())


def run_pass(jobs, paths, seed, tracer=None):
    results = []
    for job in jobs:
        if tracer is not None:
            tracer.begin_job(job.claim)
        results.append(run_job(job, paths[job.instance], seed))
    return results


def set_up(wl, seed, workdir):
    """Build each instance from the seed, write it, read it back."""
    from algcert.formats import dump_presentation, load_presentation

    paths = {}
    for stem, build in wl.instances.items():
        path = str(workdir / f"{stem}.json")
        dump_presentation(build(seed), path)
        load_presentation(path)
        paths[stem] = path
    return paths


class Gate:
    """Compares each job's signature with the expected one.

    The reference jobs of a workload run once here, untimed; their
    signatures are checked against the table and then stand for the
    expected signatures of the jobs they are the reference of.
    """

    def __init__(self, wl, paths, seed, signature=None):
        from workloads import EXPECTED
        from workloads import signature as default_signature

        self.wl = wl
        self.signature = signature or default_signature
        self.mismatches = []
        self.reference_sigs = {}
        for job in wl.reference_jobs():
            r = run_job(job, paths[job.instance], seed)
            self.reference_sigs[job.name] = got = r.signature(self.signature)
            if got != EXPECTED[job.name]:
                self.mismatches.append(f"{job.name}: got {got}, expected {EXPECTED[job.name]}")

    def check(self, results):
        for r in results:
            if r.failed:
                continue
            got = r.signature(self.signature)
            want = self.wl.expected(r.job, self.reference_sigs)
            if got != want:
                self.mismatches.append(f"{r.job.name}: got {got}, expected {want}")


@dataclass
class Outcome:
    mismatches: list
    passes: list  # lists of JobResult
    metrics: dict
    units: dict
    info: dict

    @property
    def attempted(self):
        return sum(len(p) for p in self.passes)

    @property
    def failed(self):
        return sum(r.failed for p in self.passes for r in p)


def measure(wl, seed, seconds, workdir):
    """End-to-end run: repeated set-ups, then passes for ``seconds``.

    Times are rescaled by the speed probe to seconds at its reference speed.
    """
    from probe import SpeedProbe

    raw = {"pass_wall_s": [], "pass_cpu_s": [], "setup_s": []}
    with SpeedProbe() as probe:
        block = time.perf_counter()
        while len(raw["setup_s"]) < SETUP_REPS or time.perf_counter() - block < SETUP_MIN_S:
            start = time.perf_counter()
            paths = set_up(wl, seed, workdir)
            raw["setup_s"].append(time.perf_counter() - start)
        # Most set-ups see no tick, so they share the speed of the whole block.
        setup_s = statistics.median(raw["setup_s"]) * probe.speed(block, time.perf_counter())
        gate = Gate(wl, paths, seed)

        passes, walls, cpus = [], [], []
        begin = time.perf_counter()
        while not passes or time.perf_counter() - begin < seconds:
            start, cpu0 = time.perf_counter(), _cpu_seconds()
            results = run_pass(wl.jobs, paths, seed)
            end, cpu = time.perf_counter(), _cpu_seconds() - cpu0
            walls.append(probe.rescale(end - start, start, end))
            cpus.append(probe.rescale(cpu, start, end))
            raw["pass_wall_s"].append(end - start)
            raw["pass_cpu_s"].append(cpu)
            gate.check(results)
            passes.append(results)

    info = {"passes": len(passes), "setups": len(raw["setup_s"]), "probe_samples": len(probe.samples),
            "raw_median": {k: statistics.median(v) for k, v in raw.items()}}
    outcome = Outcome(gate.mismatches, passes, {}, END_TO_END_UNITS, info)
    outcome.metrics = {
        "verdict_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": setup_s,
        "completion_ratio": 1 - outcome.failed / outcome.attempted,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return outcome


def measure_traced(wl, seed, seconds, workdir):
    """Traced run: (untraced pass, traced set-up and pass) pairs for ``seconds``."""
    from tracer import DETAIL_UNITS, PER_LAYER_UNITS, Tracer

    paths = set_up(wl, seed, workdir)
    gate = Gate(wl, paths, seed)
    tracer = Tracer()

    samples, untraced_walls, traced_walls, passes = [], [], [], []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        plain = run_pass(wl.jobs, paths, seed)
        tracer.reset()
        tracer.install()
        try:
            set_up(wl, seed, workdir)
            traced = run_pass(wl.jobs, paths, seed, tracer)
        finally:
            tracer.uninstall()
        for a, b in zip(plain, traced):
            if a.canonical() != b.canonical() or a.code != b.code:
                gate.mismatches.append(f"{a.job.name}: traced report differs from untraced")
        gate.check(plain + traced)
        samples.append(tracer.metrics())
        untraced_walls.append(sum(r.wall for r in plain))
        traced_walls.append(sum(r.wall for r in traced))
        passes.extend((plain, traced))

    # Everything but the times is a count or a ratio of counts, the same in
    # every traced pass.
    units = {**PER_LAYER_UNITS, **DETAIL_UNITS}
    untimed = [{k: v for k, v in s.items() if units[k] != "s"} for s in samples]
    if any(u != untimed[0] for u in untimed):
        gate.mismatches.append("per-layer counts differ between traced passes")
    values = {
        name: statistics.median([s[name] for s in samples]) if unit == "s" else samples[0][name]
        for name, unit in units.items()
    }
    metrics = {name: values[name] for name in PER_LAYER_UNITS}
    metrics["trace.verdict_s"] = statistics.median(traced_walls)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    info = {"traced_passes": len(samples),
            "details": {name: values[name] for name in DETAIL_UNITS}}
    return Outcome(gate.mismatches, passes, metrics, {**PER_LAYER_UNITS, **TRACE_UNITS}, info)


def run_workload(name, seed, seconds, trace):
    from workloads import WORKLOADS

    env = environment()
    wl = WORKLOADS[name]
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-s{seed}-", dir=WORK))
    try:
        outcome = (measure_traced if trace else measure)(wl, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {name} seed {seed} trace {trace} env {json.dumps(env, sort_keys=True)}")
    print(f"run {json.dumps(outcome.info, sort_keys=True)}")
    for r in outcome.passes[0]:
        note = f" {r.error}" if r.failed else ""
        print(f"job {r.job.name} exit {r.code} wall {r.wall:.3f} s{note}")
    for message in outcome.mismatches:
        print(f"MISMATCH {message}")
    units = outcome.units
    for key, value in outcome.metrics.items():
        print(f"{key} {value:.6g} {units[key]}")
    result = {
        "correct": not outcome.mismatches,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in outcome.metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if not outcome.mismatches else 1


def run_all(seed, seconds, trace):
    """Each benchmark workload in its own fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in BENCH_WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or child.returncode
        if child.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined, sort_keys=True))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=BENCH_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "algcert" / "__init__.py").is_file():
        print(f"error: algcert sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
