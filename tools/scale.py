"""Scale runs: in-process wall times of ``algcert certify`` on instances
larger than the bench's.

Each case builds its instance file once, then runs one ``certify`` job
through ``algcert.cli.run_cli`` k times in this process and reports the
median wall time, every run's time, the exit code and the SHA-256 of the
report with ``wall_time_s`` dropped and the file path replaced by a
placeholder. Every run must give the same exit code and digest, so two
checkouts can be compared case by case.

Usage: python3 tools/scale.py [--runs K] [-o OUT.json] [CASE ...]

With no CASE, every case in CASES runs. Imports ``algcert`` from the
``src`` directory next to this script, and the dense change of basis that
the ``-dense`` cases apply (``dense_change_of_basis``, seed 5) from
``tests/helpers.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import statistics
import sys
import tempfile
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "tests")]

from algcert import instances  # noqa: E402
from algcert.cli import run_cli  # noqa: E402
from algcert.formats import dump_presentation  # noqa: E402
from algcert.linalg import field_from_name  # noqa: E402
from helpers import dense_change_of_basis  # noqa: E402

_WALL_TIME = re.compile(r'"wall_time_s":[^,}]*')


def _flip(n, field):
    return lambda: instances.build_matrix_algebra(n, field_from_name(field), "flip")


def _dense_flip(n, field):
    return lambda: dense_change_of_basis(_flip(n, field)(), 5)


def _example1(D, field):
    return lambda: instances.build_example1(D, field_from_name(field))


def _example2(D, field):
    return lambda: instances.build_example2(D, field_from_name(field))


INSTANCES = {
    "M16-flip-Q": _flip(16, "Q"),
    "M24-flip-Q": _flip(24, "Q"),
    "M32-flip-Q": _flip(32, "Q"),
    "M48-flip-Q": _flip(48, "Q"),
    "M16-flip-Fp10007": _flip(16, "Fp:10007"),
    "M4-flip-Q-dense": _dense_flip(4, "Q"),
    "M5-flip-Q-dense": _dense_flip(5, "Q"),
    "M6-flip-Q-dense": _dense_flip(6, "Q"),
    "example1-D24-Q": _example1(24, "Q"),
    "example2-D12-Q": _example2(12, "Q"),
    "example2-D24-Q": _example2(24, "Q"),
}
# case name -> (instance, claim); example1 has no involution, so no thm2.
CASES = {
    f"{name}/{claim}": (name, claim)
    for name in INSTANCES
    for claim in (("thm1",) if name.startswith("example1") else ("thm1", "thm2"))
}
# The stagnation probe on [R, R] (example 1) and [K, K] (example 2) at a size
# that no bench job reaches: both targets are bracket-abelian. On dense M4
# flip [K, K] is not abelian, and its closedness test brackets K's dense
# rows as held factors.
CASES.update({f"{name}/stagnation": (name, "stagnation")
              for name in ("example1-D24-Q", "example2-D24-Q", "M4-flip-Q-dense")})


def run_case(path, claim, runs):
    """(times, exit code, digest) of runs certify jobs on the file at path."""
    times, outcomes = [], set()
    for _ in range(runs):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(["certify", str(path), "--claim", claim])
        times.append(time.perf_counter() - start)
        report = _WALL_TIME.sub("", out.getvalue()).replace(str(path), "<file>")
        blob = json.dumps([report, err.getvalue(), code]).encode()
        outcomes.add((code, hashlib.sha256(blob).hexdigest()))
    if len(outcomes) != 1:
        raise SystemExit(f"{path.name} {claim}: runs disagree: {sorted(outcomes)}")
    (code, digest), = outcomes
    return times, code, digest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cases", nargs="*", metavar="CASE", help=f"from {list(CASES)}")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("-o", "--output", default=None)
    args = parser.parse_args(argv)
    unknown = [c for c in args.cases if c not in CASES]
    if unknown:
        parser.error(f"unknown cases {unknown}")
    results = {}
    with tempfile.TemporaryDirectory() as directory:
        files = {}
        for case in args.cases or CASES:
            name, claim = CASES[case]
            if name not in files:
                files[name] = Path(directory) / f"{name}.json"
                dump_presentation(INSTANCES[name](), str(files[name]))
            times, code, digest = run_case(files[name], claim, args.runs)
            results[case] = {
                "median_s": round(statistics.median(times), 3),
                "runs_s": [round(t, 3) for t in times],
                "exit": code,
                "report_sha256": digest,
            }
            print(f"{case}: {results[case]['median_s']} s (exit {code})", file=sys.stderr)
    text = json.dumps(results, indent=1)
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
