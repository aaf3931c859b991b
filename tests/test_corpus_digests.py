"""Every canonical report of a fixed corpus, pinned by digest.

The corpus is ``validate``, ``decompose`` and the twelve claims (with
``--seed 3 --trials 8``) on M2-M5 with no involution, the transpose and the
flip, and on example1 and example2 at D = 2, 3 and 6, over Q and over
F_101, plus two dense changes of basis of M3 flip over Q (seeds 1 and 2):
532 jobs, run in process through ``run_cli``. A job's digest is the SHA-256
of its stdout with ``wall_time_s`` dropped and the instance path replaced by
a placeholder, of its stderr and of its exit code. Reruns are byte-identical
apart from ``wall_time_s``, so the digests must equal the committed ones in
``corpus_digests.json`` under any hash seed.

A change that alters reports on purpose rewrites the file with
``PYTHONPATH=src:tests python tests/test_corpus_digests.py`` and lists
the changed jobs.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from algcert import instances
from algcert.certificates import CLAIMS
from algcert.cli import run_cli
from algcert.formats import dump_presentation
from algcert.linalg import QQ, PrimeField
from helpers import dense_change_of_basis

DIGESTS = Path(__file__).with_name("corpus_digests.json")
FIELDS = {"Q": QQ, "Fp101": PrimeField(101)}
_WALL_TIME = re.compile(r'"wall_time_s":[^,}]*')


def _instances():
    """name -> builder of each corpus instance."""
    out = {}
    for fname, F in FIELDS.items():
        for n in (2, 3, 4, 5):
            for inv in ("none", "transpose", "flip"):
                out[f"m{n}-{inv}-{fname}"] = lambda n=n, F=F, inv=inv: (
                    instances.build_matrix_algebra(n, F, inv)
                )
        for D in (2, 3, 6):
            out[f"example1-D{D}-{fname}"] = lambda D=D, F=F: instances.build_example1(D, F)
            out[f"example2-D{D}-{fname}"] = lambda D=D, F=F: instances.build_example2(D, F)
    for seed in (1, 2):
        out[f"m3-flip-dense{seed}-Q"] = lambda seed=seed: dense_change_of_basis(
            instances.build_matrix_algebra(3, QQ, "flip"), seed
        )
    return out


INSTANCES = _instances()
JOBS = {
    "validate": ["validate"],
    "decompose": ["decompose"],
    **{
        f"certify-{claim}": ["certify", "--claim", claim, "--seed", "3", "--trials", "8"]
        for claim in sorted(CLAIMS)
    },
}


def _digest(path, command):
    """The digest of one job on the instance file at path."""
    argv = [command[0], str(path), *command[1:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    stdout = _WALL_TIME.sub("", out.getvalue()).replace(str(path), "<file>")
    stderr = err.getvalue().replace(str(path), "<file>")
    blob = json.dumps([stdout, stderr, code]).encode()
    return hashlib.sha256(blob).hexdigest()


def instance_digests(name, directory):
    """{job id: digest} for every job on the named instance, its file
    written into directory."""
    path = Path(directory) / f"{name}.json"
    dump_presentation(INSTANCES[name](), str(path))
    return {f"{name}/{job}": _digest(path, command) for job, command in JOBS.items()}


@pytest.fixture(scope="module")
def committed():
    return json.loads(DIGESTS.read_text())


def test_corpus_has_532_jobs(committed):
    assert len(INSTANCES) * len(JOBS) == len(committed) == 532


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_reports_equal_committed_digests(name, committed, tmp_path):
    got = instance_digests(name, tmp_path)
    expected = {job: committed.get(job) for job in got}
    changed = sorted(job for job in got if got[job] != expected[job])
    assert not changed, f"reports changed: {changed}"


def main():
    digests = {}
    with tempfile.TemporaryDirectory() as directory:
        for name in sorted(INSTANCES):
            digests.update(instance_digests(name, directory))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)


if __name__ == "__main__":
    main()
