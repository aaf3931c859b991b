"""Benchmark workloads: instance builders, job lists and expected results.

A workload is a fixed list of CLI jobs over instance files that the set-up
step generates from the seed. Each job is one ``algcert`` command line run
in process through ``algcert.cli.run_cli``. A job's signature (exit code,
verdict and ranks of its report) must equal the expected one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from algcert import instances as builders
from algcert.algebra import AlgebraPresentation
from algcert.linalg import QQ, PrimeField

FP = "Fp:10007"


def _field(name):
    return QQ if name == "Q" else PrimeField(int(name.split(":")[1]))


# The builders are looked up on each call, so that a traced run reaches the
# wrappers.


def matrix(n, involution, field):
    return lambda seed: builders.build_matrix_algebra(n, _field(field), involution)


def example1(D, field):
    return lambda seed: builders.build_example1(D, _field(field))


def example2(D, field):
    return lambda seed: builders.build_example2(D, _field(field))


# -- dense change of basis ---------------------------------------------------


# For the 9 x 9 change of basis of M3, |det T| is held in this band so that
# the size of the Fractions, and with it the cost of the dense workload, is
# about the same for every seed.
DET_BAND = (2**12, 2**14)


def _random_invertible(rng, n, band, lo=-2, hi=2):
    """A random integer matrix with entries in [lo, hi] and |det| in
    [band[0], band[1]), and its inverse over Q."""
    while True:
        T = [[Fraction(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]
        det, inv = _det_inverse(T)
        if band[0] <= abs(det) < band[1]:
            return T, inv


def _det_inverse(T):
    """Determinant and Gauss-Jordan inverse over Q (None when singular)."""
    n = len(T)
    rows = [list(T[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            c = rows[r][col]
            if r != col and c:
                rows[r] = [x - c * y for x, y in zip(rows[r], rows[col])]
    return det, [row[n:] for row in rows]


def _to_new(v, Tinv):
    """Coordinates in the new basis of a vector given in the old basis."""
    n = len(Tinv)
    return [sum((v[k] * Tinv[k][i] for k in range(n) if v[k]), Fraction(0)) for i in range(n)]


def change_of_basis(P, rng, det_band=DET_BAND):
    """P rewritten in the basis b'_i = sum_j T_ij b_j for a random invertible T.

    Built with the public constructor from P's structure constants and
    involution; named vectors and the unit are re-expressed in the new basis.
    """
    n = P.dim
    T, Tinv = _random_invertible(rng, n, det_band)
    old_mul = {
        (i, j): [(k, c) for k, c in enumerate(P.mul_basis(i, j).coords) if c]
        for i in range(n)
        for j in range(n)
    }
    mul = []
    for i in range(n):
        for j in range(n):
            acc = [Fraction(0)] * n
            for a in range(n):
                if not T[i][a]:
                    continue
                for b in range(n):
                    if not T[j][b]:
                        continue
                    for k, c in old_mul[(a, b)]:
                        acc[k] += T[i][a] * T[j][b] * c
            for k, c in enumerate(_to_new(acc, Tinv)):
                if c:
                    mul.append((i, j, k, c))
    involution = []
    for i in range(n):
        old = [Fraction(0)] * n
        for a in range(n):
            if T[i][a]:
                star = P.involve(P.basis_element(a)).coords
                old = [x + T[i][a] * y for x, y in zip(old, star)]
        involution.extend((i, j, c) for j, c in enumerate(_to_new(old, Tinv)) if c)

    def named(vectors):
        return {k: _to_new(list(v.coords), Tinv) for k, v in vectors.items()}

    return AlgebraPresentation(
        name=P.name + "_dense",
        field=P.field,
        basis_labels=[f"v{i}" for i in range(n)],
        mul=mul,
        involution=involution,
        idempotents=named(P.idempotents),
        generators=named(P.generators),
        unital=P.unital,
        unit=_to_new(list(P.unit.coords), Tinv) if P.unital else None,
    )


def dense_matrix(n, involution):
    def build(seed):
        plain = builders.build_matrix_algebra(n, QQ, involution)
        return change_of_basis(plain, random.Random(seed))
    return build


# -- jobs and the gate --------------------------------------------------------

# Report fields the gate compares, besides exit code and verdict.
RANK_KEYS = ("derived_rank", "derived_K_rank", "pair_dims", "commutator_span_rank")


@dataclass(frozen=True)
class Job:
    instance: str
    command: tuple  # "validate" or ("certify", claim)

    @property
    def claim(self):
        return self.command[1] if self.command[0] == "certify" else self.command[0]

    @property
    def name(self):
        return f"{self.claim}:{self.instance}"

    def argv(self, path, seed):
        if self.command[0] == "certify":
            return ["certify", path, "--claim", self.command[1], "--seed", str(seed)]
        return [self.command[0], path]


def validate(instance):
    return Job(instance, ("validate",))


def certify(instance, claim):
    return Job(instance, ("certify", claim))


def signature(code, report):
    """The parts of a report the gate compares: exit code, verdict, ranks."""
    sig = {"exit": code}
    if report is None:
        return sig
    result = report["result"]
    if "validate" in result:
        sig["ok"] = result["validate"]["ok"]
        sig["hypotheses"] = result["validate"]["hypotheses"]
    for cert in result.get("certificates", ()):
        sig["verdict"] = cert["verdict"]
        sig["target_rank"] = cert["target_rank"]
        sig["final_rank"] = cert["trace"]["final_rank"] if cert["trace"] else None
        detail = cert["detail"]
        for key in RANK_KEYS + ("failed_hypotheses",):
            if key in detail:
                sig[key] = detail[key]
    return sig


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    instances: dict  # file stem -> builder(seed) -> AlgebraPresentation
    jobs: tuple
    # dense stem -> stem whose jobs, run once in the same process, give the
    # expected signatures
    reference: dict = dataclass_field(default_factory=dict)

    def reference_jobs(self):
        return tuple(Job(self.reference[j.instance], j.command)
                     for j in self.jobs if j.instance in self.reference)

    def expected(self, job, reference_sigs):
        """Expected signature of a job, from the reference run or the table."""
        if job.instance in self.reference:
            return reference_sigs[Job(self.reference[job.instance], job.command).name]
        return EXPECTED[job.name]


MATRIX_SPARSE = Workload(
    name="matrix_sparse",
    why="matrix-unit structure constants give sparse operands; theorem 1 word "
        "enumeration and mul dominate",
    instances={
        "m5_flip_Q": matrix(5, "flip", "Q"),
        "m5_transpose_Q": matrix(5, "transpose", "Q"),
        "m6_flip_Fp": matrix(6, "flip", FP),
    },
    jobs=(
        validate("m5_flip_Q"),
        certify("m5_flip_Q", "thm1"),
        certify("m5_flip_Q", "thm2"),
        certify("m5_transpose_Q", "thm1"),
        certify("m6_flip_Fp", "thm1"),
        certify("m6_flip_Fp", "thm2"),
    ),
)

IDEAL_GATE = Workload(
    name="ideal_gate",
    why="example2 hypotheses are decided by two-sided ideal saturation; "
        "ideal_span dominates and word enumeration is negligible",
    instances={
        "example2_D6_Q": example2(6, "Q"),
        "example2_D6_Fp": example2(6, FP),
        "example1_D6_Q": example1(6, "Q"),
    },
    jobs=(
        validate("example2_D6_Q"),
        certify("example2_D6_Q", "thm2"),
        certify("example2_D6_Q", "lemma1"),
        certify("example2_D6_Fp", "thm2"),
        certify("example1_D6_Q", "stagnation"),
    ),
)

DENSE_BASIS = Workload(
    name="dense_basis",
    why="a seeded dense change of basis of M3 flip makes every structure "
        "constant a large Fraction; scalar arithmetic dominates",
    instances={
        "m3_flip_Q": matrix(3, "flip", "Q"),
        "m3_flip_Q_dense": dense_matrix(3, "flip"),
    },
    jobs=(
        validate("m3_flip_Q_dense"),
        certify("m3_flip_Q_dense", "thm2"),
        certify("m3_flip_Q_dense", "thm1"),
    ),
    reference={"m3_flip_Q_dense": "m3_flip_Q"},
)

TINY = Workload(
    name="tiny",
    why="self-test of the harness on desk-size instances",
    instances={
        "m2_flip_Q": matrix(2, "flip", "Q"),
        "example1_D2_Q": example1(2, "Q"),
    },
    jobs=(
        validate("m2_flip_Q"),
        certify("m2_flip_Q", "thm1"),
        certify("m2_flip_Q", "thm2"),
        validate("example1_D2_Q"),
        certify("example1_D2_Q", "stagnation"),
    ),
)

WORKLOADS = {w.name: w for w in (MATRIX_SPARSE, IDEAL_GATE, DENSE_BASIS, TINY)}

# Signatures at seed 0; none of them depends on the seed.
EXPECTED = {'validate:m5_flip_Q': {'exit': 0,
                        'ok': True,
                        'hypotheses': {'e': {'R(1-e)R=R': True,
                                             'R(1-e-e*)R=R': True,
                                             'ReR=R': True,
                                             'e*e=0': True,
                                             'e^2=e': True,
                                             'ee*=0': True,
                                             's!=0': True}}},
 'thm1:m5_flip_Q': {'exit': 0,
                    'verdict': 'pass',
                    'target_rank': 24,
                    'final_rank': 24,
                    'derived_rank': 24,
                    'pair_dims': [4, 4],
                    'commutator_span_rank': 24},
 'thm2:m5_flip_Q': {'exit': 0,
                    'verdict': 'pass',
                    'target_rank': 10,
                    'final_rank': 10,
                    'derived_K_rank': 10},
 'thm1:m5_transpose_Q': {'exit': 0,
                         'verdict': 'pass',
                         'target_rank': 24,
                         'final_rank': 24,
                         'derived_rank': 24,
                         'pair_dims': [4, 4],
                         'commutator_span_rank': 24},
 'thm1:m6_flip_Fp': {'exit': 0,
                     'verdict': 'pass',
                     'target_rank': 35,
                     'final_rank': 35,
                     'derived_rank': 35,
                     'pair_dims': [5, 5],
                     'commutator_span_rank': 35},
 'thm2:m6_flip_Fp': {'exit': 0,
                     'verdict': 'pass',
                     'target_rank': 15,
                     'final_rank': 15,
                     'derived_K_rank': 15},
 'validate:example2_D6_Q': {'exit': 0,
                            'ok': True,
                            'hypotheses': {'e': {'R(1-e)R=R': True,
                                                 'R(1-e-e*)R=R': False,
                                                 'ReR=R': True,
                                                 'e*e=0': True,
                                                 'e^2=e': True,
                                                 'ee*=0': True,
                                                 's!=0': False}}},
 'thm2:example2_D6_Q': {'exit': 3,
                        'verdict': 'hypothesis-not-met',
                        'target_rank': None,
                        'final_rank': None,
                        'failed_hypotheses': ['R(1-e-e*)R=R']},
 'lemma1:example2_D6_Q': {'exit': 0,
                          'verdict': 'pass',
                          'target_rank': 36,
                          'final_rank': 36,
                          'derived_rank': 36,
                          'commutator_span_rank': 36},
 'thm2:example2_D6_Fp': {'exit': 3,
                         'verdict': 'hypothesis-not-met',
                         'target_rank': None,
                         'final_rank': None,
                         'failed_hypotheses': ['R(1-e-e*)R=R']},
 'stagnation:example1_D6_Q': {'exit': 0,
                              'verdict': 'pass',
                              'target_rank': 6,
                              'final_rank': None},
 'validate:m3_flip_Q': {'exit': 0,
                        'ok': True,
                        'hypotheses': {'e': {'R(1-e)R=R': True,
                                             'R(1-e-e*)R=R': True,
                                             'ReR=R': True,
                                             'e*e=0': True,
                                             'e^2=e': True,
                                             'ee*=0': True,
                                             's!=0': True}}},
 'thm2:m3_flip_Q': {'exit': 0,
                    'verdict': 'pass',
                    'target_rank': 3,
                    'final_rank': 3,
                    'derived_K_rank': 3},
 'thm1:m3_flip_Q': {'exit': 0,
                    'verdict': 'pass',
                    'target_rank': 8,
                    'final_rank': 8,
                    'derived_rank': 8,
                    'pair_dims': [2, 2],
                    'commutator_span_rank': 8},
 'validate:m2_flip_Q': {'exit': 0,
                        'ok': True,
                        'hypotheses': {'e': {'R(1-e)R=R': True,
                                             'R(1-e-e*)R=R': False,
                                             'ReR=R': True,
                                             'e*e=0': True,
                                             'e^2=e': True,
                                             'ee*=0': True,
                                             's!=0': False}}},
 'thm1:m2_flip_Q': {'exit': 0,
                    'verdict': 'pass',
                    'target_rank': 3,
                    'final_rank': 3,
                    'derived_rank': 3,
                    'pair_dims': [1, 1],
                    'commutator_span_rank': 3},
 'thm2:m2_flip_Q': {'exit': 3,
                    'verdict': 'hypothesis-not-met',
                    'target_rank': None,
                    'final_rank': None,
                    'failed_hypotheses': ['R(1-e-e*)R=R']},
 'validate:example1_D2_Q': {'exit': 0,
                            'ok': True,
                            'hypotheses': {'e': {'R(1-e)R=R': False,
                                                 'ReR=R': False,
                                                 'e^2=e': True}}},
 'stagnation:example1_D2_Q': {'exit': 2,
                              'verdict': 'fail',
                              'target_rank': 2,
                              'final_rank': None}}
