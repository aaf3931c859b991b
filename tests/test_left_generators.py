"""The axiom gate on a left generating set.

``axiom_violations`` checks associativity and the involution law on the
rows of ``_left_generators(P)`` first, and reruns a check on every row only
when it finds a violation there. Its violations must equal those of the
checks on every row (``_associativity_triples(P)`` and
``_involution_law_pairs(P)``, which ``test_gate_reference.py`` compares
with the loops they replaced) on seeded perturbations of M2 and M3 with
the flip and transpose involutions and of example1 and example2 at
D = 2, 3, over Q, F_3 and F_101: a table or involution entry changed,
dropped or appended. The generating set itself is pinned on matrix units,
example2 and a dense change of basis, and checked against a brute-force
closure of right-nested basis products.
"""

import random
from fractions import Fraction

import pytest

import algcert as ac
from algcert import algebra, formats
from algcert.algebra import axiom_violations
from algcert.linalg import QQ, PrimeField
from helpers import dense_change_of_basis

FIELDS = {"Q": QQ, "Fp3": PrimeField(3), "Fp101": PrimeField(101)}
REDUCED = ("associativity", "involution-antiautomorphism")
PERTURBATIONS = 8


def _bases():
    out = {}
    for field, F in FIELDS.items():
        for n in (2, 3):
            for involution in ("flip", "transpose"):
                out[f"m{n}-{involution}-{field}"] = ac.build_matrix_algebra(n, F, involution)
        for D in (2, 3):
            out[f"example1-D{D}-{field}"] = ac.build_example1(D, F)
            out[f"example2-D{D}-{field}"] = ac.build_example2(D, F)
    return out


BASES = _bases()


def _every_row(P):
    """The associativity and involution-law violations of the checks on
    every row, as (axiom, indices) pairs in the gate's order."""
    out = [("associativity", t) for t in algebra._associativity_triples(P)]
    if P.has_involution:
        out += [("involution-antiautomorphism", p) for p in algebra._involution_law_pairs(P)]
    return out


def _gate(P):
    return [(v.axiom, v.indices) for v in axiom_violations(P) if v.axiom in REDUCED]


def _nonzero(F, rng):
    if isinstance(F, PrimeField):
        return F.coerce(rng.randrange(1, F.p))
    return F.coerce(rng.choice([1, -1, 2, Fraction(1, 2), Fraction(-3, 7)]))


def _perturbed(P, seed):
    """P with one entry of its mul or involution table changed by a nonzero
    scalar, dropped, or appended at a free index tuple, chosen by seed."""
    rng = random.Random(seed)
    F = P.field
    d = formats.presentation_to_dict(P)
    table = rng.choice(["mul", "involution"] if P.has_involution else ["mul"])
    entries = d[table]
    how = rng.choice(["changed", "dropped", "appended"])
    if how == "changed":
        row = rng.choice(entries)
        row[-1] = F.format(F.add(F.parse(row[-1]), _nonzero(F, rng)))
    elif how == "dropped":
        entries.pop(rng.randrange(len(entries)))
    else:
        present = {tuple(row[:-1]) for row in entries}
        arity = len(entries[0]) - 1
        while True:
            free = tuple(rng.randrange(P.dim) for _ in range(arity))
            if free not in present:
                break
        entries.append([*free, F.format(_nonzero(F, rng))])
    return formats.presentation_from_dict(d)


@pytest.mark.parametrize("name", sorted(BASES))
def test_gate_equals_the_checks_on_every_row(name):
    P = BASES[name]
    assert _gate(P) == _every_row(P) == []
    broken = 0
    for seed in range(PERTURBATIONS):
        Q = _perturbed(P, seed)
        expected = _every_row(Q)
        assert _gate(Q) == expected, seed
        broken += bool(expected)
    # The seeds reach the reduced checks, not only the unit or order-2 law.
    assert broken


def test_a_violation_outside_the_generating_set_falls_back_to_every_row():
    # In M3 flip, G = {E11, E12, E13, E21, E31}, and b_4 = E22 lies outside
    # it. Doubling E22 E21 = E21 breaks associativity in rows of G too
    # (the generators reach E22 through E21 E12), but the full list holds
    # the triples of row 4 that only the rerun on every row finds.
    P = ac.build_matrix_algebra(3, QQ, "flip")
    assert algebra._left_generators(P) == [0, 1, 2, 3, 6]
    d = formats.presentation_to_dict(P)
    row = next(r for r in d["mul"] if r[:3] == [4, 3, 3])
    row[3] = "2"
    Q = formats.presentation_from_dict(d)
    gens = algebra._left_generators(Q)
    assert 4 not in gens
    on_gens = algebra._associativity_triples(Q, gens)
    full = algebra._associativity_triples(Q)
    assert on_gens and set(on_gens) < set(full)
    assert any(i == 4 for i, _, _ in full)
    assert [v.indices for v in axiom_violations(Q) if v.axiom == "associativity"] == full


def test_an_involution_violation_outside_the_generating_set_falls_back():
    # b_4* = 2 b_4 in M3 flip keeps the table associative. The law fails
    # on rows of G and on row 4, which only the rerun on every row reports.
    P = ac.build_matrix_algebra(3, QQ, "flip")
    d = formats.presentation_to_dict(P)
    row = next(r for r in d["involution"] if r[0] == 4)
    row[2] = "2"
    Q = formats.presentation_from_dict(d)
    gens = algebra._left_generators(Q)
    on_gens = algebra._involution_law_pairs(Q, gens)
    full = algebra._involution_law_pairs(Q)
    assert on_gens and set(on_gens) < set(full)
    assert any(i == 4 for i, _ in full)
    assert _gate(Q) == [("involution-antiautomorphism", p) for p in full]


def _reached_by_brute_force(P, gens):
    """The indices l with b_l a nonzero multiple of a right-nested product
    of basis elements b_g, g in gens: the fixed point of x -> b_g x on
    basis elements, from ``mul`` on every pair in every round."""
    reached = set(gens)
    while True:
        new = set()
        for g in gens:
            for x in reached:
                support = P.mul(P.basis_element(g), P.basis_element(x)).support[1]
                if len(support) == 1:
                    new.add(support[0][0])
        if new <= reached:
            return reached
        reached |= new


def _pinned():
    out = dict(BASES)
    out["m5-flip-Q"] = ac.build_matrix_algebra(5, QQ, "flip")
    out["example2-D6-Q"] = ac.build_example2(6, QQ)
    out["m3-flip-dense-Q"] = dense_change_of_basis(ac.build_matrix_algebra(3, QQ, "flip"), 5)
    out["m3-flip-dense-Fp101"] = dense_change_of_basis(
        ac.build_matrix_algebra(3, PrimeField(101), "flip"), 5
    )
    return out


PINNED = _pinned()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_left_generators_reach_every_index(name):
    P = PINNED[name]
    gens = algebra._left_generators(P)
    assert gens == sorted(set(gens))
    assert _reached_by_brute_force(P, gens) == set(range(P.dim))


def test_left_generators_of_matrix_units():
    # E_1b and E_a1 generate: E_a1 E_1b = E_ab.
    P = PINNED["m5-flip-Q"]
    assert algebra._left_generators(P) == [0, 1, 2, 3, 4, 5, 10, 15, 20]


def test_left_generators_of_example2():
    assert len(algebra._left_generators(PINNED["example2-D6-Q"])) == 5


@pytest.mark.parametrize("field", ["Q", "Fp101"])
def test_a_dense_table_keeps_every_row(field):
    # A dense change of basis has no single-term products.
    P = PINNED[f"m3-flip-dense-{field}"]
    assert P._table_bounds[0] > 1
    assert algebra._left_generators(P) == list(range(P.dim))
