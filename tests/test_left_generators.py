"""The axiom gate on a left generating set.

``axiom_violations`` checks associativity, the involution laws and the unit
law on the rows of ``_left_generators(P)`` first, and reruns a check on
every row only when it finds a violation there or the premises of its
reduction failed. Its violations must equal those of the checks on every
row (``_associativity_triples(P)``, ``_order2_failures(P)``,
``_involution_law_pairs(P)`` and ``_unit_failures(P)``, which
``test_gate_reference.py`` compares with the loops they replaced) on
seeded perturbations of M2 and M3 with the flip and transpose involutions,
of example1 and example2 at D = 2, 3 and of a dense change of basis of M3
flip, over Q, F_3 and F_101: a table or involution entry changed, dropped
or appended. A perturbed unit and an involution twisted by an inner
automorphism, which breaks only b** = b, are checked the same way on M3
flip and its dense change of basis. The generating set itself is pinned on
matrix units, example2 and dense changes of basis, and checked against a
brute-force span of right-nested products; a table whose products all
have one term finds it with no ``SpanBuilder``.
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
REDUCED = ("associativity", "involution-order2", "involution-antiautomorphism", "unit")
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
    for field in ("Q", "Fp101"):
        out[f"m3-flip-dense-{field}"] = dense_change_of_basis(out[f"m3-flip-{field}"], 5)
    return out


BASES = _bases()


def _every_row(P):
    """The associativity, involution and unit violations of the checks on
    every row, as (axiom, indices) pairs in the gate's order."""
    out = [("associativity", t) for t in algebra._associativity_triples(P)]
    if P.has_involution:
        out += [("involution-order2", (i,)) for i in algebra._order2_failures(P)]
        out += [("involution-antiautomorphism", p) for p in algebra._involution_law_pairs(P)]
    if P.unital:
        out += [("unit", (i,)) for i in algebra._unit_failures(P)]
    return out


def _gate(P):
    return [(v.axiom, v.indices) for v in axiom_violations(P) if v.axiom in REDUCED]


def _nonzero(F, rng):
    if isinstance(F, PrimeField):
        return F.coerce(rng.randrange(1, F.p))
    return F.coerce(rng.choice([1, -1, 2, Fraction(1, 2), Fraction(-3, 7)]))


def _perturbed(P, seed):
    """P with one entry of its mul or involution table changed by a nonzero
    scalar, dropped, or appended at a free index tuple, chosen by seed; a
    table with no free index tuple, as a dense one may be, is not
    appended to."""
    rng = random.Random(seed)
    F = P.field
    d = formats.presentation_to_dict(P)
    table = rng.choice(["mul", "involution"] if P.has_involution else ["mul"])
    entries = d[table]
    present = {tuple(row[:-1]) for row in entries}
    arity = len(entries[0]) - 1
    full = len(present) == P.dim**arity
    how = rng.choice(["changed", "dropped"] if full else ["changed", "dropped", "appended"])
    if how == "changed":
        row = rng.choice(entries)
        row[-1] = F.format(F.add(F.parse(row[-1]), _nonzero(F, rng)))
    elif how == "dropped":
        entries.pop(rng.randrange(len(entries)))
    else:
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
    law = [v for v in _gate(Q) if v[0] == "involution-antiautomorphism"]
    assert law == [("involution-antiautomorphism", p) for p in full]
    # b_4** = 4 b_4 breaks the order-2 law too, which the failed involution
    # law sends to every row.
    assert _gate(Q) == _every_row(Q)


def _spanned_by_brute_force(P, gens):
    """The span of the right-nested products of the basis elements b_g, g
    in gens: the least subspace that holds them and is closed under
    x -> b_g x, from ``mul`` on every g and every basis vector of the span
    in every round."""
    span = P.span_of(P.basis_element(g) for g in gens)
    while True:
        grown = P.span_of(
            P.elements(span)
            + [P.mul(P.basis_element(g), x) for g in gens for x in P.elements(span)]
        )
        if grown == span:
            return span
        span = grown


def _pinned():
    out = dict(BASES)
    out["m5-flip-Q"] = ac.build_matrix_algebra(5, QQ, "flip")
    out["example2-D6-Q"] = ac.build_example2(6, QQ)
    out["m4-flip-dense-Q"] = dense_change_of_basis(ac.build_matrix_algebra(4, QQ, "flip"), 5)
    return out


PINNED = _pinned()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_left_generators_reach_every_index(name):
    P = PINNED[name]
    gens = algebra._left_generators(P)
    assert gens == sorted(set(gens))
    assert _spanned_by_brute_force(P, gens).is_full
    # Each generator lies outside the span the earlier ones reach.
    for n, g in enumerate(gens[1:], 1):
        assert not _spanned_by_brute_force(P, gens[:n]).contains(P.basis_element(g))


def test_left_generators_of_matrix_units():
    # E_1b and E_a1 generate: E_a1 E_1b = E_ab.
    P = PINNED["m5-flip-Q"]
    assert algebra._left_generators(P) == [0, 1, 2, 3, 4, 5, 10, 15, 20]


def test_left_generators_of_example2():
    assert len(algebra._left_generators(PINNED["example2-D6-Q"])) == 5


@pytest.mark.parametrize("name", ["m3-flip-dense-Q", "m3-flip-dense-Fp101", "m4-flip-dense-Q"])
def test_a_dense_table_is_generated_by_two_rows(name):
    # A dense change of basis has no single-term products; the span of the
    # right-nested products of b_0 and b_1 is already R.
    P = PINNED[name]
    assert P._table_bounds[0] > 1
    assert algebra._left_generators(P) == [0, 1]


def _counting_span_builders(monkeypatch):
    built = []

    class Counted(algebra.SpanBuilder):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(algebra, "SpanBuilder", Counted)
    return built


@pytest.mark.parametrize("build", [
    lambda: ac.build_matrix_algebra(5, QQ, "flip"),
    lambda: ac.build_matrix_algebra(16, QQ, "flip"),
    lambda: ac.build_example2(6, QQ),
], ids=["m5-flip-Q", "m16-flip-Q", "example2-D6-Q"])
def test_single_term_tables_build_no_span(monkeypatch, build):
    # Products with one term each keep the walk on reached indices, which
    # costs O(|G| dim) dict reads.
    P = build()
    built = _counting_span_builders(monkeypatch)
    algebra._left_generators(P)
    assert built == []


def test_a_dense_table_builds_one_span(monkeypatch):
    built = _counting_span_builders(monkeypatch)
    algebra._left_generators(PINNED["m3-flip-dense-Q"])
    assert len(built) == 1


def _edited(P, edit):
    """P dumped, changed in place by edit(d, F) and loaded again."""
    d = formats.presentation_to_dict(P)
    edit(d, P.field)
    return formats.presentation_from_dict(d)


def _unit_scaled(d, F):
    # The coefficient of b_4 (E22 on matrix units) doubled, or set to 1
    # where it is 0, as it may be on a dense table.
    unit = d["unit"]
    unit[4] = F.format(F.add(F.parse(unit[4]), F.parse(unit[4]) or F.one))


def _twisted(P):
    """M3 flip with x* = flip(t x t^-1) for t = diag(2, 1, 1): still an
    anti-automorphism of the associative table, but x** = t' x t'^-1 for
    t' = diag(2, 1, 1/2), so b** = b fails on every off-diagonal E_ab."""
    t = (2, 1, 1)

    def edit(d, F):
        for row in d["involution"]:
            a, b = divmod(row[0], 3)
            row[2] = F.format(F.mul(F.parse(row[2]), F.mul(F.coerce(t[a]), F.inv(F.coerce(t[b])))))

    return _edited(P, edit)


def _cases():
    out = {}
    for field in ("Q", "Fp101"):
        P = BASES[f"m3-flip-{field}"]
        twisted = _twisted(P)
        out[f"m3-flip-{field}-unit"] = _edited(P, _unit_scaled)
        out[f"m3-flip-{field}-order2"] = twisted
        dense = BASES[f"m3-flip-dense-{field}"]
        out[f"m3-flip-dense-{field}-unit"] = _edited(dense, _unit_scaled)
        out[f"m3-flip-dense-{field}-order2"] = dense_change_of_basis(twisted, 5)
    return out


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_unit_and_order2_violations_equal_the_checks_on_every_row(name):
    P = CASES[name]
    law, check = {
        "unit": ("unit", algebra._unit_failures),
        "order2": ("involution-order2", algebra._order2_failures),
    }[name.rsplit("-", 1)[1]]
    expected = _every_row(P)
    assert _gate(P) == expected
    # Only the perturbed law fails, so the gate took the reduced path for it.
    assert {axiom for axiom, _ in expected} == {law}
    gens = algebra._left_generators(P)
    on_gens, full = check(P, gens), check(P)
    assert on_gens and set(on_gens) <= set(full)
    if "dense" not in name:
        # Matrix units keep G = {0, 1, 2, 3, 6}: the rerun finds b_4 = E22
        # (unit) or b_5 = E23 and b_7 = E32 (order 2) outside it.
        assert gens == [0, 1, 2, 3, 6]
        assert set(full) - set(on_gens) == ({4, 5, 7} if law == "unit" else {5, 7})
