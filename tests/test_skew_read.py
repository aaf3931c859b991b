"""[K, K] is the bracket span of K's canonical rows (``_bracket_span``):
on a table whose products have one term each it is read off the integer
table, with no product, and a dense table holds K's rows as factors.
Against the span of ``commutator`` over all pairs of a basis of K on matrix
algebras with the flip and the transpose and on example 2 (whose involution
has sign -1 and fixed points), over Q and F_101, and on a dense change of
basis of M3 flip and a copy of it that fails the axiom gate."""

import pytest

import algcert as ac
from algcert import algebra
from algcert import certificates as cc
from helpers import count_muls, dense_change_of_basis, gate_failing

FIELDS = ("Q", "Fp:101")

ONE_TERM = [
    *((f"M{n}-{inv}", n, inv) for n in range(2, 6) for inv in ("flip", "transpose")),
    *((f"example2-D{D}", D, None) for D in (2, 3, 6)),
]


def _build(n, inv, field):
    F = ac.field_from_name(field)
    if inv is None:
        return ac.build_example2(n, F)
    return ac.build_matrix_algebra(n, F, inv)


def _all_pairs(P):
    """The span of [u, v] over all pairs of a basis of K, one commutator
    each."""
    basis = P.elements(cc._skew_part(P))
    return P.span_of([P.commutator(u, v) for i, u in enumerate(basis) for v in basis[i + 1:]])


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name,n,inv", ONE_TERM)
def test_the_table_read_equals_the_all_pairs_span(name, n, inv, field, monkeypatch):
    P = _build(n, inv, field)
    assert P._table_bounds[0] <= 1
    expected = _all_pairs(P)
    muls = count_muls(monkeypatch)
    assert cc.skew_commutator_span(P) == expected
    assert muls[0] == 0


@pytest.mark.parametrize("D", [2, 3, 6])
def test_example2_has_fixed_points_of_both_signs(D):
    # The involution fixes some b_i (they lie in H) and negates others
    # (they lie in K), so K's rows on example 2 have one term and two.
    P = ac.build_example2(D)
    S, star = P._int_star
    fixed = {s for i, ((j, s),) in enumerate(star) if i == j}
    assert fixed == {S, -S}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("kind", ["dense", "gate-failing"])
def test_a_dense_involution_or_a_failed_gate_brackets_a_basis_of_k(kind, field, monkeypatch):
    P = ac.build_matrix_algebra(3, ac.field_from_name(field), "flip")
    if kind == "dense":
        P = dense_change_of_basis(P, 1)
        assert not algebra.axiom_violations(P)
        assert any(len(row) > 1 for row in P._int_star[1])
    else:
        P = gate_failing(P)
    expected = _all_pairs(P)
    muls = count_muls(monkeypatch)
    assert cc.skew_commutator_span(P) == expected
    # Dense K rows on a dense table are held as factors and multiplied; the
    # copy that fails the gate keeps a one-term table, read with no product.
    assert muls[0] > 0 if kind == "dense" else muls[0] == 0


def test_without_an_involution_there_is_no_skew_part():
    with pytest.raises(ac.errors.MissingInvolutionError):
        cc.skew_commutator_span(ac.build_matrix_algebra(3))
