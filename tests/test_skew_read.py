"""[K, K] read off the table: behind the axiom gate, when every row of the
involution has one term, ``skew_commutator_span`` brackets the vectors
S b_i - s_i b_sigma(i), one per orbit of the involution's permutation, on the
integer table, with no product. Against the all-pairs span of a basis of K
(``_bracket_span``) on matrix algebras with the flip and the transpose and
on example 2 (whose involution has sign -1 and fixed points), over Q and
F_101; a dense involution and a file that fails the gate take that span."""

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
    return cc._bracket_span(P, P.elements(cc._skew_part(P)))


def _spy(monkeypatch):
    """Count the calls of ``_bracket_span`` and ``_table_bracket_span``."""
    calls = {"_bracket_span": 0, "_table_bracket_span": 0}
    for name in calls:
        wrapped = getattr(cc, name)

        def counting(*args, _name=name, _wrapped=wrapped):
            calls[_name] += 1
            return _wrapped(*args)

        monkeypatch.setattr(cc, name, counting)
    return calls


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name,n,inv", ONE_TERM)
def test_the_table_read_equals_the_all_pairs_span(name, n, inv, field, monkeypatch):
    P = _build(n, inv, field)
    assert not algebra.axiom_violations(P)
    S, star = P._int_star
    assert all(len(row) == 1 for row in star)
    expected = _all_pairs(P)
    calls = _spy(monkeypatch)
    muls = count_muls(monkeypatch)
    assert cc.skew_commutator_span(P) == expected
    assert calls == {"_bracket_span": 0, "_table_bracket_span": 1}
    assert muls[0] == 0


@pytest.mark.parametrize("D", [2, 3, 6])
def test_example2_has_fixed_points_of_both_signs(D):
    # The cases the read handles beyond a signed permutation of pairs: a
    # fixed b_i* = b_i gives no vector of K, a fixed b_i* = -b_i gives b_i.
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
    calls = _spy(monkeypatch)
    assert cc.skew_commutator_span(P) == expected
    assert calls == {"_bracket_span": 1, "_table_bracket_span": 0}


def test_without_an_involution_there_is_no_skew_part():
    with pytest.raises(ac.errors.MissingInvolutionError):
        cc.skew_commutator_span(ac.build_matrix_algebra(3))
