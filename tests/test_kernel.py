"""The integer kernel: ``mul``, ``involve``, the element sums and the
associativity and involution-law checks against the scalar loops they
replaced, on random elements."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import algcert as ac
from algcert.algebra import AlgebraPresentation, Element, axiom_violations
from algcert.linalg import PrimeField
from helpers import dense_change_of_basis, m2, m3

FP = PrimeField(101)

KERNEL = settings(derandomize=True, max_examples=40, deadline=None)

PRESENTATIONS = {
    "m3-flip-Q": m3("flip"),
    "m3-flip-Fp101": ac.build_matrix_algebra(3, FP, "flip"),
    "example2-D2-Q": ac.build_example2(2),
    "example2-D2-Fp101": ac.build_example2(2, FP),
    "m3-flip-dense-Q": dense_change_of_basis(m3("flip"), 1),
    "m3-flip-dense-Fp101": dense_change_of_basis(
        ac.build_matrix_algebra(3, FP, "flip"), 1
    ),
}


def _scalars(F):
    """Sparse-ish scalars: Fractions with non-trivial denominators over Q,
    residues over F_p."""
    if isinstance(F, PrimeField):
        nonzero = st.integers(1, F.p - 1)
    else:
        nonzero = st.fractions(min_value=-30, max_value=30, max_denominator=12)
    return st.one_of(st.just(0), nonzero)


def _elements(P):
    return st.lists(_scalars(P.field), min_size=P.dim, max_size=P.dim).map(P.element)


def _fraction_mul(P, a, b):
    """The scalar loop ``mul`` ran before the integer kernel."""
    F = P.field
    acc = [F.zero] * P.dim
    for i, ca in enumerate(a.coords):
        if not ca:
            continue
        for j, cb in enumerate(b.coords):
            if not cb:
                continue
            cab = F.mul(ca, cb)
            for k, c in P._mul.get((i, j), ()):
                acc[k] = F.add(acc[k], F.mul(cab, c))
    return tuple(acc)


def _fraction_involve(P, a):
    F = P.field
    acc = [F.zero] * P.dim
    for i, ci in enumerate(a.coords):
        if ci:
            for j, sij in P._star[i]:
                acc[j] = F.add(acc[j], F.mul(ci, sij))
    return tuple(acc)


def _fraction_associativity(P):
    """(i, j, k) with (b_i b_j) b_k != b_i (b_j b_k), by the scalar
    convolution the associativity check ran before the integer kernel."""
    F = P.field
    left, right = {}, {}
    for (i, j), entries in P._mul.items():
        for m, c1 in entries:
            for k in range(P.dim):
                for l, c2 in P._mul.get((m, k), ()):
                    key = (i, j, k, l)
                    left[key] = F.add(left.get(key, F.zero), F.mul(c1, c2))
            for h in range(P.dim):
                for l, c2 in P._mul.get((h, m), ()):
                    key = (h, i, j, l)
                    right[key] = F.add(right.get(key, F.zero), F.mul(c1, c2))
    return {
        key[:3]
        for key in set(left) | set(right)
        if left.get(key, F.zero) != right.get(key, F.zero)
    }


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
@KERNEL
@given(data=st.data())
def test_mul_and_involve_equal_the_scalar_loop(name, data):
    P = PRESENTATIONS[name]
    a = data.draw(_elements(P))
    b = data.draw(_elements(P))
    assert P.mul(a, b).coords == _fraction_mul(P, a, b)
    assert P.mul(b, a).coords == _fraction_mul(P, b, a)
    assert P.involve(a).coords == _fraction_involve(P, a)
    # A product carries its support; it equals the one built from coords.
    for el in (P.mul(a, b), P.involve(a)):
        assert el.support == Element(el.coords).support


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
@KERNEL
@given(data=st.data())
def test_support_rebuilds_coords(name, data):
    P = PRESENTATIONS[name]
    a = data.draw(_elements(P))
    d, pairs = a.support
    assert d == lcm(*(c.denominator for c in a.coords))
    coords = [P.field.zero] * P.dim
    for i, n in pairs:
        assert n
        coords[i] = P.field.coerce(Fraction(n, d))
    assert tuple(coords) == a.coords


def _perturbed(P, i, j, k, delta):
    """P with the structure constant c_ijk shifted by delta."""
    F = P.field
    table = {
        (a, b, c): x for (a, b), entries in P._mul.items() for c, x in entries
    }
    table[(i, j, k)] = F.add(table.get((i, j, k), F.zero), F.coerce(delta))
    return AlgebraPresentation(
        P.name + "_perturbed",
        F,
        P.basis_labels,
        [(*key, c) for key, c in sorted(table.items())],
    )


DENSE_M2 = {
    "Q": dense_change_of_basis(m2("flip"), 2),
    "Fp101": dense_change_of_basis(ac.build_matrix_algebra(2, FP, "flip"), 2),
}


@pytest.mark.parametrize("field", sorted(DENSE_M2))
@settings(derandomize=True, max_examples=15, deadline=None)
@given(
    i=st.integers(0, 3),
    j=st.integers(0, 3),
    k=st.integers(0, 3),
    delta=st.sampled_from([Fraction(1, 3), Fraction(-7, 2), 1, 100]),
)
def test_associativity_check_equals_the_scalar_convolution(field, i, j, k, delta):
    P = DENSE_M2[field]
    if isinstance(P.field, PrimeField):
        delta = delta.numerator if isinstance(delta, Fraction) else delta
    Q = _perturbed(P, i, j, k, delta)
    expected = _fraction_associativity(Q)
    assert expected
    found = {v.indices for v in axiom_violations(Q) if v.axiom == "associativity"}
    assert found == expected


def test_associativity_check_on_dense_m3():
    for name in ("m3-flip-dense-Q", "m3-flip-dense-Fp101"):
        P = PRESENTATIONS[name]
        assert not axiom_violations(P)
        Q = _perturbed(P, 4, 7, 2, 5)
        expected = _fraction_associativity(Q)
        assert expected
        assert {v.indices for v in axiom_violations(Q)} == expected


# -- element sums -------------------------------------------------------------


def _fraction_sum(P, a, b, sign):
    """The per-coordinate loop ``add`` (sign 1) and ``sub`` (sign -1) ran
    before they worked on supports."""
    F = P.field
    op = F.add if sign == 1 else F.sub
    return tuple(op(x, y) for x, y in zip(a.coords, b.coords))


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
@KERNEL
@given(data=st.data())
def test_element_sums_equal_the_scalar_loop(name, data):
    P = PRESENTATIONS[name]
    F = P.field
    a = data.draw(_elements(P))
    b = data.draw(_elements(P))
    c = data.draw(_scalars(F))
    results = {
        "add": (P.add(a, b), _fraction_sum(P, a, b, 1)),
        "sub": (P.sub(a, b), _fraction_sum(P, a, b, -1)),
        "sub-self": (P.sub(a, a), (F.zero,) * P.dim),
        "neg": (P.neg(a), tuple(F.neg(x) for x in a.coords)),
        "scale": (P.scale(c, a), tuple(F.mul(F.coerce(c), x) for x in a.coords)),
        "commutator": (
            P.commutator(a, b),
            tuple(F.sub(x, y) for x, y in zip(_fraction_mul(P, a, b), _fraction_mul(P, b, a))),
        ),
    }
    for op, (got, expected) in results.items():
        assert got.coords == expected, op
        # The result carries its support; it equals the one built from coords.
        assert got.support == Element(got.coords).support, op


# -- involution law -----------------------------------------------------------


def _pairwise_involution_law(P):
    """(i, j) with (b_i b_j)* != b_j* b_i*, by the per-pair loop the axiom
    gate ran before it compared integer dicts (``mul`` and ``involve`` are
    checked against the scalar loops above)."""
    bad = []
    for i in range(P.dim):
        for j in range(P.dim):
            lhs = P.involve(P.mul_basis(i, j))
            rhs = P.mul(P.involve(P.basis_element(j)), P.involve(P.basis_element(i)))
            if lhs.coords != rhs.coords:
                bad.append((i, j))
    return bad


def _rebuilt(P, mul_shift=None, star_shift=None):
    """P with c_ijk shifted by delta for mul_shift = (i, j, k, delta) or the
    involution entry s_ij shifted for star_shift = (i, j, delta)."""
    F = P.field
    mul = {(a, b, c): x for (a, b), entries in P._mul.items() for c, x in entries}
    star = {(a, b): x for a, row in enumerate(P._star) for b, x in row}
    for table, shift in ((mul, mul_shift), (star, star_shift)):
        if shift is not None:
            *key, delta = shift
            key = tuple(key)
            table[key] = F.add(table.get(key, F.zero), F.coerce(delta))
    return AlgebraPresentation(
        P.name + "_perturbed",
        F,
        P.basis_labels,
        [(*key, c) for key, c in sorted(mul.items())],
        involution=[(*key, c) for key, c in sorted(star.items())],
    )


DENSE_FLIP = {
    "m2-Q": DENSE_M2["Q"],
    "m2-Fp101": DENSE_M2["Fp101"],
    "m3-Q": PRESENTATIONS["m3-flip-dense-Q"],
    "m3-Fp101": PRESENTATIONS["m3-flip-dense-Fp101"],
}


@pytest.mark.parametrize("name", sorted(DENSE_FLIP))
@settings(derandomize=True, max_examples=12, deadline=None)
@given(data=st.data())
def test_involution_law_check_equals_the_pairwise_loop(name, data):
    P = DENSE_FLIP[name]
    n = P.dim
    index = st.integers(0, n - 1)
    delta = data.draw(st.sampled_from([1, -3, 7]) if isinstance(P.field, PrimeField)
                      else st.sampled_from([Fraction(1, 3), Fraction(-7, 2), 1]))
    if data.draw(st.booleans()):
        Q = _rebuilt(P, star_shift=(data.draw(index), data.draw(index), delta))
    else:
        Q = _rebuilt(P, mul_shift=(data.draw(index), data.draw(index), data.draw(index), delta))
    found = [v.indices for v in axiom_violations(Q) if v.axiom == "involution-antiautomorphism"]
    assert found == _pairwise_involution_law(Q)


def test_involution_law_check_on_dense_flip():
    for P in DENSE_FLIP.values():
        assert _pairwise_involution_law(P) == []
        assert not axiom_violations(P)
        Q = _rebuilt(P, star_shift=(1, 2, 1))
        expected = _pairwise_involution_law(Q)
        assert expected
        assert [
            v.indices for v in axiom_violations(Q) if v.axiom == "involution-antiautomorphism"
        ] == expected
