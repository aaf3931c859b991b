"""The integer product kernel: ``mul``, ``involve`` and the associativity
check against the scalar loops they replaced, on random elements."""

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
