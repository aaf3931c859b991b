"""The integer rows of ``linalg`` against the Fraction elimination they
replaced: spans, membership, remainders, sums, intersections and the
combination solver, on random dense and sparse vectors over Q (mixed
denominators) and over F_101."""

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import algcert as ac
from algcert import linalg
from algcert.algebra import Element
from algcert.linalg import (
    QQ,
    CombinationSolver,
    PrimeField,
    SpanBuilder,
    echelonize,
)
from helpers import dense_change_of_basis, intersect, linear_combination, subspace_sum

FIELDS = {"Q": QQ, "Fp101": PrimeField(101)}

ROWS = settings(derandomize=True, max_examples=60, deadline=None)


def _first_nonzero(v):
    return next((i for i, x in enumerate(v) if x), None)


def _integer_row(row):
    """The nonzero entries (k, n) of a row of scalars times the lcm of
    their denominators."""
    m = lcm(*(Fraction(x).denominator for x in row))
    return tuple((k, int(x * m)) for k, x in enumerate(row) if x)


class FractionSpan:
    """The SpanBuilder the integer rows replaced: rows of field scalars in
    reduced echelon form with pivot entries 1."""

    def __init__(self, F, n):
        self.F = F
        self.n = n
        self.rows = []
        self.pivots = []

    def reduce(self, vec):
        F = self.F
        w = list(vec)
        for p, row in zip(self.pivots, self.rows):
            c = w[p]
            if c:
                w = [F.sub(a, F.mul(c, b)) for a, b in zip(w, row)]
        return tuple(w)

    def add(self, vec):
        if len(self.rows) == self.n:
            return False
        F = self.F
        w = self.reduce(vec)
        j = _first_nonzero(w)
        if j is None:
            return False
        inv = F.inv(w[j])
        w = [F.mul(inv, a) for a in w]
        for k, row in enumerate(self.rows):
            c = row[j]
            if c:
                self.rows[k] = [F.sub(a, F.mul(c, b)) for a, b in zip(row, w)]
        at = bisect_left(self.pivots, j)
        self.pivots.insert(at, j)
        self.rows.insert(at, w)
        return True

    def basis(self):
        return tuple(tuple(r) for r in self.rows)


def fraction_intersect(F, n, a_rows, b_rows):
    """The Zassenhaus intersection on FractionSpan."""
    big = FractionSpan(F, 2 * n)
    for u in a_rows:
        big.add(tuple(u) + tuple(u))
    for w in b_rows:
        big.add(tuple(w) + (F.zero,) * n)
    out = FractionSpan(F, n)
    for row in big.rows:
        if _first_nonzero(row[:n]) is None:
            out.add(row[n:])
    return out.basis()


class FractionSolver:
    """The CombinationSolver the integer rows replaced: every input is
    reduced along with its combination dict."""

    def __init__(self, F, n):
        self.F = F
        self.count = 0
        self.rows = []
        self.combos = []
        self.pivots = []

    def _reduce(self, vec, combo):
        F = self.F
        v = list(vec)
        c = dict(combo)
        for p, row, cb in zip(self.pivots, self.rows, self.combos):
            f = v[p]
            if f:
                v = [F.sub(a, F.mul(f, b)) for a, b in zip(v, row)]
                for i, b in cb.items():
                    c[i] = F.sub(c.get(i, F.zero), F.mul(f, b))
        return v, c

    def add(self, vec):
        F = self.F
        idx = self.count
        self.count += 1
        v, c = self._reduce(vec, {idx: F.one})
        j = _first_nonzero(v)
        if j is None:
            return False
        inv = F.inv(v[j])
        v = [F.mul(inv, a) for a in v]
        c = {i: F.mul(inv, a) for i, a in c.items()}
        for k, (row, cb) in enumerate(zip(self.rows, self.combos)):
            f = row[j]
            if f:
                self.rows[k] = [F.sub(a, F.mul(f, b)) for a, b in zip(row, v)]
                new_cb = dict(cb)
                for i, b in c.items():
                    new_cb[i] = F.sub(new_cb.get(i, F.zero), F.mul(f, b))
                self.combos[k] = new_cb
        at = bisect_left(self.pivots, j)
        self.pivots.insert(at, j)
        self.rows.insert(at, v)
        self.combos.insert(at, c)
        return True

    def solve(self, target):
        F = self.F
        v, c = self._reduce(target, {})
        if _first_nonzero(v) is not None:
            return None
        return {i: F.neg(a) for i, a in c.items() if a}


# -- strategies -----------------------------------------------------------------


def _scalars(F, sparse):
    if isinstance(F, PrimeField):
        nonzero = st.integers(1, F.p - 1)
    else:
        nonzero = st.fractions(min_value=-40, max_value=40, max_denominator=12)
    if sparse:
        return st.one_of(st.just(F.zero), st.just(F.zero), st.just(F.zero), nonzero)
    return st.one_of(st.just(F.zero), nonzero)


def _vectors(F, n, sparse):
    return st.lists(_scalars(F, sparse), min_size=n, max_size=n).map(tuple)


def _combination(F, vectors, coeffs):
    out = [F.zero] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        out = [F.add(x, F.mul(F.coerce(c), y)) for x, y in zip(out, v)]
    return tuple(out)


def _stream(data, F, n, count, dependent_share):
    """count vectors of length n: fresh random ones (dense or sparse) and,
    with probability dependent_share, combinations of the ones before."""
    sparse = data.draw(st.booleans(), label="sparse")
    out = []
    for _ in range(count):
        if out and data.draw(st.floats(0, 1)) < dependent_share:
            k = data.draw(st.integers(1, min(3, len(out))))
            picks = data.draw(st.lists(st.sampled_from(out), min_size=k, max_size=k))
            coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
            out.append(_combination(F, picks, coeffs))
        else:
            out.append(data.draw(_vectors(F, n, sparse)))
    return out


# -- spans ------------------------------------------------------------------------


@pytest.mark.parametrize("field", sorted(FIELDS))
@ROWS
@given(data=st.data())
def test_span_builder_equals_fraction_span(field, data):
    F = FIELDS[field]
    n = data.draw(st.integers(1, 7), label="n")
    vectors = _stream(data, F, n, data.draw(st.integers(0, 10)), 0.4)
    old = FractionSpan(F, n)
    new = SpanBuilder(F, n)
    by_element = SpanBuilder(F, n)
    for v in vectors:
        grew = old.add(v)
        assert new.add(v) == grew
        assert by_element.add(Element(v)) == grew
        assert new.rank == len(old.rows)
    sub = new.subspace()
    assert sub.basis == old.basis()
    assert sub.pivots == tuple(old.pivots)
    assert by_element.subspace() == sub
    # The stored rows are primitive with positive pivot entries (pivot 1
    # over F_p): the canonical basis, each row times the lcm of its
    # denominators, as its nonzero entries in column order.
    assert sub.rows == tuple(_integer_row(r) for r in sub.basis)
    assert echelonize(F, vectors, n) == sub
    assert echelonize(F, [Element(v) for v in vectors], n) == sub
    # Remainders and membership, for the snapshot and for the builder, of
    # random vectors and of combinations of the inputs.
    probes = [data.draw(_vectors(F, n, False)) for _ in range(3)]
    if vectors:
        probes.append(_combination(F, vectors, range(1, len(vectors) + 1)))
    for t in probes:
        expected = old.reduce(t)
        assert sub.reduce(t) == expected
        assert sub.reduce(Element(t)) == expected
        assert tuple(new.reduce(t)) == expected
        inside = _first_nonzero(expected) is None
        assert sub.contains(t) == inside
        assert new.contains(Element(t)) == inside


@pytest.mark.parametrize("field", sorted(FIELDS))
@ROWS
@given(data=st.data())
def test_sum_and_intersection_equal_fraction_elimination(field, data):
    F = FIELDS[field]
    n = data.draw(st.integers(1, 6), label="n")
    shared = _stream(data, F, n, data.draw(st.integers(0, 2)), 0.0)
    a_vecs = shared + _stream(data, F, n, data.draw(st.integers(0, 3)), 0.3)
    b_vecs = shared + _stream(data, F, n, data.draw(st.integers(0, 3)), 0.3)
    a, b = echelonize(F, a_vecs, n), echelonize(F, b_vecs, n)
    meet = intersect(a, b)
    assert meet.basis == fraction_intersect(F, n, a.basis, b.basis)
    old_sum = FractionSpan(F, n)
    for v in a.basis + b.basis:
        old_sum.add(v)
    assert subspace_sum(a, b).basis == old_sum.basis()
    assert a.contains_subspace(meet) and b.contains_subspace(meet)
    builder = a.builder()
    for v in b_vecs:
        builder.add(v)
    assert builder.subspace() == subspace_sum(a, b)


@pytest.mark.parametrize("field", sorted(FIELDS))
@ROWS
@given(data=st.data())
def test_contains_reads_the_integer_remainder(field, data):
    # Membership is taken from the integer remainder, not from reduce's
    # Fraction tuple; the two must agree, in and out of the span.
    F = FIELDS[field]
    n = data.draw(st.integers(1, 7), label="n")
    vectors = _stream(data, F, n, data.draw(st.integers(0, 6)), 0.3)
    builder = SpanBuilder(F, n)
    for v in vectors:
        builder.add(v)
    sub = builder.subspace()
    probes = [data.draw(_vectors(F, n, data.draw(st.booleans()))) for _ in range(3)]
    if vectors:
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(vectors), max_size=len(vectors)))
        probes.append(_combination(F, vectors, coeffs))
    for t in probes:
        for span in (sub, builder):
            for probe in (t, Element(t)):
                assert span.contains(probe) == (not any(span.reduce(probe)))
    if vectors:
        assert sub.contains(probes[-1]) and builder.contains(Element(probes[-1]))


def test_mixed_denominators_and_signs():
    # A negative leading entry and denominators 2, 3, 5 and 7; the third
    # vector is the sum of the first two.
    F = QQ
    vectors = [
        (Fraction(-1, 2), Fraction(2, 3), 0, Fraction(5, 7)),
        (0, Fraction(-3, 5), Fraction(1, 7), 1),
        (Fraction(-1, 2), Fraction(1, 15), Fraction(1, 7), Fraction(12, 7)),
    ]
    old = FractionSpan(F, 4)
    for v in vectors:
        old.add(v)
    sub = echelonize(F, vectors, 4)
    assert sub.basis == old.basis()
    assert sub.rank == 2
    assert all(row[p] == 1 for row, p in zip(sub.basis, sub.pivots))


def test_prime_field_rows_reduce_their_input():
    # Ints outside [0, p-1] are read as their residues.
    F = FIELDS["Fp101"]
    assert echelonize(F, [(-1, 202, 3)], 3) == echelonize(F, [(100, 0, 3)], 3)
    sub = echelonize(F, [(101, 1), (303, 7)], 2)
    assert sub.basis == ((0, 1),)
    assert sub.contains((-101, 5)) and not sub.contains((1, 0))


# -- solver -------------------------------------------------------------------------


@pytest.mark.parametrize("field", sorted(FIELDS))
@ROWS
@given(data=st.data())
def test_combination_solver_equals_fraction_solver(field, data):
    F = FIELDS[field]
    n = data.draw(st.integers(1, 6), label="n")
    # Mostly dependent inputs: combinations of the ones before.
    stream = _stream(data, F, n, data.draw(st.integers(1, 14)), 0.75)
    old = FractionSolver(F, n)
    new = CombinationSolver(F, n)
    targets = [data.draw(_vectors(F, n, False))]
    for k, v in enumerate(stream):
        assert new.add(v) == old.add(v)
        assert new.count == old.count == k + 1
        assert new.rank == len(old.rows)
        assert _combinations(new) == _nonzero_combos(old)
        _assert_lowest_terms(new)
        targets.append(_combination(F, stream[: k + 1], range(k + 1, 0, -1)))
        for t in (targets[0], targets[-1]):
            assert new.solve(t) == old.solve(t)
    # Element inputs and targets, which hand over their integer supports,
    # give the same answers.
    by_element = CombinationSolver(F, n)
    for v in stream:
        by_element.add(Element(v))
    for t in targets:
        assert by_element.solve(Element(t)) == old.solve(t)


def _combinations(solver):
    return [solver.combination(k) for k in range(solver.rank)]


def _nonzero_combos(reference):
    """The reference solver's combinations without the zero coefficients
    it keeps where an update cancelled."""
    return [{i: c for i, c in cb.items() if c} for cb in reference.combos]


def _assert_lowest_terms(solver):
    """Every stored combination (D, N) is in lowest terms with no zero
    entry: D > 0 and gcd(D, *N) = 1 over Q, D = 1 and residues in
    [1, p-1] over F_p. This keeps its integers no larger than the
    Fractions of the same coefficients over their common denominator."""
    p = getattr(solver.field, "p", 0)
    for D, N in solver._combos.values():
        assert N
        if p:
            assert D == 1 and all(1 <= n < p for n in N.values())
        else:
            assert D > 0 and 0 not in N.values() and gcd(D, *N.values()) == 1


# The nonzero products b_i * b_j of a dense change of basis of M3 flip, in
# (i, j) order: nine-dimensional inputs whose coordinates over Q carry large
# mixed denominators.
DENSE_FIELDS = ("Q", "Fp:101", "Fp:1000000007")


@pytest.fixture(scope="module", params=DENSE_FIELDS)
def dense_products(request):
    F = ac.field_from_name(request.param)
    P = dense_change_of_basis(ac.build_matrix_algebra(3, F, "flip"), 1)
    products = [P.mul_basis(i, j) for i in range(P.dim) for j in range(P.dim)]
    return P, [x for x in products if not P.is_zero(x)]


def test_combination_solver_on_dense_products(dense_products):
    P, products = dense_products
    F, n = P.field, P.dim
    old = FractionSolver(F, n)
    new = CombinationSolver(F, n)
    basis = [P.basis_element(i) for i in range(n)]
    outside = 0
    for k, x in enumerate(products):
        v = x.coords
        # The next input, before it is added: inside or outside the span.
        assert new.solve(x) == new.solve(v) == old.solve(v)
        assert new.add(x) == old.add(v)
        assert new.count == old.count == k + 1
        assert new.rank == len(old.rows)
        assert _combinations(new) == _nonzero_combos(old)
        _assert_lowest_terms(new)
        # A combination of every input so far lies in the span.
        inside = _combination(F, [y.coords for y in products[: k + 1]], range(k + 1, 0, -1))
        assert old.solve(inside) is not None
        assert new.solve(inside) == new.solve(Element(inside)) == old.solve(inside)
        for b in basis:
            expected = old.solve(b.coords)
            outside += expected is None
            assert new.solve(b) == new.solve(b.coords) == expected
    assert new.rank == n and outside > 0
    # linear_combination on prefixes of the same inputs.
    for k in (1, 3, 6, len(products)):
        vectors = [x.coords for x in products[:k]]
        ref = FractionSolver(F, n)
        for v in vectors:
            ref.add(v)
        for target in [vectors[-1], _combination(F, vectors, range(1, k + 1))] + [
            b.coords for b in basis
        ]:
            sol = ref.solve(target)
            expected = None if sol is None else [sol.get(i, F.zero) for i in range(k)]
            assert linear_combination(F, vectors, target) == expected


def test_combination_solver_eliminates_each_input_once(dense_products, monkeypatch):
    P, products = dense_products
    calls = []
    eliminate = linalg._eliminate

    def counted(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    solver = CombinationSolver(P.field, P.dim)
    for x in [P.zero()] + products:
        before, full = len(calls), solver.rank == P.dim
        solver.add(x)
        expected = 0 if full or P.is_zero(x) else 1
        assert len(calls) - before == expected
    assert solver.rank == P.dim
