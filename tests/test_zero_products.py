"""Products the structure constants make zero are skipped, not computed: the
reach of an element against the multiplication table, the ideal seeds that
pair a left factor only with the basis elements in its reach (saturated on
a file that fails the gate, and behind it already the ideal), the spans and
the combination solver that take a zero element without eliminating it, and
the zero paths of ``mul`` and of sums, each against the full computation it
replaces, over Q (mixed denominators) and over F_101."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import algcert as ac
from algcert import algebra
from algcert.algebra import Element, ideal_span
from algcert import certificates as cc
from algcert.certificates import commutator_span
from algcert.errors import DimensionError
from algcert.linalg import CombinationSolver, PrimeField, SpanBuilder
from helpers import count_muls, dense_change_of_basis, gate_failing, m3, m4, without_unit

FP = PrimeField(101)

PRESENTATIONS = {
    "m3-flip-Q": m3("flip"),
    "m3-flip-Fp101": ac.build_matrix_algebra(3, FP, "flip"),
    "m4-flip-Q": m4("flip"),
    "example2-D2-Q": ac.build_example2(2),
    "example1-D3-Fp101": ac.build_example1(3, FP),
    "m3-flip-dense-Q": dense_change_of_basis(m3("flip"), 1),
}

ZERO = settings(derandomize=True, max_examples=40, deadline=None)


def _table_reach(P, a):
    """The indices j with b_i * b_j != 0 for some i in the support of a,
    read from the scalar table through ``mul_basis``."""
    return {
        j
        for i, _ in a.support[1]
        for j in range(P.dim)
        if P.mul_basis(i, j).support[1]
    }


def _scalars(F):
    if isinstance(F, PrimeField):
        nonzero = st.integers(1, F.p - 1)
    else:
        nonzero = st.fractions(min_value=-30, max_value=30, max_denominator=12)
    # Mostly zeros, so that products and sums are often zero.
    return st.one_of(st.just(0), st.just(0), st.just(0), nonzero)


def _elements(P):
    coords = st.lists(_scalars(P.field), min_size=P.dim, max_size=P.dim).map(P.element)
    basis = st.integers(0, P.dim - 1).map(P.basis_element)
    return st.one_of(st.just(P.zero()), basis, coords)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
@ZERO
@given(data=st.data())
def test_reach_is_read_from_the_structure_table(name, data):
    P = PRESENTATIONS[name]
    a = data.draw(_elements(P))
    b = data.draw(_elements(P))
    reach = P._reach(a)
    assert reach == _table_reach(P, a)
    if reach.isdisjoint(i for i, _ in b.support[1]):
        assert P.is_zero(P.mul(a, b))


def _old_mul(P, a, b):
    """``mul`` before its zero path: every product through ``from_ints``."""
    D, rows = P._int_mul
    da, sa = a.support
    db, sb = b.support
    acc = [0] * P.dim
    for i, x in sa:
        for j, y in sb:
            for k, c in rows[i].get(j, ()):
                acc[k] += x * y * c
    return P._from_ints(dict(enumerate(acc)), da * db * D)


def _old_combine(P, a, b, sign):
    """a + sign * b through ``from_ints``, with no zero path."""
    da, sa = a.support
    db, sb = b.support
    d = da * db
    acc = [0] * P.dim
    for i, n in sa:
        acc[i] += n * db
    for i, n in sb:
        acc[i] += sign * n * da
    return P._from_ints(dict(enumerate(acc)), d)


def _same(got, expected):
    assert len(got) == len(expected)
    assert got.support == expected.support
    assert got.coords == expected.coords


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
@ZERO
@given(data=st.data())
def test_zero_paths_of_mul_and_sums_equal_from_ints(name, data):
    P = PRESENTATIONS[name]
    a = data.draw(_elements(P))
    b = data.draw(_elements(P))
    zero = P.zero()
    _same(zero, P._from_ints(dict.fromkeys(range(P.dim), 0), 7))
    for x, y in ((a, b), (b, a), (a, zero), (zero, b)):
        _same(P.mul(x, y), _old_mul(P, x, y))
        _same(P.add(x, y), _old_combine(P, x, y, 1))
        _same(P.sub(x, y), _old_combine(P, x, y, -1))
    _same(P.sub(a, a), zero)


def _ideal_inputs(P):
    """(x, unit_coeff) pairs: the hypotheses' own and some sums; on a table
    with no idempotent, zero and basis elements."""
    out = [(P.zero(), 0), (P.zero(), 1)]
    if not P.idempotents:
        return out + [(P.basis_element(0), 0), (P.basis_element(P.dim - 1), 1)]
    e = P.idempotents["e"]
    out += [(e, 0), (P.neg(e), 1)]
    out.append((P.add(e, P.basis_element(P.dim - 1)), 0))
    if P.has_involution:
        e_star = P.involve(e)
        out.extend([(e_star, 0), (P.neg(P.add(e, e_star)), 1)])
    return out


IDEAL_PRESENTATIONS = {
    "m3-flip-Q": m3("flip"),
    "m3-flip-Fp101": ac.build_matrix_algebra(3, FP, "flip"),
    "m4-flip-Q": m4("flip"),
    "example2-D2-Q": ac.build_example2(2),
    "example2-D3-Q": ac.build_example2(3),
    "example2-D3-Fp101": ac.build_example2(3, FP),
    "m3-flip-dense-Q": dense_change_of_basis(m3("flip"), 1),
    "m3-flip-dense-Q-no-unit": without_unit(dense_change_of_basis(m3("flip"), 1)),
}


def _products(P, x, c):
    """(full, paired): every product b_i (c + x) b_j, and those whose b_j
    lies in the reach of the left factor b_i x + c b_i, as Elements in
    index order; the others are checked to be zero."""
    full, paired = [], []
    for i in range(P.dim):
        b_i = P.basis_element(i)
        left = P.add(P.mul(b_i, x), P.scale(c, b_i))
        reach = _table_reach(P, left)
        for j in range(P.dim):
            product = P.mul(left, P.basis_element(j))
            full.append(product)
            if j in reach:
                paired.append(product)
            else:
                assert P.is_zero(product)
    return full, paired


def _recording(monkeypatch):
    """Wrap ``_ideal_closure`` so that each call's seeds are recorded."""
    closure = algebra._ideal_closure
    seen = []

    def recording(Q, seeds):
        seeds = list(seeds)
        seen.append(seeds)
        return closure(Q, seeds)

    monkeypatch.setattr(algebra, "_ideal_closure", recording)
    return closure, seen


@pytest.mark.parametrize("name", sorted(IDEAL_PRESENTATIONS))
def test_ideal_seeds_equal_the_full_loop(name, monkeypatch):
    # Behind the gate the span of the seeds b_i y b_j is the ideal R y R,
    # two-sided by associativity, so ideal_span runs no saturation: it never
    # calls _ideal_closure, and still equals the saturation of every
    # product b_i (c + x) b_j. On the one-term tables a one-term left
    # factor's seeds are read off its row as unit vectors.
    P = IDEAL_PRESENTATIONS[name]
    assert not algebra.axiom_violations(P)
    closure, seen = _recording(monkeypatch)
    for x, c in _ideal_inputs(P):
        full, _ = _products(P, x, c)
        assert ideal_span(P, x, unit_coeff=c) == closure(P, full)
    assert seen == []


@pytest.mark.parametrize("name", ["m3-flip-Q", "m3-flip-Fp101", "example2-D3-Q", "m3-flip-dense-Q"])
def test_a_gate_failing_table_saturates_its_seeds(name, monkeypatch):
    # A file that fails the gate need not be associative, so its seeds go
    # through the saturation: the products of each nonzero left factor with
    # the basis elements in its reach, in index order, and no others.
    P = gate_failing(IDEAL_PRESENTATIONS[name])
    closure, seen = _recording(monkeypatch)
    for x, c in _ideal_inputs(P):
        full, paired = _products(P, x, c)
        got = ideal_span(P, x, unit_coeff=c)
        if not c and not x.support[1]:
            # A zero ideal needs no saturation.
            assert got.rank == 0
            continue
        # The seeds are the products' int vectors.
        seeds = [P._element(s) for s in seen.pop()]
        assert seeds == paired
        assert [s for s in seeds if not P.is_zero(s)] == [
            s for s in full if not P.is_zero(s)
        ]
        assert got == closure(P, full)
    assert seen == []


@pytest.mark.parametrize("name", ["m3-flip-Q", "m3-flip-Fp101"])
def test_zero_inputs_leave_spans_and_solvers_unchanged(name):
    P = PRESENTATIONS[name]
    a, b = P.basis_element(1), P.add(P.basis_element(2), P.basis_element(5))
    zeros = [P.zero(), P.element([0] * P.dim), P.sub(a, a)]

    span = SpanBuilder(P.field, P.dim)
    assert span.add(a)
    before = span.subspace()
    for z in zeros:
        assert not span.add(z)
        assert span.subspace() == before

    solver = CombinationSolver(P.field, P.dim)
    reference = CombinationSolver(P.field, P.dim)
    for v in (zeros[0], a, zeros[1], b, zeros[2]):
        solver.add(v)
        reference.add(v.coords)  # a tuple of scalars takes the full path
    assert solver.count == reference.count == 5
    assert solver.rank == reference.rank == 2
    assert [solver.combination(k) for k in range(2)] == [
        reference.combination(k) for k in range(2)
    ]
    assert solver.solve(b) == reference.solve(b) == {3: P.field.one}
    assert solver.solve(zeros[0]) == {}

    short = Element._of(P.field, P.dim - 1, (1, ()))
    full = SpanBuilder(P.field, P.dim)
    for i in range(P.dim):
        full.add(P.basis_element(i))
    for target in (span, full, solver):
        with pytest.raises(DimensionError):
            target.add(short)


# -- brackets by reach ---------------------------------------------------------


BRACKET_PRESENTATIONS = {
    "m3-flip-Q": m3("flip"),
    "m4-flip-Fp101": ac.build_matrix_algebra(4, FP, "flip"),
    "m3-flip-dense-Q": dense_change_of_basis(m3("flip"), 1),
    "m3-flip-dense-Fp1000000007": dense_change_of_basis(
        ac.build_matrix_algebra(3, PrimeField(1000000007), "flip"), 2
    ),
    "example1-D3-Q-no-unit": without_unit(ac.build_example1(3)),
    "example2-D2-Fp101": ac.build_example2(2, FP),
}


def _meets(P, a, b):
    return not _table_reach(P, a).isdisjoint(i for i, _ in b.support[1])


@pytest.mark.parametrize("name", sorted(BRACKET_PRESENTATIONS))
@ZERO
@given(data=st.data())
def test_commutator_takes_a_product_only_when_the_reach_meets(name, data):
    P = BRACKET_PRESENTATIONS[name]
    a = data.draw(_elements(P))
    b = data.draw(_elements(P))
    expected = P.sub(P.mul(a, b), P.mul(b, a))
    with pytest.MonkeyPatch.context() as m:
        muls = count_muls(m)
        got = P.commutator(a, b)
    _same(got, expected)
    assert muls[0] == _meets(P, a, b) + _meets(P, b, a)


def _bracket_rows(P, kind):
    """Rows whose bracket span the certificates take: the basis ([R,R]),
    the skew basis ([K,K]), lemma 4's K_1 or K_-1 rows, the unit rows
    scaled by k + 1, or seeded random elements with a zero, a repeat and a
    basis element among them."""
    if kind == "basis":
        return [P.basis_element(i) for i in range(P.dim)]
    if kind == "units":
        return [P.scale(k + 1, P.basis_element(k)) for k in range(P.dim)]
    if kind == "skew":
        return [P.element(r) for r in cc._skew_part(P).basis]
    if kind in ("K1", "K-1"):
        _, kh = cc._graded_split(P, cc._resolve_idempotent(P, None))
        return [P.element(r) for r in kh.graded[int(kind[1:])][0].basis]
    rng = random.Random(7)
    rows = [cc.random_element(P, rng) for _ in range(5)]
    return rows + [P.zero(), rows[0], P.basis_element(0)]


BRACKET_SPANS = [
    (name, kind)
    for name, P in sorted(BRACKET_PRESENTATIONS.items())
    for kind in ("basis", "skew", "K1", "K-1", "random")
    if P.has_involution or kind in ("basis", "random")
] + [("m3-flip-dense-Q", "units")]


@pytest.mark.parametrize("name,kind", BRACKET_SPANS)
def test_commutator_span_equals_the_all_pairs_span(name, kind, monkeypatch):
    P = BRACKET_PRESENTATIONS[name]
    rows = _bracket_rows(P, kind)
    all_pairs = P.span_of(
        [P.sub(P.mul(u, v), P.mul(v, u)) for i, u in enumerate(rows) for v in rows[i + 1:]]
    )
    muls = count_muls(monkeypatch)
    ints = [u.support[1] for u in rows]
    span = commutator_span(P) if kind == "basis" else cc._bracket_span(P, ints)
    assert span == all_pairs
    # When every product of the table or every row has one term (the basis
    # everywhere), the brackets are read off the table, with no product.
    # Otherwise the rows are held as factors: one product per ordered pair
    # of rows whose support meets the reach of the other, none for the
    # pairs that the table leaves zero both ways.
    if P._table_bounds[0] <= 1 or all(len(u) == 1 for u in ints):
        assert muls[0] == 0
    else:
        assert muls[0] == sum(
            _meets(P, u, v) for p, u in enumerate(rows) for q, v in enumerate(rows) if p != q
        )
