"""The integer kernel: ``mul``, ``involve``, the element sums and the
associativity and involution-law checks against the scalar loops they
replaced, on random elements."""

import argparse
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import algcert as ac
from algcert import algebra, certificates as cc
from algcert.algebra import AlgebraPresentation, Element, axiom_violations
from algcert.errors import DimensionError
from algcert.linalg import PrimeField
from helpers import coords_element, dense_change_of_basis, m2, m3, scalar_star, scalar_table

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
    table = scalar_table(P)
    acc = [F.zero] * P.dim
    for i, ca in enumerate(a.coords):
        if not ca:
            continue
        for j, cb in enumerate(b.coords):
            if not cb:
                continue
            cab = F.mul(ca, cb)
            for k, c in table.get((i, j), ()):
                acc[k] = F.add(acc[k], F.mul(cab, c))
    return tuple(acc)


def _fraction_involve(P, a):
    F = P.field
    star = scalar_star(P)
    acc = [F.zero] * P.dim
    for i, ci in enumerate(a.coords):
        if ci:
            for j, sij in star[i]:
                acc[j] = F.add(acc[j], F.mul(ci, sij))
    return tuple(acc)


def _fraction_associativity(P):
    """(i, j, k) with (b_i b_j) b_k != b_i (b_j b_k), by the scalar
    convolution the associativity check ran before the integer kernel."""
    F = P.field
    table = scalar_table(P)
    left, right = {}, {}
    for (i, j), entries in table.items():
        for m, c1 in entries:
            for k in range(P.dim):
                for l, c2 in table.get((m, k), ()):
                    key = (i, j, k, l)
                    left[key] = F.add(left.get(key, F.zero), F.mul(c1, c2))
            for h in range(P.dim):
                for l, c2 in table.get((h, m), ()):
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
        assert el.support == coords_element(el.coords).support


# -- packed products -----------------------------------------------------------

DENSE_M3 = {
    field: dense_change_of_basis(ac.build_matrix_algebra(3, ac.field_from_name(field), "flip"), 1)
    for field in ("Q", "Fp:101", "Fp:1000000007")
}


def _slot_width(P, a, b):
    """The slot width the packed product of a and b must use: the least
    power of two s with 2 X Y T < 2^s, for X and Y the sums of the absolute
    numerators of a and b and T the largest |c| of the integer table."""
    _, rows = P._int_mul
    top = max(abs(c) for row in rows for e in row.values() for _, c in e)
    bound = 2 * sum(abs(x) for _, x in a.support[1]) * sum(abs(y) for _, y in b.support[1]) * top
    s = 1
    while bound >= 1 << s:
        s *= 2
    return s


def _edge_pairs(P):
    """(x b_i, y b_j, slot) with c_ijk the largest |c| T of the integer
    table and x y as large as the slot width s of the pair allows, for each
    feasible s: the slot x y c_ijk of b_k lies within T of +-2^(s-1) over
    Q, and as near as residues below p reach over F_p, never below
    2^(s-2). Over Q both signs of x are taken. No slot comes nearer: every
    slot is at most X Y T, a multiple of T below 2^(s-1)."""
    _, rows = P._int_mul
    top, i, j, c = max(
        (abs(c), i, j, c) for i, row in enumerate(rows) for j, e in row.items() for _, c in e
    )
    F = P.field
    limit = F.p - 1 if isinstance(F, PrimeField) else None
    pairs = []
    for s in (8, 16, 32, 64, 128, 256):
        most = ((1 << (s - 1)) - 1) // top  # the largest x y with x y T < 2^(s-1)
        if limit is None:
            choices = [(most, 1), (-most, 1)]
        else:
            start = max(1, -(-most // limit))
            best = max(
                ((x, min(limit, most // x)) for x in range(start, min(limit, start + 10_000) + 1)),
                key=lambda xy: xy[0] * xy[1],
                default=(0, 0),
            )
            choices = [best]
        for x, y in choices:
            slot = x * y * c
            if 4 * abs(slot) < 1 << s:
                continue
            a = P.scale(x, P.basis_element(i))
            b = P.scale(y, P.basis_element(j))
            assert _slot_width(P, a, b) == s
            pairs.append((a, b, slot))
    return pairs


def _large_elements(P):
    """Numerators up to 10^30 over denominators up to 10^6 over Q; residues
    within 8 of p - 1 over F_p."""
    F = P.field
    if isinstance(F, PrimeField):
        nonzero = st.integers(F.p - 8, F.p - 1)
    else:
        nonzero = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**6))
    scalar = st.one_of(st.just(0), nonzero)
    return st.lists(scalar, min_size=P.dim, max_size=P.dim).map(P.element)


@pytest.mark.parametrize("field", sorted(DENSE_M3))
@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data())
def test_packed_mul_on_large_scalars(field, data):
    P = DENSE_M3[field]
    a, b = data.draw(_large_elements(P)), data.draw(_large_elements(P))
    assert P.mul(a, b).coords == _fraction_mul(P, a, b)
    assert P.mul(b, a).coords == _fraction_mul(P, b, a)


@pytest.mark.parametrize("field", sorted(DENSE_M3))
def test_packed_mul_on_basis_elements(field):
    P = DENSE_M3[field]
    for i in range(P.dim):
        for j in range(P.dim):
            a, b = P.basis_element(i), P.basis_element(j)
            assert P.mul(a, b).coords == _fraction_mul(P, a, b) == P.mul_basis(i, j).coords


@pytest.mark.parametrize("field", sorted(DENSE_M3))
def test_packed_mul_at_the_slot_edge(field):
    """Pairs whose largest slot reaches the top bit of its width: one bit
    less, or unsigned digits over Q, read them wrong."""
    P = DENSE_M3[field]
    pairs = _edge_pairs(P)
    assert len(pairs) >= 2
    for a, b, slot in pairs:
        s = _slot_width(P, a, b)
        assert 1 << (s - 2) <= abs(slot) < 1 << (s - 1)
        assert P.mul(a, b).coords == _fraction_mul(P, a, b)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_mul_rejects_an_operand_of_another_dimension(name):
    """``mul`` compares each operand's dimension with the presentation's,
    on supports and on dense coordinates, on either side."""
    P = PRESENTATIONS[name]
    F = P.field
    b = P.basis_element(P.dim - 2)
    for short in (
        Element._of(F, P.dim - 1, (1, ((0, 1),))),
        Element._of(F, P.dim - 1, (1, ())),
        coords_element((F.one,) * (P.dim - 1)),
    ):
        for left, right in ((short, b), (b, short), (short, short)):
            with pytest.raises(DimensionError):
                P.mul(left, right)


def _record_packed_widths(monkeypatch):
    """The widths of the packed rows read from now on, in order."""
    widths = []
    packed_rows = AlgebraPresentation._packed_rows

    def counted(P, s):
        widths.append(s)
        return packed_rows(P, s)

    monkeypatch.setattr(AlgebraPresentation, "_packed_rows", counted)
    return widths


def test_wide_slots_are_packed(monkeypatch):
    """A one-shot dense product at s = 256 and one at s = 512 sum on packed
    rows of their width; one at s = 1024 takes the loop, and a held
    factor's operator packs at that width. All equal the scalar loop."""
    P = DENSE_M3["Q"]
    widths = _record_packed_widths(monkeypatch)
    a, b, _ = [pair for pair in _edge_pairs(P) if _slot_width(P, *pair[:2]) == 256][0]
    wide, wider = P.scale(1 << 200, a), P.scale(1 << 500, a)
    assert (_slot_width(P, wide, b), _slot_width(P, wider, b)) == (512, 1024)
    for x, y in ((a, b), (wide, b), (wider, b)):
        assert P.mul(x, y).coords == _fraction_mul(P, x, y)
    assert widths == [256, 512]
    assert P.mul(P._factor(wider), b).coords == _fraction_mul(P, wider, b)
    assert widths == [256, 512, 1024]


def _operands(P):
    """(zero, one-term, full) operands: 0, -7/3 b_4 and the element with
    coordinates (3i - 11) / (i + 1), all nonzero, as pairs (residues over
    F_p)."""
    return (
        P.zero(),
        P.scale((-7, 3), P.basis_element(4)),
        P.element([(3 * i - 11, i + 1) for i in range(P.dim)]),
    )


@pytest.mark.parametrize("field", sorted(DENSE_M3))
def test_operators_equal_the_scalar_loop_at_every_width(field):
    """One held factor per operand, its left and right operators reused
    over right (left) factors scaled by 2^k: over Q the products reach every
    slot width from 32 to 2048 bits, over F_p the widths its residues reach.
    Every product equals the scalar loop and the one-shot ``mul``."""
    P = DENSE_M3[field]
    operands = _operands(P)
    widths = set()
    for a in operands:
        f = P._factor(a)
        for b in operands:
            for k in range(0, 1900, 23):
                c = P.scale(1 << k, b)
                widths.add(_slot_width(P, a, c))
                assert P.mul(f, c).coords == _fraction_mul(P, a, c) == P.mul(a, c).coords
                assert P.mul(c, f).coords == _fraction_mul(P, c, a) == P.mul(c, a).coords
    if field == "Q":
        assert {32, 64, 128, 256, 512, 1024, 2048} <= widths


def test_an_operator_packs_once_per_width(monkeypatch):
    """A held factor's left operator reads the packed rows once for each
    width it meets, and a product at a width it has met reads none."""
    P = DENSE_M3["Q"]
    _, b, a = _operands(P)
    factors = [P.scale(1 << k, b) for k in (0, 0, 300, 0, 300, 900)]
    expected = [P.mul(a, c) for c in factors]
    left = P._factor(a)
    widths = _record_packed_widths(monkeypatch)
    assert [P.mul(left, c) for c in factors] == expected
    assert widths == [_slot_width(P, a, factors[k]) for k in (0, 2, 5)] == [64, 512, 1024]


@pytest.mark.parametrize("name", ["m3-flip-Q", "m3-flip-Fp101", "example2-D2-Q"])
@KERNEL
@given(data=st.data())
def test_one_term_operators_are_mul(name, data):
    """On a table whose products have one term each, a held factor on
    either side gives the plain elements' products and reads no packed
    rows."""
    P = PRESENTATIONS[name]
    assert P._table_bounds[0] == 1
    a = data.draw(_elements(P))
    b = data.draw(_elements(P))
    with pytest.MonkeyPatch.context() as m:
        widths = _record_packed_widths(m)
        f = P._factor(a)
        assert P.mul(f, b) == P.mul(a, b)
        assert P.mul(b, f) == P.mul(b, a)
    assert widths == []
    assert f.bound is None and f.ops == {}


@pytest.mark.parametrize("field", sorted(DENSE_M3))
def test_a_zero_operand_packs_nothing(monkeypatch, field):
    """A product with a zero operand is the zero element and reads no
    packed rows, with plain elements and with a held factor on either side;
    and theorem 1 on a fresh dense M3 builds no rows of width 2, the width
    of a zero bound."""
    P = DENSE_M3[field]
    zero, b, a = _operands(P)
    widths = _record_packed_widths(monkeypatch)
    held_zero = P._factor(zero)
    for x in (a, b, zero):
        held = P._factor(x)
        for product in (P.mul(zero, x), P.mul(x, zero), P.mul(held_zero, x), P.mul(held, zero),
                        P.mul(x, held_zero), P.mul(zero, held)):
            assert product == zero
    assert widths == []
    monkeypatch.undo()
    fresh = dense_change_of_basis(ac.build_matrix_algebra(3, ac.field_from_name(field), "flip"), 1)
    opts = argparse.Namespace(seed=3, cap=6, trials=8, max_gen=5)
    assert cc.certify(fresh, "thm1", opts).verdict == "pass"
    assert fresh._packed and 2 not in fresh._packed


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_operators_reject_an_operand_of_another_dimension(name):
    P = PRESENTATIONS[name]
    short = Element._of(P.field, P.dim - 1, (1, ((0, 1),)))
    held = P._factor(P.basis_element(0))
    with pytest.raises(DimensionError):
        P._factor(short)
    for pair in ((held, short), (short, held)):
        with pytest.raises(DimensionError):
            P.mul(*pair)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
@KERNEL
@given(data=st.data())
def test_a_held_factor_behaves_as_its_element(name, data):
    """A factor equals its Element, hashes, renders and spans as it, is
    made alike from an int vector and from that vector's Element, is
    returned as it is, enters ``_combination`` on either side, and gives
    the plain elements' product with a factor on the left, the right or
    both sides."""
    P = PRESENTATIONS[name]
    a = data.draw(_elements(P))
    b = data.draw(_elements(P))
    f, g = P._factor(a), P._factor(b)
    assert f == a and a == f and hash(f) == hash(a)
    assert P.render(f) == P.render(a)
    assert P.span_of([f, g]) == P.span_of([a, b])
    vec = P._ints(a, b)
    assert P._factor(vec) == P._factor(P._element(vec)) == P._element(vec)
    assert P._factor(f) is f
    assert P._combination(f, (b,)) == P._combination(a, (g,)) == P._combination(a, (b,))
    assert P._combination(vec, (f,), 1) == P._combination(vec, (a,), 1)
    product = P.mul(a, b)
    for x, y in ((f, b), (a, g), (f, g)):
        assert P.mul(x, y) == product
        assert P._element(P._ints(x, y)) == product
    assert P._element(P._product(f, g)) == product


def test_sparse_tables_keep_the_loop(monkeypatch):
    """Every b_i * b_j of a matrix or example2 table has at most one term,
    so neither ``mul`` nor the axiom gate reads packed rows there: theorem 1
    on M3 flip and theorem 2 on example2 D=2 enter the packed path zero
    times (theorem 2 on M3 flip neither), and the gate compares the one
    terms themselves. Theorem 1 on a dense change of basis enters it."""
    entries = {"gate": 0, "mul": 0}
    in_gate = []
    gate = algebra._associativity_triples
    packed_rows = AlgebraPresentation._packed_rows

    def gated(P, *args):
        in_gate.append(P)
        try:
            return gate(P, *args)
        finally:
            in_gate.pop()

    def counted(P, s):
        entries["gate" if in_gate else "mul"] += 1
        return packed_rows(P, s)

    monkeypatch.setattr(algebra, "_associativity_triples", gated)
    monkeypatch.setattr(AlgebraPresentation, "_packed_rows", counted)
    opts = argparse.Namespace(seed=3, cap=6, trials=8, max_gen=5)
    runs = (
        (m3("flip"), "thm1", "pass"),
        (m3("flip"), "thm2", "pass"),
        (ac.build_example2(2), "thm2", "hypothesis-not-met"),
    )
    for P, claim, verdict in runs:
        assert P._table_bounds[0] == 1
        assert cc.certify(P, claim, opts).verdict == verdict
    assert entries["gate"] == 0
    assert entries["mul"] == 0
    assert cc.certify(dense_change_of_basis(m3("flip"), 1), "thm1", opts).verdict == "pass"
    assert entries["gate"] > 0
    assert entries["mul"] > 0


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
        (a, b, c): x for (a, b), entries in scalar_table(P).items() for c, x in entries
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
        assert got.support == coords_element(got.coords).support, op


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
    mul = {(a, b, c): x for (a, b), entries in scalar_table(P).items() for c, x in entries}
    star = {(a, b): x for a, row in enumerate(scalar_star(P)) for b, x in row}
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
