"""Presentation arithmetic, validation, and the unital hull."""

import random
from fractions import Fraction

import pytest

import algcert as ac
from algcert import formats
from algcert.algebra import (
    AlgebraPresentation, embed_in_hull, ideal_span, restrict_from_hull,
)
from algcert.errors import FormatError, MissingInvolutionError, UnitalityError
from algcert.linalg import QQ, PrimeField
from helpers import (
    count_muls, dense_change_of_basis, elem, m2, m3, reference_tables, scalar_star,
    scalar_table, unit_elem,
)

FP = PrimeField(101)


def test_matrix_unit_products():
    P = m2()
    assert P.render(P.mul(unit_elem(P, "E12"), unit_elem(P, "E21"))) == "E11"
    assert P.is_zero(P.mul(unit_elem(P, "E12"), unit_elem(P, "E12")))


def test_example2_x_squares_to_zero():
    P = ac.build_example2(1)
    x = P.generators["x"]
    assert P.is_zero(P.mul(x, x))


def test_involutions():
    Pt = m2("transpose")
    assert Pt.render(Pt.involve(unit_elem(Pt, "E12"))) == "E21"
    Pf = m3("flip")
    # The anti-diagonal reflection sends E32 to E_{4-2,4-3} = E21.
    assert Pf.render(Pf.involve(unit_elem(Pf, "E32"))) == "E21"
    P2 = ac.build_example2(1)
    x_e11 = elem(P2, {"x*E11": 1})
    assert P2.render(P2.involve(x_e11)) == "-x*E22"


def test_involve_requires_involution():
    P = m2()
    with pytest.raises(MissingInvolutionError):
        P.involve(unit_elem(P, "E11"))


def test_commutator_and_circle():
    P = m2()
    assert P.render(P.commutator(unit_elem(P, "E11"), unit_elem(P, "E12"))) == "E12"
    rng = random.Random(5)
    for _ in range(20):
        a = P.element([Fraction(rng.randint(-3, 3)) for _ in range(P.dim)])
        assert P.is_zero(P.commutator(a, a))
    circ = P.circle(unit_elem(P, "E12"), unit_elem(P, "E21"))
    assert circ == elem(P, {"E11": Fraction(1, 2), "E22": Fraction(1, 2)})


def test_jacobi_identity_random():
    P = m3()
    rng = random.Random(9)
    for _ in range(30):
        a, b, c = (
            P.element([Fraction(rng.randint(-2, 2)) for _ in range(P.dim)])
            for _ in range(3)
        )
        total = P.add(
            P.add(
                P.commutator(P.commutator(a, b), c),
                P.commutator(P.commutator(b, c), a),
            ),
            P.commutator(P.commutator(c, a), b),
        )
        assert P.is_zero(total)


def test_jordan_circle_axioms_random():
    P = m2()
    rng = random.Random(10)
    for _ in range(30):
        x, y = (
            P.element([Fraction(rng.randint(-2, 2)) for _ in range(P.dim)])
            for _ in range(2)
        )
        assert P.equal(P.circle(x, y), P.circle(y, x))
        x2 = P.circle(x, x)
        lhs = P.circle(P.circle(x2, y), x)
        rhs = P.circle(x2, P.circle(y, x))
        assert P.equal(lhs, rhs)


def test_involution_antiautomorphism_random():
    P = m3("flip")
    rng = random.Random(12)
    for _ in range(30):
        a, b = (
            P.element([Fraction(rng.randint(-2, 2)) for _ in range(P.dim)])
            for _ in range(2)
        )
        assert P.equal(P.involve(P.mul(a, b)), P.mul(P.involve(b), P.involve(a)))
        assert P.equal(P.involve(P.involve(a)), a)


def test_triple_products():
    P = m2()
    E12, E21 = unit_elem(P, "E12"), unit_elem(P, "E21")
    assert P.render(P.triple(E12, E21, E12)) == "E12"
    assert P.render(P.jordan_triple(E12, E21, E12)) == "2*E12"
    rng = random.Random(14)
    for _ in range(20):
        a, b, c = (
            P.element([Fraction(rng.randint(-2, 2)) for _ in range(P.dim)])
            for _ in range(3)
        )
        assert P.equal(P.jordan_triple(a, b, c), P.jordan_triple(c, b, a))


def _nilpotent_line():
    # one-dimensional algebra with b^2 = 0
    return AlgebraPresentation(
        name="nil1", field=QQ, basis_labels=["b"], mul=[],
        idempotents={}, generators={"b": ["1"]}, unital=False,
    )


def _non_unital_files():
    """Files of non-unital algebras: the nilpotent line, and dense M3 flip
    (a table with a common denominator D > 1 over Q) and example2 D=2, each
    over Q and F_101, declared without their unit."""
    out = {"nil1": formats.presentation_to_dict(_nilpotent_line())}
    for field, F in (("Q", QQ), ("Fp101", FP)):
        for name, P in ((f"m3-flip-dense-{field}",
                         dense_change_of_basis(ac.build_matrix_algebra(3, F, "flip"), 1)),
                        (f"example2-D2-{field}", ac.build_example2(2, F))):
            d = formats.presentation_to_dict(P)
            d["unital"] = False
            del d["unit"]
            out[name] = d
    return out


NON_UNITAL = _non_unital_files()


@pytest.mark.parametrize("name", sorted(NON_UNITAL))
def test_unital_hull_products(name):
    d = NON_UNITAL[name]
    P = formats.presentation_from_dict(d)
    H = ac.unital_hull(P)
    n = P.dim
    assert H.dim == n + 1 and H.unital and H.unit == H.basis_element(n)
    # The hull's tables are P's rows and the unit's: 1 b = b 1 = b, 1* = 1.
    involution = d.get("involution")
    unit_rows = [(i, n, i, 1) for i in range(n)] + [(n, i, i, 1) for i in range(n + 1)]
    assert (H._int_mul, H._table_bounds, H._int_star) == reference_tables(
        P.field, n + 1, d["mul"] + unit_rows,
        None if involution is None else involution + [(n, n, 1)])
    if name == "m3-flip-dense-Q":
        assert H._int_mul[0] > 1
    # (a 1 + x)(c 1 + y) = ac 1 + a y + c x + x y
    rng = random.Random(7)
    for _ in range(5):
        x, y = (P.element([rng.randint(-3, 3) for _ in range(n)]) for _ in range(2))
        a, c = rng.randint(-3, 3), rng.randint(-3, 3)
        lx, ly = embed_in_hull(H, x), embed_in_hull(H, y)
        left = H.mul(H.add(H.scale(a, H.unit), lx), H.add(H.scale(c, H.unit), ly))
        right = H.add(H.add(H.scale(a * c, H.unit), H.scale(a, ly)),
                      H.add(H.scale(c, lx), embed_in_hull(H, P.mul(x, y))))
        assert left == right
    assert ac.validate_presentation(H).ok


@pytest.mark.parametrize("name", sorted(NON_UNITAL))
def test_unital_hull_embedding_multiplicative(name):
    P = m2()  # unital, so hull must refuse
    with pytest.raises(UnitalityError):
        ac.unital_hull(P)
    Q = formats.presentation_from_dict(NON_UNITAL[name])
    H = ac.unital_hull(Q)
    rng = random.Random(3)
    for _ in range(10):
        a = Q.element([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(Q.dim)])
        b = Q.element([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(Q.dim)])
        lifted = H.mul(H.element(list(a.coords) + [0]), H.element(list(b.coords) + [0]))
        assert lifted.coords[:-1] == Q.mul(a, b).coords and lifted.coords[-1] == 0
        assert restrict_from_hull(Q, lifted) == Q.mul(a, b)


def test_validate_clean_m2():
    rep = ac.validate_presentation(m2("transpose"))
    assert rep.ok
    h = rep.hypotheses["e"]
    assert h["e^2=e"] and h["ReR=R"] and h["R(1-e)R=R"]
    assert not h["ee*=0"]  # transpose fixes E11


def test_validate_flags_tampered_constant():
    d = formats.presentation_to_dict(m2())
    d["mul"][0][3] = "2"  # corrupt b0 * b0
    P = formats.presentation_from_dict(d)
    rep = ac.validate_presentation(P)
    assert not rep.ok
    assoc = [v for v in rep.violations if v.axiom == "associativity"]
    assert assoc and all(0 in v.indices for v in assoc)


def test_validate_unit_violation():
    d = formats.presentation_to_dict(m2())
    d["unit"] = ["1", "0", "0", "0"]  # E11 is not a two-sided unit
    P = formats.presentation_from_dict(d)
    rep = ac.validate_presentation(P)
    assert any(v.axiom == "unit" for v in rep.violations)


def test_validate_example1_hypothesis_failure():
    # In the triangular algebra, R*E11*R misses the E22 column and
    # R*(1-E11)*R misses E11, so both generation hypotheses fail.
    P = ac.build_example1(4)
    rep = ac.validate_presentation(P)
    assert rep.ok
    h = rep.hypotheses["e"]
    assert not h["ReR=R"]
    assert not h["R(1-e)R=R"]
    span = ideal_span(P, P.idempotents["e"])
    assert not span.contains(unit_elem(P, "E22").coords)


def test_ideal_span_matrix_unit():
    P = m2()
    assert ideal_span(P, unit_elem(P, "E12")).is_full


def _ideal_word_oracle(P, x, max_len):
    """Independent check: span of u*x*v over all basis words of bounded
    length, enumerated naively."""
    words = [[P.basis_element(i) for i in range(P.dim)]]
    for _ in range(2, max_len + 1):
        words.append(
            [P.mul(w, P.basis_element(i)) for w in words[-1] for i in range(P.dim)]
        )
    flat = [w for level in words for w in level]
    prods = [P.mul(P.mul(u, x), v) for u in flat for v in flat]
    return P.span_of(prods)


def test_ideal_span_agrees_with_word_oracle():
    for P in (m2(), ac.build_example1(2)):
        for name in ("E11", "E12"):
            x = unit_elem(P, name)
            direct = ideal_span(P, x)
            brute = _ideal_word_oracle(P, x, 2)
            assert direct == brute


def test_idempotent_violation_reported():
    d = formats.presentation_to_dict(m2())
    d["idempotents"]["e"] = ["0", "1", "0", "0"]  # E12 is not idempotent
    P = formats.presentation_from_dict(d)
    rep = ac.validate_presentation(P)
    assert any(v.axiom == "idempotent" for v in rep.violations)


def test_render():
    P = m2()
    assert P.render(P.zero()) == "0"
    x = elem(P, {"E11": Fraction(1, 2), "E21": -1})
    assert P.render(x) == "1/2*E11 - E21"


def _saturate_to_fixed_point(P, x, unit_coeff):
    """Reference: the two-sided products b_i (unit_coeff + x) b_j, saturated
    until a round adds nothing, with no early exit at full rank."""
    b = ac.SpanBuilder(P.field, P.dim)
    frontier = []
    for i in range(P.dim):
        for j in range(P.dim):
            w = P.mul(P.mul(P.basis_element(i), x), P.basis_element(j))
            if unit_coeff:
                w = P.add(w, P.mul_basis(i, j))
            if b.add(w.coords):
                frontier.append(w)
    while frontier:
        new = []
        for r in frontier:
            for i in range(P.dim):
                for w in (P.mul(P.basis_element(i), r), P.mul(r, P.basis_element(i))):
                    if b.add(w.coords):
                        new.append(w)
        frontier = new
    return b.subspace()


@pytest.mark.parametrize("build", [lambda: ac.build_example2(2), lambda: ac.build_example2(3),
                                   lambda: m3("flip")], ids=["example2-D2", "example2-D3", "m3-flip"])
def test_ideal_span_equals_fixed_point_saturation(monkeypatch, build):
    P = build()
    e = P.idempotents["e"]
    cases = {
        "e": (e, 0),
        "1-e": (P.neg(e), 1),
        "1-e-e*": (P.neg(P.add(e, P.involve(e))), 1),
    }
    calls = count_muls(monkeypatch)
    for name, (x, unit_coeff) in cases.items():
        calls[0] = 0
        got = ideal_span(P, x, unit_coeff)
        got_calls = calls[0]
        calls[0] = 0
        assert got == _saturate_to_fixed_point(P, x, unit_coeff), name
        if got.is_full:
            assert got_calls < calls[0], name


@pytest.mark.parametrize("tables, message", [
    ({"mul": [[0, 0, 0, "1"], [0, 1]]}, "mul entry must be [i, j, k, scalar]: (0, 1)"),
    ({"mul": [(0, 0, 0, 1), (0, 5, 0, 1)]}, "mul index out of range: (0, 5, 0, 1)"),
    ({"mul": [(0, 0, 0, 1), (1.0, 0, 0, 2)]}, "mul index out of range: (1.0, 0, 0, 2)"),
    ({"mul": [(0, 0, 0, "0"), (0, 0, 0, 1)]}, "duplicate mul entry for (0,0,0)"),
    ({"mul": {(0, 0): [(0, 1), (0, 2)]}}, "duplicate mul entry for (0,0,0)"),
    ({"mul": {(1, 1): [(3, 1)]}}, "mul index out of range: (1, 1, 3, 1)"),
    ({"mul": [(0, 0, 0, "x")]}, "not a rational scalar: 'x'"),
    ({"mul": [], "involution": [[0, 0, 1], [0, 1]]}, "involution entry must be [i, j, scalar]: [0, 1]"),
    ({"mul": [], "involution": [[0, 0, 1], [0, 2, 1]]}, "involution index out of range: [0, 2, 1]"),
    ({"mul": [], "involution": [[1, 1, 0], [1, 1, 1]]}, "duplicate involution entry for (1,1)"),
    ({"mul": [], "involution": [[1, 1, "1/0"]]}, "zero denominator in rational scalar: '1/0'"),
    ({"mul": [(True, True, 1, 1)]}, "mul index out of range: (True, True, 1, 1)"),
    ({"mul": [(0, 0, 0, 1), (1, 0, False, 1)]}, "mul index out of range: (1, 0, False, 1)"),
    ({"mul": {(0, True): [(0, 1)]}}, "mul index out of range: (0, True, 0, 1)"),
    ({"mul": [], "involution": [[True, 1, 1]]}, "involution index out of range: [True, 1, 1]"),
    ({"mul": [], "involution": [(0, 0, 1), (1, False, 1)]},
     "involution index out of range: (1, False, 1)"),
    ({"mul": [(0, 0, 0, 2.7)]}, "not an exact scalar: 2.7"),
    ({"mul": [(0, 0, 0, 0.1)]}, "not an exact scalar: 0.1"),
    ({"mul": [(0, 0, 0, True)]}, "not an exact scalar: True"),
    ({"mul": [], "involution": [(0, 0, 0.5)]}, "not an exact scalar: 0.5"),
    ({"mul": [], "generators": {"g": [1, 0.5]}}, "not an exact scalar: 0.5"),
    ({"mul": [(0, 0, 0, 2.7)], "field": FP}, "not an exact scalar: 2.7"),
    ({"mul": [(0, 0, 0, Fraction(1, 101))], "field": FP},
     "denominator divisible by 101: Fraction(1, 101)"),
    ({"mul": [], "involution": [(0, 0, Fraction(3, 202))], "field": FP},
     "denominator divisible by 101: Fraction(3, 202)"),
    ({"mul": [], "idempotents": {"e": [Fraction(1, 101), 0]}, "field": FP},
     "denominator divisible by 101: Fraction(1, 101)"),
])
def test_constructor_checks_table_rows(tables, message):
    """Both tables go through one row check, in the order arity, index
    range, duplicates, scalar; a zero scalar still counts as an entry, and
    an index that is a bool is out of range, as it is in a file. A scalar
    is taken exactly or refused: floats and bools are refused, in the
    tables and in named vectors, and so is a denominator divisible by p
    over F_p."""
    tables = dict(tables)
    with pytest.raises(FormatError) as err:
        AlgebraPresentation("t", tables.pop("field", QQ), ["a", "b"], **tables)
    assert str(err.value) == message


def test_constructor_takes_fractions_exactly():
    # Over F_101, 1/2 is 51 and -3/4 is 75, and 205 and -3 are reduced, in
    # the table, the involution and a named vector alike.
    P = AlgebraPresentation(
        "t", FP, ["a", "b"],
        [(0, 0, 0, Fraction(1, 2)), (0, 1, 1, Fraction(-3, 4)), (1, 1, 1, 205)],
        involution=[(0, 0, Fraction(1, 2)), (1, 1, -3)],
        generators={"g": [Fraction(1, 2), 0]},
    )
    assert P._int_mul == (1, [{0: ((0, 51),), 1: ((1, 75),)}, {1: ((1, 3),)}])
    assert P._int_star == (1, [((0, 51),), ((1, 98),)])
    assert P.generators["g"].support == (1, ((0, 51),))


def test_constructor_drops_zero_entries():
    P = AlgebraPresentation("t", QQ, ["a", "b"], mul={(0, 0): [(0, "1"), (1, "0")]},
                            involution=[(0, 0, 1), (1, 1, "-1"), (0, 1, 0)])
    assert scalar_table(P) == {(0, 0): ((0, Fraction(1)),)}
    assert scalar_star(P) == (((0, Fraction(1)),), ((1, Fraction(-1)),))


def test_scale_takes_its_scalar_exactly():
    # Over F_101, 1/2 is 51 (not 1/2 truncated to 0), and a float is refused
    # as in the constructor; over Q, 1/2 stays 1/2.
    P = ac.build_matrix_algebra(2, FP)
    b0 = P.basis_element(0)
    assert P.scale(Fraction(1, 2), b0).support == (1, ((0, 51),))
    assert P.scale(Fraction(1, 2), b0) == P.element([51, 0, 0, 0])
    Q = m2()
    assert Q.scale(Fraction(1, 2), Q.basis_element(0)).support == (2, ((0, 1),))
    for M in (P, Q):
        with pytest.raises(FormatError, match="not an exact scalar"):
            M.scale(2.7, M.basis_element(0))


def test_ideal_span_unit_coeff_is_exact():
    # R (1/2 + 0) R is R; a unit coefficient truncated to 0 gave the zero span.
    P = ac.build_matrix_algebra(2, FP)
    assert ideal_span(P, P.zero(), unit_coeff=Fraction(1, 2)).is_full
    assert ideal_span(P, P.zero(), unit_coeff=Fraction(1, 2)) == ideal_span(
        P, P.zero(), unit_coeff=51
    )
    with pytest.raises(FormatError, match="not an exact scalar"):
        ideal_span(P, P.zero(), unit_coeff=0.5)


def test_element_reduces_its_pairs():
    # A pair not in lowest terms gives the canonical support: over Q (2, 4)
    # is 1/2, and over F_101 (1, 2) is the residue 51.
    Q = m2()
    half = Q.element([(2, 4), (0, 1), (0, 1), (0, 1)])
    assert half.support == (2, ((0, 1),))
    assert half == Q.element([Fraction(1, 2), 0, 0, 0])
    P = ac.build_matrix_algebra(2, FP)
    assert P.element([(1, 2), (0, 1), (0, 1), (0, 1)]).support == (1, ((0, 51),))
    assert P.element([(1, 2), (0, 1), (0, 1), (0, 1)]) == P.element([51, 0, 0, 0])


def test_pair_with_a_denominator_divisible_by_p():
    # Over F_101 the pair (1, 101) has no residue: element and scale refuse
    # it as the constructor refuses such a scalar, not with pow's ValueError.
    P = ac.build_matrix_algebra(2, FP)
    with pytest.raises(FormatError, match="denominator divisible by 101"):
        P.element([(1, 101), (0, 1), (0, 1), (0, 1)])


def test_scale_by_a_pair_with_a_denominator_divisible_by_p():
    P = ac.build_matrix_algebra(2, FP)
    with pytest.raises(FormatError, match="denominator divisible by 101"):
        P.scale((1, 101), P.basis_element(0))
    assert P.scale((1, 2), P.basis_element(0)) == P.element([51, 0, 0, 0])
