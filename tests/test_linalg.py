"""Exact subspace arithmetic: canonical echelon bases, sums, membership."""

import random
import time
from fractions import Fraction

import pytest

from algcert import linalg
from algcert.errors import DimensionError, FormatError
from algcert.linalg import (
    QQ,
    CombinationSolver,
    PrimeField,
    echelonize,
    field_from_name,
)
from helpers import intersect, linear_combination, naive_rref, subspace_sum


def F(x):
    return Fraction(x)


def test_echelonize_full_plane():
    s = echelonize(QQ, [(F(1), F(0)), (F(0), F(1)), (F(1), F(1))], 2)
    assert s.rank == 2
    assert s.basis == ((F(1), F(0)), (F(0), F(1)))


def test_echelonize_scaling_normalization():
    s = echelonize(QQ, [(F(2), F(4))], 2)
    assert s.basis == ((F(1), F(2)),)


def test_echelonize_empty_span():
    s = echelonize(QQ, [], 2)
    assert s.rank == 0
    assert s.basis == ()


def test_echelonize_rejects_mixed_lengths():
    with pytest.raises(DimensionError):
        echelonize(QQ, [(F(1), F(0)), (F(1),)], 2)
    # At full rank add returns False without reducing, after the length check.
    with pytest.raises(DimensionError):
        echelonize(QQ, [(F(1), F(0)), (F(0), F(1)), (F(1),)], 2)
    b = echelonize(QQ, [(F(1), F(0)), (F(0), F(1))], 2).builder()
    b.reduce = lambda vec: pytest.fail("a full span reduced its input")
    assert b.add((F(3), F(-5))) is False
    assert b.subspace().basis == ((F(1), F(0)), (F(0), F(1)))


def test_subspace_sum_trivial():
    a = echelonize(QQ, [(F(1), F(0))], 2)
    b = echelonize(QQ, [(F(0), F(1))], 2)
    assert subspace_sum(a, b).rank == 2


def test_subspace_sum_idempotent():
    v = echelonize(QQ, [(F(1), F(2), F(3))], 3)
    assert subspace_sum(v, v) == v


def test_subspace_sum_hand_reduced():
    # Row-reducing {(1,1,0),(0,1,1)} by hand: r1 - r2 = (1,0,-1).
    a = echelonize(QQ, [(F(1), F(1), F(0))], 3)
    b = echelonize(QQ, [(F(0), F(1), F(1))], 3)
    s = subspace_sum(a, b)
    assert s.rank == 2
    assert s.basis == ((F(1), F(0), F(-1)), (F(0), F(1), F(1)))


def test_contains():
    a = echelonize(QQ, [(F(1), F(0))], 2)
    assert a.contains((F(3), F(0)))
    assert not a.contains((F(0), F(1)))
    assert a.contains((F(0), F(0)))


def test_contains_solved_system():
    # (5,7) = 5*(1,2) - 3*(0,1): solving the 2x2 system by hand gives
    # coefficients (5, -3), so membership holds.
    a = echelonize(QQ, [(F(1), F(2)), (F(0), F(1))], 2)
    assert a.contains((F(5), F(7)))


def test_canonicity_under_shuffle_and_scale():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 6)
        vecs = [
            tuple(F(rng.randint(-4, 4)) for _ in range(n))
            for _ in range(rng.randint(0, 5))
        ]
        s1 = echelonize(QQ, vecs, n)
        shuffled = vecs[:]
        rng.shuffle(shuffled)
        scaled = []
        for v in shuffled:
            c = F(rng.choice([1, 2, -1, 3]))
            scaled.append(tuple(c * x for x in v))
        s2 = echelonize(QQ, scaled, n)
        assert s1 == s2
        assert s1.basis == tuple(naive_rref(vecs))


def test_sum_properties():
    rng = random.Random(11)
    for _ in range(15):
        n = 5
        def rand_space():
            return echelonize(
                QQ,
                [
                    tuple(F(rng.randint(-3, 3)) for _ in range(n))
                    for _ in range(rng.randint(0, 3))
                ],
                n,
            )
        a, b, c = rand_space(), rand_space(), rand_space()
        assert subspace_sum(a, b) == subspace_sum(b, a)
        assert subspace_sum(subspace_sum(a, b), c) == subspace_sum(a, subspace_sum(b, c))
        assert subspace_sum(a, a) == a
        assert subspace_sum(a, b).rank >= max(a.rank, b.rank)


def test_equality_iff_mutual_containment():
    rng = random.Random(13)
    for _ in range(20):
        n = 4
        rows = [tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(3)]
        a = echelonize(QQ, rows, n)
        b = echelonize(QQ, rows[::-1], n)
        assert a == b
        assert a.contains_subspace(b) and b.contains_subspace(a)
        c = echelonize(QQ, rows[:1], n)
        if c != a:
            assert not (a.contains_subspace(c) and c.contains_subspace(a))


def test_intersection_examples():
    full = echelonize(QQ, [(F(1), F(0)), (F(0), F(1))], 2)
    diag = echelonize(QQ, [(F(1), F(1))], 2)
    assert intersect(full, diag) == diag
    x_axis = echelonize(QQ, [(F(1), F(0))], 2)
    assert intersect(x_axis, diag).rank == 0


def test_intersection_rank_formula():
    rng = random.Random(17)
    for _ in range(20):
        n = 5
        def rand_space(k):
            return echelonize(
                QQ,
                [tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(k)],
                n,
            )
        a = rand_space(rng.randint(0, 4))
        b = rand_space(rng.randint(0, 4))
        lhs = a.rank + b.rank
        rhs = subspace_sum(a, b).rank + intersect(a, b).rank
        assert lhs == rhs
        meet = intersect(a, b)
        assert a.contains_subspace(meet) and b.contains_subspace(meet)


def test_linear_combination_roundtrip():
    rng = random.Random(23)
    for _ in range(20):
        n = 4
        vecs = [tuple(F(rng.randint(-3, 3)) for _ in range(n)) for _ in range(4)]
        coeffs = [F(rng.randint(-2, 2)) for _ in vecs]
        target = tuple(
            sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(n)
        )
        sol = linear_combination(QQ, vecs, target)
        assert sol is not None
        rebuilt = tuple(
            sum(c * v[i] for c, v in zip(sol, vecs)) for i in range(n)
        )
        assert rebuilt == target


def test_linear_combination_outside():
    vecs = [(F(1), F(0), F(0)), (F(0), F(1), F(0))]
    assert linear_combination(QQ, vecs, (F(0), F(0), F(1))) is None


def test_combination_solver_streaming():
    solver = CombinationSolver(QQ, 3)
    solver.add((F(1), F(1), F(0)))
    assert solver.solve((F(0), F(0), F(1))) is None
    solver.add((F(0), F(0), F(1)))
    sol = solver.solve((F(2), F(2), F(5)))
    assert sol == {0: F(2), 1: F(5)}


def test_prime_field_arithmetic():
    Fp = PrimeField(7)
    assert Fp.add(5, 4) == 2
    assert Fp.mul(3, 5) == 1
    assert Fp.inv(3) == 5
    assert Fp.neg(2) == 5
    s = echelonize(Fp, [(2, 4), (1, 2)], 2)
    assert s.rank == 1
    assert s.basis == ((1, 2),)  # 2^{-1} = 4 mod 7, 4*(2,4) = (1,2)


def test_prime_field_rejects_bad_p():
    # 561 is a Carmichael number, 2047 a strong pseudoprime to base 2,
    # 3215031751 one to bases 2, 3, 5 and 7, and 318665857834031151167461
    # one to every prime base up to 37.
    for bad in (2, 4, 9, 1, -3, 561, 2047, 3215031751, 318665857834031151167461):
        with pytest.raises(FormatError):
            PrimeField(bad)


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_primality_matches_trial_division_below_20000():
    for n in range(20000):
        assert linalg._is_prime(n) == _trial_division_is_prime(n), n


def test_large_prime_field_is_fast():
    start = time.perf_counter()
    assert PrimeField(10**18 + 3).p == 10**18 + 3
    assert field_from_name("Fp:1000000000039").p == 1000000000039
    assert time.perf_counter() - start < 1.0


def test_prime_field_modulus_bound():
    assert linalg._is_prime(3317044064679887385961813)
    for n in (linalg.PRIME_BOUND, 2**89 - 1):
        with pytest.raises(FormatError, match=str(linalg.PRIME_BOUND)):
            PrimeField(n)


def test_field_from_name():
    assert field_from_name("Q") is not None
    assert field_from_name("Fp:5").p == 5
    with pytest.raises(FormatError):
        field_from_name("Fp:6")
    with pytest.raises(FormatError):
        field_from_name("R")


def test_scalar_serialization():
    assert QQ.format(Fraction(3, 4)) == "3/4"
    assert QQ.format(F(-2)) == "-2"
    assert QQ.format(F(0)) == "0"
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.parse("-5") == F(-5)
    with pytest.raises(FormatError):
        QQ.parse("1.5")
    Fp = PrimeField(5)
    assert Fp.format(7) == "2"
    assert Fp.parse("9") == 4


@pytest.mark.parametrize(
    "s",
    ["0", "-0", "7", "-7", "0007", "-0007", "6/4", "-6/4", "0/5", "-0/00012",
     "0012/0008", "-360/7560", "1/1", "12345678901234567890123/98765432109876"],
)
def test_rational_parse_equals_fraction(s):
    got = QQ.parse(s)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (Fraction(s).numerator, Fraction(s).denominator)
    assert QQ.parse_pair(s) == (got.numerator, got.denominator)
    assert QQ.from_pair(*QQ.parse_pair(s)) == got


@pytest.mark.parametrize("s", ["0", "-0", "7", "-7", "0007", "-1", "-203", "12345678901234567890"])
def test_prime_parse_pair_is_the_residue_over_one(s):
    Fp = PrimeField(101)
    assert Fp.parse_pair(s) == (Fp.parse(s), 1) == (int(s) % 101, 1)
    assert Fp.from_pair(*Fp.parse_pair(s)) == Fp.parse(s)
    # An unreduced numerator over 1 comes back as its residue too.
    assert Fp.from_pair(int(s), 1) == int(s) % 101


@pytest.mark.parametrize("s", ["1/0", "-5/000", "0/0"])
def test_rational_parse_zero_denominator(s):
    for parse in (QQ.parse, QQ.parse_pair):
        with pytest.raises(FormatError, match="zero denominator"):
            parse(s)


# Scalars are ASCII digits matched whole: int() reads the Unicode digits
# (U+0663 is 3, U+0664 is 4), and a final newline slips past "$".
NOT_SCALARS = ["1\n", "\u0663", "3/\u0664", "\u0663/4", "-\u0663", "1/2\n", " 1", "1 ", "1_0"]


@pytest.mark.parametrize("s", NOT_SCALARS)
def test_scalar_grammar_is_ascii_digits_matched_whole(s):
    for parse in (QQ.parse, QQ.parse_pair):
        with pytest.raises(FormatError, match="not a rational scalar"):
            parse(s)
    if "/" not in s:
        Fp = PrimeField(101)
        for parse in (Fp.parse, Fp.parse_pair):
            with pytest.raises(FormatError, match="not a prime-field scalar"):
                parse(s)


@pytest.mark.parametrize("name", ["Fp:101\n", "Fp:\u0661\u0660\u0661", "Fp: 101", "Fp:1_01"])
def test_field_tag_is_ascii_digits_matched_whole(name):
    with pytest.raises(FormatError, match="bad prime field tag"):
        field_from_name(name)


def test_fp_closure_consistency():
    # The same integer matrix echelonizes compatibly over Q and F_5 when no
    # pivot is divisible by 5.
    rows = [(1, 2, 3), (0, 1, 4), (1, 3, 0)]
    Fp = PrimeField(5)
    sq = echelonize(QQ, [tuple(F(x) for x in r) for r in rows], 3)
    sp = echelonize(Fp, rows, 3)
    assert sq.rank == sp.rank
