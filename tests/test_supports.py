"""Elements held as integer supports: dense coordinates built on first read,
the sampler on integer rows and the witness search that computes u * mid
once per word, each against the eager Fraction form it replaced, over Q
(mixed denominators) and over F_101."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import algcert as ac
from algcert.algebra import Element, ideal_span
from algcert.certificates import (
    _SandwichWitnesses,
    _WordLevels,
    _sandwich,
    _working,
    random_element,
    random_scalar,
)
from algcert.errors import CapExceededError
from algcert.linalg import QQ, PrimeField
from helpers import count_muls, dense_change_of_basis, m3

FP = PrimeField(101)
FIELDS = {"Q": QQ, "Fp101": FP}

SUPPORTS = settings(derandomize=True, max_examples=60, deadline=None)


def _eager_from_ints(F, nums, d):
    """The dense coordinates ``from_ints`` built for every product, sum and
    involution before coordinates were built on first read."""
    if isinstance(F, PrimeField):
        inv = pow(d, -1, F.p)
        return tuple(n * inv % F.p if n else n for n in nums)
    g = gcd(d, *nums)
    return tuple(Fraction(n // g, d // g) if n else F.zero for n in nums)


def _int_vectors(F):
    """(nums, d): a list of ints over a denominator that is invertible in F."""
    nums = st.lists(
        st.one_of(st.just(0), st.integers(-720, 720)), min_size=1, max_size=9
    )
    if isinstance(F, PrimeField):
        d = st.integers(-10**4, 10**4).filter(lambda d: d % F.p)
    else:
        d = st.sampled_from([1, 2, 6, 12, 35, 360, 720, 1001]).flatmap(
            lambda d: st.sampled_from([d, -d])
        )
    return st.tuples(nums, d)


@pytest.mark.parametrize("name", sorted(FIELDS))
@SUPPORTS
@given(data=st.data())
def test_coords_built_on_first_read_equal_the_eager_ones(name, data):
    F = FIELDS[name]
    nums, d = data.draw(_int_vectors(F))
    eager = _eager_from_ints(F, nums, d)
    lazy = Element._of(F, len(nums), F.from_ints(nums, d))
    assert lazy.coords == eager
    assert list(map(type, lazy.coords)) == list(map(type, eager))
    assert lazy.support[0] > 0


@pytest.mark.parametrize("name", sorted(FIELDS))
@SUPPORTS
@given(data=st.data())
def test_elements_from_coords_and_from_supports_are_equal(name, data):
    F = FIELDS[name]
    nums, d = data.draw(_int_vectors(F))
    from_support = Element._of(F, len(nums), F.from_ints(nums, d))
    from_coords = Element(_eager_from_ints(F, nums, d))
    assert from_coords == from_support
    assert hash(from_coords) == hash(from_support)
    assert from_coords.support == from_support.support
    assert {from_coords: 1}[from_support] == 1
    # A longer vector with the same nonzero coordinates is another element.
    assert Element(from_coords.coords + (F.zero,)) != from_support


PRESENTATIONS = {
    "m3-flip-Q": m3("flip"),
    "m3-flip-Fp101": ac.build_matrix_algebra(3, FP, "flip"),
    "example2-D2-Q": ac.build_example2(2),
    "example1-D3-Fp101": ac.build_example1(3, FP),
    "m3-flip-dense-Q": dense_change_of_basis(m3("flip"), 1),
}


def _scalars(F):
    if isinstance(F, PrimeField):
        return st.one_of(st.just(0), st.integers(1, F.p - 1))
    return st.one_of(
        st.just(0), st.fractions(min_value=-30, max_value=30, max_denominator=12)
    )


def _elements(P):
    return st.lists(_scalars(P.field), min_size=P.dim, max_size=P.dim).map(P.element)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data())
def test_computed_elements_compare_by_support(name, data):
    P = PRESENTATIONS[name]
    a = data.draw(_elements(P))
    b = data.draw(_elements(P))
    results = [P.mul(a, b), P.add(a, b), P.sub(a, a), P.scale(3, a), P.neg(b)]
    if P.has_involution:
        results.append(P.involve(a))
    for el in results:
        rebuilt = P.element(el.coords)
        assert el == rebuilt and hash(el) == hash(rebuilt)
        assert P.is_zero(el) == (not any(el.coords))
    assert P.equal(P.mul(a, b), P.element(P.mul(a, b).coords))
    assert P.equal(a, b) == (a.coords == b.coords)


def _fraction_sampler(P, rng, subspace=None, nonzero=False):
    """The sampler ``random_element`` replaced: Fraction rows, one field
    operation per coordinate."""
    F = P.field
    rows = subspace.basis if subspace is not None else [
        P.basis_element(i).coords for i in range(P.dim)
    ]
    rows = [[(k, x) for k, x in enumerate(row) if x] for row in rows]
    for _ in range(64):
        acc = [F.zero] * P.dim
        for row in rows:
            c = random_scalar(F, rng)
            if c:
                for k, x in row:
                    acc[k] = F.add(acc[k], F.mul(c, x))
        el = P.element(acc)
        if not nonzero or not P.is_zero(el):
            return el
    raise ValueError("could not sample a nonzero element (zero subspace?)")


def _subspaces(P):
    e = P.idempotents["e"]
    pd = ac.peirce_decompose(P, e)
    out = [None, pd.eRf, pd.fRe, pd.eRe, ideal_span(P, e)]
    if P.has_involution:
        kh = ac.kh_split(P, ac.z_grading(P, e))
        out.extend(part for i in (-1, 1, 2) for part in kh.graded[i])
    return [s for s in out if s is None or s.rank > 0]


SUBSPACES = {name: _subspaces(P) for name, P in PRESENTATIONS.items()}


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
@settings(derandomize=True, max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32), nonzero=st.booleans())
def test_random_element_matches_the_fraction_sampler(name, seed, nonzero):
    P = PRESENTATIONS[name]
    for subspace in SUBSPACES[name]:
        new, old = random.Random(seed), random.Random(seed)
        for _ in range(3):
            got = random_element(P, new, subspace, nonzero)
            expected = _fraction_sampler(P, old, subspace, nonzero)
            assert got.coords == expected.coords
            assert got == expected
        assert new.getstate() == old.getstate()


def test_random_element_on_the_zero_subspace():
    P = PRESENTATIONS["m3-flip-Q"]
    zero = P.span_of([])
    assert P.is_zero(random_element(P, random.Random(0), zero))
    with pytest.raises(ValueError):
        random_element(P, random.Random(0), zero, nonzero=True)


class _UncachedWitnesses(_SandwichWitnesses):
    """The witness search before u * mid was computed once per word: one
    ``words_upto`` call per new u, and u * mid once per pair."""

    def _grow_to(self, L):
        while self.length < L:
            self.length += 1
            new = self.words.level(self.length) if self.length >= 1 else [("", None)]
            old = self.words.words_upto(self.length - 1, include_empty=True) if self.length >= 1 else []
            pairs = []
            for ul, u in new:
                for vl, v in self.words.words_upto(self.length, include_empty=True):
                    pairs.append((ul, u, vl, v))
            for ul, u in old:
                for vl, v in new:
                    pairs.append((ul, u, vl, v))
            for ul, u, vl, v in pairs:
                prod = _sandwich(self.Pw, u, self.mid, v)
                self.products.append((ul, u, vl, v))
                self.solver.add(prod)


def _witness_searches(P, cls, cap):
    Pw, lift, _ = _working(P)
    gens = [(name, lift(el)) for name, el in sorted(P.generators.items())]
    words = _WordLevels(Pw, gens, 200_000)
    e = lift(P.idempotents["e"])
    mids = [e, Pw.sub(Pw.unit, e)]
    if P.has_involution:
        mids.append(Pw.involve(e))
    return lift, gens, [cls(Pw, mid, words, cap) for mid in mids]


def _outcome(search, target):
    try:
        return search.decompose(target, "target")
    except CapExceededError as exc:
        return str(exc)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
@settings(derandomize=True, max_examples=8, deadline=None)
@given(data=st.data())
def test_witness_terms_equal_the_uncached_search(name, data):
    P = PRESENTATIONS[name]
    cap = data.draw(st.integers(1, 3))
    lift, gens, searches = _witness_searches(P, _SandwichWitnesses, cap)
    _, _, references = _witness_searches(P, _UncachedWitnesses, cap)
    targets = [el for _, el in gens] + [lift(data.draw(_elements(P)))]
    for search, reference in zip(searches, references):
        for target in targets:
            got = _outcome(search, target)
            expected = _outcome(reference, target)
            assert got == expected
        assert search.products == reference.products
        assert search.solver.combos == reference.solver.combos


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_witness_terms_stay_the_same_on_longer_words(name, k):
    # A target's terms combine the solver inputs that grew its rank. Those
    # are linearly independent, so once the target lies in their span its
    # terms are unique, and growing the search k more levels cannot change
    # them.
    P = PRESENTATIONS[name]
    rng = random.Random(k)
    lift, gens, searches = _witness_searches(P, _SandwichWitnesses, 2)
    targets = [el for _, el in gens] + [lift(random_element(P, rng)) for _ in range(3)]
    for search in searches:
        solved = []
        for target in targets:
            outcome = _outcome(search, target)
            if not isinstance(outcome, str):
                solved.append((target, outcome[1]))
        assert solved
        inputs = len(search.products)
        search._grow_to(search.length + k)
        assert len(search.products) > inputs
        for target, terms in solved:
            assert search.decompose(target, "target")[1] == terms


def _table_reach(P, a):
    """The indices j with b_i * b_j != 0 for some i in the support of a."""
    return {j for i, _ in a.support[1] for j in range(P.dim) if P.mul_basis(i, j).support[1]}


def test_witness_search_computes_each_left_factor_once(monkeypatch):
    P = m3("flip")
    _, _, (search, *_) = _witness_searches(P, _SandwichWitnesses, 2)
    Pw, mid = search.Pw, search.mid
    words = search.words.words_upto(2, include_empty=True)  # not counted below
    reach = {
        ul: _table_reach(Pw, mid if u is None else Pw.mul(u, mid)) for ul, u in words
    }
    calls = count_muls(monkeypatch)
    search._grow_to(2)
    # One u * mid per nonempty word u and one (u * mid) * v per pair whose v
    # meets the reach of u * mid; the other products are zero.
    meets = sum(
        v is not None and not reach[ul].isdisjoint(i for i, _ in v.support[1])
        for ul, _, _, v in search.products
    )
    assert len(search.products) == len(words) ** 2
    assert 0 < meets < sum(v is not None for *_, v in search.products)
    assert calls[0] == (len(words) - 1) + meets
