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
    _working,
    random_element,
    random_scalar,
)
from algcert.errors import CapExceededError
from algcert.linalg import QQ, PrimeField
from helpers import coords_element, count_muls, dense_change_of_basis, m3

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
    lazy = Element._of(F, len(nums), F.from_ints(dict(enumerate(nums)), d))
    assert lazy.coords == eager
    assert list(map(type, lazy.coords)) == list(map(type, eager))
    assert lazy.support[0] > 0


@pytest.mark.parametrize("name", sorted(FIELDS))
@SUPPORTS
@given(data=st.data())
def test_elements_from_coords_and_from_supports_are_equal(name, data):
    F = FIELDS[name]
    nums, d = data.draw(_int_vectors(F))
    from_support = Element._of(F, len(nums), F.from_ints(dict(enumerate(nums)), d))
    from_coords = coords_element(_eager_from_ints(F, nums, d))
    assert from_coords == from_support
    assert hash(from_coords) == hash(from_support)
    assert from_coords.support == from_support.support
    assert {from_coords: 1}[from_support] == 1
    # A longer vector with the same nonzero coordinates is another element.
    assert coords_element(from_coords.coords + (F.zero,)) != from_support


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
    results = [
        P.mul(a, b), P.add(a, b), P.sub(a, a), P.scale(3, a), P.neg(b),
        P.add(a, P.zero()), P.add(P.zero(), b), P.sub(a, b),
    ]
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


def _sandwich(Pw, u, mid, v):
    """u * mid * v by one-shot products, where u, v may be None (the
    empty word)."""
    left = mid if u is None else Pw.mul(u, mid)
    return left if v is None else Pw.mul(left, v)


class _UncachedWitnesses(_SandwichWitnesses):
    """The witness search before u * mid was computed once per word: one
    ``words_upto`` call per new u, u * mid once per pair, and every
    product, zero or not, handed to the solver. ``inputs`` holds them."""

    def __init__(self, *args):
        super().__init__(*args)
        self.inputs = []

    def _grow_to(self, L):
        while self.length < L:
            self.length += 1
            new = self.words.level(self.length)
            old = self.words.words_upto(self.length - 1)
            pairs = []
            for ul, u in new:
                for vl, v in self.words.words_upto(self.length):
                    pairs.append((ul, u, vl, v))
            for ul, u in old:
                for vl, v in new:
                    pairs.append((ul, u, vl, v))
            for ul, u, vl, v in pairs:
                prod = _sandwich(self.Pw, u, self.mid, v)
                self.products.append((ul, u, vl, v))
                self.inputs.append(prod)
                self.solver.add(prod)


def _nonzero_until_full(P, products, inputs):
    """The products of the nonzero inputs, in order, up to the one that
    makes their span full."""
    span = ac.SpanBuilder(P.field, P.dim)
    out = []
    for product, el in zip(products, inputs):
        if P.is_zero(el):
            continue
        out.append(product)
        if span.add(el) and span.is_full:
            break
    return out


def _labelled_combos(search):
    """Each pivot row's combination, keyed by the (u, v) labels of its
    inputs rather than by input index."""
    solver = search.solver
    return [
        {search.products[i][0::2]: c for i, c in solver.combination(k).items()}
        for k in range(solver.rank)
    ]


def _witness_searches(P, cls, cap):
    Pw, lift, _ = _working(P)
    gens = [(name, lift(el)) for name, el in sorted(P.generators.items())]
    words = _WordLevels(Pw, gens)
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
        # The solver gets the reference's nonzero inputs, in order, until
        # their span is full; zero inputs never enter a combination.
        assert search.products == _nonzero_until_full(
            search.Pw, reference.products, reference.inputs
        )
        assert _labelled_combos(search) == _labelled_combos(reference)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_witness_terms_stay_the_same_on_longer_words(name, k):
    # A target's terms combine the solver inputs that grew its rank. Those
    # are linearly independent, so once the target lies in their span its
    # terms are unique, and growing the search k more levels cannot change
    # them. A full span takes no more inputs.
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
        full = search.solver.rank == search.Pw.dim
        search._grow_to(search.length + k)
        assert (len(search.products) == inputs) == full
        for target, terms in solved:
            assert search.decompose(target, "target")[1] == terms


def _table_reach(P, a):
    """The indices j with b_i * b_j != 0 for some i in the support of a."""
    return {j for i, _ in a.support[1] for j in range(P.dim) if P.mul_basis(i, j).support[1]}


def _meets(P, left, v):
    return not _table_reach(P, left).isdisjoint(i for i, _ in v.support[1])


def _expected_witness_run(Pw, mid, levels, L):
    """(mul calls, pairs skipped, products) of a search grown to L, by
    brute force: one u * mid per nonempty word u that it reaches, and one
    (u * mid) * v per pair, in the old order, whose v meets the table reach
    of u * mid; the nonzero products until their span is full."""
    calls = skipped = 0
    products = []
    span = ac.SpanBuilder(Pw.field, Pw.dim)
    lefts = {}
    for length in range(L + 1):
        new = levels[length]
        upto = [w for n in range(length + 1) for w in levels[n]]
        old = upto[:len(upto) - len(new)]
        pairs = [(u, v) for u in new for v in upto] + [(u, v) for u in old for v in new]
        for (ul, u), (vl, v) in pairs:
            if ul not in lefts:
                calls += u is not None
                lefts[ul] = mid if u is None else Pw.mul(u, mid)
            left = lefts[ul]
            if v is not None:
                if not _meets(Pw, left, v):
                    skipped += 1
                    continue
                calls += 1
            prod = left if v is None else Pw.mul(left, v)
            if Pw.is_zero(prod):
                continue
            products.append((ul, u, vl, v))
            if span.add(prod) and span.is_full:
                return calls, skipped, products
    return calls, skipped, products


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_witness_search_computes_each_left_factor_once(monkeypatch, name):
    P = PRESENTATIONS[name]
    _, _, searches = _witness_searches(P, _SandwichWitnesses, 3)
    for search in searches:
        Pw, words = search.Pw, search.words
        L = 2
        levels = [[("", None)]] + [words.level(n) for n in range(1, L + 1)]
        calls, skipped, products = _expected_witness_run(Pw, search.mid, levels, L)
        muls = count_muls(monkeypatch)
        # A search built now counts the products of its operators too.
        search = _SandwichWitnesses(Pw, search.mid, words, 3)
        search._grow_to(L)
        monkeypatch.undo()
        assert muls[0] == calls
        assert search.products == products
        if "dense" not in name:
            # Matrix units and the examples' tables leave most pairs zero.
            assert skipped > 0


class _NoSpan:
    """A solver whose span never grows, so that a search never stops at
    full rank."""

    rank = 0

    def add(self, vec):
        return False


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_reach_index_yields_the_words_that_meet_the_reach(name):
    # At each level, the words paired with u * mid are those whose support
    # meets the table reach of u * mid: all of them from position 1
    # (position 0 is the empty word) for a new u, the newest level's from
    # n_old for an old one.
    P = PRESENTATIONS[name]
    _, _, searches = _witness_searches(P, _SandwichWitnesses, 3)
    for search in searches:
        Pw = search.Pw
        search.solver = _NoSpan()
        for length in range(4):
            search._grow_to(length)
            upto = search.words.words_upto(length)
            n_old = len(upto) - len(search.words.level(length)) if length else 0
            assert len(search.lefts) == len(upto)
            for left in search.lefts:
                reach, table_reach = left.reach, _table_reach(Pw, left)
                assert reach == table_reach
                for start in {1, max(n_old, 1)}:
                    assert search._meeting(reach, start) == [
                        pos for pos in range(start, len(upto))
                        if not table_reach.isdisjoint(i for i, _ in upto[pos][1].support[1])
                    ]
