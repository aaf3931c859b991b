"""Products that only feed a span stay int vectors (the product kernel
``AlgebraPresentation._ints``, the factor products and brackets on it):
every closure, bracket span, ideal span and witness search fed with them
equals the same computation fed with ``mul``/``sub`` Elements, on M3 flip,
its dense change of basis (seed 5) and example2 D=2, over Q and over F_101.
Over F_101 the dense table has products whose raw integer sums are nonzero
multiples of p: the kernel reduces them before anything tests for zero, so
the witness search's products stay in step with its solver's inputs."""

import argparse
import random

import pytest

import algcert as ac
from algcert import certificates as cc
from algcert import closure
from algcert.algebra import principal_ideal
from algcert.errors import CapExceededError
from algcert.linalg import CombinationSolver, PrimeField
from helpers import dense_change_of_basis

FP = PrimeField(101)


def _instances():
    out = {}
    for field in ("Q", "Fp:101"):
        F = ac.field_from_name(field)
        m3 = ac.build_matrix_algebra(3, F, "flip")
        out[f"m3-flip-{field}"] = m3
        out[f"m3-flip-dense-{field}"] = dense_change_of_basis(m3, 5)
        out[f"example2-D2-{field}"] = ac.build_example2(2, F)
    return out


INSTANCES = _instances()


# -- Element references ---------------------------------------------------------


def _element_saturation(P, seeds, products):
    """``closure._saturate_linear`` with no ceilings, fed with Elements:
    products(vectors, old, n) yields (side, Element)."""
    builders = [ac.SpanBuilder(P.field, P.dim) for _ in seeds]
    vectors = [[] for _ in seeds]
    for side, els in enumerate(seeds):
        for el in els:
            if builders[side].add(el.coords):
                vectors[side].append(el)
                if builders[side].is_full:
                    break
    rounds = [(0, sum(b.rank for b in builders))]
    old = [0] * len(seeds)
    rnd = 0
    while True:
        rnd += 1
        n = [len(v) for v in vectors]
        grew = False
        if not all(b.is_full for b in builders):
            for side, el in products(vectors, old, n):
                if not builders[side].is_full and builders[side].add(el.coords):
                    vectors[side].append(el)
                    grew = True
                    if all(b.is_full for b in builders):
                        break
        old = n
        rounds.append((rnd, sum(b.rank for b in builders)))
        if not grew:
            break
    finals = tuple(b.subspace() for b in builders)
    return closure.ClosureTrace(tuple(rounds), finals if len(finals) > 1 else finals[0], rnd)


def _bracket(P, u, v):
    return P.sub(P.mul(u, v), P.mul(v, u))


def _lie_products(P):
    def products(vectors, old, n):
        (vectors,), (old,), (n,) = vectors, old, n
        for j in range(old, n):
            for i in range(j):
                yield 0, _bracket(P, vectors[i], vectors[j])
    return products


def _assoc_products(P):
    def products(vectors, old, n):
        (vectors,), (old,), (n,) = vectors, old, n
        for j in range(old, n):
            yield 0, P.mul(vectors[j], vectors[j])
            for i in range(j):
                yield 0, P.mul(vectors[i], vectors[j])
                yield 0, P.mul(vectors[j], vectors[i])
    return products


def _pair_products(P, jordan):
    def triple(x, y, z):
        return P.mul(P.mul(x, y), z)

    def products(vectors, old, n):
        for side, other in ((1, 0), (0, 1)):
            outer, inner = vectors[side], vectors[other]
            for i in range(n[side]):
                for j in range(n[other]):
                    start = i if jordan else 0
                    if i < old[side] and j < old[other]:
                        start = max(start, old[side])
                    for k in range(start, n[side]):
                        x, y, z = outer[i], inner[j], outer[k]
                        t = triple(x, y, z)
                        yield side, P.add(t, triple(z, y, x)) if jordan else t
    return products


def _draws(P, rng, count):
    """Seeded elements: random combinations of the basis, a basis element
    and a zero."""
    out = [cc.random_element(P, rng, nonzero=True) for _ in range(count)]
    return out + [P.basis_element(rng.randrange(P.dim)), P.zero()]


# -- closures -------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_lie_and_associative_closures_equal_the_element_fed_ones(name):
    P = INSTANCES[name]
    rng = random.Random(f"int-{name}")
    for count in (1, 2):
        seeds = _draws(P, rng, count)
        items = [(f"g{k}", el, "t") for k, el in enumerate(seeds)]
        lie = ac.lie_closure(P, ac.generator_set("lie", items))
        assert lie == _element_saturation(P, [seeds], _lie_products(P))
        assoc = ac.assoc_closure(P, ac.generator_set("associative", items))
        assert assoc == _element_saturation(P, [seeds], _assoc_products(P))


@pytest.mark.parametrize("kind", ["assoc-pair", "jordan-pair"])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_pair_closures_equal_the_element_fed_ones(name, kind):
    P = INSTANCES[name]
    rng = random.Random(f"pair-{kind}-{name}")
    minus, plus = _draws(P, rng, 1), _draws(P, rng, 1)[:2]
    items = [(f"m{k}", el, "t") for k, el in enumerate(minus)]
    items += [(f"p{k}", el, "t") for k, el in enumerate(plus)]
    gens = ac.generator_set(kind, items, ["-"] * len(minus) + ["+"] * len(plus))
    trace = ac.pair_closure(P, gens)
    assert trace == _element_saturation(
        P, [minus, plus], _pair_products(P, kind == "jordan-pair")
    )


# -- bracket spans and ideal spans ------------------------------------------------


def _bracket_rows(P, kind):
    if kind == "basis":
        return [P.basis_element(i) for i in range(P.dim)]
    if kind == "K":
        return P.elements(cc._skew_part(P))
    rng = random.Random(f"rows-{P.name}")
    rows = [cc.random_element(P, rng) for _ in range(5)]
    return rows + [P.zero(), rows[0], P.basis_element(0)]


@pytest.mark.parametrize("kind", ["basis", "K", "random"])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_bracket_spans_equal_the_element_fed_ones(name, kind):
    P = INSTANCES[name]
    if kind == "K" and not P.has_involution:
        pytest.skip("no involution")
    rows = _bracket_rows(P, kind)
    expected = P.span_of(
        [_bracket(P, u, v).coords for i, u in enumerate(rows) for v in rows[i + 1:]]
    )
    assert cc._bracket_span(P, rows) == expected
    if kind == "basis":
        assert cc.commutator_span(P) == expected


def _element_closure(P, seeds):
    """The span of the Elements seeds, saturated under left and right
    products with the basis, all as Elements."""
    span = ac.SpanBuilder(P.field, P.dim)
    basis = [P.basis_element(i) for i in range(P.dim)]
    frontier = [w for w in seeds if span.add(w.coords)]
    while frontier:
        new = []
        for r in frontier:
            for b in basis:
                for w in (P.mul(b, r), P.mul(r, b)):
                    if span.add(w.coords):
                        new.append(w)
        frontier = new
    return span.subspace()


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_ideal_spans_equal_the_element_fed_ones(name):
    # ideal_span's seeds b_i (c + x) b_j are int vectors, and so are the
    # products of its rounds; principal_ideal seeds with the Element x.
    P = INSTANCES[name]
    e = P.idempotents["e"]
    rng = random.Random(f"ideal-{name}")
    r = cc.random_element(P, rng, nonzero=True)
    cases = [(e, 0), (P.neg(e), 1), (r, 0), (P.neg(r), 1), (P.basis_element(1), 0)]
    if P.has_involution:
        cases.append((P.neg(P.add(e, P.involve(e))), 1))
    basis = [P.basis_element(i) for i in range(P.dim)]
    for x, c in cases:
        seeds = [P.mul(P.add(P.mul(b_i, x), P.scale(c, b_i)), b_j)
                 for b_i in basis for b_j in basis]
        assert ac.ideal_span(P, x, c) == _element_closure(P, seeds)
        assert principal_ideal(P, x) == _element_closure(P, [x])


# -- the witness search ------------------------------------------------------------


class _ElementWitnesses(cc._SandwichWitnesses):
    """The witness search with every product an Element: u*mid and
    (u*mid)*v by ``mul``, each tested for zero as an Element, and the
    Elements handed to the solver."""

    def _grow_to(self, L):
        Pw, mid, solver = self.Pw, self.mid, self.solver
        while self.length < L and solver.rank < Pw.dim:
            self.length += 1
            new = self.words.level(self.length)
            upto = self.words.words_upto(self.length)
            n_old = len(upto) - len(new)
            for pos in range(max(n_old, 1), len(upto)):
                for i, _ in upto[pos][1].support[1]:
                    self.index.setdefault(i, []).append(pos)
            pairs = []
            for ul, u in new:
                left = mid if u is None else Pw.mul(u, mid)
                reach = Pw._reach(left)
                self.lefts.append((left, None, reach))
                pairs += [(ul, u, left, upto[pos]) for pos in [0] + self._meeting(reach, 1)]
            for (ul, u), (left, _, reach) in zip(upto[:n_old], self.lefts):
                pairs += [(ul, u, left, upto[pos]) for pos in self._meeting(reach, n_old)]
            for ul, u, left, (vl, v) in pairs:
                prod = left if v is None else Pw.mul(left, v)
                if Pw.is_zero(prod):
                    continue
                self.products.append((ul, u, vl, v))
                if solver.add(prod) and solver.rank == Pw.dim:
                    return


def _searches(P, cls):
    search = cc._witness_search(P, P.idempotents["e"], None, 3)
    mids = [search.wit_e.mid, search.wit_f.mid]
    if P.has_involution:
        mids.append(search.Pw.involve(search.wit_e.mid))
    return search, [cls(search.Pw, mid, search.words, 3) for mid in mids]


def _outcome(search, target):
    try:
        return search.decompose(target, "target")
    except CapExceededError as exc:
        return str(exc)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_witness_terms_equal_the_element_fed_search(name):
    P = INSTANCES[name]
    base, searches = _searches(P, cc._SandwichWitnesses)
    _, references = _searches(P, _ElementWitnesses)
    rng = random.Random(f"witness-{name}")
    targets = [el for _, el in base.gens] + [
        base.lift(cc.random_element(P, rng)) for _ in range(2)
    ]
    for search, reference in zip(searches, references):
        for target in targets:
            assert _outcome(search, target) == _outcome(reference, target)
        assert search.products == reference.products
        assert search.solver.count == reference.solver.count


def _raw_product(P, a, b):
    """The integer coordinates of a * b summed over the table, not reduced
    mod p: {k: sum x_i y_j c_ijk}."""
    _, rows = P._int_mul
    raw = {}
    for i, x in a.support[1]:
        for j, y in b.support[1]:
            for k, c in rows[i].get(j, ()):
                raw[k] = raw.get(k, 0) + x * y * c
    return raw


def test_dense_products_that_vanish_mod_p_are_zero_int_vectors():
    # e e* = 0 on the dense F_101 table, yet its raw integer sums are
    # nonzero multiples of 101: the kernel gives the empty dict, as mul
    # gives the zero element, and spans and solvers take it as zero.
    P = INSTANCES["m3-flip-dense-Fp:101"]
    e = P.idempotents["e"]
    e_star = P.involve(e)
    raw = _raw_product(P, e, e_star)
    assert any(raw.values()) and all(n % FP.p == 0 for n in raw.values())
    assert P._ints(e, e_star)[1] == {}
    assert P.mul(e, e_star) == P.zero()
    span = ac.SpanBuilder(P.field, P.dim)
    assert not span.add(P._ints(e, e_star))
    solver = CombinationSolver(P.field, P.dim)
    assert not solver.add(P._ints(e, e_star)) and solver.count == 1


def test_the_dense_fp_search_meets_products_that_vanish_mod_p():
    # The theorem 2 search over e and e* on the dense F_101 table pairs
    # factors whose raw products are nonzero multiples of p; its products
    # and terms are the Element-fed search's, and theorem 2 still passes.
    P = INSTANCES["m3-flip-dense-Fp:101"]
    e = P.idempotents["e"]
    search = cc._witness_search(P, e, P.involve(e), 3)
    reference = _ElementWitnesses(search.Pw, search.wit_f.mid, search.words, 3)
    wit = search.wit_f
    for _, el in search.gens:
        assert _outcome(wit, el) == _outcome(reference, el)
    assert wit.products == reference.products
    vanishing = 0
    for left, _, _ in reference.lefts:
        for _, v in search.words.words_upto(reference.length)[1:]:
            raw = _raw_product(search.Pw, left, v)
            if any(raw.values()) and not search.Pw._ints(left, v)[1]:
                vanishing += 1
    assert vanishing > 0
    opts = argparse.Namespace(seed=0, cap=6, trials=8, max_gen=5)
    assert cc.certify(P, "thm2", opts).verdict == "pass"
