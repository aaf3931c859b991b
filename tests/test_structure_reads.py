"""What the presentation already decides is read from it, not saturated:
the stagnation probe's trials on a bracket-abelian target are the span of
their generators, ``ideal_span``'s left factors are int vectors that become
Elements only when nonzero, and ``AlgebraPresentation._combination`` puts
a lone term over its own denominator. Each against the computation it
replaces, over Q and over F_101."""

import random

import pytest

import algcert as ac
from algcert import algebra
from algcert import certificates as cc
from algcert.algebra import ideal_span
from algcert.closure import generator_set, lie_closure
from algcert.linalg import PrimeField, echelonize
from helpers import count_muls, m3, without_unit

FP = PrimeField(101)


# -- stagnation ------------------------------------------------------------------


def _closure_trials(P, target, trials, max_gen, seed):
    """The probe's trials as one Lie closure each: (ranks, rng state)."""
    rng = random.Random(seed)
    ranks = []
    for t in range(trials):
        g = rng.randint(1, max_gen)
        items = [(f"t{t}g{i}", cc.random_element(P, rng, target, nonzero=target.rank > 0),
                  "random") for i in range(g)]
        ranks.append(lie_closure(P, generator_set("lie", items), target).final_rank)
    return ranks, rng.getstate()


def _target(P):
    return cc.derived_K_subspace(P) if P.has_involution else cc.derived_subspace(P)


def _probe_recording(P, target, trials, max_gen, seed, monkeypatch):
    """The probe's certificate, the state of its rng afterwards and the
    number of Lie closures it ran."""
    rngs, closures = [], [0]

    class Recording(random.Random):
        def __init__(self, *args):
            super().__init__(*args)
            rngs.append(self)

    def counting(*args, **kwargs):
        closures[0] += 1
        return lie_closure(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(cc.random, "Random", Recording)
        m.setattr(cc, "lie_closure", counting)
        cert = cc.stagnation_probe(P, target, trials=trials, max_gen=max_gen, seed=seed)
    rng, = rngs
    return cert, rng.getstate(), closures[0]


ABELIAN = [
    (build, D, field)
    for build in ("example1", "example2")
    for D in range(2, 7)
    for field in ("Q", "Fp:101")
]


@pytest.mark.parametrize("build,D,field", ABELIAN)
def test_abelian_stagnation_trials_equal_the_closure_loop(build, D, field, monkeypatch):
    builder = ac.build_example1 if build == "example1" else ac.build_example2
    P = builder(D, ac.field_from_name(field))
    target = _target(P)
    # The default max_gen, and one at least the target rank, so that some
    # trials draw enough generators to reach the target.
    for max_gen in (5, target.rank + 1):
        cert, state, closures = _probe_recording(P, target, 20, max_gen, 3, monkeypatch)
        ranks, expected_state = _closure_trials(P, target, 20, max_gen, 3)
        detail = cert.detail
        assert detail["bracket_abelian"]
        assert closures == 0
        assert [r["rank"] for r in detail["results"]] == ranks
        assert [r["reached"] for r in detail["results"]] == [r == target.rank for r in ranks]
        assert detail["max_rank_achieved"] == max(ranks)
        assert detail["reached_target_count"] == sum(r == target.rank for r in ranks)
        assert state == expected_state
        if max_gen > target.rank:
            assert detail["reached_target_count"] > 0


def test_a_non_abelian_target_keeps_one_closure_per_trial(monkeypatch):
    P = m3("flip")
    target = cc.derived_K_subspace(P)
    cert, state, closures = _probe_recording(P, target, 12, 3, 0, monkeypatch)
    ranks, expected_state = _closure_trials(P, target, 12, 3, 0)
    assert not cert.detail["bracket_abelian"]
    assert closures == 12
    assert [r["rank"] for r in cert.detail["results"]] == ranks
    assert state == expected_state


# -- ideal seeds -------------------------------------------------------------------


@pytest.mark.parametrize("field", [ac.QQ, FP])
def test_zero_x_with_unit_coeff_on_a_non_unital_table_is_r_times_r(field):
    # c 1 is not folded into x through a unit: b_i (1 + 0) b_j = b_i b_j.
    P = without_unit(ac.build_example1(3, field))
    products = [P.mul(P.basis_element(i), P.basis_element(j))
                for i in range(P.dim) for j in range(P.dim)]
    r_times_r = echelonize(P.field, products, P.dim)
    assert r_times_r.rank > 0
    assert ideal_span(P, P.zero(), unit_coeff=1) == r_times_r
    assert ideal_span(P, P.zero()).rank == 0


@pytest.mark.parametrize("field", [ac.QQ, FP])
def test_a_zero_ideal_costs_only_the_left_factors(field, monkeypatch):
    # e + e* = 1 in example 2, so R(1 - e - e*)R = 0: one product b_i x per
    # basis element, no seed and no basis factor.
    P = ac.build_example2(3, field)
    e = P.idempotents["e"]
    x = P.neg(P.add(e, P.involve(e)))
    built = [0]
    basis_factors = algebra._basis_factors

    def counting(Q):
        built[0] += 1
        return basis_factors(Q)

    monkeypatch.setattr(algebra, "_basis_factors", counting)
    muls = count_muls(monkeypatch)
    assert ideal_span(P, x, unit_coeff=1).rank == 0
    assert muls[0] == P.dim
    assert built[0] == 0


# -- combinations ---------------------------------------------------------------------


def test_a_lone_term_after_a_zero_first_keeps_its_own_denominator():
    P = m3("flip")
    # 0/6 + b_0 is b_0, not b_0 / 6.
    assert P._combination((6, {}), ((1, {0: 1}),), 1) == (1, {0: 1})
    assert P._combination((6, {}), ((4, {0: 1}),), 1) == (4, {0: 1})
    assert P._combination((6, {}), ((4, {0: 1}),), -1) == (4, {0: -1})
    assert P._combination((6, {}), ((4, {}),), 1) == (1, {})
    first = (6, {1: 5})
    assert P._combination(first, ((4, {}),), 1) == first
    assert P._element(P._combination(first, ((4, {0: 1}),), 1)) == P.element(
        [ac.QQ.from_pair(1, 4), ac.QQ.from_pair(5, 6)] + [0] * (P.dim - 2)
    )
