"""Lemma 3's reduction identities are proved, not sampled: the symmetrized
one is the definition of the Jordan triple, and both sides of the
linearized one expand to xyu1vu2 + xyu2vu1 by associativity, which the
gate has checked. The old sample loop is kept here as the reference: on
matrix algebras over Q and F_101, a dense change of basis and example 2 it
finds no violation, and its count is the one reported."""

import argparse
import random

import pytest

import algcert as ac
from algcert import certificates as cc
from algcert.linalg import QQ, PrimeField
from helpers import component_pair_gens, dense_change_of_basis


def _instances():
    out = {}
    for field, F in {"Q": QQ, "Fp101": PrimeField(101)}.items():
        out[f"m3-flip-{field}"] = ac.build_matrix_algebra(3, F, "flip")
        out[f"m4-flip-{field}"] = ac.build_matrix_algebra(4, F, "flip")
    out["m3-flip-dense-Q"] = dense_change_of_basis(out["m3-flip-Q"], 5)
    out["example2-d2"] = ac.build_example2(2)
    return out


INSTANCES = _instances()


def _old_identity_checks(P, seed=0, samples=100):
    """The old sample loop over the associative pair that lemma 3's claim
    generates: (violated identity or None, checks)."""
    comp_minus, comp_plus = ac.pair_closure(P, component_pair_gens(P), "assoc-pair").final
    rng = random.Random(seed)
    checks = 0
    for _ in range(samples):
        x = cc.random_element(P, rng, comp_plus)
        u = cc.random_element(P, rng, comp_plus)
        y = cc.random_element(P, rng, comp_minus)
        v = cc.random_element(P, rng, comp_minus)
        xyu = P.triple(x, y, u)
        lhs = P.add(P.mul(P.mul(xyu, v), u), P.mul(P.mul(u, v), xyu))
        if not P.equal(lhs, P.jordan_triple(xyu, v, u)):
            return "symmetrized", checks
        u1 = cc.random_element(P, rng, comp_plus)
        u2 = cc.random_element(P, rng, comp_plus)
        lhs2 = P.mul(P.mul(x, y), P.jordan_triple(u1, v, u2))
        rhs2 = P.add(
            P.jordan_triple(P.triple(x, y, u1), v, u2),
            P.jordan_triple(P.triple(x, y, u2), v, u1),
        )
        rhs2 = P.sub(rhs2, P.jordan_triple(u1, P.triple(v, x, y), u2))
        if not P.equal(lhs2, rhs2):
            return "linearized", checks
        checks += 2
    return None, checks


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_identity_checks_equal_the_old_sample_loop(name):
    P = INSTANCES[name]
    cert = cc._lemma3_claim(P, argparse.Namespace(seed=3))
    violated, checks = _old_identity_checks(P, seed=3)
    assert violated is None
    assert cert.verdict == "pass"
    assert cert.seed == 3
    assert cert.detail["identity_checks"] == checks == cc.JORDAN_IDENTITY_CHECKS == 200
