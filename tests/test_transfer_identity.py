"""Theorem 1's bracket-transfer spot checks: each sample computes ac and ca
and holds when both are zero, since {a,b,c} - [[a,b],c] = b(ac) + (ca)b.
Checked against the old sample loop, which compared both sides with eight
products, on matrix algebras over Q and F_101; with the samples' product
helper stubbed to a nonzero element, the full comparison runs instead.
``commutator`` keeps its own binding of the helper, so the stub leaves the
brackets exact."""

import random

import pytest

import algcert as ac
from algcert import certificates as cc
from algcert.algebra import AlgebraPresentation
from algcert.linalg import QQ, PrimeField
from helpers import count_muls, dense_change_of_basis

FIELDS = {"Q": QQ, "Fp101": PrimeField(101)}


def _instances():
    out = {}
    for field, F in FIELDS.items():
        m3 = ac.build_matrix_algebra(3, F, "flip")
        out[f"m3-flip-{field}"] = m3
        out[f"m3-flip-dense-{field}"] = dense_change_of_basis(m3, 5)
        out[f"m4-flip-{field}"] = ac.build_matrix_algebra(4, F, "flip")
    return out


INSTANCES = _instances()


def _old_transfer_checks(P, seed=0, samples=100):
    """The old sample loop: (violated, checks) with both sides of
    {a,b,c} = [[a,b],c] computed in full for every sample."""
    e = P.idempotents["e"]
    _, info = cc._lemma2_impl(P, cc._witness_search(P, e, None, 6, None))
    comp_minus, comp_plus = info["components"]
    rng = random.Random(seed)
    checks = 0
    for _ in range(samples):
        for outer, inner in ((comp_minus, comp_plus), (comp_plus, comp_minus)):
            a = cc.random_element(P, rng, outer)
            c = cc.random_element(P, rng, outer)
            b = cc.random_element(P, rng, inner)
            if P.jordan_triple(a, b, c) != P.commutator(P.commutator(a, b), c):
                return True, checks
            checks += 1
    return False, checks


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_transfer_checks_equal_the_old_sample_loop(name):
    P = INSTANCES[name]
    cert = cc.theorem1_certify(P)
    violated, checks = _old_transfer_checks(P)
    assert not violated
    assert cert.verdict == "pass"
    assert cert.detail["transfer_identity_checks"] == checks == 200


@pytest.mark.parametrize("name", ["m3-flip-Q", "m3-flip-dense-Fp101"])
def test_nonzero_ac_runs_the_full_comparison(monkeypatch, name):
    P = INSTANCES[name]
    triples = [0]
    jordan_triple = AlgebraPresentation.jordan_triple

    def counting(P, a, b, c):
        triples[0] += 1
        return jordan_triple(P, a, b, c)

    monkeypatch.setattr(AlgebraPresentation, "jordan_triple", counting)
    expected = cc.theorem1_certify(P).to_json_dict()
    unstubbed = triples[0]
    monkeypatch.setattr(cc, "_product_or_zero", lambda P, a, b: P.basis_element(0))
    stubbed = cc.theorem1_certify(P).to_json_dict()
    # One full comparison per sample, on top of the pair closure's triples.
    assert triples[0] - unstubbed == unstubbed + 200
    assert stubbed == expected


def test_theorem1_mul_count_on_m3_flip(monkeypatch):
    # On M3 flip the reach proves ac and ca zero: the 200 samples cost no
    # product. With the samples' helper stubbed to a nonzero element each
    # sample runs the full comparison: the four products of {a,b,c} and
    # those of the two brackets that the reach does not prove zero, 1,540
    # in all.
    muls = count_muls(monkeypatch)
    cc.theorem1_certify(ac.build_matrix_algebra(3, involution="flip"))
    assert muls[0] == 189
    muls[0] = 0
    monkeypatch.setattr(cc, "_product_or_zero", lambda P, a, b: P.basis_element(0))
    cc.theorem1_certify(ac.build_matrix_algebra(3, involution="flip"))
    assert muls[0] == 189 + 1540


@pytest.mark.parametrize("name", ["m3-flip-Q", "m3-flip-Fp101", "m3-flip-dense-Q"])
def test_product_or_zero_equals_the_product(monkeypatch, name):
    # The helper computes a product only when b meets the reach of a, and
    # returns a * b either way.
    P = INSTANCES[name]
    rng = random.Random(1)
    elements = [P.basis_element(i) for i in range(P.dim)]
    elements += [cc.random_element(P, rng) for _ in range(4)] + [P.zero()]
    muls = count_muls(monkeypatch)
    for a in elements:
        for b in elements:
            before = muls[0]
            got = cc._product_or_zero(P, a, b)
            meets = any(P.mul_basis(i, j).support[1] for i, _ in a.support[1] for j, _ in b.support[1])
            assert muls[0] - before == meets
            assert got == P.mul(a, b)
