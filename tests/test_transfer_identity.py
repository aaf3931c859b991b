"""Theorem 1's bracket-transfer identity is proved, not sampled: on Peirce
triples {a,b,c} - [[a,b],c] = b(ac) + (ca)b with ac = ca = 0 once the gate
has passed and e^2 = e. The old sample loop, which compared both sides with
eight products, is kept here as the reference: on matrix algebras over Q
and F_101 it finds no violation, and its count is the one reported. The
reach helper that ``commutator`` uses returns a * b either way."""

import random

import pytest

import algcert as ac
from algcert import certificates as cc
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
    pd = ac.peirce_decompose(P, P.idempotents["e"])
    comp_minus, comp_plus = pd.eRf, pd.fRe
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
    assert cert.detail["transfer_identity_checks"] == checks == cc.TRANSFER_IDENTITY_TRIPLES == 200


def test_theorem1_mul_count_on_m3_flip(monkeypatch):
    # The transfer identity costs no product, and neither does the gate's
    # unit law, which sums integer rows. The pair components are Peirce's,
    # three products per basis element (e^2 = e is read from the gate's
    # memo), not four hull products each. [R, R] is read off the table
    # (``commutator_span``), with none of the 24 products of the table
    # entries b_i b_j, i != j. Lemma 2's d is 1, read from the span of the
    # words of length <= 1 (the nine declared units span R), with no
    # sandwich of length 1 made. Its generating loop makes no sandwich for
    # a side whose span is already its whole component. The hypotheses
    # ReR = R and R(1-e)R = R make only their 9 + 9 left factors b_i y: on
    # the one-term table each nonzero left factor is one term c b_k, and
    # its seeds are read off row k as unit vectors, so none of the 24 seed
    # products (9 for ReR, 15 for R(1-e)R until its span is full) is made.
    muls = count_muls(monkeypatch)
    cc.theorem1_certify(ac.build_matrix_algebra(3, involution="flip"))
    assert muls[0] == 69


@pytest.mark.parametrize("name", ["m3-flip-Q", "m3-flip-Fp101", "m3-flip-dense-Q"])
def test_product_or_zero_equals_the_product(monkeypatch, name):
    # The product of two held factors computes a product only when b meets
    # the reach of a, and is a * b either way.
    P = INSTANCES[name]
    rng = random.Random(1)
    elements = [P.basis_element(i) for i in range(P.dim)]
    elements += [cc.random_element(P, rng) for _ in range(4)] + [P.zero()]
    muls = count_muls(monkeypatch)
    for a in elements:
        for b in elements:
            before = muls[0]
            got = P._element(P._product(P._factor(a), P._factor(b)))
            meets = any(P.mul_basis(i, j).support[1] for i, _ in a.support[1] for j, _ in b.support[1])
            assert muls[0] - before == meets
            assert got == P.mul(a, b)
