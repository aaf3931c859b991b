"""The Peirce components, the grading and lemma 2's pair components all come
from ``decomposition._corners``. Each is compared here with a copy of the
sandwich formulas it replaced: Peirce's own loop, the grading's nine
sandwiches with s = 1 - e - e* applied as a map, and lemma 2's loop over
the basis in the unital hull."""

import pytest

import algcert as ac
from algcert import certificates as cc, formats
from algcert.errors import IdempotentError
from algcert.linalg import SpanBuilder, field_from_name
from helpers import count_muls, dense_change_of_basis


def _non_unital(P):
    d = formats.presentation_to_dict(P)
    d["unital"] = False
    del d["unit"]
    return formats.presentation_from_dict(d)


def _dense_m3(field):
    return dense_change_of_basis(
        ac.build_matrix_algebra(3, field_from_name(field), "flip"), 5
    )


INSTANCES = {
    "m3-flip": lambda: ac.build_matrix_algebra(3, involution="flip"),
    "m4-transpose": lambda: ac.build_matrix_algebra(4, involution="transpose"),
    "example2-D2": lambda: ac.build_example2(2),
    "example2-D3": lambda: ac.build_example2(3),
    "m3-flip-dense-Q": lambda: _dense_m3("Q"),
    "m3-flip-dense-Fp101": lambda: _dense_m3("Fp:101"),
    "m3-flip-dense-Q-non-unital": lambda: _non_unital(_dense_m3("Q")),
}


def _spans(P, vectors_per_part):
    out = {}
    for key, vectors in vectors_per_part.items():
        span = SpanBuilder(P.field, P.dim)
        for v in vectors:
            span.add(v)
        out[key] = span.subspace()
    return out


def _old_peirce(P, e):
    """eRe, eR(1-e), (1-e)Re, (1-e)R(1-e) from eb, be and ebe."""
    parts = {k: [] for k in ("eRe", "eRf", "fRe", "fRf")}
    for i in range(P.dim):
        b = P.basis_element(i)
        eb, be = P.mul(e, b), P.mul(b, e)
        ebe = P.mul(eb, e)
        parts["eRe"].append(ebe)
        parts["eRf"].append(P.sub(eb, ebe))
        parts["fRe"].append(P.sub(be, ebe))
        parts["fRf"].append(P.add(P.sub(P.sub(b, eb), be), ebe))
    return _spans(P, parts)


def _old_grading(P, e):
    """The five grades from the nine sandwiches x·b·y of e, e* and s."""
    estar = P.involve(e)
    ee = P.add(e, estar)

    def s_left(x):
        return P.sub(x, P.mul(ee, x))

    def s_right(x):
        return P.sub(x, P.mul(x, ee))

    def sandwich(left, b, right):
        x = left(b) if callable(left) else P.mul(left, b)
        return right(x) if callable(right) else P.mul(x, right)

    sandwiches = {
        -2: ((e, estar),),
        -1: ((e, s_right), (s_left, estar)),
        0: ((e, e), (estar, estar), (s_left, s_right)),
        1: ((estar, s_right), (s_left, e)),
        2: ((estar, e),),
    }
    basis = [P.basis_element(i) for i in range(P.dim)]
    return _spans(P, {
        grade: [sandwich(x, b, y) for b in basis for x, y in pairs]
        for grade, pairs in sandwiches.items()
    })


def _old_lemma2_components(P, e, f):
    """(e·b·f, f·b·e) over the basis, computed in the search's working copy
    (the unital hull when P has no unit) and taken back to P."""
    search = cc._witness_search(P, e, f, 6)
    Pw, lift, lower = search.Pw, search.lift, search.lower
    e_w, f_w = search.wit_e.mid, search.wit_f.mid
    minus, plus = [], []
    for i in range(P.dim):
        b = lift(P.basis_element(i))
        minus.append(lower(Pw.mul(Pw.mul(e_w, b), f_w)))
        plus.append(lower(Pw.mul(Pw.mul(f_w, b), e_w)))
    spans = _spans(P, {"-": minus, "+": plus})
    return spans["-"], spans["+"]


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_peirce_components_equal_the_sandwich_formulas(name):
    P = INSTANCES[name]()
    e = P.idempotents["e"]
    pd = ac.peirce_decompose(P, e)
    old = _old_peirce(P, e)
    assert (pd.eRe, pd.eRf, pd.fRe, pd.fRf) == (
        old["eRe"], old["eRf"], old["fRe"], old["fRf"]
    )
    assert sum(pd.dims()) == P.dim


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_grading_parts_equal_the_sandwich_formulas(name):
    P = INSTANCES[name]()
    e = P.idempotents["e"]
    if not P.is_zero(P.mul(e, P.involve(e))):
        # e = E11 is fixed by the transpose: no grading to compare.
        with pytest.raises(IdempotentError, match="ee\\* = e\\*e = 0"):
            ac.z_grading(P, e)
        return
    grading = ac.z_grading(P, e)
    assert sorted(grading.parts) == [-2, -1, 0, 1, 2]
    assert grading.parts == _old_grading(P, e)


def _components_passed(monkeypatch, run):
    """The components each ``_lemma2_impl`` call got while run() ran."""
    passed = []
    original = cc._lemma2_impl

    def recording(P, search, components):
        passed.append(components)
        return original(P, search, components)

    monkeypatch.setattr(cc, "_lemma2_impl", recording)
    run()
    return passed


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_lemma2_components_equal_the_hull_loop(monkeypatch, name):
    # Lemma 2 and theorem 1 pass Peirce's (eRf, fRe), theorem 2 the
    # grading's (R_-2, R_2): the sandwiches over 1 - e and over e*.
    P = INSTANCES[name]()
    e = P.idempotents["e"]
    peirce = _old_lemma2_components(P, e, None)
    claims = [ac.lemma2_generating_set, ac.lemma2_certificate, ac.theorem1_certify]
    for claim in claims:
        passed = _components_passed(monkeypatch, lambda: claim(P, e))
        assert passed in ([], [peirce])
        if claim is ac.lemma2_generating_set:
            assert passed == [peirce]
    if P.is_zero(P.mul(e, P.involve(e))):
        corners = _old_lemma2_components(P, e, P.involve(e))
        passed = _components_passed(monkeypatch, lambda: ac.theorem2_certify(P, e))
        assert passed in ([], [corners])
        grading = ac.z_grading(P, e)
        assert (grading.parts[-2], grading.parts[2]) == corners


def test_claims_reach_lemma2_on_m3_flip(monkeypatch):
    # On M3 flip every claim meets its hypotheses, so each one's components
    # were compared above, not skipped.
    P = INSTANCES["m3-flip"]()
    for claim in (ac.lemma2_certificate, ac.theorem1_certify, ac.theorem2_certify):
        assert len(_components_passed(monkeypatch, lambda: claim(P))) == 1


def test_lemma2_generating_set_refuses_a_non_idempotent():
    P = ac.build_matrix_algebra(3, involution="flip")
    with pytest.raises(IdempotentError, match="not idempotent"):
        ac.lemma2_generating_set(P, P.basis_element(1))


def test_z_grading_product_count_on_m3_flip(monkeypatch):
    # The gate computes e² = e once, ee* = 0 and e*e = 0 take one product
    # each, and each of the 9 basis elements 8: e·b, e*·b, b·e, b·e* and the
    # four (x·b)·y.
    P = ac.build_matrix_algebra(3, involution="flip")
    muls = count_muls(monkeypatch)
    ac.z_grading(P, P.idempotents["e"])
    assert muls[0] <= 75


def test_peirce_product_count_on_m3_flip(monkeypatch):
    # e² = e once, then e·b, b·e and (e·b)·e for each basis element.
    P = ac.build_matrix_algebra(3, involution="flip")
    muls = count_muls(monkeypatch)
    e = P.idempotents["e"]
    ac.peirce_decompose(P, e)
    ac.peirce_decompose(P, e)
    assert muls[0] == 1 + 2 * 3 * P.dim
