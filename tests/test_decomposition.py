"""Peirce components, the five-part grading, and the skew/symmetric split."""

import json
import random
from fractions import Fraction

import pytest

import algcert as ac
from algcert import formats
from algcert.algebra import axiom_violations
from algcert.errors import FormatError, IdempotentError, MissingInvolutionError
from algcert.linalg import QQ, PrimeField
from helpers import component_pair_gens, dense_change_of_basis, elem, intersect, m2, m3, m4, unit_elem


def test_peirce_m2_dims():
    P = m2()
    pd = ac.peirce_decompose(P, P.idempotents["e"])
    assert pd.dims() == (1, 1, 1, 1)


def test_peirce_m3_dims():
    # e = E11 classifies the nine units by row/column membership:
    # eRe = {E11}, eR(1-e) = {E12, E13}, (1-e)Re = {E21, E31}, rest is 2x2.
    P = m3()
    pd = ac.peirce_decompose(P, P.idempotents["e"])
    assert pd.dims() == (1, 2, 2, 4)
    assert pd.eRf.contains(unit_elem(P, "E13").coords)
    assert pd.fRe.contains(unit_elem(P, "E31").coords)


def test_peirce_degenerate_unit_idempotent():
    P = m2()
    pd = ac.peirce_decompose(P, P.unit)
    assert pd.dims() == (4, 0, 0, 0)


def test_peirce_rejects_non_idempotent():
    P = m2()
    with pytest.raises(IdempotentError):
        ac.peirce_decompose(P, unit_elem(P, "E12"))


def test_peirce_projections_recover_basis():
    P = m3()
    e = P.idempotents["e"]
    pd = ac.peirce_decompose(P, e)
    for i in range(P.dim):
        b = P.basis_element(i)
        eb, be = P.mul(e, b), P.mul(b, e)
        ebe = P.mul(eb, e)
        parts = [ebe, P.sub(eb, ebe), P.sub(be, ebe),
                 P.add(P.sub(P.sub(b, eb), be), ebe)]
        total = P.zero()
        for x in parts:
            total = P.add(total, x)
        assert P.equal(total, b)


def test_z_grading_m3_flip():
    P = m3("flip")
    g = ac.z_grading(P, P.idempotents["e"])
    assert g.dims() == (1, 2, 3, 2, 1)
    assert g.parts[-2].contains(unit_elem(P, "E13").coords)
    assert g.parts[2].contains(unit_elem(P, "E31").coords)
    for lab in ("E12", "E23"):
        assert g.parts[-1].contains(unit_elem(P, lab).coords)
    for lab in ("E21", "E32"):
        assert g.parts[1].contains(unit_elem(P, lab).coords)
    for lab in ("E11", "E22", "E33"):
        assert g.parts[0].contains(unit_elem(P, lab).coords)


def test_z_grading_m2_symplectic():
    # e = E11, e* = E22, s = 0: odd components vanish.
    P = m2("symplectic")
    g = ac.z_grading(P, P.idempotents["e"])
    assert g.dims() == (1, 0, 2, 0, 1)


def test_z_grading_top_products_vanish():
    for P in (m3("flip"), m4("flip")):
        g = ac.z_grading(P, P.idempotents["e"])
        for u in g.parts[2].basis:
            for v in g.parts[2].basis:
                assert P.is_zero(P.mul(P.element(u), P.element(v)))


def test_z_grading_preconditions():
    with pytest.raises(MissingInvolutionError):
        ac.z_grading(m2(), m2().idempotents["e"])
    P = m2("transpose")  # E11* = E11, so ee* != 0
    with pytest.raises(IdempotentError):
        ac.z_grading(P, P.idempotents["e"])


def _product_violations(P, parts):
    """(i, j) once per component basis pair whose product leaves R_{i+j}."""
    out = []
    for i in range(-2, 3):
        for j in range(-2, 3):
            for u in parts[i].basis:
                for v in parts[j].basis:
                    prod = P.mul(P.element(u), P.element(v))
                    if P.is_zero(prod):
                        continue
                    if abs(i + j) > 2 or not parts[i + j].contains(prod.coords):
                        out.append((i, j))
    return out


def test_grading_multiplicativity_exhaustive():
    for P in (m3("flip"), m4("flip"), m2("symplectic"), ac.build_example2(2)):
        g = ac.z_grading(P, P.idempotents["e"])
        # The fact z_grading takes from the axioms, checked on every pair.
        assert _product_violations(P, g.parts) == []


def _graded_intersections(kh, g):
    return {i: (intersect(kh.K, g.parts[i]), intersect(kh.H, g.parts[i])) for i in range(-2, 3)}


@pytest.mark.parametrize(
    "P",
    [
        m3("flip"),
        m4("flip"),
        ac.build_matrix_algebra(3, ac.PrimeField(101), "flip"),
        ac.build_matrix_algebra(4, ac.PrimeField(101), "flip"),
        m2("symplectic"),
        ac.build_example2(2),
        ac.build_example2(3),
    ],
    ids=["m3-flip", "m4-flip", "m3-flip-fp101", "m4-flip-fp101", "symplectic-m2",
         "example2-d2", "example2-d3"],
)
def test_graded_kh_projection_equals_intersection(P):
    g = ac.z_grading(P, P.idempotents["e"])
    assert axiom_violations(P) == ()
    kh = ac.kh_split(P, g)
    assert kh.graded == _graded_intersections(kh, g)


def _with_spurious_product(P, entry):
    d = formats.presentation_to_dict(P)
    d["mul"].append(entry)
    return d, formats.presentation_from_dict(d)


def test_dirty_presentation_is_refused_by_every_proof_using_entry(tmp_path, capsys):
    # One spurious product b0 * b1 += b4 breaks associativity, yet e = E11
    # still meets the grading's own preconditions. The grading, lemmas 2-8
    # and decompose use facts the axioms prove, so each refuses the table
    # instead of re-checking those facts on it.
    d, P = _with_spurious_product(m3("flip"), [0, 1, 4, "1"])
    assert axiom_violations(P)[0].axiom == "associativity"
    # Lemma 8 also runs on M2 symplectic with b0 * b1 += b3, where its
    # hypotheses hold.
    _, P2 = _with_spurious_product(m2("symplectic"), [0, 1, 3, "1"])
    entries = {
        "z_grading": lambda: ac.z_grading(P, P.idempotents["e"]),
        "lemma2": lambda: ac.lemma2_certificate(P),
        "lemma3": lambda: ac.lemma3_jordan_check(P, component_pair_gens(P)),
        "lemma4": lambda: ac.lemma4_check(P),
        "lemma5": lambda: ac.lemma5_certificate(P),
        "lemma5_sets": lambda: ac.lemma5_sets(P),
        "lemma6": lambda: ac.lemma6_check(P),
        "lemma7": lambda: ac.lemma7_reduction_check(P),
        "lemma8": lambda: ac.lemma8_check(P2),
    }
    for run in entries.values():
        with pytest.raises(FormatError, match="violates associativity"):
            run()
    # decompose gates up front, also where it computes no grading (M3 has
    # no involution).
    for table in (d, _with_spurious_product(m3(), [0, 1, 4, "1"])[0]):
        path = tmp_path / "dirty.json"
        path.write_text(json.dumps(table))
        assert ac.run_cli(["decompose", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "violates associativity" in out.err
        assert "Traceback" not in out.err


@pytest.mark.parametrize(
    "base,entry",
    [(m3("flip"), [0, 1, 4, "1"]), (m2("transpose"), [0, 1, 3, "1"])],
    ids=["m3-flip", "m2-transpose"],
)
def test_graded_lemmas_gate_before_their_hypotheses(base, entry):
    # Lemmas 4-8 call the gate before they evaluate a hypothesis, so a
    # dirty table is refused even where a hypothesis fails: e + e* != 1 on
    # M3 flip (lemma 8), and ee* != 0 on M2 transpose (all five).
    _, P = _with_spurious_product(base, entry)
    lemmas = {
        "lemma4": ac.lemma4_check,
        "lemma5": ac.lemma5_certificate,
        "lemma6": ac.lemma6_check,
        "lemma7": ac.lemma7_reduction_check,
        "lemma8": ac.lemma8_check,
    }
    if base.name.startswith("m2"):
        for lemma in lemmas.values():
            assert lemma(base).verdict == "hypothesis-not-met"
    else:
        assert ac.lemma8_check(base).verdict == "hypothesis-not-met"
    for lemma in lemmas.values():
        with pytest.raises(FormatError, match="violates associativity"):
            lemma(P)


def test_kh_split_m2_transpose():
    P = m2("transpose")
    kh = ac.kh_split(P)
    assert kh.K.rank == 1 and kh.H.rank == 3
    assert kh.K.basis == (elem(P, {"E12": 1, "E21": -1}).coords,)


def test_kh_split_m2_symplectic():
    # Skew part is trace-zero: (a b; c -a); symmetric part is the scalars.
    P = m2("symplectic")
    kh = ac.kh_split(P)
    assert kh.K.rank == 3 and kh.H.rank == 1


def test_kh_eigenvalue_property():
    for P in (m2("transpose"), m3("flip"), ac.build_example2(1)):
        kh = ac.kh_split(P)
        for row in kh.K.basis:
            v = P.element(row)
            assert P.equal(P.involve(v), P.neg(v))
        for row in kh.H.basis:
            v = P.element(row)
            assert P.equal(P.involve(v), v)
        assert kh.K.rank + kh.H.rank == P.dim


def _isotropic_transpose():
    """M3 transpose over F_101 and e = v w^T for v = (1, 10, 0) and
    w = (1, -10, 0) / 2: v.v = w.w = 0 and v.w = 1 mod 101, so e^2 = e,
    ee* = (w.w) v v^T = 0 and e*e = (v.v) w w^T = 0. Over Q no e != 0 has
    ee^T = 0 (its trace is the sum of the squares of e's entries), so M3
    transpose has no grading there."""
    P = ac.build_matrix_algebra(3, PrimeField(101), "transpose")
    v, w = (1, 10, 0), (51, 96, 0)
    return P, P.element([v[a] * w[b] for a in range(3) for b in range(3)])


def _kh_cases():
    out = {}
    for field, F in (("Q", QQ), ("Fp101", PrimeField(101))):
        P = ac.build_matrix_algebra(3, F, "flip")
        out[f"m3-flip-{field}"] = P, P.idempotents["e"]
        ex2 = ac.build_example2(2, F)
        out[f"example2-D2-{field}"] = ex2, ex2.idempotents["e"]
        dense = dense_change_of_basis(P, 5)
        out[f"m3-flip-dense-{field}"] = dense, dense.idempotents["e"]
    out["m3-transpose-Fp101"] = _isotropic_transpose()
    return out


KH_CASES = _kh_cases()


@pytest.mark.parametrize("name", sorted(KH_CASES))
def test_graded_kh_sums_equal_the_ungraded_split(name):
    # R is the direct sum of the *-stable R_i behind the gate, so K and H
    # are the sums of the K_i and of the H_i.
    P, e = KH_CASES[name]
    g = ac.z_grading(P, e)
    kh = ac.kh_split(P, g)
    plain = ac.kh_split(P)
    assert plain.graded is None
    assert (kh.K, kh.H) == (plain.K, plain.H)
    assert kh.K.rank + kh.H.rank == P.dim
    assert sum(kh.graded[i][0].rank for i in range(-2, 3)) == kh.K.rank


def test_graded_kh_m3_flip():
    P = m3("flip")
    g = ac.z_grading(P, P.idempotents["e"])
    kh = ac.kh_split(P, g)
    K2, H2 = kh.graded[2]
    assert K2.rank == 0
    assert H2.basis == (unit_elem(P, "E31").coords,)
    K1, _ = kh.graded[1]
    assert K1.basis == (elem(P, {"E21": 1, "E32": -1}).coords,)


def test_brace():
    Pt = m2("transpose")
    assert Pt.brace(unit_elem(Pt, "E12")) == elem(Pt, {"E12": 1, "E21": -1})
    assert Pt.is_zero(Pt.brace(elem(Pt, {"E11": 1, "E22": 1})))
    P2 = ac.build_example2(1)
    x_e11 = elem(P2, {"x*E11": 1})
    assert P2.brace(x_e11) == elem(P2, {"x*E11": 1, "x*E22": 1})


def test_brace_spans_K():
    for P in (m2("transpose"), m3("flip"), m4("flip"), ac.build_example2(2)):
        kh = ac.kh_split(P)
        braces = [P.brace(P.basis_element(i)) for i in range(P.dim)]
        assert P.span_of(braces) == kh.K


def test_K_closed_under_bracket_H_under_circle():
    P = m3("flip")
    kh = ac.kh_split(P)
    rng = random.Random(21)

    def sample(sub):
        acc = P.zero()
        for row in sub.basis:
            acc = P.add(acc, P.scale(Fraction(rng.randint(-2, 2)), P.element(row)))
        return acc

    for _ in range(20):
        k1, k2 = sample(kh.K), sample(kh.K)
        assert kh.K.contains(P.commutator(k1, k2).coords)
        h1, h2 = sample(kh.H), sample(kh.H)
        assert kh.H.contains(P.circle(h1, h2).coords)


def test_component_pairwise_intersections_zero():
    P = m3("flip")
    g = ac.z_grading(P, P.idempotents["e"])
    comps = [g.parts[i] for i in range(-2, 3)]
    assert sum(c.rank for c in comps) == P.dim
    for i in range(5):
        for j in range(i + 1, 5):
            assert intersect(comps[i], comps[j]).rank == 0
