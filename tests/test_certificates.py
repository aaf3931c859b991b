"""Generation certificates: constructions, verdicts, and hypothesis gates."""

import argparse
import itertools
import json
import random
from fractions import Fraction

import pytest

import algcert as ac
from algcert import algebra, certificates as cc
from algcert import formats
from algcert.errors import FormatError
from algcert.linalg import CombinationSolver
from helpers import (
    component_pair_gens,
    count_muls,
    dense_change_of_basis,
    elem,
    lemma2_parts,
    m2,
    m3,
    m4,
    unit_elem,
)


def test_derived_subspace_m2():
    P = m2()
    d = cc.derived_subspace(P)
    assert d.rank == 3  # trace-zero matrices
    assert cc.commutator_span(P) == d


def test_derived_K_m3_flip():
    # Brute-force brackets of the K basis: K is three-dimensional and its
    # commutators already span it.
    P = m3("flip")
    d = cc.derived_K_subspace(P)
    assert d.rank == 3
    assert d == ac.kh_split(P).K


def test_derived_example1():
    P = ac.build_example1(8)
    d = cc.derived_subspace(P)
    assert d.rank == 8


def test_lemma1_pass_m2_m3():
    c2 = ac.lemma1_certificate(m2())
    assert c2.verdict == "pass"
    assert c2.trace.final_rank == 3
    c3 = ac.lemma1_certificate(m3())
    assert c3.verdict == "pass"
    assert c3.trace.final_rank == 8


def test_lemma1_hypothesis_not_met_example1():
    c = ac.lemma1_certificate(ac.build_example1(4))
    assert c.verdict == "hypothesis-not-met"
    assert "R(1-e)R=R" in c.detail["failed_hypotheses"]


def test_lemma2_m2():
    P = m2()
    gens = ac.lemma2_generating_set(P)
    minus = [el for (_, el, _), s in zip(gens.elements, gens.sides) if s == "-"]
    plus = [el for (_, el, _), s in zip(gens.elements, gens.sides) if s == "+"]
    assert P.span_of(minus).basis == (unit_elem(P, "E12").coords,)
    assert P.span_of(plus).basis == (unit_elem(P, "E21").coords,)
    cert = ac.lemma2_certificate(P)
    assert cert.verdict == "pass"
    assert cert.detail["d"] == 1
    assert cert.detail["component_dims"] == (1, 1)


def test_lemma2_m3():
    cert = ac.lemma2_certificate(m3())
    assert cert.verdict == "pass"
    assert cert.detail["component_dims"] == (2, 2)


def test_lemma2_missing_generators():
    d = formats.presentation_to_dict(m2())
    d["generators"] = {}
    P = formats.presentation_from_dict(d)
    with pytest.raises(ac.errors.MissingGeneratorsError):
        ac.lemma2_generating_set(P)


def test_lemma2_cap_exceeded():
    # With only E11 declared, no sandwich word span over f = 1 - E11 can
    # express E11, so the witness search must hit its cap.
    d = formats.presentation_to_dict(m2())
    d["generators"] = {"E11": d["generators"]["E11"]}
    P = formats.presentation_from_dict(d)
    with pytest.raises(ac.errors.CapExceededError):
        ac.lemma2_generating_set(P, cap=3)


def test_lemma2_rejects_non_generating_set():
    d = formats.presentation_to_dict(m2())
    d["generators"] = {"E12": d["generators"]["E12"]}
    P = formats.presentation_from_dict(d)
    cert = ac.lemma2_certificate(P)
    assert cert.verdict == "hypothesis-not-met"
    assert "R=alg<gens>" in cert.detail["failed_hypotheses"]


def test_lemma3_m2_and_m3():
    for P in (m2(), m3()):
        gens = ac.lemma2_generating_set(P)
        cert = ac.lemma3_jordan_check(P, gens, seed=4)
        assert cert.verdict == "pass"
        assert cert.detail["identity_checks"] == 200


def test_theorem1_matrix_family():
    for n in (2, 3, 4):
        P = ac.build_matrix_algebra(n)
        cert = ac.theorem1_certify(P, seed=1)
        assert cert.verdict == "pass"
        assert cert.trace.final_rank == n * n - 1
        assert cert.target.rank == n * n - 1
        assert cert.detail["jordan_generation_ok"]
        # soundness: the closed final subspace equals the target exactly
        assert cert.trace.final == cert.target


def test_theorem1_hypothesis_gates():
    c = ac.theorem1_certify(ac.build_example1(8))
    assert c.verdict == "hypothesis-not-met"
    P = m2()
    c2 = ac.theorem1_certify(P, e=P.unit)
    assert c2.verdict == "hypothesis-not-met"
    assert "R(1-e)R=R" in c2.detail["failed_hypotheses"]


def test_theorem1_generator_relabeling_invariance():
    P = m3()
    base = ac.theorem1_certify(P)
    d = formats.presentation_to_dict(P)
    names = sorted(d["generators"])
    # Reverse the name order by relabeling; sorted iteration now visits the
    # underlying elements in the opposite order.
    d["generators"] = {
        f"w{len(names) - i}": d["generators"][name] for i, name in enumerate(names)
    }
    Q = formats.presentation_from_dict(d)
    other = ac.theorem1_certify(Q)
    assert other.verdict == base.verdict == "pass"
    assert other.trace.final == base.trace.final


def test_lemma4_m3_flip_with_witness():
    P = m3("flip")
    cert = ac.lemma4_check(P)
    assert cert.verdict == "pass"
    # Hand witness: k = E32 - E21 spans K_1 and k^2 = -E31 spans H_2.
    k = elem(P, {"E32": 1, "E21": -1})
    grading = ac.z_grading(P, P.idempotents["e"])
    kh = ac.kh_split(P, grading)
    assert kh.graded[1][0] == P.span_of([k])
    assert P.mul(k, k) == elem(P, {"E31": -1})
    assert kh.graded[2][1] == P.span_of([P.mul(k, k)])
    assert kh.graded[2][0].rank == 0


def test_lemma4_m4_flip_needs_polarization():
    P = m4("flip")
    cert = ac.lemma4_check(P)
    assert cert.verdict == "pass"
    # Basis squares vanish; only the cross term (k1+k2)^2 reaches H_2.
    kh = ac.kh_split(P, ac.z_grading(P, P.idempotents["e"]))
    K1 = kh.graded[1][0]
    rows = [P.element(r) for r in K1.basis]
    assert all(P.is_zero(P.mul(k, k)) for k in rows)
    cross = P.add(rows[0], rows[1])
    assert not P.is_zero(P.mul(cross, cross))


def test_lemma4_hypothesis_not_met_symplectic():
    cert = ac.lemma4_check(m2("symplectic"))
    assert cert.verdict == "hypothesis-not-met"
    assert "R(1-e-e*)R=R" in cert.detail["failed_hypotheses"]


def test_lemma5_m3_flip_exact_sets():
    P = m3("flip")
    M_minus, M_plus, info = ac.lemma5_sets(P)
    assert info["spans_ok"]
    minus_span = P.span_of([el for _, el, _ in M_minus.elements])
    assert minus_span == P.span_of([elem(P, {"E12": 1, "E23": -1})])
    plus_span = P.span_of([el for _, el, _ in M_plus.elements])
    assert plus_span == P.span_of([elem(P, {"E32": 1, "E21": -1})])
    # (E12 - E23) * E31 = -E21 and E31 * (E12 - E23) = E32 span R_1.
    g = ac.z_grading(P, P.idempotents["e"])
    m = elem(P, {"E12": 1, "E23": -1})
    e31 = unit_elem(P, "E31")
    assert P.mul(m, e31) == elem(P, {"E21": -1})
    assert P.mul(e31, m) == unit_elem(P, "E32")
    assert P.span_of([P.mul(m, e31), P.mul(e31, m)]) == g.parts[1]


def test_lemma5_m4_flip():
    cert = ac.lemma5_certificate(m4("flip"))
    assert cert.verdict == "pass"
    assert cert.detail["sizes"] == (2, 2)


_WITNESS_INSTANCES = {
    "m3-flip-Q": lambda: m3("flip"),
    "m3-flip-Fp101": lambda: ac.build_matrix_algebra(3, ac.PrimeField(101), "flip"),
    "m4-flip-Q": lambda: m4("flip"),
    "m4-flip-Fp101": lambda: ac.build_matrix_algebra(4, ac.PrimeField(101), "flip"),
    "example2-D2": lambda: ac.build_example2(2),
    "example2-D3": lambda: ac.build_example2(3),
    "m3-flip-dense": lambda: dense_change_of_basis(m3("flip"), 5),
}


@pytest.mark.parametrize("name", sorted(_WITNESS_INSTANCES))
def test_d_is_the_largest_minimal_witness_length(name):
    # d is the length one shared search grew to; each generator's minimal
    # length over e and over f is read from a search that saw no other target.
    P = _WITNESS_INSTANCES[name]()
    e = P.idempotents["e"]
    for f in (None, P.involve(e)):
        _, info, _ = lemma2_parts(P, e, f)
        minimal = []
        for gen in sorted(P.generators):
            for side in ("wit_e", "wit_f"):
                search = cc._witness_search(P, e, f, 6)
                el = dict(search.gens)[gen]
                minimal.append(getattr(search, side).decompose(el, gen)[0])
        assert info["d"] == max(minimal)


def _least_length(search, target, what):
    """The least L up to the cap whose span holds target, with the search
    grown to it by membership tests alone: the reference for the lengths
    lemma 2 reads (``_SandwichWitnesses.holds``)."""
    for L in range(0, search.cap + 1):
        search._grow_to(L)
        if search.holds(target):
            return L
    raise ac.errors.CapExceededError(what, search.cap)


@pytest.mark.parametrize("name", sorted(_WITNESS_INSTANCES))
def test_least_length_grows_the_search_as_decompose_does(name, monkeypatch):
    # Lemma 2 reads only lengths: the membership test grows each search as
    # far as decompose, leaving the same solver inputs and products for
    # lemma 5's terms, and solves nothing.
    P = _WITNESS_INSTANCES[name]()
    e = P.idempotents["e"]
    for f in (None, P.involve(e)):
        solved = cc._witness_search(P, e, f, 6)
        tested = cc._witness_search(P, e, f, 6)
        for side in ("wit_e", "wit_f"):
            a, b = getattr(solved, side), getattr(tested, side)
            expected = [a.decompose(el, gen)[0] for gen, el in solved.gens]
            with monkeypatch.context() as m:
                m.setattr(CombinationSolver, "solve", None)
                got = [_least_length(b, el, gen) for gen, el in tested.gens]
            assert got == expected
            assert (b.length, b.solver.count, b.solver.rank) == (a.length, a.solver.count, a.solver.rank)
            assert [(ul, vl) for ul, _, vl, _ in b.products] == [(ul, vl) for ul, _, vl, _ in a.products]
            for gen, el in solved.gens:
                assert b.decompose(el, gen) == a.decompose(el, gen)


def _full_search_d(search):
    """d as lemma 2 found it before the word-span stop: each declared
    generator, in name order, grown to over e and then over f, and d the
    larger of the lengths the two searches grew to."""
    for name, el in search.gens:
        _least_length(search.wit_e, el, f"{name} over e")
        _least_length(search.wit_f, el, f"{name} over f")
    return max(search.wit_e.length, search.wit_f.length)


@pytest.mark.parametrize("name", sorted(_WITNESS_INSTANCES))
def test_word_span_stop_keeps_d(name):
    # The stop returns L + 1 once the words of length <= L + 1 span the
    # algebra; d must be the full search's, and neither search may grow
    # further than the full one. On the matrix tables every unit is
    # declared, so the words span at length 1 and no sandwich of length 1
    # is made; on example2 the searches hold every generator first.
    P = _WITNESS_INSTANCES[name]()
    e = P.idempotents["e"]
    for f in (None, P.involve(e)):
        search, reference = (cc._witness_search(P, e, f, 6) for _ in range(2))
        d = cc._lemma2_length(P, search)
        assert d == _full_search_d(reference)
        grown = [getattr(search, side).length for side in ("wit_e", "wit_f")]
        full = [getattr(reference, side).length for side in ("wit_e", "wit_f")]
        assert all(g <= r for g, r in zip(grown, full))
        assert (max(grown) < d) == name.startswith("m")


def _m3_flip_with(edit):
    d = formats.presentation_to_dict(m3("flip"))
    edit(d)
    return formats.presentation_from_dict(d)


def test_word_span_stop_needs_the_ideal_hypotheses():
    # With e zeroed, ReR = 0. The nine declared units span R at length 1,
    # but no sandwich over e holds E11: an ungated stop would return d = 1
    # and an empty generating set.
    P = _m3_flip_with(lambda d: d["idempotents"].update(e=["0"] * 9))
    assert not algebra.axiom_violations(P)
    assert not algebra.hypotheses_for(P, P.idempotents["e"], ("ReR=R",))["ReR=R"]
    with pytest.raises(ac.errors.CapExceededError, match="E11 over e"):
        ac.lemma2_generating_set(P, cap=3)


def test_word_span_stop_needs_the_axiom_gate():
    # A doubled structure constant fails the gate but keeps both ideal
    # hypotheses, and the nine units span R at length 1: the search still
    # grows as it did before the stop, to the same lengths and products.
    P = _m3_flip_with(lambda d: d["mul"][0].__setitem__(3, "2"))
    e = P.idempotents["e"]
    assert algebra.axiom_violations(P)
    assert all(algebra.hypotheses_for(P, e, ("ReR=R", "R(1-e)R=R")).values())
    search, reference = (cc._witness_search(P, e, None, 6) for _ in range(2))
    d = cc._lemma2_length(P, search)
    assert d == _full_search_d(reference) == max(search.wit_e.length, search.wit_f.length)
    for side in ("wit_e", "wit_f"):
        got, expected = getattr(search, side), getattr(reference, side)
        assert (got.length, got.products) == (expected.length, expected.products)


def test_theorem2_builds_one_witness_search(monkeypatch):
    built = []
    for cls in (cc._SandwichWitnesses, cc._WordLevels):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__):
            built.append(_name)
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    assert ac.theorem2_certify(m3("flip")).verdict == "pass"
    assert sorted(built) == ["_SandwichWitnesses", "_SandwichWitnesses", "_WordLevels"]


def test_lemma5_vacuous_symplectic():
    cert = ac.lemma5_certificate(m2("symplectic"))
    assert cert.verdict == "pass"
    assert cert.detail["sizes"] == (0, 0)
    assert cert.detail["odd_component_dims"] == (0, 0)


def test_lemma6_m3_m4():
    c3 = ac.lemma6_check(m3("flip"))
    assert c3.verdict == "pass" and c3.trace.final_rank == 3
    c4 = ac.lemma6_check(m4("flip"))
    assert c4.verdict == "pass" and c4.trace.final_rank == 6


def test_lemma6_hypothesis_symplectic():
    cert = ac.lemma6_check(m2("symplectic"))
    assert cert.verdict == "hypothesis-not-met"


def test_theorem2_m3_m4():
    c3 = ac.theorem2_certify(m3("flip"), seed=7)
    assert c3.verdict == "pass"
    assert c3.trace.final_rank == 3
    assert c3.trace.final == cc.derived_K_subspace(m3("flip"))
    c4 = ac.theorem2_certify(m4("flip"), seed=7)
    assert c4.verdict == "pass"
    assert c4.trace.final_rank == 6


def test_theorem2_hypothesis_gates():
    c = ac.theorem2_certify(ac.build_example2(4))
    assert c.verdict == "hypothesis-not-met"
    assert "R(1-e-e*)R=R" in c.detail["failed_hypotheses"]
    c1 = ac.theorem2_certify(ac.build_example1(4))
    assert c1.verdict == "hypothesis-not-met"
    assert "involution" in c1.detail["failed_hypotheses"]


def test_lemma7_m4_flip():
    cert = ac.lemma7_reduction_check(m4("flip"), trials=10, seed=2)
    assert cert.verdict == "pass"
    assert cert.detail["failed_trials"] == []


def test_lemma7_symplectic_first_case():
    # K_{-2} and K_2 are nonzero here, so sampled products frequently end in
    # K_{-2}K_2 directly, the trivially-reducible case.
    cert = ac.lemma7_reduction_check(m2("symplectic"), trials=10, seed=3)
    assert cert.verdict == "pass"
    assert cert.detail["corner_dims"]["K_2"] == 1


def test_lemma7_degenerate_zero_factor():
    P = m4("flip")
    grading = ac.z_grading(P, P.idempotents["e"])
    kh = ac.kh_split(P, grading)
    zero = P.zero()
    a = P.element(kh.graded[2][1].basis[0])
    w = P.mul(P.mul(a, zero), a)
    assert P.is_zero(w)  # zero factors collapse the product into every span


def test_lemma8_symplectic():
    cert = ac.lemma8_check(m2("symplectic"))
    assert cert.verdict == "pass"
    assert cert.trace.final_rank == 4


def test_lemma8_hypothesis_transpose():
    cert = ac.lemma8_check(m2("transpose"))
    assert cert.verdict == "hypothesis-not-met"
    assert "e+e*=1" in cert.detail["failed_hypotheses"]


def test_lemma9_transpose():
    P = m2("transpose")
    cert = ac.lemma9_check(P, samples=10, seed=5)
    assert cert.verdict == "pass"
    # k = E12 - E21 squares to -(E11 + E22), so k*k*k = -k != 0.
    k = elem(P, {"E12": 1, "E21": -1})
    assert P.mul(P.mul(k, k), k) == P.neg(k)


def test_lemma9_example2_not_semiprime():
    cert = ac.lemma9_check(ac.build_example2(1), seed=5)
    assert cert.verdict == "hypothesis-not-met"
    assert cert.detail["hypotheses"]["semiprime(desk-scale)"] is False
    assert cert.detail["square-zero-ideal-witness"] is not None
    assert cert.detail["skew-annihilator-witness"] is not None


def test_stagnation_example1():
    P = ac.build_example1(8)
    target = cc.derived_subspace(P)
    cert = ac.stagnation_probe(P, target, trials=50, max_gen=5, seed=11)
    assert cert.verdict == "pass"
    assert cert.detail["bracket_abelian"]
    assert cert.detail["max_rank_achieved"] <= 5 < target.rank


def test_stagnation_example2():
    P = ac.build_example2(8)
    target = cc.derived_K_subspace(P)
    assert target.rank == 16
    cert = ac.stagnation_probe(P, target, trials=30, max_gen=5, seed=11)
    assert cert.verdict == "pass"
    assert cert.detail["bracket_abelian"]


def test_stagnation_probe_detects_generation():
    # sl2 is reachable from two generic elements, so the probe must report
    # that generation happened rather than certify stagnation.
    P = m2()
    target = cc.derived_subspace(P)
    cert = ac.stagnation_probe(P, target, trials=10, max_gen=2, seed=3)
    assert cert.verdict == "fail"
    assert cert.detail["reached_target_count"] > 0
    # sl2 is not abelian: [E12, E21] = E11 - E22.
    assert cert.detail["bracket_abelian"] is False


def test_stagnation_requires_closed_target():
    P = m2()
    open_span = P.span_of([unit_elem(P, "E12"), unit_elem(P, "E21")])
    # [E12, E21] = E11 - E22 lies outside the span.
    with pytest.raises(ValueError, match="not bracket-closed"):
        ac.stagnation_probe(P, open_span, trials=1, max_gen=1, seed=0)


def _m6_rank2_idempotent():
    # e = E11 + E22 under the flip gives four-dimensional corner components
    # whose skew parts are nonzero, so the brace-bracket and squares branches
    # of the theorem2 union actually contribute.
    P = ac.build_matrix_algebra(6, involution="flip")
    d = formats.presentation_to_dict(P)
    e = ["0"] * 36
    e[0] = "1"
    e[7] = "1"
    d["idempotents"]["e"] = e
    return formats.presentation_from_dict(d)


def test_theorem2_rank2_idempotent_m6():
    Q = _m6_rank2_idempotent()
    kh = ac.kh_split(Q, ac.z_grading(Q, Q.idempotents["e"]))
    assert kh.graded[2][0].rank == 1  # nonzero corner skew part
    c = ac.theorem2_certify(Q, seed=5)
    assert c.verdict == "pass"
    assert c.trace.final_rank == 15
    assert ac.lemma4_check(Q).verdict == "pass"
    assert ac.lemma6_check(Q).verdict == "pass"
    assert ac.lemma7_reduction_check(Q, trials=6, seed=5).verdict == "pass"


def test_theorem1_non_unital_presentation():
    # The same structure constants declared without a unit force the word
    # machinery through the unital hull; the verdict must not change.
    d = formats.presentation_to_dict(m2())
    d["unital"] = False
    del d["unit"]
    P = formats.presentation_from_dict(d)
    assert not P.unital
    cert = ac.theorem1_certify(P, seed=2)
    assert cert.verdict == "pass"
    assert cert.trace.final_rank == 3


def test_theorem_pipelines_over_prime_field():
    F7 = ac.PrimeField(7)
    c1 = ac.theorem1_certify(ac.build_matrix_algebra(3, field=F7))
    assert c1.verdict == "pass" and c1.trace.final_rank == 8
    c2 = ac.theorem2_certify(ac.build_matrix_algebra(3, field=F7, involution="flip"))
    assert c2.verdict == "pass" and c2.trace.final_rank == 3


def test_certificate_determinism():
    a = ac.theorem2_certify(m3("flip"), seed=9)
    b = ac.theorem2_certify(m3("flip"), seed=9)
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
        b.to_json_dict(), sort_keys=True
    )
    c = ac.theorem2_certify(m3("flip"), seed=10)
    assert c.verdict == a.verdict


def test_identity_suite_random_instances():
    # Transfer identity {a,b,c} = [[a,b],c] on off-diagonal Peirce pairs.
    rng = random.Random(31)
    for P in (m2(), m3(), m4("flip")):
        e = P.idempotents["e"]
        pd = ac.peirce_decompose(P, e)
        for _ in range(25):
            def sample(comp):
                acc = P.zero()
                for row in comp.basis:
                    acc = P.add(
                        acc, P.scale(Fraction(rng.randint(-2, 2)), P.element(row))
                    )
                return acc
            a, c = sample(pd.eRf), sample(pd.eRf)
            b = sample(pd.fRe)
            assert P.equal(
                P.jordan_triple(a, b, c), P.commutator(P.commutator(a, b), c)
            )


def _count_ideal_spans(monkeypatch):
    """Record (x, unit_coeff) of every ideal_span computation."""
    calls = []
    original = algebra.ideal_span

    def counting(P, x, unit_coeff=0):
        calls.append((id(P), x.coords, unit_coeff))
        return original(P, x, unit_coeff)

    monkeypatch.setattr(algebra, "ideal_span", counting)
    return calls


@pytest.mark.parametrize(
    "build, certify, verdict",
    [
        (lambda: ac.build_example2(2), ac.theorem2_certify, "hypothesis-not-met"),
        (lambda: m3("flip"), ac.theorem1_certify, "pass"),
    ],
    ids=["thm2-example2-D2", "thm1-m3-flip"],
)
def test_ideal_hypotheses_computed_once_per_presentation(monkeypatch, build, certify, verdict):
    calls = _count_ideal_spans(monkeypatch)
    P = build()
    assert certify(P).verdict == verdict
    assert calls and len(set(calls)) == len(calls)
    # Validation and a rerun reuse the memoised hypotheses of the same presentation.
    ac.validate_presentation(P)
    assert certify(P).verdict == verdict
    assert len(set(calls)) == len(calls)


def _lie_closure_of_basis(P, span):
    gens = ac.generator_set(
        "lie", [(f"c{k}", P.element(row), "span") for k, row in enumerate(span.basis)]
    )
    return ac.lie_closure(P, gens).final


def test_derived_targets_equal_closure_of_their_span():
    for P in (m3("flip"), ac.build_example1(4), ac.build_example2(2)):
        assert cc.derived_subspace(P) == _lie_closure_of_basis(P, cc.commutator_span(P))
        if P.has_involution:  # example1 has none, so no [K, K]
            assert cc.derived_K_subspace(P) == _lie_closure_of_basis(
                P, cc.skew_commutator_span(P)
            )


def test_hypotheses_for_names_witness_and_memoises(monkeypatch):
    P = ac.build_example2(1)
    first = algebra.hypotheses_for(P, None, ("semiprime(desk-scale)",))
    assert first["semiprime(desk-scale)"] is False
    assert first["square-zero-ideal-witness"] is not None
    monkeypatch.setattr(algebra, "principal_ideal", None)  # recomputing would fail
    assert algebra.hypotheses_for(P, None, ("semiprime(desk-scale)",)) == first
    with pytest.raises(ValueError):
        algebra.hypotheses_for(P, None, ("no-such-hypothesis",))


# -- rank ceilings ----------------------------------------------------------


def _uncapped_monomials(P, pair_gens):
    """Reference: every distinct-index monomial, with no rank ceiling."""
    by_side = {"+": [], "-": []}
    for (label, el, _), side in zip(pair_gens.elements, pair_gens.sides):
        by_side[side].append((label, el))
    items = []
    sides = []
    for sigma in ("-", "+"):
        outer = by_side[sigma]
        inner = by_side["-" if sigma == "+" else "+"]
        got = ac.SpanBuilder(P.field, P.dim)
        for s in range(len(outer)):
            if s > 0 and not inner:
                break
            for iseq in itertools.permutations(range(len(outer)), s + 1):
                for jseq in itertools.product(range(len(inner)), repeat=s):
                    el = outer[iseq[0]][1]
                    word = outer[iseq[0]][0]
                    for t in range(s):
                        el = P.mul(P.mul(el, inner[jseq[t]][1]), outer[iseq[t + 1]][1])
                        word += f"*{inner[jseq[t]][0]}*{outer[iseq[t + 1]][0]}"
                    if P.is_zero(el):
                        continue
                    if got.add(el.coords):
                        items.append((f"mono{sigma}{len(items)}", el, f"monomial:{word}"))
                        sides.append(sigma)
    return ac.generator_set("jordan-pair", items, sides)


def _same_generators(a, b):
    return (
        a.structure == b.structure
        and [(lab, el.coords, prov) for lab, el, prov in a.elements]
        == [(lab, el.coords, prov) for lab, el, prov in b.elements]
        and list(a.sides) == list(b.sides)
    )


@pytest.mark.parametrize("n, involution", [(3, "flip"), (3, "transpose"),
                                           (4, "flip"), (4, "transpose")])
def test_capped_monomials_equal_full_enumeration_theorem1(monkeypatch, n, involution):
    P = ac.build_matrix_algebra(n, involution=involution)
    pair_gens, _, components = lemma2_parts(P, P.idempotents["e"], None)
    muls = count_muls(monkeypatch)
    capped = cc._distinct_index_monomials(P, pair_gens, components)
    capped_muls = muls[0]
    full = _uncapped_monomials(P, pair_gens)
    assert _same_generators(capped, full)
    assert capped.elements
    if n == 4:
        assert capped_muls < muls[0] - capped_muls


@pytest.mark.parametrize("build", [lambda: m3("flip"), lambda: ac.build_example1(3)],
                         ids=["m3-flip", "example1-D3"])
def test_capped_monomials_equal_full_enumeration_lemma3(build):
    P = build()
    cert = cc._lemma3_claim(P, argparse.Namespace(seed=0))
    assert cert.verdict == "pass"
    assert _same_generators(cert.generators, _uncapped_monomials(P, component_pair_gens(P)))


def test_lemma3_ceiling_is_the_generated_pair():
    # One vector from each side of M4's off-diagonal components generates a
    # pair of rank (1, 1), smaller than the components' (3, 3).
    P = m4("flip")
    full = component_pair_gens(P)
    picked = [(item, side) for item, side in zip(full.elements, full.sides)
              if item[0] in ("p-0", "p+0")]
    subset = ac.generator_set("assoc-pair", [i for i, _ in picked], [s for _, s in picked])
    assert len(subset.elements) == 2 < len(full.elements) == 6
    cert = ac.lemma3_jordan_check(P, subset)
    assert cert.verdict == "pass"
    assert cert.detail["pair_dims"] == (1, 1)
    assert _same_generators(cert.generators, _uncapped_monomials(P, subset))


def _uncapped_alternating_products(P, outer, inner, r_max):
    """Reference: span-representative alternating products, no rank ceiling."""
    reps = []
    seen = ac.SpanBuilder(P.field, P.dim)
    level = []
    for lab, el in outer:
        if not P.is_zero(el) and seen.add(el.coords):
            reps.append((lab, el))
            level.append((lab, el))
    for _ in range(2, r_max + 1):
        nxt = []
        for lab, w in level:
            for blab, b in inner:
                wb = P.mul(w, b)
                if P.is_zero(wb):
                    continue
                for alab, a in outer:
                    wba = P.mul(wb, a)
                    if not P.is_zero(wba) and seen.add(wba.coords):
                        reps.append((f"{lab}*{blab}*{alab}", wba))
                        nxt.append((f"{lab}*{blab}*{alab}", wba))
        level = nxt
        if not level:
            break
    return reps


def test_alternating_products_stop_at_the_ceiling_inside_a_level(monkeypatch):
    # In M4 with e = E11 + E22, a = E13 + E24 and the basis of fRe give
    # a, then E13, E14, E23 at the second level: rank 4 = rank eRf, reached
    # before the level ends.
    P = m4()
    outer = [("a", elem(P, {"E13": 1, "E24": 1}))]
    inner = [(lab, unit_elem(P, lab)) for lab in ("E31", "E32", "E41", "E42")]
    muls = count_muls(monkeypatch)
    capped = cc._alternating_products(P, outer, inner, 4, 4)
    capped_muls = muls[0]
    full = _uncapped_alternating_products(P, outer, inner, 4)
    assert [(lab, el.coords) for lab, el in capped] == [(lab, el.coords) for lab, el in full]
    assert len(capped) == 4
    assert capped_muls < muls[0] - capped_muls


@pytest.mark.parametrize("n", [3, 4])
def test_capped_alternating_products_equal_full_enumeration(n):
    # The corner pair of theorem 2 on M_n flip: sandwich words of e and e*.
    P = ac.build_matrix_algebra(n, involution="flip")
    e = P.idempotents["e"]
    pair_gens, _, components = lemma2_parts(P, e, P.involve(e))
    sides = {"-": [], "+": []}
    for (label, el, _), side in zip(pair_gens.elements, pair_gens.sides):
        sides[side].append((label, el))
    for (outer, inner), comp in zip(((sides["-"], sides["+"]), (sides["+"], sides["-"])),
                                    components):
        capped = cc._alternating_products(P, outer, inner, 5, comp.rank)
        full = _uncapped_alternating_products(P, outer, inner, 5)
        assert [(lab, el.coords) for lab, el in capped] == [
            (lab, el.coords) for lab, el in full
        ]


def test_theorems_reach_m7_over_prime_field_with_default_budget():
    P = ac.build_matrix_algebra(7, field=ac.PrimeField(10007), involution="flip")
    c1 = ac.theorem1_certify(P)
    assert c1.verdict == "pass" and c1.trace.final_rank == 48
    c2 = ac.theorem2_certify(P)
    assert c2.verdict == "pass"


# -- change of basis ---------------------------------------------------------

_RANK_KEYS = ("derived_rank", "pair_dims", "commutator_span_rank", "failed_hypotheses")


def _signature(cert):
    """Verdict and ranks of a certificate; basis-independent by design."""
    sig = {
        "verdict": cert.verdict,
        "target_rank": cert.target.rank if cert.target is not None else None,
        "final_rank": cert.trace.final_rank if cert.trace is not None else None,
    }
    sig.update((k, cert.detail[k]) for k in _RANK_KEYS if k in cert.detail)
    return sig


@pytest.mark.parametrize("field", ["Q", "Fp:101"])
def test_change_of_basis_keeps_verdicts_and_ranks(field):
    P = ac.build_matrix_algebra(3, ac.field_from_name(field), "flip")
    D = dense_change_of_basis(P, 7)
    assert D.field == P.field
    assert any(len(D.mul_basis(i, j).support[1]) > 3 for i in range(9) for j in range(9))
    reports = [ac.validate_presentation(X) for X in (P, D)]
    assert [r.violations for r in reports] == [[], []]
    assert reports[0].hypotheses == reports[1].hypotheses
    for certify in (cc.theorem1_certify, cc.theorem2_certify):
        sigs = [_signature(certify(X, seed=3)) for X in (P, D)]
        assert sigs[0]["verdict"] == "pass"
        assert sigs[0] == sigs[1]


def _claim_signature(cert):
    """Verdict, hypotheses and every rank or dimension a certificate reports."""
    report = cert.to_json_dict()
    detail = report["detail"]
    sig = {k: v for k, v in report.items() if k.startswith("target_rank")}
    sig.update(
        (k, v) for k, v in detail.items() if "rank" in k or "dims" in k or k == "hypotheses"
    )
    sig["verdict"] = cert.verdict
    sig["final_rank"] = cert.trace.final_rank if cert.trace is not None else None
    return sig


# The simple and semiprime checks behind lemma8 and lemma9 run on basis
# elements, so they depend on the basis; every other claim's hypotheses
# are basis-free.
_BASIS_FREE_CLAIMS = {
    "m3_flip": sorted(cc.CLAIMS),
    "example2_D2": sorted(set(cc.CLAIMS) - {"lemma8", "lemma9"}),
}


@pytest.mark.parametrize("name", sorted(_BASIS_FREE_CLAIMS))
def test_change_of_basis_keeps_every_claim(name):
    P = m3("flip") if name == "m3_flip" else ac.build_example2(2)
    D = dense_change_of_basis(P, 5)
    assert all(D._reach(D.basis_element(i)) == set(range(D.dim)) for i in range(D.dim))
    opts = argparse.Namespace(seed=3, cap=6, trials=8, max_gen=5)
    verdicts = set()
    for claim in _BASIS_FREE_CLAIMS[name]:
        sigs = [_claim_signature(cc.certify(X, claim, opts)) for X in (P, D)]
        assert sigs[0] == sigs[1], claim
        verdicts.add(sigs[0]["verdict"])
    assert "pass" in verdicts


# -- Q against a large prime ------------------------------------------------------

_LARGE_PRIME = "Fp:1000000007"


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("involution", ["flip", "transpose"])
def test_large_prime_keeps_verdicts_and_ranks(n, involution):
    """Over F_p for a large p the elimination runs mod p; no pivot of these
    matrix algebras is divisible by p, so verdicts and ranks match Q."""
    P, Fp = (
        ac.build_matrix_algebra(n, ac.field_from_name(name), involution)
        for name in ("Q", _LARGE_PRIME)
    )
    reports = [ac.validate_presentation(X) for X in (P, Fp)]
    assert reports[0].violations == reports[1].violations == []
    assert reports[0].hypotheses == reports[1].hypotheses
    verdicts = []
    for certify in (cc.theorem1_certify, cc.theorem2_certify):
        certs = [certify(X, seed=3) for X in (P, Fp)]
        sigs = [
            {**_signature(c), "derived_K_rank": c.detail.get("derived_K_rank")}
            for c in certs
        ]
        assert sigs[0] == sigs[1]
        verdicts.append(sigs[0]["verdict"])
    # thm2 needs ee* = 0, which the transpose's e = E11 breaks, and
    # R(1-e-e*)R = R, which s = 0 breaks in M2.
    thm2_runs = involution == "flip" and n > 2
    assert verdicts == ["pass", "pass" if thm2_runs else "hypothesis-not-met"]


def test_theorem2_splits_once(monkeypatch):
    """theorem 2 and the lemmas it runs share one K/H split per idempotent."""
    calls = []
    original = cc.kh_split

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cc, "kh_split", counting)
    P = m3("flip")
    assert cc.theorem2_certify(P).verdict == "pass"
    assert len(calls) == 1
    # A rerun and the lemmas on the same presentation reuse it.
    assert cc.theorem2_certify(P).verdict == "pass"
    assert cc.lemma4_check(P).verdict == "pass"
    assert cc.lemma9_check(P).verdict == "pass"
    assert len(calls) == 1


def test_ceilings_only_where_the_target_is_proved_closed(monkeypatch):
    # [R, R] is bracket-closed on any table, so lemma 1 keeps its ceiling
    # on M3 flip with one spurious product (b0 * b1 += b4). [K, K] and the
    # Peirce pair components are closed only under the axioms, so lemmas 2,
    # 3 and 6 refuse that table at the gate.
    seen = []
    saturate = ac.closure._saturate_linear

    def recording(P, seeds, product_round, ceilings=None):
        if product_round is not algebra._ideal_round:
            seen.append(ceilings)
        return saturate(P, seeds, product_round, ceilings)

    monkeypatch.setattr(ac.closure, "_saturate_linear", recording)
    d = formats.presentation_to_dict(m3("flip"))
    d["mul"].append([0, 1, 4, "1"])
    dirty = formats.presentation_from_dict(d)
    assert algebra.axiom_violations(dirty)
    opts = argparse.Namespace(seed=0)
    runs = {
        "lemma1": cc.lemma1_certificate,
        "lemma2": cc.lemma2_certificate,
        "lemma3": lambda P: cc._lemma3_claim(P, opts),
        "lemma6": cc.lemma6_check,
    }
    got = []
    for claim, run in runs.items():
        seen.clear()
        run(m3("flip"))
        got.append(seen[-1])
    assert got == [[8], [2, 2], [2, 2], [3]]
    seen.clear()
    cc.lemma1_certificate(dirty)
    assert seen[-1] == [9]
    for claim in ("lemma2", "lemma3", "lemma6"):
        with pytest.raises(FormatError, match="violates associativity"):
            runs[claim](dirty)
