"""Acceptance criteria, one test per criterion.

Every check runs with exact arithmetic and fixed seeds; tolerances are zero
throughout (subspace equality and exact field equality). Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import json
import re
import time
import random
from fractions import Fraction

import algcert as ac
from algcert import certificates as cc
from algcert.cli import run_cli
from algcert.closure import oracle_until_stagnation
from algcert.instances import x_component_span
from helpers import (
    assoc_gens,
    component_pair_gens,
    lie_gens,
    m2,
    m3,
    m4,
)


def _report(num, ok, desc):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_theorem1_matrix_family():
    ok = True
    for n in (2, 3, 4):
        start = time.monotonic()
        cert = ac.theorem1_certify(ac.build_matrix_algebra(n), seed=0)
        elapsed = time.monotonic() - start
        ok = ok and cert.verdict == "pass"
        ok = ok and cert.trace.final_rank == n * n - 1
        ok = ok and cert.trace.final == cc.derived_subspace(ac.build_matrix_algebra(n))
        ok = ok and elapsed < 10.0
    _report(1, ok, "theorem1 passes on M_n(Q), n=2,3,4, rank n^2-1, <10s each")


def test_criterion_2_theorem2_flip_family():
    ok = True
    for n, expected in ((3, 3), (4, 6)):
        P = ac.build_matrix_algebra(n, involution="flip")
        start = time.monotonic()
        cert = ac.theorem2_certify(P, seed=0)
        elapsed = time.monotonic() - start
        ok = ok and cert.verdict == "pass"
        ok = ok and cert.trace.final_rank == expected
        ok = ok and cert.trace.final == cc.derived_K_subspace(P)
        ok = ok and elapsed < 30.0
    _report(2, ok, "theorem2 passes on M_3/M_4 flip, [K,K] ranks 3 and 6, <30s each")


def test_criterion_3_lemma2_bound():
    ok = True
    for P, dims in ((m2(), (1, 1)), (m3(), (2, 2))):
        cert = ac.lemma2_certificate(P)
        ok = ok and cert.verdict == "pass"
        ok = ok and cert.detail["component_dims"] == dims
        ok = ok and cert.trace.final == cert.target
    _report(3, ok, "lemma2 word sets pair-generate (eR(1-e), (1-e)Re), dims (1,1)/(2,2)")


def test_criterion_4_lemma4_equalities():
    ok = True
    for P in (m3("flip"), m4("flip")):
        cert = ac.lemma4_check(P)
        ok = ok and cert.verdict == "pass"
        ok = ok and all(cert.detail["equalities"].values())
    P = m3("flip")
    k = P.sub(
        P.basis_element(P.basis_labels.index("E32")),
        P.basis_element(P.basis_labels.index("E21")),
    )
    kh = ac.kh_split(P, ac.z_grading(P, P.idempotents["e"]))
    ok = ok and kh.graded[1][0] == P.span_of([k])
    ksq = P.mul(k, k)
    e31 = P.basis_element(P.basis_labels.index("E31"))
    ok = ok and ksq == P.neg(e31)
    ok = ok and kh.graded[2][1] == P.span_of([ksq])
    _report(4, ok, "lemma4 subspace equalities on M_3/M_4 flip; witness k^2 = -E31")


def test_criterion_5_lemma5_spans():
    ok = True
    for P in (m3("flip"), m4("flip")):
        cert = ac.lemma5_certificate(P)
        ok = ok and cert.verdict == "pass"
    vac = ac.lemma5_certificate(m2("symplectic"))
    ok = ok and vac.verdict == "pass"
    ok = ok and vac.detail["sizes"] == (0, 0)
    ok = ok and vac.detail["odd_component_dims"] == (0, 0)
    _report(5, ok, "lemma5 odd-component spans on M_3/M_4 flip; vacuous on M_2 symplectic")


def test_criterion_6_counterexample_probes():
    ok = True
    # Triangular truncated instance: all brackets vanish and 5 generators
    # never span the rank-8 target over 50 seeded trials.
    ex1 = ac.build_example1(8)
    target1 = cc.derived_subspace(ex1)
    ok = ok and target1.rank == 8
    probe = ac.stagnation_probe(ex1, target1, trials=50, max_gen=5, seed=11)
    ok = ok and probe.verdict == "pass"
    ok = ok and probe.detail["bracket_abelian"]
    ok = ok and probe.detail["max_rank_achieved"] <= 5
    rows = [ex1.element(r) for r in target1.basis]
    ok = ok and all(ex1.is_zero(ex1.commutator(u, v)) for u in rows for v in rows)

    ex2 = ac.build_example2(8)
    kh = ac.kh_split(ex2)
    kk = cc.derived_K_subspace(ex2)
    ok = ok and x_component_span(ex2).contains_subspace(kk)
    kkrows = [ex2.element(r) for r in kk.basis]
    ok = ok and all(ex2.is_zero(ex2.commutator(u, v)) for u in kkrows for v in kkrows)
    probe2 = ac.stagnation_probe(ex2, kk, trials=30, max_gen=5, seed=11)
    ok = ok and probe2.verdict == "pass"

    ok = ok and ac.theorem1_certify(ex1).verdict == "hypothesis-not-met"
    ok = ok and ac.theorem2_certify(ex2).verdict == "hypothesis-not-met"
    ok = ok and ac.theorem2_certify(ex1).verdict == "hypothesis-not-met"
    _report(6, ok, "counterexample probes stagnate; theorem pipelines refuse (exit-code 3 path)")


def test_criterion_7_oracle_equivalence():
    cases = []
    for P in (m2(), m2("transpose"), m2("symplectic"), m3(), m3("flip")):
        cases.append((P, lie_gens(P, ["E12", "E21"]), ac.lie_closure))
        cases.append((P, assoc_gens(P, ["E12", "E21"]), ac.assoc_closure))
        cases.append((P, component_pair_gens(P, "assoc-pair"), ac.pair_closure))
        cases.append((P, component_pair_gens(P, "jordan-pair"), ac.pair_closure))
    for P in (m2("transpose"), m2("symplectic"), m3("flip")):
        kh = ac.kh_split(P)
        items = [(f"k{k}", P.element(r), "K") for k, r in enumerate(kh.K.basis)]
        cases.append((P, ac.generator_set("lie", items), ac.lie_closure))
    for D in (1, 2, 3):
        ex1 = ac.build_example1(D)
        labels = [lab for lab in ex1.basis_labels if lab.endswith("E12")]
        cases.append((ex1, lie_gens(ex1, labels), ac.lie_closure))
        cases.append((ex1, assoc_gens(ex1, ["E11", "E12"]), ac.assoc_closure))
    ex2 = ac.build_example2(1)
    cases.append((ex2, lie_gens(ex2, ["E12", "E21"]), ac.lie_closure))
    cases.append((ex2, assoc_gens(ex2, ["E12", "E21", "x*E11"]), ac.assoc_closure))
    cases.append((ex2, component_pair_gens(ex2, "assoc-pair"), ac.pair_closure))

    agreed = 0
    for P, gens, closer in cases:
        assert P.dim <= 9
        trace = closer(P, gens)
        span, _ = oracle_until_stagnation(P, gens)
        if isinstance(trace.final, tuple):
            assert span[0] == trace.final[0] and span[1] == trace.final[1]
        else:
            assert span == trace.final
        agreed += 1
    _report(7, agreed == len(cases),
            f"closures agree with the word oracle on all {len(cases)} dim<=9 cases")


def _pair_components(P):
    pd = ac.peirce_decompose(P, P.idempotents["e"])
    return pd.eRf, pd.fRe


def test_criterion_8_identity_suite():
    instances = [m2(), m2("symplectic"), m3("flip"), m4("flip"), ac.build_example2(1)]
    checks = 0
    for P in instances:
        minus, plus = _pair_components(P)
        rng = random.Random(42)

        def sample(comp):
            acc = P.zero()
            for row in comp.basis:
                acc = P.add(acc, P.scale(Fraction(rng.randint(-3, 3)), P.element(row)))
            return acc

        for _ in range(100):
            x, u, u1, u2, t = (sample(plus) for _ in range(5))
            y, v, z = (sample(minus) for _ in range(3))
            J = P.jordan_triple
            # Jordan pair axioms
            lhs1 = J(x, y, J(x, z, x))
            rhs1 = J(x, J(y, x, z), x)
            assert P.equal(lhs1, rhs1)
            lhs2 = J(J(x, y, x), y, t)
            rhs2 = J(x, J(y, x, y), t)
            assert P.equal(lhs2, rhs2)
            xyx = J(x, y, x)
            lhs3 = J(xyx, z, xyx)
            rhs3 = J(x, J(y, J(x, z, x), y), x)
            assert P.equal(lhs3, rhs3)
            # symmetrized reduction identity
            xyu = P.triple(x, y, u)
            lhs4 = P.add(P.mul(P.mul(xyu, v), u), P.mul(P.mul(u, v), xyu))
            assert P.equal(lhs4, J(xyu, v, u))
            # linearization
            lhs5 = P.mul(P.mul(x, y), J(u1, v, u2))
            rhs5 = P.sub(
                P.add(J(P.triple(x, y, u1), v, u2), J(P.triple(x, y, u2), v, u1)),
                J(u1, P.triple(v, x, y), u2),
            )
            assert P.equal(lhs5, rhs5)
            # bracket transfer
            assert P.equal(J(x, y, u), P.commutator(P.commutator(x, y), u))
            checks += 6
    _report(8, checks == 6 * 100 * len(instances),
            f"identity suite exact on {checks} seeded substitutions")


def test_criterion_9_grading_soundness():
    ok = True
    for P in (m3("flip"), m4("flip"), m2("symplectic"), ac.build_example2(2)):
        g = ac.z_grading(P, P.idempotents["e"])
        for gi in range(-2, 3):
            for gj in range(-2, 3):
                for u in g.parts[gi].basis:
                    for v in g.parts[gj].basis:
                        prod = P.mul(P.element(u), P.element(v))
                        if abs(gi + gj) > 2:
                            ok = ok and P.is_zero(prod)
                        elif not P.is_zero(prod):
                            ok = ok and g.parts[gi + gj].contains(prod.coords)
    _report(9, ok, "graded products land in the predicted component, exhaustively")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    path = tmp_path / "m3f.json"
    assert run_cli(["build", "--kind", "flip_matrix_n", "--n", "3", "-o", str(path)]) == 0
    capsys.readouterr()

    outs = []
    for _ in range(2):
        code = run_cli(["certify", str(path), "--claim", "thm2", "--seed", "7"])
        assert code == 0
        outs.append(capsys.readouterr().out)
    strip = lambda s: re.sub(r'"wall_time_s":[0-9.eE+-]+', '"wall_time_s":0', s)
    ok = strip(outs[0]) == strip(outs[1]) and outs[0] != ""
    json.loads(outs[0])  # well-formed JSON
    _report(10, ok, "repeat CLI runs are byte-identical modulo wall_time_s")
