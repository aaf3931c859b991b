"""The stagnation verdict is exact. Every generating set S of a Lie algebra
L has L = span(S) + [L, L], so it has at least dim L - dim [L, L] elements
(the bound): ``pass`` only when the bound exceeds max_gen, ``fail`` on a
trial that reaches L or, on a nilpotent L, with a basis of L modulo [L, L]
as the witness set, and ``hypothesis-not-met`` naming the bound otherwise.
On example 1 and example 2 at D = 2 and 3 (abelian targets), on M3 flip
(a perfect one) and on the upper triangular 3 x 3 matrices, whose [R, R]
is the Heisenberg algebra (nilpotent, not abelian)."""

import json

import pytest

import algcert as ac
from algcert import certificates as cc
from algcert.algebra import AlgebraPresentation
from algcert.cli import run_cli
from algcert.closure import lie_closure

INSTANCES = {
    "example1-D2": lambda: ac.build_example1(2),
    "example1-D3": lambda: ac.build_example1(3),
    "example2-D2": lambda: ac.build_example2(2),
    "example2-D3": lambda: ac.build_example2(3),
    "m3-flip": lambda: ac.build_matrix_algebra(3, ac.QQ, "flip"),
}


def _upper_triangular_3():
    """The upper triangular 3 x 3 matrices over Q, on the units E_ij, i <= j."""
    labels = [f"E{i}{j}" for i in range(1, 4) for j in range(i, 4)]
    index = {label: k for k, label in enumerate(labels)}
    mul = [
        (index[f"E{i}{j}"], index[f"E{j}{l}"], index[f"E{i}{l}"], 1)
        for i in range(1, 4) for j in range(i, 4) for l in range(j, 4)
    ]
    unit = [int(label[1] == label[2]) for label in labels]
    return AlgebraPresentation("upper3", ac.QQ, labels, mul, unital=True, unit=unit)


def _target(P):
    return cc.derived_K_subspace(P) if P.has_involution else cc.derived_subspace(P)


def _derived_rank(P, target):
    """dim [L, L] for L = target: the span of [u, v] over all pairs of a
    basis of L, one commutator each."""
    basis = P.elements(target)
    return P.span_of([P.commutator(u, v) for i, u in enumerate(basis) for v in basis[i + 1:]]).rank


def _check(P, target, trials, max_gen, seed):
    """Run the probe and check its verdict against the exact rule."""
    cert = cc.stagnation_probe(P, target, trials=trials, max_gen=max_gen, seed=seed)
    d = cert.detail
    bound = target.rank - _derived_rank(P, target)
    if d["reached_target_count"]:
        assert cert.verdict == "fail"
        assert "generator_bound" not in d
    elif bound > max_gen:
        assert cert.verdict == "pass"
        assert "generator_bound" not in d
    else:
        assert cert.verdict != "pass"
        assert d["generator_bound"] == bound
    if cert.verdict == "fail" and not d["reached_target_count"]:
        # The witness set re-closes to L, with at most max_gen elements.
        witness = cert.generators
        assert len(witness.elements) == bound <= max_gen
        assert lie_closure(P, witness).final == target
    if cert.verdict == "hypothesis-not-met":
        assert d["failed_hypotheses"] == ["dim L - dim [L,L] > max_gen"]
    return cert


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_no_pass_without_a_bound_above_max_gen(name):
    P = INSTANCES[name]()
    target = _target(P)
    verdicts = set()
    for trials in (1, 2, 8):
        for max_gen in (1, 2, 3, 5, 7):
            for seed in range(4):
                verdicts.add(_check(P, target, trials, max_gen, seed).verdict)
    if name == "m3-flip":
        # [K, K] = K is perfect: the bound is 0, and a trial that does not
        # reach it proves nothing.
        assert verdicts == {"fail", "hypothesis-not-met"}
    else:
        # The targets are abelian of rank D and 2D.
        assert "hypothesis-not-met" not in verdicts


def test_a_nilpotent_target_that_is_not_abelian():
    # [R, R] of the upper triangular matrices is span{E12, E13, E23}, with
    # [E12, E23] = E13: bound 2. The one trial of seed 2 draws one
    # generator, which does not reach it; the witness is a basis of L
    # modulo E13. With max_gen 1 the bound proves the claim.
    P = _upper_triangular_3()
    target = cc.derived_subspace(P)
    assert target.rank == 3
    cert = _check(P, target, 1, 5, 2)
    assert cert.detail["reached_target_count"] == 0
    assert cert.verdict == "fail"
    assert not cert.detail["bracket_abelian"]
    assert _check(P, target, 4, 1, 0).verdict == "pass"


def test_example1_d2_with_one_trial_no_longer_passes(tmp_path, capsys):
    # One trial draws one generator, which spans rank 1 of the abelian
    # [R, R] of rank 2; two generators reach it, so the claim is false.
    path = str(tmp_path / "e1d2.json")
    assert run_cli(["build", "--kind", "triangular_example1", "--truncation", "2", "-o", path]) == 0
    capsys.readouterr()
    code = run_cli(["certify", path, "--claim", "stagnation", "--trials", "1", "--seed", "2"])
    cert = json.loads(capsys.readouterr().out)["result"]["certificates"][0]
    assert (code, cert["verdict"]) == (2, "fail")
    assert cert["detail"]["generator_bound"] == 2
    assert [g["element"] for g in cert["generators"]["elements"]] == ["E12", "x*E12"]
