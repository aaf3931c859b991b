"""A Subspace is its integer rows. ``AlgebraPresentation.elements`` reads
them as Elements, which must equal the Elements of the Fraction basis for
every subspace the certificates build; snapshots compare and hash by their
rows and build ``basis`` only when it is read."""

from types import SimpleNamespace

import pytest

import algcert as ac
from algcert import certificates as certs
from algcert.linalg import field_from_name
from helpers import dense_change_of_basis

FIELDS = ("Q", "Fp:101", "Fp:1000000007")
INSTANCES = ("m3_flip", "example2_d2", "m3_flip_dense")
CLAIMS_WITH_FINALS = ("lemma1", "lemma3", "lemma6", "thm1", "thm2")


def _instance(name, field):
    F = field_from_name(field)
    if name == "example2_d2":
        return ac.build_example2(2, F)
    P = ac.build_matrix_algebra(3, F, "flip")
    return dense_change_of_basis(P, 5) if name == "m3_flip_dense" else P


def _certificate_subspaces(P):
    """(name, subspace) for the Peirce parts, the grading parts, the graded
    K and H, [R,R], [K,K] and the closure finals of the certificates."""
    e = P.idempotents["e"]
    pd = ac.peirce_decompose(P, e)
    out = [(f"peirce:{k}", getattr(pd, k)) for k in ("eRe", "eRf", "fRe", "fRf")]
    grading = ac.z_grading(P, e)
    out += [(f"grading:{i}", grading.parts[i]) for i in range(-2, 3)]
    kh = ac.kh_split(P, grading)
    out += [("K", kh.K), ("H", kh.H)]
    for i in range(-2, 3):
        out += [(f"K_{i}", kh.graded[i][0]), (f"H_{i}", kh.graded[i][1])]
    out += [("[R,R]", ac.derived_subspace(P)), ("[K,K]", ac.derived_K_subspace(P))]
    opts = SimpleNamespace(seed=3, cap=6, trials=8, max_gen=5)
    for claim in CLAIMS_WITH_FINALS:
        trace = certs.certify(P, claim, opts).trace
        if trace is None:
            continue
        finals = trace.final if isinstance(trace.final, tuple) else (trace.final,)
        out += [(f"{claim}:final:{k}", S) for k, S in enumerate(finals)]
    return out


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", INSTANCES)
def test_elements_equal_the_basis_round_trip(name, field):
    P = _instance(name, field)
    subspaces = _certificate_subspaces(P)
    assert any(":final:" in label for label, _ in subspaces)
    for label, S in subspaces:
        new = P.elements(S)
        assert new == [P.element(r) for r in S.basis], label
        assert [el.coords for el in new] == list(S.basis), label


@pytest.mark.parametrize("field", FIELDS)
def test_insertion_order_gives_one_snapshot(field):
    P = _instance("m3_flip_dense", field)
    vectors = [P.commutator(P.basis_element(i), P.basis_element(j))
               for i in range(P.dim) for j in range(i + 1, P.dim)]
    a = ac.echelonize(P.field, vectors, P.dim)
    b = ac.echelonize(P.field, vectors[::-1], P.dim)
    assert a == b
    assert hash(a) == hash(b)


def test_basis_is_built_on_first_read():
    P = _instance("m3_flip", "Q")
    sub = ac.derived_subspace(P)
    assert "basis" not in vars(sub)
    assert sub.rank == len(sub.rows) == len(P.elements(sub))
    assert "basis" not in vars(sub)
    basis = sub.basis
    assert vars(sub)["basis"] is basis
    assert sub.basis is basis
