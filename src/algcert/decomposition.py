"""Peirce decomposition, the five-part grading by orthogonal idempotents,
and the skew/symmetric split under an involution.

All components are computed by sandwich projection of each basis element
(a -> e*a*e and friends) followed by echelonization, so the results are
exact canonical subspaces. Complements like 1-e never require a unit:
(1-e)*a is just a - e*a. The grading runs behind the axiom gate
(``algebra.require_axioms``), and what the axioms prove about it is not
re-computed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import require_axioms
from .errors import IdempotentError, MissingInvolutionError
from .linalg import SpanBuilder


@dataclass(frozen=True)
class PeirceDecomposition:
    """The four sandwich components eRe, eR(1-e), (1-e)Re, (1-e)R(1-e)."""

    eRe: object
    eRf: object
    fRe: object
    fRf: object

    def dims(self):
        return (self.eRe.rank, self.eRf.rank, self.fRe.rank, self.fRf.rank)


@dataclass(frozen=True)
class ZGrading:
    """Five components indexed -2..2 for orthogonal idempotents e, e*.

    parts[-2] = eRe*, parts[-1] = eRs + sRe*, parts[0] = eRe + e*Re* + sRs,
    parts[1] = e*Rs + sRe, parts[2] = e*Re, with s = 1 - e - e*.
    """

    parts: dict
    e: object = None
    estar: object = None

    def dims(self):
        return tuple(self.parts[i].rank for i in range(-2, 3))


@dataclass(frozen=True)
class KHSplit:
    """Skew-symmetric part K (a* = -a) and symmetric part H (a* = a)."""

    K: object
    H: object
    graded: dict | None  # i -> (K_i, H_i) when a grading was supplied


def _check_idempotent(P, e):
    if not P.equal(P.mul(e, e), e):
        raise IdempotentError("supplied element is not idempotent")


def peirce_decompose(P, e):
    """Split R into the four Peirce components of the idempotent e."""
    _check_idempotent(P, e)
    builders = [SpanBuilder(P.field, P.dim) for _ in range(4)]
    for i in range(P.dim):
        b = P.basis_element(i)
        eb = P.mul(e, b)
        be = P.mul(b, e)
        ebe = P.mul(eb, e)
        builders[0].add(ebe)                               # eRe
        builders[1].add(P.sub(eb, ebe))                    # eR(1-e)
        builders[2].add(P.sub(be, ebe))                    # (1-e)Re
        rest = P.add(P.sub(P.sub(b, eb), be), ebe)
        builders[3].add(rest)                              # (1-e)R(1-e)
    pd = PeirceDecomposition(*(b.subspace() for b in builders))
    if sum(pd.dims()) != P.dim:
        raise IdempotentError("Peirce components do not add up to R")
    return pd


def _sandwich(P, left, b, right):
    """left*b*right where left/right is an Element or one of 's'-style maps."""
    x = left(b) if callable(left) else P.mul(left, b)
    return right(x) if callable(right) else P.mul(x, right)


def z_grading(P, e):
    """Five-part grading attached to an idempotent with ee* = e*e = 0.

    s may be zero (e + e* = 1); the odd components and the sRs part of the
    middle component are then zero.

    The grading is built behind the axiom gate: on a presentation that
    violates an axiom it raises FormatError. Under the axioms e, s, e* are
    orthogonal idempotents summing to 1 (in the hull if need be). With
    weights -1, 0, +1, xRy has grade w(x) - w(y), and xRy · y'Rz is zero
    for y != y' and lies in xRz for y = y'. So grades add,
    R_i R_j ⊆ R_{i+j}, with no product computed.
    """
    require_axioms(P)
    if not P.has_involution:
        raise MissingInvolutionError(f"{P.name} has no involution")
    _check_idempotent(P, e)
    estar = P.involve(e)
    if not (P.is_zero(P.mul(e, estar)) and P.is_zero(P.mul(estar, e))):
        raise IdempotentError("need ee* = e*e = 0 for the grading")
    ee = P.add(e, estar)

    def s_left(x):
        return P.sub(x, P.mul(ee, x))

    def s_right(x):
        return P.sub(x, P.mul(x, ee))

    sandwiches = {
        -2: ((e, estar),),
        -1: ((e, s_right), (s_left, estar)),
        0: ((e, e), (estar, estar), (s_left, s_right)),
        1: ((estar, s_right), (s_left, e)),
        2: ((estar, e),),
    }
    parts = {}
    for grade, pairs in sandwiches.items():
        b = SpanBuilder(P.field, P.dim)
        for i in range(P.dim):
            base = P.basis_element(i)
            for left, right in pairs:
                b.add(_sandwich(P, left, base, right))
        parts[grade] = b.subspace()

    if sum(v.rank for v in parts.values()) != P.dim:
        raise IdempotentError("grading components do not add up to R")
    return ZGrading(parts, e, estar)


def _skew_symmetric_spans(P, rows):
    """(K, H) = (span{b - b*}, span{b + b*}) over the elements rows."""
    kb = SpanBuilder(P.field, P.dim)
    hb = SpanBuilder(P.field, P.dim)
    for b in rows:
        bs = P.involve(b)
        kb.add(P.sub(b, bs))
        hb.add(P.add(b, bs))
    return kb.subspace(), hb.subspace()


def kh_split(P, grading=None):
    """Split R into the -1 and +1 eigenspaces of the involution.

    Since the characteristic is not 2, K is spanned by b - b* and H by
    b + b* over the basis. A supplied grading also gives K_i = K ∩ R_i and
    H_i = H ∩ R_i. The grading was built behind the axiom gate, and under
    the axioms (xRy)* = y*Rx* has the grade of xRy, so R_i is *-stable and
    K_i = (1 - *)R_i, H_i = (1 + *)R_i: spanned over the basis of R_i.
    """
    if not P.has_involution:
        raise MissingInvolutionError(f"{P.name} has no involution")
    K, H = _skew_symmetric_spans(P, [P.basis_element(i) for i in range(P.dim)])
    graded = None
    if grading is not None:
        graded = {
            i: _skew_symmetric_spans(P, P.elements(grading.parts[i]))
            for i in range(-2, 3)
        }
    return KHSplit(K, H, graded)
