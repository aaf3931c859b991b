"""Peirce decomposition, the five-part grading by orthogonal idempotents,
and the skew/symmetric split under an involution.

All components are computed by sandwich projection of each basis element
(a -> e*a*e and friends) followed by echelonization, so the results are
exact canonical subspaces. Complements like 1-e never require a unit:
(1-e)*a is just a - e*a.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IdempotentError, MissingInvolutionError
from .linalg import SpanBuilder, intersect


@dataclass(frozen=True)
class PeirceDecomposition:
    """The four sandwich components eRe, eR(1-e), (1-e)Re, (1-e)R(1-e)."""

    eRe: object
    eRf: object
    fRe: object
    fRf: object

    def dims(self):
        return (self.eRe.rank, self.eRf.rank, self.fRe.rank, self.fRf.rank)

    def components(self):
        return (self.eRe, self.eRf, self.fRe, self.fRf)


@dataclass(frozen=True)
class ZGrading:
    """Five components indexed -2..2 for orthogonal idempotents e, e*.

    parts[-2] = eRe*, parts[-1] = eRs + sRe*, parts[0] = eRe + e*Re* + sRs,
    parts[1] = e*Rs + sRe, parts[2] = e*Re, with s = 1 - e - e*.
    """

    parts: dict
    multiplicative: bool
    violations: tuple
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
        builders[0].add(ebe.coords)                        # eRe
        builders[1].add(P.sub(eb, ebe).coords)             # eR(1-e)
        builders[2].add(P.sub(be, ebe).coords)             # (1-e)Re
        rest = P.add(P.sub(P.sub(b, eb), be), ebe)
        builders[3].add(rest.coords)                       # (1-e)R(1-e)
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
    middle component are then zero. Multiplicativity of the grading is
    verified exhaustively on component basis pairs and reported.
    """
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
                b.add(_sandwich(P, left, base, right).coords)
        parts[grade] = b.subspace()

    if sum(v.rank for v in parts.values()) != P.dim:
        raise IdempotentError("grading components do not add up to R")

    violations = []
    for gi in range(-2, 3):
        for gj in range(-2, 3):
            for u in parts[gi].basis:
                eu = P.element(u)
                for v in parts[gj].basis:
                    prod = P.mul(eu, P.element(v))
                    if P.is_zero(prod):
                        continue
                    k = gi + gj
                    if abs(k) > 2 or not parts[k].contains(prod.coords):
                        violations.append((gi, gj))
    return ZGrading(parts, not violations, tuple(violations), e, estar)


def kh_split(P, grading=None):
    """Split R into the -1 and +1 eigenspaces of the involution.

    Since the characteristic is not 2, K is spanned by b - b* and H by
    b + b* over the basis. When a grading is supplied the graded pieces
    K_i = K ∩ R_i and H_i = H ∩ R_i are computed as exact intersections.
    """
    if not P.has_involution:
        raise MissingInvolutionError(f"{P.name} has no involution")
    kb = SpanBuilder(P.field, P.dim)
    hb = SpanBuilder(P.field, P.dim)
    for i in range(P.dim):
        b = P.basis_element(i)
        bs = P.involve(b)
        kb.add(P.sub(b, bs).coords)
        hb.add(P.add(b, bs).coords)
    K = kb.subspace()
    H = hb.subspace()
    graded = None
    if grading is not None:
        graded = {
            i: (intersect(K, grading.parts[i]), intersect(H, grading.parts[i]))
            for i in range(-2, 3)
        }
    return KHSplit(K, H, graded)
