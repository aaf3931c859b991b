"""Peirce decomposition, the five-part grading by orthogonal idempotents,
and the skew/symmetric split under an involution.

The Peirce components, the grading and with them lemma 2's pair
components come from one routine, ``_corners``: the span of x*b*y over the
basis for orthogonal idempotents x, y, echelonized, so the results are
exact canonical subspaces. Complements like 1-e never require a unit:
(1-e)*a is just a - e*a. The grading runs behind the axiom gate
(``algebra.require_axioms``), and what the axioms prove about it is not
re-computed.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .algebra import hypotheses_for, require_axioms
from .errors import IdempotentError, MissingInvolutionError
from .linalg import SpanBuilder, echelonize


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
    # Memoised on P: the axiom gate has read it for each declared idempotent.
    if not hypotheses_for(P, e, ("e^2=e",))["e^2=e"]:
        raise IdempotentError("supplied element is not idempotent")


def _corners(P, idempotents, grade):
    """{grade(a, c): span of x_a·b·x_c over the basis}, for the orthogonal
    idempotents x_0..x_{m-1} given and x_m = 1 - their sum; corners of one
    grade share a span. No unit is needed: for a, c < m the element is
    (x_a·b)·x_c, and a corner of x_m is what the rest of its row leaves of
    x_a·b, of its column of b·x_c, or, for x_m·b·x_m, of b. That is m² + 2m
    products per basis element. Only the x_a·b are Elements, the left
    factors of the (x_a·b)·x_c; every corner reaches its span as an int
    vector (``AlgebraPresentation._ints`` and ``_combination``)."""
    m = len(idempotents)
    spans = defaultdict(lambda: SpanBuilder(P.field, P.dim))
    times = [P._factor(y) for y in idempotents]
    rest = P._combination  # first - sum(others)
    for i in range(P.dim):
        b = P.basis_element(i)
        left = [P.mul(x, b) for x in idempotents]
        grid = [[P._ints(xb, y) for y in times] for xb in left]
        for xb, row in zip(left, grid):
            row.append(rest(xb, row))
        grid.append([rest(P._ints(b, y), [row[c] for row in grid])
                     for c, y in enumerate(times)])
        grid[m].append(rest(b, left + grid[m]))
        for a, row in enumerate(grid):
            for c, x in enumerate(row):
                spans[grade(a, c)].add(x)
    return {k: span.subspace() for k, span in spans.items()}


def peirce_decompose(P, e):
    """Split R into the four Peirce components of the idempotent e."""
    _check_idempotent(P, e)
    corners = _corners(P, (e,), lambda a, c: 2 * a + c)  # eRe, eRf, fRe, fRf
    pd = PeirceDecomposition(*(corners[k] for k in range(4)))
    if sum(pd.dims()) != P.dim:
        raise IdempotentError("Peirce components do not add up to R")
    return pd


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
    if not all(hypotheses_for(P, e, ("ee*=0", "e*e=0")).values()):
        raise IdempotentError("need ee* = e*e = 0 for the grading")
    estar = P.involve(e)
    weight = (-1, 1, 0)  # e, e*, s
    parts = _corners(P, (e, estar), lambda a, c: weight[a] - weight[c])
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
    As R = ⊕R_i, K and H are then the sums of the K_i and of the H_i, with
    no second pass over the basis.
    """
    if not P.has_involution:
        raise MissingInvolutionError(f"{P.name} has no involution")
    if grading is None:
        K, H = _skew_symmetric_spans(P, [P.basis_element(i) for i in range(P.dim)])
        return KHSplit(K, H, None)
    graded = {
        i: _skew_symmetric_spans(P, P.elements(grading.parts[i]))
        for i in range(-2, 3)
    }
    K, H = (
        echelonize(P.field, [x for i in range(-2, 3) for x in P.elements(graded[i][side])], P.dim)
        for side in (0, 1)
    )
    return KHSplit(K, H, graded)
