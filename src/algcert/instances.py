"""Builders for the concrete desk-scale algebras: full matrix algebras with
the standard involutions, and two truncated-polynomial counterexample
families whose commutator algebras stagnate under bounded generator sets.

Truncation replaces an infinite coefficient algebra F[x] by F[x]/(x^D):
degrees >= D multiply to zero. That keeps every instance finite-dimensional
while preserving the feature the probes certify, namely that the target
commutator space is bracket-abelian so no small generator set can span it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .algebra import AlgebraPresentation
from .errors import FormatError
from .linalg import QQ

INVOLUTIONS = ("none", "transpose", "flip", "symplectic")
KINDS = (
    "matrix_n",
    "flip_matrix_n",
    "symplectic_m2",
    "triangular_example1",
    "m2_example2",
    "custom_file",
)


def _vec(dim, zero, entries):
    """The coordinate list of length dim with the (index, scalar) entries
    and zero elsewhere."""
    coords = [zero] * dim
    for k, c in entries:
        coords[k] = c
    return coords


@dataclass(frozen=True)
class InstanceSpec:
    """CLI-facing description of a buildable instance."""

    kind: str
    n: int | None = None
    truncation: int | None = None
    field: object = QQ
    involution: str = "none"


def build_instance(spec):
    if spec.kind == "matrix_n":
        return build_matrix_algebra(spec.n, spec.field, spec.involution)
    if spec.kind == "flip_matrix_n":
        return build_matrix_algebra(spec.n, spec.field, "flip")
    if spec.kind == "symplectic_m2":
        return build_matrix_algebra(2, spec.field, "symplectic")
    if spec.kind == "triangular_example1":
        return build_example1(spec.truncation, spec.field)
    if spec.kind == "m2_example2":
        return build_example2(spec.truncation, spec.field)
    raise FormatError(f"cannot build instance kind {spec.kind!r}")


def _unit_label(n, i, j):
    if n <= 9:
        return f"E{i}{j}"
    return f"E{i}.{j}"


def build_matrix_algebra(n, field=QQ, involution="none"):
    """Full n x n matrix algebra on the matrix-unit basis E_ij.

    Involutions: 'transpose' (E_ij -> E_ji), 'flip' (reflection across the
    anti-diagonal, E_ij -> E_{n+1-j,n+1-i}), 'symplectic' (n = 2 only,
    (a b; c d) -> (d -b; -c a)). The distinguished idempotent is e = E11 and
    the declared generators are all matrix units.
    """
    if not isinstance(n, int) or n < 2:
        raise FormatError("matrix algebra needs n >= 2")
    if involution not in INVOLUTIONS:
        raise FormatError(f"unknown involution {involution!r}")
    if involution == "symplectic" and n != 2:
        raise FormatError("symplectic involution is defined for n = 2 only")

    def idx(i, j):
        return (i - 1) * n + (j - 1)

    labels = [_unit_label(n, i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    one = field.one
    mul = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for l in range(1, n + 1):
                mul.append((idx(i, j), idx(j, l), idx(i, l), one))

    star = None
    if involution == "transpose":
        star = [(idx(i, j), idx(j, i), one) for i in range(1, n + 1) for j in range(1, n + 1)]
    elif involution == "flip":
        star = [
            (idx(i, j), idx(n + 1 - j, n + 1 - i), one)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        ]
    elif involution == "symplectic":
        minus = field.neg(one)
        star = [
            (idx(1, 1), idx(2, 2), one),
            (idx(2, 2), idx(1, 1), one),
            (idx(1, 2), idx(1, 2), minus),
            (idx(2, 1), idx(2, 1), minus),
        ]

    dim = n * n
    vec = partial(_vec, dim, field.zero)

    e_vec = vec([(idx(1, 1), one)])
    unit = vec([(idx(i, i), one) for i in range(1, n + 1)])
    gens = {labels[k]: vec([(k, one)]) for k in range(dim)}
    suffix = "" if involution == "none" else f"_{involution}"
    return AlgebraPresentation(
        name=f"m{n}{suffix}",
        field=field,
        basis_labels=labels,
        mul=mul,
        involution=star,
        idempotents={"e": e_vec},
        generators=gens,
        unital=True,
        unit=unit,
    )


def _poly_label(prefix, stem):
    return f"{prefix}{stem}" if prefix else stem


def _power_prefix(var, a):
    if a == 0:
        return ""
    if a == 1:
        return f"{var}*"
    return f"{var}^{a}*"


def build_example1(D, field=QQ):
    """Upper-triangular 2x2 matrices over F[x]/(x^D).

    Finitely generated as an algebra, but its commutator space is the
    strictly upper corner x-polynomials, which is bracket-abelian, so its
    Lie span cannot be reached from fewer than D generators.
    """
    if not isinstance(D, int) or D < 1:
        raise FormatError("truncation degree must be >= 1")
    stems = ("E11", "E12", "E22")

    def idx(a, t):
        return a * 3 + stems.index(t)

    labels = [
        _poly_label(_power_prefix("x", a), t) for a in range(D) for t in stems
    ]
    one = field.one
    prods = {
        ("E11", "E11"): "E11",
        ("E11", "E12"): "E12",
        ("E12", "E22"): "E12",
        ("E22", "E22"): "E22",
    }
    mul = []
    for a in range(D):
        for b in range(D):
            if a + b >= D:
                continue
            for (t, u), r in prods.items():
                mul.append((idx(a, t), idx(b, u), idx(a + b, r), one))

    dim = 3 * D
    vec = partial(_vec, dim, field.zero)

    unit = vec([(idx(0, "E11"), one), (idx(0, "E22"), one)])
    gens = {
        "E11": vec([(idx(0, "E11"), one)]),
        "E22": vec([(idx(0, "E22"), one)]),
        "E12": vec([(idx(0, "E12"), one)]),
    }
    if D > 1:  # x itself is truncated away at D = 1
        gens["x"] = vec([(idx(1, "E11"), one), (idx(1, "E22"), one)])
    return AlgebraPresentation(
        name=f"example1_D{D}",
        field=field,
        basis_labels=labels,
        mul=mul,
        involution=None,
        idempotents={"e": vec([(idx(0, "E11"), one)])},
        generators=gens,
        unital=True,
        unit=unit,
    )


def build_example2(D, field=QQ):
    """2x2 matrices over F[x,y]/(x^2, y^D) with the swap-and-twist involution.

    The involution sends (a b; c d) to (d^phi b^phi; c^phi a^phi) where phi
    negates x and fixes y. The skew part K has its commutator space inside
    the x-component, where every product vanishes.
    """
    if not isinstance(D, int) or D < 1:
        raise FormatError("truncation degree must be >= 1")
    units = ((1, 1), (1, 2), (2, 1), (2, 2))

    def idx(eps, b, i, j):
        return eps * (4 * D) + b * 4 + units.index((i, j))

    labels = []
    for eps in (0, 1):
        for b in range(D):
            prefix = ("x*" if eps else "") + _power_prefix("y", b)
            for (i, j) in units:
                labels.append(_poly_label(prefix, f"E{i}{j}"))

    one = field.one
    mul = []
    for e1 in (0, 1):
        for b1 in range(D):
            for (i1, j1) in units:
                for e2 in (0, 1):
                    if e1 + e2 > 1:
                        continue
                    for b2 in range(D):
                        if b1 + b2 >= D:
                            continue
                        for (i2, j2) in units:
                            if j1 != i2:
                                continue
                            mul.append(
                                (
                                    idx(e1, b1, i1, j1),
                                    idx(e2, b2, i2, j2),
                                    idx(e1 + e2, b1 + b2, i1, j2),
                                    one,
                                )
                            )

    swap = {(1, 1): (2, 2), (2, 2): (1, 1), (1, 2): (1, 2), (2, 1): (2, 1)}
    star = []
    for eps in (0, 1):
        sign = field.neg(one) if eps else one
        for b in range(D):
            for (i, j) in units:
                si, sj = swap[(i, j)]
                star.append((idx(eps, b, i, j), idx(eps, b, si, sj), sign))

    dim = 8 * D
    vec = partial(_vec, dim, field.zero)

    unit = vec([(idx(0, 0, 1, 1), one), (idx(0, 0, 2, 2), one)])
    gens = {
        "E11": vec([(idx(0, 0, 1, 1), one)]),
        "E12": vec([(idx(0, 0, 1, 2), one)]),
        "E21": vec([(idx(0, 0, 2, 1), one)]),
        "E22": vec([(idx(0, 0, 2, 2), one)]),
        "x": vec([(idx(1, 0, 1, 1), one), (idx(1, 0, 2, 2), one)]),
    }
    if D > 1:  # y itself is truncated away at D = 1
        gens["y"] = vec([(idx(0, 1, 1, 1), one), (idx(0, 1, 2, 2), one)])
    return AlgebraPresentation(
        name=f"example2_D{D}",
        field=field,
        basis_labels=labels,
        mul=mul,
        involution=star,
        idempotents={"e": vec([(idx(0, 0, 1, 1), one)])},
        generators=gens,
        unital=True,
        unit=unit,
    )


def x_component_span(P):
    """Span of the x-multiples in an example2-style basis (labels carry 'x*')."""
    rows = [
        P.basis_element(i)
        for i, lab in enumerate(P.basis_labels)
        if lab.startswith("x*") or lab == "x"
    ]
    return P.span_of(rows)
