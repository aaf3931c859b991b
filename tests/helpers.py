"""Shared test utilities: instance shortcuts, an independent textbook
Gauss-Jordan reduction used as an oracle against the library's echelon
routine, a seeded dense change of basis, and element construction
helpers."""

import random
from fractions import Fraction

import algcert as ac
from algcert.algebra import AlgebraPresentation


def naive_rref(rows):
    """Plain full-matrix Gauss-Jordan over Q; independent of the library."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return []
    ncols = len(m[0])
    pivot_row = 0
    for col in range(ncols):
        pivot = None
        for r in range(pivot_row, len(m)):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        inv = 1 / m[pivot_row][col]
        m[pivot_row] = [inv * x for x in m[pivot_row]]
        for r in range(len(m)):
            if r != pivot_row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[pivot_row])]
        pivot_row += 1
        if pivot_row == len(m):
            break
    return [tuple(row) for row in m[:pivot_row] if any(row)]


def _inverse(F, T):
    """Gauss-Jordan inverse of a square matrix over the field F, or None."""
    n = len(T)
    rows = [list(T[i]) + [F.one if i == j else F.zero for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = F.inv(rows[col][col])
        rows[col] = [F.mul(inv, x) for x in rows[col]]
        for r in range(n):
            c = rows[r][col]
            if r != col and c:
                rows[r] = [F.sub(x, F.mul(c, y)) for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def dense_change_of_basis(P, seed):
    """P rewritten in the basis b'_i = sum_a T_ia b_a, for a seeded random
    matrix T with entries in [-2, 2] that is invertible over P's field.

    The structure constants are read with ``mul_basis`` and transformed
    with the field's scalar operations, not with ``P.mul``; the involution,
    named vectors and the unit are re-expressed in the new basis.
    """
    F = P.field
    n = P.dim
    rng = random.Random(seed)
    while True:
        T = [[F.coerce(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        Tinv = _inverse(F, T)
        if Tinv is not None:
            break

    def to_new(v):
        return [
            _dot(F, (v[k] for k in range(n)), (Tinv[k][i] for k in range(n)))
            for i in range(n)
        ]

    def old_coords(i, vectors):
        """sum_a T_ia vectors[a], in old coordinates."""
        acc = [F.zero] * n
        for a in range(n):
            if T[i][a]:
                acc = [F.add(x, F.mul(T[i][a], y)) for x, y in zip(acc, vectors[a])]
        return acc

    basis_products = {
        (a, b): [(k, c) for k, c in enumerate(P.mul_basis(a, b).coords) if c]
        for a in range(n)
        for b in range(n)
    }
    mul = []
    for i in range(n):
        for j in range(n):
            acc = [F.zero] * n
            for a in range(n):
                for b in range(n):
                    t = F.mul(T[i][a], T[j][b])
                    for k, c in basis_products[(a, b)] if t else ():
                        acc[k] = F.add(acc[k], F.mul(t, c))
            mul.extend((i, j, k, c) for k, c in enumerate(to_new(acc)) if c)
    involution = None
    if P.has_involution:
        stars = [P.involve(P.basis_element(a)).coords for a in range(n)]
        involution = [
            (i, j, c)
            for i in range(n)
            for j, c in enumerate(to_new(old_coords(i, stars)))
            if c
        ]

    def named(vectors):
        return {k: to_new(v.coords) for k, v in vectors.items()}

    return AlgebraPresentation(
        name=P.name + "_dense",
        field=F,
        basis_labels=[f"v{i}" for i in range(n)],
        mul=mul,
        involution=involution,
        idempotents=named(P.idempotents),
        generators=named(P.generators),
        unital=P.unital,
        unit=to_new(P.unit.coords) if P.unital else None,
    )


def _dot(F, xs, ys):
    acc = F.zero
    for x, y in zip(xs, ys):
        if x and y:
            acc = F.add(acc, F.mul(x, y))
    return acc


def m2(involution="none"):
    return ac.build_matrix_algebra(2, involution=involution)


def m3(involution="none"):
    return ac.build_matrix_algebra(3, involution=involution)


def m4(involution="none"):
    return ac.build_matrix_algebra(4, involution=involution)


def unit_elem(P, label):
    """Basis element by its label."""
    return P.basis_element(P.basis_labels.index(label))


def elem(P, combo):
    """Element from {label: coefficient}."""
    acc = P.zero()
    for label, c in combo.items():
        acc = P.add(acc, P.scale(c, unit_elem(P, label)))
    return acc


def lie_gens(P, labels):
    return ac.generator_set(
        "lie", [(lab, unit_elem(P, lab), "test") for lab in labels]
    )


def assoc_gens(P, labels):
    return ac.generator_set(
        "associative", [(lab, unit_elem(P, lab), "test") for lab in labels]
    )


def pair_gens(P, structure, pluses, minuses):
    items = []
    sides = []
    for lab in minuses:
        items.append((lab, unit_elem(P, lab), "test"))
        sides.append("-")
    for lab in pluses:
        items.append((lab, unit_elem(P, lab), "test"))
        sides.append("+")
    return ac.generator_set(structure, items, sides)


def component_pair_gens(P, structure="assoc-pair"):
    """Pair generators from the off-diagonal Peirce component bases."""
    e = P.idempotents["e"]
    pd = ac.peirce_decompose(P, e)
    items = []
    sides = []
    for side, comp in (("-", pd.eRf), ("+", pd.fRe)):
        for k, row in enumerate(comp.basis):
            items.append((f"p{side}{k}", P.element(row), "component"))
            sides.append(side)
    return ac.generator_set(structure, items, sides)


def count_muls(monkeypatch):
    """Count AlgebraPresentation.mul calls; returns a one-element list."""
    calls = [0]
    original = AlgebraPresentation.mul

    def counting(P, a, b):
        calls[0] += 1
        return original(P, a, b)

    monkeypatch.setattr(AlgebraPresentation, "mul", counting)
    return calls
