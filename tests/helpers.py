"""Shared test utilities: instance shortcuts, an independent textbook
Gauss-Jordan reduction used as an oracle against the library's echelon
routine, and element construction helpers."""

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
