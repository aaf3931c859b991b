"""Shared test utilities: instance shortcuts, an independent textbook
Gauss-Jordan reduction used as an oracle against the library's echelon
routine, subspace sums, intersections, linear combinations and the
stagnating word oracle as test references built on the library's public
span API, a seeded dense change of basis, a presentation's table and
involution as field scalars, its table declared with no unit, the integer tables the constructor should
build from the rows it is handed, element construction helpers (an
Element from dense coordinates among them) and lemma 2's generating set
with the pair components the claims pass it."""

import random
from fractions import Fraction
from math import lcm

import algcert as ac
from algcert import certificates as cc
from algcert.algebra import AlgebraPresentation, Element
from algcert.closure import PAIR_STRUCTURES, word_oracle
from algcert.linalg import CombinationSolver, PrimeField, SpanBuilder, echelonize


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


def subspace_sum(a, b):
    """Canonical basis of a + b."""
    out = a.builder()
    for row in b.basis:
        out.add(row)
    return out.subspace()


def intersect(a, b):
    """Canonical basis of the intersection, by the Zassenhaus block trick:
    the rows (u, u) for u in a and (w, 0) for w in b span a space whose
    rows with zero first half are (0, x) for x in the intersection."""
    n = a.ambient_dim
    zero = (a.field.zero,) * n
    big = SpanBuilder(a.field, 2 * n)
    for u in a.basis:
        big.add(u + u)
    for w in b.basis:
        big.add(w + zero)
    rows = [row[n:] for row in big.subspace().basis if not any(row[:n])]
    return echelonize(a.field, rows, n)


def linear_combination(field, vectors, target):
    """Exact coefficients c with sum(c_i * vectors[i]) == target, or None."""
    solver = CombinationSolver(field, len(target))
    for v in vectors:
        solver.add(v)
    sol = solver.solve(target)
    if sol is None:
        return None
    out = [field.zero] * len(vectors)
    for i, c in sol.items():
        out[i] = c
    return out


def oracle_until_stagnation(P, S, start_len=1, max_rounds=12):
    """Grow max_len until the oracle span stops changing; returns (span, len)."""
    step = 2 if S.structure in PAIR_STRUCTURES else 1
    prev = word_oracle(P, S, start_len)
    length = start_len
    for _ in range(max_rounds):
        nxt = word_oracle(P, S, length + step)
        if nxt == prev:
            return prev, length
        prev = nxt
        length += step
    return prev, length


def _adjugate(T):
    """(det T, adj T) of a square integer matrix, by fraction-free
    Gauss-Jordan elimination (Bareiss): every division is exact, and the
    left block ends as det T times the identity. adj T is None when
    det T = 0."""
    n = len(T)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(T)]
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if rows[r][k]), None)
        if pivot is None:
            return 0, None
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top = rows[k]
        piv = top[k]
        for i in range(n):
            f = rows[i][k]
            if i != k:
                rows[i] = [(piv * x - f * y) // prev for x, y in zip(rows[i], top)]
        prev = piv
    return prev, [row[n:] for row in rows]


def scalar_table(P):
    """P's table {(i, j): ((k, c), ...)} of field scalars, each b_i b_j's
    terms in index order, read from its integer table ``_int_mul``."""
    F = P.field
    D, rows = P._int_mul
    return {
        (i, j): tuple((k, F.from_pair(c, D)) for k, c in row[j])
        for i, row in enumerate(rows)
        for j in sorted(row)
    }


def scalar_star(P):
    """P's involution rows ((j, s_ij), ...) of field scalars, in index
    order, read from its integer rows ``_int_star``; None without one."""
    if P._int_star is None:
        return None
    F = P.field
    S, rows = P._int_star
    return tuple(tuple((j, F.from_pair(c, S)) for j, c in row) for row in rows)


def _field_value(F, c):
    """The field value of a scalar as the constructor is handed it: a pair
    (n, d), a scalar string, an int or a Fraction, computed here with
    Fraction and ``pow``, independently of the library's fields."""
    c = Fraction(*c) if isinstance(c, tuple) else Fraction(c)
    if isinstance(F, PrimeField):
        return c.numerator * pow(c.denominator, -1, F.p) % F.p
    return c


def _over_lcm(entries):
    """The lcm d of the denominators of the (index, scalar) pairs of the
    lists in entries, and each list as (index, int) pairs over d."""
    d = lcm(*(c.denominator for e in entries for _, c in e))
    return d, [tuple((k, c.numerator * (d // c.denominator)) for k, c in sorted(e))
               for e in entries]


def without_unit(P):
    """P's table, declared with no unit (and no involution)."""
    return AlgebraPresentation(
        P.name + "-no-unit",
        P.field,
        P.basis_labels,
        [(i, j, k, c) for (i, j), entries in scalar_table(P).items() for k, c in entries],
    )


def reference_tables(F, dim, mul, involution=None):
    """(int_mul, table_bounds, int_star) as the constructor should build
    them from the table rows (i, j, k, scalar) and the involution rows
    (i, j, scalar) it is handed: the nonzero scalars over the lcm of their
    denominators, each product's terms in index order, the most terms of
    any product and the largest integer constant."""
    table = {}
    for i, j, k, c in mul:
        if c := _field_value(F, c):
            table.setdefault((i, j), []).append((k, c))
    D, products = _over_lcm(list(table.values()))
    rows = [{} for _ in range(dim)]
    for (i, j), e in zip(table, products):
        rows[i][j] = e
    bounds = (max(map(len, products), default=0),
              max((abs(c) for e in products for _, c in e), default=0))
    star = None
    if involution is not None:
        star_rows = [[] for _ in range(dim)]
        for i, j, c in involution:
            if c := _field_value(F, c):
                star_rows[i].append((j, c))
        star = _over_lcm(star_rows)
    return (D, rows), bounds, star


def dense_change_of_basis(P, seed):
    """P rewritten in the basis b'_i = sum_a T_ia b_a, for a seeded random
    matrix T with entries in [-2, 2] that is invertible over P's field.

    The structure constants are read from P's integer tables, not with
    ``P.mul``, and transformed as ints: T is invertible over the field
    when its determinant delta is nonzero there, and then its inverse is
    the integer matrix A = adj T over delta, so each new coordinate is one
    integer sum over the table's denominator times delta, taken to a field
    scalar once. The involution, named vectors and the unit are
    re-expressed in the new basis.
    """
    F = P.field
    n = P.dim
    rng = random.Random(seed)
    while True:
        T = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        delta, A = _adjugate(T)
        if F.from_pair(delta, 1):
            break

    def to_new(v, d):
        """The new coordinates, as field scalars, of the vector whose old
        coordinates are the ints of the dict v {k: n} over d."""
        out = [0] * n
        for k, x in v.items():
            if x:
                out = [y + x * a for y, a in zip(out, A[k])]
        return [F.from_pair(y, d * delta) for y in out]

    def combined(i, rows):
        """sum_a T_ia rows[a] for dicts of ints {k: n}."""
        acc = {}
        for a, t in enumerate(T[i]):
            if t:
                for k, x in rows[a].items():
                    acc[k] = acc.get(k, 0) + t * x
        return acc

    D, table = P._int_mul
    # columns[b][a] = the integer row of b_a b_b over D.
    columns = [[dict(table[a].get(b, ())) for a in range(n)] for b in range(n)]
    mul = []
    for i in range(n):
        left = [combined(i, column) for column in columns]  # b'_i b_b over D
        for j in range(n):
            mul.extend((i, j, k, c) for k, c in enumerate(to_new(combined(j, left), D)) if c)
    involution = None
    if P.has_involution:
        S, star = P._int_star
        star = [dict(row) for row in star]
        involution = [
            (i, j, c)
            for i in range(n)
            for j, c in enumerate(to_new(combined(i, star), S))
            if c
        ]

    def new_coords(v):
        d, pairs = v.support
        return to_new(dict(pairs), d)

    def named(vectors):
        return {k: new_coords(v) for k, v in vectors.items()}

    return AlgebraPresentation(
        name=P.name + "_dense",
        field=F,
        basis_labels=[f"v{i}" for i in range(n)],
        mul=mul,
        involution=involution,
        idempotents=named(P.idempotents),
        generators=named(P.generators),
        unital=P.unital,
        unit=new_coords(P.unit) if P.unital else None,
    )


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


def coords_element(coords):
    """The Element with the dense coordinates coords (Fractions or ints over
    Q, residues over F_p) and the support they give: the nonzero
    coordinates as ints over the lcm of their denominators. A reference for
    the supports the library builds without reading coordinates."""
    coords = tuple(coords)
    nonzero = [(i, c) for i, c in enumerate(coords) if c]
    d = lcm(*(c.denominator for _, c in nonzero))
    support = (d, tuple((i, c.numerator * (d // c.denominator)) for i, c in nonzero))
    el = Element._of(None, len(coords), support)
    el._coords = coords
    return el


def lemma2_parts(P, e, f):
    """(pair generators, info, components) of lemma 2's word set over e and
    f, with the components the claims pass: Peirce's (eR(1-e), (1-e)Re) for
    f None, standing for 1 - e, and the grading's (R_-2, R_2) for f = e*."""
    if f is None:
        pd = ac.peirce_decompose(P, e)
        components = (pd.eRf, pd.fRe)
    else:
        parts = ac.z_grading(P, e).parts
        components = (parts[-2], parts[2])
    gens, info = cc._lemma2_impl(P, cc._witness_search(P, e, f, 6), components)
    return gens, info, components


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
    """Count the products computed: the calls of the product kernel
    ``AlgebraPresentation._ints``, which ``mul``, the products and brackets
    of held factors and every product that feeds a span as an int vector
    go through, each once. Returns a one-element list."""
    calls = [0]
    kernel = AlgebraPresentation._ints

    def counting(P, a, b):
        calls[0] += 1
        return kernel(P, a, b)

    monkeypatch.setattr(AlgebraPresentation, "_ints", counting)
    return calls
