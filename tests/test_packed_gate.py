"""The axiom gate's associativity check on packed rows against the sparse
convolution it replaced, which expands (b_i b_j) b_k and b_i (b_j b_k) into
coefficient dicts keyed by (i, j, k, l): on matrix algebras, example2 and
dense changes of basis over Q, F_101 and F_1000000007, each clean, with one
structure constant changed and with one appended; on tables whose constants
reach the largest magnitude of their slot; and on clean F_p tables whose raw
integer sums differ by multiples of p."""

import itertools

import pytest

import algcert as ac
from algcert import formats
from algcert.algebra import AlgebraPresentation, axiom_violations
from algcert.linalg import QQ, PrimeField
from helpers import dense_change_of_basis

FIELDS = {"Q": QQ, "Fp101": PrimeField(101), "Fp1000000007": PrimeField(1000000007)}


def _raw_sides(P):
    """The old gate's coefficient dicts: (i, j, k, l) -> the raw integer
    coefficient of b_l in (b_i b_j) b_k, and in b_i (b_j b_k), over D^2."""
    _, rows = P._int_mul
    left, right = {}, {}
    for i, row in enumerate(rows):
        for j, entries in row.items():
            for m, c1 in entries:
                for k, entries2 in rows[m].items():
                    for l, c2 in entries2:
                        left[i, j, k, l] = left.get((i, j, k, l), 0) + c1 * c2
                for h in range(P.dim):
                    for l, c2 in rows[h].get(m, ()):
                        right[h, i, j, l] = right.get((h, i, j, l), 0) + c1 * c2
    return left, right


def _dict_convolution(P):
    """The associativity violations the old gate reported, in its order."""
    left, right = _raw_sides(P)
    keys = list(set(left) | set(right))
    _, nonzero = P.field.from_ints(
        {n: left.get(k, 0) - right.get(k, 0) for n, k in enumerate(keys)}, 1
    )
    return [
        ("associativity", (i, j, k), f"(b{i}*b{j})*b{k} != b{i}*(b{j}*b{k})")
        for i, j, k in sorted({keys[n][:3] for n, _ in nonzero})
    ]


def _associativity(P):
    return [
        (v.axiom, v.indices, v.message)
        for v in axiom_violations(P)
        if v.axiom == "associativity"
    ]


def _bases():
    out = {}
    for field, F in FIELDS.items():
        m3 = ac.build_matrix_algebra(3, F, "flip")
        out[f"m3-flip-{field}"] = m3
        out[f"m4-flip-{field}"] = ac.build_matrix_algebra(4, F, "flip")
        out[f"example2-D2-{field}"] = ac.build_example2(2, F)
        out[f"m3-flip-dense-{field}"] = dense_change_of_basis(m3, 5)
    return out


BASES = _bases()


def _perturbed(P, how):
    """P with its middle structure constant increased by 1 (by 2 when that
    gives zero), or with the entry c_ijk = 1 appended for the first triple
    from the middle on that has none."""
    F = P.field
    d = formats.presentation_to_dict(P)
    mul = d["mul"]
    if how == "changed":
        i, j, k, c = mul[len(mul) // 2]
        c = F.add(F.parse(c), F.one)
        if not c:
            c = F.add(c, F.one)
        mul[len(mul) // 2] = [i, j, k, F.format(c)]
    else:
        present = {tuple(row[:3]) for row in mul}
        triples = list(itertools.product(range(P.dim), repeat=3))
        half = len(triples) // 2
        mul.append([*next(t for t in triples[half:] + triples[:half] if t not in present), "1"])
    return formats.presentation_from_dict(d)


@pytest.mark.parametrize("how", ["clean", "changed", "appended"])
@pytest.mark.parametrize("name", sorted(BASES))
def test_packed_gate_equals_dict_convolution(name, how):
    P = BASES[name]
    if how != "clean":
        P = _perturbed(P, how)
    expected = _dict_convolution(P)
    assert _associativity(P) == expected
    assert bool(expected) == (how != "clean")
    # Associativity comes first, in the old order.
    assert [(v.axiom, v.indices, v.message) for v in axiom_violations(P)][: len(expected)] == expected


def _signed_matrix_units(n, F, signs, scale=1):
    """M_n in the basis sigma_a E_a (matrix units in row-major order, signs
    sigma_a = +-1) under the product x o y = scale * xy: E_a E_b = E_t
    gives b_a o b_b = scale sigma_a sigma_b sigma_t b_t, so every structure
    constant is scale or -scale and each product has one term."""
    units = [(r, c) for r in range(n) for c in range(n)]
    mul = []
    for a, (r, c) in enumerate(units):
        for b, (r2, c2) in enumerate(units):
            if c == r2:
                t = units.index((r, c2))
                mul.append((a, b, t, F.coerce(scale * signs[a] * signs[b] * signs[t])))
    return AlgebraPresentation(f"m{n}-signed", F, [f"b{a}" for a in range(n * n)], mul)


def _largest_slot_difference(P):
    left, right = _raw_sides(P)
    return max(abs(left.get(k, 0) - right.get(k, 0)) for k in left.keys() | right.keys())


@pytest.mark.parametrize("p", [101, 1000000007])
def test_clean_table_at_the_largest_residue(p):
    # -E11, E12, E21, E22: every constant is 1 or -1 = p - 1, the largest
    # residue. (b1 b2) b1 = (-b0) b1 gives the raw coefficient (p-1)^2 and
    # b1 (b2 b1) = b1 b3 gives 1, so the raw sides differ by p(p-2), close
    # to w T^2 = (p-1)^2, the most that one-term slots of residues can
    # differ by. They agree mod p, and a slot one bit narrower than the
    # gate's misreads that difference.
    P = _signed_matrix_units(2, PrimeField(p), (-1, 1, 1, 1))
    left, right = _raw_sides(P)
    assert left[1, 2, 1, 1] == (p - 1) ** 2 and right[1, 2, 1, 1] == 1
    assert _largest_slot_difference(P) == p * (p - 2)
    assert axiom_violations(P) == ()


@pytest.mark.parametrize("n", [2, 3])
def test_negative_constants_at_the_slot_bound(n):
    # Constants -T and T over Q: the clean table has equal sides, and with
    # the sign of one constant changed the violating slots differ by
    # 2 T^2 = 2 w T^2, the bound the slot width is chosen for.
    T = 2**61 - 1
    signs = [(-1) ** a for a in range(n * n)]
    P = _signed_matrix_units(n, QQ, signs, scale=T)
    assert axiom_violations(P) == ()
    mul = [(i, j, k, c) for (i, j), entries in P._mul.items() for k, c in entries]
    flipped = [(i, j, k, -c if (i, j) == (0, 0) else c) for i, j, k, c in mul]
    bad = AlgebraPresentation("signed-bad", QQ, P.basis_labels, flipped)
    assert _largest_slot_difference(bad) == 2 * T * T
    assert _associativity(bad) == _dict_convolution(bad) != []


@pytest.mark.parametrize("field", ["Fp101", "Fp1000000007"])
def test_clean_dense_prime_field_table_differs_only_mod_p(field):
    # Residues are reduced mod p, so the raw integer sides of a clean dense
    # table differ, by multiples of p, at many coefficients.
    P = dense_change_of_basis(ac.build_matrix_algebra(3, FIELDS[field], "flip"), 5)
    left, right = _raw_sides(P)
    diffs = [left.get(k, 0) - right.get(k, 0) for k in left.keys() | right.keys()]
    p = P.field.p
    assert sum(1 for x in diffs if x) > 100
    assert all(x % p == 0 for x in diffs)
    assert axiom_violations(P) == ()
