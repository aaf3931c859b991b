"""The axiom gate's checks against reference copies of the checks they
replaced.

The references are the associativity check that keyed its per-i sums by
(j, k) tuples and ran the per-key diff loop for every i, the
involution-law loop that visited all dim^2 pairs (i, j), and the Element
loops of the order-2 law (b_i** = b_i through two ``involve`` calls) and
the unit law (u b_i = b_i = b_i u through two ``mul`` calls). The
violations, their order and their messages must be the same on M3 flip,
example2 D=2, example1 D=3 (no involution) and a dense change of basis of
M3 flip, over Q, F_101 and F_1000000007, and on a dense example2 D=2 over
F_1000000007: clean, and with a structure constant or an involution entry
changed or appended. On clean F_p tables whose involution holds the
residue p - 1, the raw integer sides differ by multiples of p, so unequal
sides must still be reduced key by key. The unit and order-2 laws are
also compared on M3 flip, M2 symplectic and the dense M3 flip with the
unit changed, a structure constant changed so that the unit fails to fix
one b_i on one side only, and an involution entry scaled by -1 (the
residue p - 1 over F_p).
"""

import itertools

import pytest

import algcert as ac
from algcert import formats
from algcert.algebra import axiom_violations
from algcert.linalg import QQ, PrimeField
from helpers import dense_change_of_basis

FIELDS = {"Q": QQ, "Fp101": PrimeField(101), "Fp1000000007": PrimeField(1000000007)}
GATE_AXIOMS = ("associativity", "involution-order2", "involution-antiautomorphism", "unit")


def _digits(x, s, n):
    half, mask = 1 << (s - 1), (1 << s) - 1
    out = []
    for _ in range(n):
        d = ((x + half) & mask) - half
        out.append(d)
        x = (x - d) >> s
    return out


def _reference_associativity(P):
    """The associativity triples, as the check with (j, k)-keyed sums and
    an unconditional per-key diff loop found them."""
    F = P.field
    dim = P.dim
    _, rows = P._int_mul
    width, top = P._table_bounds
    s = (2 * width * top * top).bit_length()
    packed = [
        {j: sum(c << (s * k) for k, c in e) for j, e in row.items()} for row in rows
    ]
    column = [[] for _ in range(dim)]
    for j, row in enumerate(rows):
        for k, e in row.items():
            for m, c in e:
                column[m].append((j, k, c))
    triples = []
    for i in range(dim):
        left = {}
        for j, e in rows[i].items():
            for m, c in e:
                for k, x in packed[m].items():
                    left[j, k] = left.get((j, k), 0) + c * x
        right = {}
        for m, x in packed[i].items():
            for j, k, c in column[m]:
                right[j, k] = right.get((j, k), 0) + c * x
        for j, k in sorted(left.keys() | right.keys()):
            diff = left.get((j, k), 0) - right.get((j, k), 0)
            if diff and F.from_ints(dict(enumerate(_digits(diff, s, dim))), 1)[1]:
                triples.append((i, j, k))
    return triples


def _raw_involution_diffs(P):
    """((i, j), diff) for every nonzero raw coefficient difference of
    (b_i b_j)* and b_j* b_i* over D S^2, from the loop over all pairs."""
    _, rows = P._int_mul
    S, star = P._int_star
    out = []
    for i in range(P.dim):
        right_of = []
        for row in rows:
            acc = {}
            for b, s in star[i]:
                for l, c in row.get(b, ()):
                    acc[l] = acc.get(l, 0) + s * c
            right_of.append(acc)
        for j in range(P.dim):
            lhs = {}
            for m, c in rows[i].get(j, ()):
                for l, s in star[m]:
                    lhs[l] = lhs.get(l, 0) + c * s * S
            rhs = {}
            for a, s in star[j]:
                for l, x in right_of[a].items():
                    rhs[l] = rhs.get(l, 0) + s * x
            for l in lhs.keys() | rhs.keys():
                diff = lhs.get(l, 0) - rhs.get(l, 0)
                if diff:
                    out.append(((i, j), diff))
    return out


def _reference_involution_pairs(P):
    raw = _raw_involution_diffs(P)
    _, nonzero = P.field.from_ints({n: diff for n, (_, diff) in enumerate(raw)}, 1)
    return sorted({raw[n][0] for n, _ in nonzero})


def _reference_order2(P):
    """The i with b_i** != b_i, from two ``involve`` calls per b_i."""
    return [
        i for i in range(P.dim)
        if P.involve(P.involve(P.basis_element(i))) != P.basis_element(i)
    ]


def _reference_unit(P):
    """The i with u b_i != b_i or b_i u != b_i, from two ``mul`` calls per b_i."""
    out = []
    for i in range(P.dim):
        b_i = P.basis_element(i)
        if P.mul(P.unit, b_i) != b_i or P.mul(b_i, P.unit) != b_i:
            out.append(i)
    return out


def _reference(P):
    out = [
        ("associativity", (i, j, k), f"(b{i}*b{j})*b{k} != b{i}*(b{j}*b{k})")
        for i, j, k in _reference_associativity(P)
    ]
    if P.has_involution:
        out += [("involution-order2", (i,), f"b{i}** != b{i}") for i in _reference_order2(P)]
        out += [
            ("involution-antiautomorphism", (i, j), f"(b{i}*b{j})* != b{j}* * b{i}*")
            for i, j in _reference_involution_pairs(P)
        ]
    if P.unital:
        out += [("unit", (i,), f"declared unit does not fix b{i}") for i in _reference_unit(P)]
    return out


def _gate(P):
    return [
        (v.axiom, v.indices, v.message)
        for v in axiom_violations(P)
        if v.axiom in GATE_AXIOMS
    ]


def _bases():
    out = {}
    for field, F in FIELDS.items():
        m3 = ac.build_matrix_algebra(3, F, "flip")
        ex2 = ac.build_example2(2, F)
        out[f"m3-flip-{field}"] = m3
        out[f"example2-D2-{field}"] = ex2
        out[f"example1-D3-{field}"] = ac.build_example1(3, F)
        out[f"m3-flip-dense-{field}"] = dense_change_of_basis(m3, 5)
    # The densest table (dim 16, w = 16), over the widest residues only.
    out["example2-D2-dense-Fp1000000007"] = dense_change_of_basis(ex2, 2)
    return out


BASES = _bases()


def _bumped(F, text):
    """The scalar text plus one, plus two when that gives zero."""
    c = F.add(F.parse(text), F.one)
    return F.format(c if c else F.add(c, F.one))


def _perturbed(P, table, how, at):
    """P with the entry at position ``at`` of its mul or involution table
    increased by one (``changed``), or with an entry of value 1 appended
    for the first free index tuple from that position on (``appended``)."""
    F = P.field
    d = formats.presentation_to_dict(P)
    entries = d[table]
    n = len(entries)
    t = {"first": 0, "middle": n // 2, "last": n - 1}[at]
    if how == "changed":
        entries[t] = entries[t][:-1] + [_bumped(F, entries[t][-1])]
    else:
        arity = len(entries[0]) - 1
        present = {tuple(row[:-1]) for row in entries}
        tuples = list(itertools.product(range(P.dim), repeat=arity))
        start = t * len(tuples) // n
        free = next(x for x in tuples[start:] + tuples[:start] if x not in present)
        entries.append([*free, "1"])
    return formats.presentation_from_dict(d)


def _cases():
    """(name, how, table, at) for each base, leaving out the involution on
    a base without one and appended entries on a full table."""
    out = []
    for name, P in sorted(BASES.items()):
        out.append((name, "clean", None, None))
        sizes = {"mul": P.dim**3}
        if P.has_involution:
            sizes["involution"] = P.dim**2
        for table, size in sizes.items():
            full = len(formats.presentation_to_dict(P)[table]) == size
            for how in ("changed",) if full else ("changed", "appended"):
                out += [(name, how, table, at) for at in ("first", "middle", "last")]
    return out


@pytest.mark.parametrize("name,how,table,at", _cases())
def test_gate_equals_the_reference_checks(name, how, table, at):
    P = BASES[name]
    if how != "clean":
        P = _perturbed(P, table, how, at)
    expected = _reference(P)
    assert _gate(P) == expected
    if how == "clean":
        assert expected == []
    if table == "mul" and how == "changed":
        # A changed constant of an associative table breaks associativity.
        assert any(axiom == "associativity" for axiom, _, _ in expected)


@pytest.mark.parametrize("p", [101, 1000000007])
def test_clean_involution_at_the_largest_residue(p):
    # The symplectic involution of M2 maps E12 and E21 to -E12 and -E21,
    # so it holds the residue p - 1. (E12 E21)* = E22 has raw coefficient
    # 1, and E21* E12* = (p-1)^2 E22: the raw sides differ by p(p-2) and
    # agree mod p, so the gate must reduce unequal sides before it reports.
    P = ac.build_matrix_algebra(2, PrimeField(p), "symplectic")
    raw = _raw_involution_diffs(P)
    assert raw and all(diff % p == 0 for _, diff in raw)
    assert p * (p - 2) in {abs(diff) for _, diff in raw}
    assert axiom_violations(P) == ()
    # With one involution entry changed the law breaks, in the same pairs.
    bad = _perturbed(P, "involution", "changed", "last")
    assert _gate(bad) == _reference(bad) != []


@pytest.mark.parametrize("field", ["Fp101", "Fp1000000007"])
def test_clean_dense_prime_field_involution_differs_only_mod_p(field):
    P = BASES[f"m3-flip-dense-{field}"]
    raw = _raw_involution_diffs(P)
    p = P.field.p
    assert len(raw) > 10 and all(diff % p == 0 for _, diff in raw)
    assert _gate(P) == []


def _unit_one_side(P, side):
    """P with one structure constant doubled so that the unit u fails to
    fix exactly one b_i, on one side: the constant of b_m b_i (``left``,
    breaking u b_i = b_i) or of b_i b_m (``right``) for the first m in the
    support of u and the first i outside it with that product nonzero.
    Returns (P', i)."""
    d = formats.presentation_to_dict(P)
    in_unit = {m for m, _ in P.unit.support[1]}
    for t, (a, b, _, c) in enumerate(d["mul"]):
        m, i = (a, b) if side == "left" else (b, a)
        if m in in_unit and i not in in_unit:
            d["mul"][t][3] = P.field.format(P.field.add(P.field.parse(c), P.field.parse(c)))
            return formats.presentation_from_dict(d), i
    raise AssertionError("no product of the unit's support with a basis element outside it")


def _unit_changed(P, at):
    d = formats.presentation_to_dict(P)
    d["unit"][at] = _bumped(P.field, d["unit"][at])
    return formats.presentation_from_dict(d)


def _involution_scaled(P, at):
    """P with the involution entry [i, j, s] at position ``at`` of those
    with i != j times -1, so that b_i** = -b_i when b_i* = s b_j."""
    F = P.field
    d = formats.presentation_to_dict(P)
    row = [row for row in d["involution"] if row[0] != row[1]][at]
    row[2] = F.format(F.neg(F.parse(row[2])))
    return formats.presentation_from_dict(d)


def _unit_bases():
    out = {}
    for field, F in FIELDS.items():
        out[f"m3-flip-{field}"] = BASES[f"m3-flip-{field}"]
        out[f"m2-symplectic-{field}"] = ac.build_matrix_algebra(2, F, "symplectic")
        out[f"m3-flip-dense-{field}"] = BASES[f"m3-flip-dense-{field}"]
    return out


UNIT_BASES = _unit_bases()


def _unit_cases():
    """(name, how, at): clean, the unit or an involution entry changed at
    three positions, and a unit that fails on the left or right only."""
    out = []
    for name, P in sorted(UNIT_BASES.items()):
        out.append((name, "clean", None))
        out += [(name, "unit", at) for at in (0, P.dim // 2, P.dim - 1)]
        n = sum(i != j for i, j, _ in formats.presentation_to_dict(P)["involution"])
        out += [(name, "involution", at) for at in (0, n // 2, n - 1)]
        if "dense" not in name:
            out += [(name, "left", None), (name, "right", None)]
    return out


@pytest.mark.parametrize("name,how,at", _unit_cases())
def test_unit_and_order2_laws_equal_the_reference_loops(name, how, at):
    P = UNIT_BASES[name]
    if how == "unit":
        P = _unit_changed(P, at)
    elif how == "involution":
        P = _involution_scaled(P, at)
    elif how != "clean":
        P, i = _unit_one_side(P, how)
    expected = _reference(P)
    assert _gate(P) == expected
    axioms = {axiom for axiom, _, _ in expected}
    if how == "clean":
        assert expected == []
    elif how == "unit":
        assert "unit" in axioms
    elif how == "involution":
        assert "involution-order2" in axioms
    else:
        assert _reference_unit(P) == [i]
        b_i = P.basis_element(i)
        fixed = (P.mul(P.unit, b_i) == b_i, P.mul(b_i, P.unit) == b_i)
        assert fixed == (how == "right", how == "left")


@pytest.mark.parametrize("p", [101, 1000000007])
def test_clean_order2_at_the_largest_residue(p):
    # (E12)* = (p-1) E12 in M2 symplectic, so b** of E12 sums to
    # (p-1)^2 = 1 + p(p-2) raw: the gate must reduce before it reports.
    P = ac.build_matrix_algebra(2, PrimeField(p), "symplectic")
    assert any(c == p - 1 for row in P._int_star[1] for _, c in row)
    assert _reference_order2(P) == [] == [v for v in axiom_violations(P) if v.axiom == "involution-order2"]
