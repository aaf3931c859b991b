"""The axiom gate's associativity and involution-law checks against
reference copies of the checks they replaced.

The references are the associativity check that keyed its per-i sums by
(j, k) tuples and ran the per-key diff loop for every i, and the
involution-law loop that visited all dim^2 pairs (i, j). The violations,
their order and their messages must be the same on M3 flip, example2 D=2,
example1 D=3 (no involution) and a dense change of basis of M3 flip, over
Q, F_101 and F_1000000007, and on a dense example2 D=2 over
F_1000000007: clean, and with a structure constant or an involution entry
changed or appended. On clean F_p tables whose involution holds the
residue p - 1, the raw integer sides differ by multiples of p, so unequal
sides must still be reduced key by key.
"""

import itertools

import pytest

import algcert as ac
from algcert import formats
from algcert.algebra import axiom_violations
from algcert.linalg import QQ, PrimeField
from helpers import dense_change_of_basis

FIELDS = {"Q": QQ, "Fp101": PrimeField(101), "Fp1000000007": PrimeField(1000000007)}
GATE_AXIOMS = ("associativity", "involution-antiautomorphism")


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
            if diff and F.from_ints(_digits(diff, s, dim), 1)[1]:
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
    _, nonzero = P.field.from_ints([diff for _, diff in raw], 1)
    return sorted({raw[n][0] for n, _ in nonzero})


def _reference(P):
    out = [
        ("associativity", (i, j, k), f"(b{i}*b{j})*b{k} != b{i}*(b{j}*b{k})")
        for i, j, k in _reference_associativity(P)
    ]
    if P.has_involution:
        out += [
            ("involution-antiautomorphism", (i, j), f"(b{i}*b{j})* != b{j}* * b{i}*")
            for i, j in _reference_involution_pairs(P)
        ]
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
