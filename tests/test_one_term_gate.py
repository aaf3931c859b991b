"""The axiom gate on tables whose products have one term each.

There the associativity and involution checks compare each side's one term
(l, c), reduced mod p over F_p, and pack no row. They must find what the
packed path finds: the same copy of the table with its width bound raised
to 2 takes that path, which is exact for any bound at least the table's.
The tables are M3 flip and transpose and example2 at D = 2 and 6, over Q,
F_101 and F_1000000007, clean and with one structure constant or
involution entry changed, negated or dropped. A clean table over
F_1000000007 in a basis of matrix units rescaled by +-1 has sides that
agree mod p but not as integers, and a one-term table with one two-term
involution row sends the involution check, alone, to the packed path.
"""

import pytest

import algcert as ac
from algcert import algebra, formats
from algcert.algebra import _associativity_triples, _involution_law_pairs, axiom_violations
from algcert.linalg import QQ, PrimeField

FIELDS = {"Q": QQ, "Fp101": PrimeField(101), "Fp1000000007": PrimeField(1000000007)}


def _bases():
    out = {}
    for field, F in FIELDS.items():
        out[f"m3-flip-{field}"] = ac.build_matrix_algebra(3, F, "flip")
        out[f"m3-transpose-{field}"] = ac.build_matrix_algebra(3, F, "transpose")
        out[f"example2-D2-{field}"] = ac.build_example2(2, F)
        out[f"example2-D6-{field}"] = ac.build_example2(6, F)
    return out


BASES = _bases()


def _perturbed(P, table, how, at):
    """P's dict with the entry at position ``at`` of its mul or involution
    table increased by one (by two when that gives zero), negated or
    dropped."""
    F = P.field
    d = formats.presentation_to_dict(P)
    entries = d[table]
    t = {"first": 0, "middle": len(entries) // 2, "last": len(entries) - 1}[at]
    if how == "dropped":
        del entries[t]
        return d
    c = F.parse(entries[t][-1])
    if how == "changed":
        c = F.add(c, F.one)
        if not c:
            c = F.add(c, F.one)
    else:
        c = F.neg(c)
    entries[t] = entries[t][:-1] + [F.format(c)]
    return d


def _count_packing(monkeypatch):
    """Count the calls of ``_packed_rows`` and ``_pack``."""
    calls = {"rows": 0, "pack": 0}
    packed_rows = algebra.AlgebraPresentation._packed_rows
    pack = algebra._pack

    def rows(P, s):
        calls["rows"] += 1
        return packed_rows(P, s)

    def counted_pack(entries, s):
        calls["pack"] += 1
        return pack(entries, s)

    monkeypatch.setattr(algebra.AlgebraPresentation, "_packed_rows", rows)
    monkeypatch.setattr(algebra, "_pack", counted_pack)
    return calls


def _widened(d):
    """The presentation of d with its width bound raised to 2, so that
    both checks take the packed path."""
    P = formats.presentation_from_dict(d)
    P._table_bounds = 2, P._table_bounds[1]
    return P


def _checks(P):
    """Both checks on every index, and the gate's violations."""
    return (
        _associativity_triples(P),
        _involution_law_pairs(P),
        [(v.axiom, v.indices, v.message) for v in axiom_violations(P)],
    )


def _cases():
    out = []
    for name in sorted(BASES):
        out.append((name, None, "clean"))
        for table in ("mul", "involution"):
            out += [(name, table, how) for how in ("changed", "negated", "dropped")]
    return out


@pytest.mark.parametrize("name,table,how", _cases())
def test_one_term_checks_equal_the_packed_path(monkeypatch, name, table, how):
    base = BASES[name]
    for at in ("first", "middle", "last") if table else ("first",):
        d = formats.presentation_to_dict(base) if table is None else _perturbed(base, table, how, at)
        P = formats.presentation_from_dict(d)
        assert P._table_bounds[0] == 1
        assert max(map(len, P._int_star[1])) <= 1
        calls = _count_packing(monkeypatch)
        found = _checks(P)
        assert calls == {"rows": 0, "pack": 0}
        assert P._packed == {}
        wide = _widened(d)
        assert _checks(wide) == found
        assert calls["rows"] > 0 and calls["pack"] > 0
        triples, pairs, violations = found
        if how == "clean":
            assert violations == []
        elif table == "mul" and how != "dropped":
            # A changed or negated constant of an associative table breaks
            # associativity.
            assert triples
        elif table == "involution" and how != "dropped":
            assert pairs


def _rescaled(P, negated):
    """P's dict in the basis sigma_a b_a, sigma_a = -1 for a in negated."""
    F = P.field
    d = formats.presentation_to_dict(P)
    sign = [F.coerce(-1 if a in negated else 1) for a in range(P.dim)]

    def times(c, *indices):
        for a in indices:
            c = F.mul(c, sign[a])
        return F.format(c)

    d["mul"] = [[i, j, k, times(F.parse(c), i, j, k)] for i, j, k, c in d["mul"]]
    d["involution"] = [[i, j, times(F.parse(s), i, j)] for i, j, s in d["involution"]]
    for vectors in (d["idempotents"], d["generators"]):
        for key, v in vectors.items():
            vectors[key] = [times(F.parse(x), a) for a, x in enumerate(v)]
    d["unit"] = [times(F.parse(x), a) for a, x in enumerate(d["unit"])]
    return d


def _raw_sides(P):
    """(i, j, k) -> the unreduced terms (l, c) of (b_i b_j) b_k and
    b_i (b_j b_k), for the triples where both are nonzero."""
    _, rows = P._int_mul
    out = {}
    for i, row in enumerate(rows):
        for j, ((m, c),) in row.items():
            for k, ((l, x),) in rows[m].items():
                e = rows[j].get(k)
                f = e and row.get(e[0][0])
                if f:
                    out[i, j, k] = (l, c * x), (f[0][0], e[0][1] * f[0][1])
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_sides_that_agree_only_mod_p(monkeypatch, n):
    # M_n transpose over F_p in the basis -E11, E12, ...: the constants are
    # 1 and -1 = p - 1. (b1 b_n) b1 = (E12 E21) E12 = (p - 1) b0 b1 has the
    # raw term (p - 1)^2 b1, and b1 (b_n b1) = b1 (E21 E12) = 1 * 1 b1: the
    # sides agree mod p but not as integers, and the gate must reduce them.
    p = 1000000007
    P = formats.presentation_from_dict(_rescaled(ac.build_matrix_algebra(n, PrimeField(p), "transpose"), {0}))
    raw = _raw_sides(P)
    assert raw[1, n, 1] == ((1, (p - 1) ** 2), (1, 1))
    assert all(a[0] == b[0] and (a[1] - b[1]) % p == 0 for a, b in raw.values())
    calls = _count_packing(monkeypatch)
    assert axiom_violations(P) == ()
    assert calls == {"rows": 0, "pack": 0}
    assert P._packed == {}


def _brute_pairs(P):
    """The pairs (i, j) with (b_i b_j)* != b_j* b_i*, from Elements."""
    b = [P.basis_element(i) for i in range(P.dim)]
    return [
        (i, j) for i in range(P.dim) for j in range(P.dim)
        if P.involve(P.mul(b[i], b[j])) != P.mul(P.involve(b[j]), P.involve(b[i]))
    ]


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name", ["m3-flip", "example2-D2"])
def test_a_two_term_involution_row_takes_the_packed_path(monkeypatch, name, field):
    P = BASES[f"{name}-{field}"]
    d = formats.presentation_to_dict(P)
    i, j, _ = d["involution"][0]
    d["involution"].append([i, next(k for k in range(P.dim) if k != j), "1"])
    Q = formats.presentation_from_dict(d)
    assert Q._table_bounds[0] == 1 and max(map(len, Q._int_star[1])) == 2
    calls = _count_packing(monkeypatch)
    assert _associativity_triples(Q) == []
    assert calls == {"rows": 0, "pack": 0}
    pairs = _involution_law_pairs(Q)
    assert calls["pack"] > 0
    assert pairs == _brute_pairs(Q) != []
    assert pairs == _involution_law_pairs(_widened(d))
