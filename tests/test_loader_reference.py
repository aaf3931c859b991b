"""The loader against a reference copy of the loader it replaced, which
parsed every scalar string into a field value with a regular expression and
then coerced it a second time, in the tables and in every named vector.

On built instances, dense changes of basis and files whose zeros are
written "-0", "00" or "0/7", the loaded table, involution and supports and
the canonical dump must equal the reference's. Each of "0", "-0", "00",
"0/7", "0/0", "1/0", "abc", the JSON number 0 and the list [1], put in a
structure constant, an involution entry or a vector coordinate, must give
the same value or the same FormatError message and pointer. The loader
parses each distinct scalar string once per file: one string put in all
three places gives the reference's values, or its error at the first
occurrence.

The reference also checks each table row's shape and indices and each
vector's type and length as the replaced loader did. A row that is not a
list or has the wrong arity, an index that is true, 1.0, -1 or dim, and a
vector that is not a list or has the wrong length must give its message and
pointer, and of several bad rows the first one the loader meets. A
repeated table or involution entry gives the pointer of its second
occurrence.
"""

import json
import re
from fractions import Fraction
from math import lcm

import pytest

import algcert as ac
from algcert import formats
from algcert.errors import FormatError
from algcert.linalg import QQ, PrimeField, RationalField
from helpers import dense_change_of_basis, scalar_star, scalar_table

_RAT_RE = re.compile(r"^-?\d+(/\d+)?$")
_INT_RE = re.compile(r"^-?\d+$")


def _reference_parse(F, s):
    """A scalar string as the replaced loader parsed it."""
    p = getattr(F, "p", 0)
    if p:
        if not isinstance(s, str) or not _INT_RE.match(s):
            raise FormatError(f"not a prime-field scalar: {s!r}")
        return int(s) % p
    if not isinstance(s, str) or not _RAT_RE.match(s):
        raise FormatError(f"not a rational scalar: {s!r}")
    num, _, den = s.partition("/")
    try:
        return Fraction(int(num), int(den) if den else 1)
    except ZeroDivisionError:
        raise FormatError(f"zero denominator in rational scalar: {s!r}") from None


def _reference_coerce(F, x):
    p = getattr(F, "p", 0)
    return int(x) % p if p else Fraction(x)


def _reference_scalar(F, s, pointer):
    try:
        c = _reference_parse(F, s)
    except FormatError as exc:
        raise FormatError(str(exc), pointer) from None
    return _reference_coerce(F, c)


def _reference_row(row, dim, pointer):
    """The replaced loader's checks of a table row's shape and indices."""
    shape = "[i,j,k,scalar]" if pointer.startswith("$.mul") else "[i,j,scalar]"
    arity = shape.count(",") + 1
    if not (isinstance(row, list) and len(row) == arity):
        raise FormatError(f"entry must be {shape}", pointer)
    for x in row[:-1]:
        if not (type(x) is int and 0 <= x < dim):
            raise FormatError("index out of range", pointer)
    return row


def _reference_vector(F, v, dim, pointer):
    if not isinstance(v, list):
        raise FormatError("vector must be a list", pointer)
    if len(v) != dim:
        raise FormatError(f"vector length {len(v)} != dim {dim}", pointer)
    return tuple(_reference_scalar(F, x, f"{pointer}[{n}]") for n, x in enumerate(v))


def _reference_duplicate(rows, kind):
    """The constructor's error for the first repeated index tuple, which
    the loader passes on with the pointer of the repeating row."""
    seen = set()
    for t, row in enumerate(rows):
        idx = tuple(row[:-1])
        if idx in seen:
            raise FormatError(
                f"duplicate {kind} entry for ({','.join(map(str, idx))})", f"$.{kind}[{t}]"
            )
        seen.add(idx)


def _reference_load(d):
    """(mul table, involution rows, named coordinate tuples) of the file d,
    whose top-level fields are well formed, as the replaced loader built
    them: its rows in order, each checked for shape, indices and scalar,
    then the named vectors and the unit, then the constructor's check for
    repeated entries."""
    F = ac.field_from_name(d["field"])
    dim = d["dim"]
    table = {}
    for t, row in enumerate(d["mul"]):
        i, j, k, c = _reference_row(row, dim, f"$.mul[{t}]")
        c = _reference_scalar(F, c, f"$.mul[{t}][3]")
        if c:
            table.setdefault((i, j), []).append((k, c))
    mul = {key: tuple(sorted(entries)) for key, entries in table.items()}
    star = None
    if "involution" in d:
        rows = [[] for _ in range(dim)]
        for t, row in enumerate(d["involution"]):
            i, j, c = _reference_row(row, dim, f"$.involution[{t}]")
            c = _reference_scalar(F, c, f"$.involution[{t}][2]")
            if c:
                rows[i].append((j, c))
        star = tuple(tuple(sorted(r)) for r in rows)
    vectors = {}
    for key in ("idempotents", "generators"):
        for name, v in d[key].items():
            vectors[key, name] = _reference_vector(F, v, dim, f"$.{key}.{name}")
    if d["unital"]:
        vectors["unit", None] = _reference_vector(F, d["unit"], dim, "$.unit")
    _reference_duplicate(d["mul"], "mul")
    _reference_duplicate(d.get("involution", ()), "involution")
    return F, mul, star, vectors


def _support(coords):
    nonzero = [(i, c) for i, c in enumerate(coords) if c]
    d = lcm(*(Fraction(c).denominator for _, c in nonzero))
    return d, tuple((i, Fraction(c).numerator * (d // Fraction(c).denominator)) for i, c in nonzero)


def _reference_dump(d, F, mul, star, vectors):
    out = {
        "name": d["name"],
        "field": F.name,
        "dim": d["dim"],
        "basis": d["basis"],
        "mul": [
            [i, j, k, F.format(c)] for (i, j), entries in sorted(mul.items()) for k, c in entries
        ],
        "unital": d["unital"],
    }
    for key in ("idempotents", "generators"):
        out[key] = {
            name: [F.format(x) for x in v] for (k, name), v in vectors.items() if k == key
        }
    if star is not None:
        out["involution"] = [[i, j, F.format(c)] for i, row in enumerate(star) for j, c in row]
    if d["unital"]:
        out["unit"] = [F.format(x) for x in vectors["unit", None]]
    return formats.canonical_json(out)


def _named(P, key, name):
    return P.unit if key == "unit" else getattr(P, key)[name]


def _outcome(text):
    """("ok", loaded parts, dump) or ("error", message, pointer) for both
    loaders; the two must agree."""
    d = json.loads(text)
    try:
        F, mul, star, vectors = _reference_load(d)
        expected = ("ok", (mul, star, {k: _support(v) for k, v in vectors.items()}),
                    _reference_dump(d, F, mul, star, vectors))
    except FormatError as exc:
        expected = ("error", str(exc), exc.pointer)
    try:
        P = formats.loads_presentation(text)
        parts = (scalar_table(P), scalar_star(P), {k: _named(P, *k).support for k in vectors})
        got = ("ok", parts, formats.dumps_presentation(P))
        for (key, name), coords in vectors.items():
            assert _named(P, key, name).coords == coords
    except FormatError as exc:
        got = ("error", str(exc), exc.pointer)
    return got, expected


FIELDS = {"Q": QQ, "Fp101": PrimeField(101), "Fp1000000007": PrimeField(1000000007)}


def _instances():
    out = {}
    for field, F in FIELDS.items():
        m3 = ac.build_matrix_algebra(3, F, "flip")
        out[f"m3-flip-{field}"] = m3
        out[f"m2-symplectic-{field}"] = ac.build_matrix_algebra(2, F, "symplectic")
        out[f"example1-D3-{field}"] = ac.build_example1(3, F)
        out[f"example2-D2-{field}"] = ac.build_example2(2, F)
        out[f"m3-flip-dense-{field}"] = dense_change_of_basis(m3, 5)
    return out


TEXTS = {name: formats.dumps_presentation(P) for name, P in _instances().items()}


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_loader_equals_the_reference(name):
    got, expected = _outcome(TEXTS[name])
    assert got[0] == "ok"
    assert got == expected
    assert got[2] == TEXTS[name]


@pytest.mark.parametrize("zero", ["-0", "00", "0/7"])
@pytest.mark.parametrize("name", ["m3-flip-Q", "m3-flip-Fp101", "example1-D3-Q"])
def test_other_spellings_of_zero(name, zero):
    # Zeros spelled otherwise in every vector, plus a zero structure
    # constant and involution entry for index tuples the tables lack.
    d = json.loads(TEXTS[name])
    for key in ("idempotents", "generators"):
        for v in d[key].values():
            v[:] = [zero if x == "0" else x for x in v]
    if d["unital"]:
        d["unit"] = [zero if x == "0" else x for x in d["unit"]]
    present = {tuple(row[:3]) for row in d["mul"]}
    d["mul"].append([*next(t for t in _triples(d["dim"]) if t not in present), zero])
    if "involution" in d:
        present = {tuple(row[:2]) for row in d["involution"]}
        d["involution"].append([*next(t[:2] for t in _triples(d["dim"]) if t[:2] not in present), zero])
    got, expected = _outcome(json.dumps(d))
    assert got == expected
    if zero == "0/7" and d["field"] != "Q":
        assert got[0] == "error"
    else:
        assert got[0] == "ok" and got[2] == TEXTS[name]


def _triples(dim):
    return ((i, j, k) for i in range(dim) for j in range(dim) for k in range(dim))


SCALARS = ["0", "-0", "00", "0/7", "0/0", "1/0", "abc", 0, [1]]


@pytest.mark.parametrize("where", ["mul", "involution", "generator"])
@pytest.mark.parametrize("field", ["Q", "Fp101"])
@pytest.mark.parametrize("scalar", SCALARS, ids=repr)
def test_one_scalar_like_the_reference(scalar, field, where):
    d = json.loads(TEXTS[f"m3-flip-{field}"])
    if where == "mul":
        d["mul"][3][3] = scalar
    elif where == "involution":
        d["involution"][3][2] = scalar
    else:
        d["generators"]["E12"][4] = scalar
    got, expected = _outcome(json.dumps(d))
    assert got == expected
    if scalar in ("0/0", "1/0", "abc", 0, [1]):
        assert got[0] == "error"


@pytest.mark.parametrize("places", [("mul", "involution", "generator"), ("involution", "generator")])
@pytest.mark.parametrize("field", ["Q", "Fp101"])
@pytest.mark.parametrize("scalar", ["-3", "1/0", "0"])
def test_one_string_in_several_places(scalar, field, places):
    # Each distinct string is parsed once per file; the value, or the
    # error with the pointer of the first occurrence, is the reference's.
    d = json.loads(TEXTS[f"m3-flip-{field}"])
    pointers = {
        "mul": "$.mul[3][3]",
        "involution": "$.involution[3][2]",
        "generator": "$.generators.E12[4]",
    }
    if "mul" in places:
        d["mul"][3][3] = scalar
    if "involution" in places:
        d["involution"][3][2] = scalar
    d["generators"]["E12"][4] = scalar
    got, expected = _outcome(json.dumps(d))
    assert got == expected
    if scalar == "1/0":
        assert got[0] == "error" and got[2] == pointers[places[0]]
    else:
        assert got[0] == "ok"


@pytest.mark.parametrize("name", ["example2-D2-Q", "m3-flip-dense-Q", "m3-flip-dense-Fp101"])
def test_each_distinct_string_is_parsed_once(monkeypatch, name):
    """The loader takes every scalar string, in the tables and the named
    vectors, to its pair with the field's ``parse_pair``, once per distinct
    string."""
    calls = []
    for field in (RationalField, PrimeField):
        def counted(self, s, parse_pair=field.parse_pair):
            calls.append(s)
            return parse_pair(self, s)

        monkeypatch.setattr(field, "parse_pair", counted)
    d = json.loads(TEXTS[name])
    strings = [row[-1] for key in ("mul", "involution") for row in d.get(key, ())]
    strings += [x for key in ("idempotents", "generators") for v in d[key].values() for x in v]
    strings += d["unit"] if d["unital"] else []
    P = formats.loads_presentation(TEXTS[name])
    assert sorted(calls) == sorted(set(strings)) and len(strings) > len(calls)
    assert formats.dumps_presentation(P) == TEXTS[name]


# Structural defects of a table row: (name, edit of the row list, dim).
ROW_DEFECTS = {
    "string": lambda row, dim: "0,0,0,1",
    "object": lambda row, dim: {"i": row[0]},
    "null": lambda row, dim: None,
    "short": lambda row, dim: row[:-1],
    "long": lambda row, dim: row + ["1"],
    "empty": lambda row, dim: [],
    "first-index-true": lambda row, dim: [True] + row[1:],
    "first-index-float": lambda row, dim: [float(row[0])] + row[1:],
    "last-index-true": lambda row, dim: row[:-2] + [True, row[-1]],
    "last-index-float": lambda row, dim: row[:-2] + [1.0, row[-1]],
    "last-index-negative": lambda row, dim: row[:-2] + [-1, row[-1]],
    "last-index-dim": lambda row, dim: row[:-2] + [dim, row[-1]],
    "index-string": lambda row, dim: ["0"] + row[1:],
}


def _bad_row(d, table, t, defect):
    d[table][t] = ROW_DEFECTS[defect](list(d[table][t]), d["dim"])


@pytest.mark.parametrize("defect", sorted(ROW_DEFECTS))
@pytest.mark.parametrize("table", ["mul", "involution"])
@pytest.mark.parametrize("field", ["Q", "Fp101"])
def test_one_bad_row_like_the_reference(field, table, defect):
    d = json.loads(TEXTS[f"m3-flip-{field}"])
    _bad_row(d, table, 3, defect)
    got, expected = _outcome(json.dumps(d))
    assert got == expected
    assert got[0] == "error" and got[2] == f"$.{table}[3]"


@pytest.mark.parametrize("defects, pointer", [
    # (table, row, defect or a bad scalar), in the order the loader meets them
    ((("mul", 2, "last-index-dim"), ("mul", 5, "short")), "$.mul[2]"),
    ((("mul", 2, "abc"), ("mul", 5, "string")), "$.mul[2][3]"),
    ((("mul", 4, "first-index-true"), ("mul", 7, "long")), "$.mul[4]"),
    ((("involution", 1, "null"), ("involution", 6, "last-index-negative")), "$.involution[1]"),
    ((("involution", 2, "1/0"), ("involution", 3, "first-index-float")), "$.involution[2][2]"),
    ((("mul", 8, "last-index-float"), ("involution", 0, "short")), "$.mul[8]"),
    ((("mul", 8, "0/0"), ("generators", 0, "short")), "$.mul[8][3]"),
    ((("involution", 8, "object"), ("generators", 0, "string")), "$.involution[8]"),
    ((("generators", 0, "long"), ("mul", 0, "duplicate")), "$.generators.E12"),
    ((("mul", 6, "abc"), ("mul", 0, "duplicate")), "$.mul[6][3]"),
    ((("mul", 0, "duplicate"), ("involution", 0, "duplicate")), "$.mul[27]"),
    ((("involution", 4, "duplicate"),), "$.involution[9]"),
])
@pytest.mark.parametrize("field", ["Q", "Fp101"])
def test_the_first_bad_row_wins(field, defects, pointer):
    """A file with several bad rows fails at the first one the loader
    meets: a table's rows in order, the table's rows before the
    involution's, both before the named vectors, and the constructor's
    check for repeated entries (the copy of a row appended to its table)
    last, as in the reference."""
    d = json.loads(TEXTS[f"m3-flip-{field}"])
    for table, t, defect in defects:
        if table == "generators":
            d["generators"]["E12"] = VECTOR_DEFECTS[defect](d["generators"]["E12"])
        elif defect == "duplicate":
            d[table].append(list(d[table][t]))
        elif defect in ROW_DEFECTS:
            _bad_row(d, table, t, defect)
        else:
            d[table][t][-1] = defect
    got, expected = _outcome(json.dumps(d))
    assert got == expected
    assert got[0] == "error" and got[2] == pointer
    if pointer == "$.mul[27]":
        assert got[1] == "$.mul[27]: duplicate mul entry for (0,0,0)"


VECTOR_DEFECTS = {
    "string": lambda v: "0" * len(v),
    "object": lambda v: dict(enumerate(v)),
    "number": lambda v: 0,
    "null": lambda v: None,
    "short": lambda v: v[:-1],
    "long": lambda v: v + ["0"],
    "empty": lambda v: [],
}


@pytest.mark.parametrize("defect", sorted(VECTOR_DEFECTS))
@pytest.mark.parametrize("where", ["idempotents.e", "generators.E12", "unit"])
@pytest.mark.parametrize("field", ["Q", "Fp101"])
def test_one_bad_vector_like_the_reference(field, where, defect):
    d = json.loads(TEXTS[f"m3-flip-{field}"])
    parent, _, name = where.rpartition(".")
    holder = d[parent] if parent else d
    holder[name] = VECTOR_DEFECTS[defect](holder[name])
    got, expected = _outcome(json.dumps(d))
    assert got == expected
    assert got[0] == "error" and got[2] == f"$.{where}"
