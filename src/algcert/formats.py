"""The algebra file format and canonical JSON serialization.

A presentation file is a JSON object with fields ``name``, ``field``
("Q" or "Fp:<p>"), ``dim``, ``basis`` (labels), ``mul`` (entries
[i, j, k, scalar-string]), optional ``involution`` ([i, j, scalar-string]),
``idempotents`` and ``generators`` (name -> vector of scalar strings),
``unital``, and ``unit`` (required iff unital). Indices are 0-based.
Unknown fields are rejected.

Canonical dumps sort keys, sort table entries, use compact separators and
keep scalars as strings, so identical presentations serialize to identical
bytes and reports can hash their inputs.
"""

from __future__ import annotations

import io
import json

from .algebra import AlgebraPresentation
from .errors import FormatError
from .linalg import field_from_name

REQUIRED_FIELDS = ("name", "field", "dim", "basis", "mul", "idempotents",
                   "generators", "unital")
OPTIONAL_FIELDS = ("involution", "unit")


def presentation_to_dict(P):
    """The file form of P: each table scalar is its integer entry c over the
    table's denominator, formatted as the field value c / D, in index order
    (i, then j, then k)."""
    F = P.field
    D, rows = P._int_mul
    mul = [[i, j, k, F.format(F.from_pair(c, D))]
           for i, row in enumerate(rows) for j in sorted(row) for k, c in row[j]]
    d = {
        "name": P.name,
        "field": F.name,
        "dim": P.dim,
        "basis": list(P.basis_labels),
        "mul": mul,
        "idempotents": {
            k: [F.format(x) for x in v.coords] for k, v in P.idempotents.items()
        },
        "generators": {
            k: [F.format(x) for x in v.coords] for k, v in P.generators.items()
        },
        "unital": P.unital,
    }
    if P.has_involution:
        S, star = P._int_star
        d["involution"] = [[i, j, F.format(F.from_pair(c, S))]
                           for i, row in enumerate(star) for j, c in row]
    if P.unital:
        d["unit"] = [F.format(x) for x in P.unit.coords]
    return d


def dumps_presentation(P):
    return canonical_json(presentation_to_dict(P))


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _expect(cond, message, pointer):
    if not cond:
        raise FormatError(message, pointer)


def _repeated_row(mul, involution):
    """The pointer of the first row that repeats the indices of an earlier
    row of its table, the table rows before the involution's, as the
    constructor checks them; None when no row does."""
    for name, rows in (("mul", mul), ("involution", involution or ())):
        seen = set()
        for t, row in enumerate(rows):
            if row[:-1] in seen:
                return f"$.{name}[{t}]"
            seen.add(row[:-1])
    return None


def presentation_from_dict(d):
    _expect(isinstance(d, dict), "algebra file must be a JSON object", "$")
    keys = set(d)
    unknown = keys - set(REQUIRED_FIELDS) - set(OPTIONAL_FIELDS)
    _expect(not unknown, f"unknown fields: {sorted(unknown)}", "$")
    missing = set(REQUIRED_FIELDS) - keys
    _expect(not missing, f"missing fields: {sorted(missing)}", "$")

    _expect(isinstance(d["name"], str), "name must be a string", "$.name")
    try:
        field = field_from_name(d["field"])
    except FormatError as exc:
        raise FormatError(str(exc), "$.field") from None

    dim = d["dim"]
    # type(...) is int: JSON's true loads as a bool, which isinstance takes.
    _expect(type(dim) is int and dim >= 1, "dim must be a positive integer", "$.dim")
    basis = d["basis"]
    _expect(
        isinstance(basis, list) and all(isinstance(s, str) for s in basis),
        "basis must be a list of labels",
        "$.basis",
    )
    _expect(len(basis) == dim, "dim does not match basis length", "$.basis")
    _expect(len(set(basis)) == dim, "basis labels must be unique", "$.basis")

    # Each distinct scalar string is parsed once per file, to its pair
    # (n, d) in lowest terms, which the constructor takes as it is: a file
    # repeats a few strings many times (example2's tables hold nothing but
    # "1"), and no Fraction is built. A string that fails to parse raises at
    # its first occurrence, so it is never stored, and non-strings always go
    # to ``field.parse_pair``, since only strings are stored. Pointers are
    # built only to raise.
    parsed = {}

    def parse(s, where, *at):
        """The pair of the scalar s, stored when s is a string; ``where``
        and the indices ``at`` give the pointer of an error."""
        try:
            c = field.parse_pair(s)
        except FormatError as exc:
            raise FormatError(str(exc), where + "".join(f"[{n}]" for n in at)) from None
        if type(s) is str:
            parsed[s] = c
        return c

    def vector(v, pointer):
        if not isinstance(v, list):
            raise FormatError("vector must be a list", pointer)
        if len(v) != dim:
            raise FormatError(f"vector length {len(v)} != dim {dim}", pointer)
        try:
            return list(map(parsed.__getitem__, v))
        except (KeyError, TypeError):  # a string not yet parsed, or a non-string
            return [
                parsed[x] if type(x) is str and x in parsed else parse(x, pointer, n)
                for n, x in enumerate(v)
            ]

    mul = d["mul"]
    _expect(isinstance(mul, list), "mul must be a list", "$.mul")
    mul_rows = []
    for t, row in enumerate(mul):
        if not isinstance(row, list) or len(row) != 4:
            raise FormatError("entry must be [i,j,k,scalar]", f"$.mul[{t}]")
        i, j, k, c = row
        if not (type(i) is int and type(j) is int and type(k) is int
                and 0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise FormatError("index out of range", f"$.mul[{t}]")
        try:
            c = parsed[c]
        except (KeyError, TypeError):
            c = parse(c, "$.mul", t, 3)
        mul_rows.append((i, j, k, c))

    involution = None
    if "involution" in d:
        inv = d["involution"]
        _expect(isinstance(inv, list), "involution must be a list", "$.involution")
        involution = []
        for t, row in enumerate(inv):
            if not isinstance(row, list) or len(row) != 3:
                raise FormatError("entry must be [i,j,scalar]", f"$.involution[{t}]")
            i, j, c = row
            if not (type(i) is int and type(j) is int and 0 <= i < dim and 0 <= j < dim):
                raise FormatError("index out of range", f"$.involution[{t}]")
            try:
                c = parsed[c]
            except (KeyError, TypeError):
                c = parse(c, "$.involution", t, 2)
            involution.append((i, j, c))

    def named_vectors(key):
        obj = d[key]
        _expect(isinstance(obj, dict), f"{key} must be an object", f"$.{key}")
        return {k: vector(v, f"$.{key}.{k}") for k, v in obj.items()}

    idempotents = named_vectors("idempotents")
    generators = named_vectors("generators")

    unital = d["unital"]
    _expect(isinstance(unital, bool), "unital must be a boolean", "$.unital")
    unit = None
    if unital:
        _expect("unit" in d, "unital presentation requires a unit vector", "$")
        unit = vector(d["unit"], "$.unit")
    else:
        _expect("unit" not in d, "non-unital presentation must not carry a unit", "$.unit")

    try:
        return AlgebraPresentation(
            name=d["name"],
            field=field,
            basis_labels=basis,
            mul=mul_rows,
            involution=involution,
            idempotents=idempotents,
            generators=generators,
            unital=unital,
            unit=unit,
        )
    except FormatError as exc:
        # The rows were checked above, so what the constructor refuses here
        # is a repeated entry; its row is looked up only now.
        raise FormatError(str(exc), _repeated_row(mul_rows, involution)) from None
    except Exception as exc:  # structural ctor errors become format errors
        raise FormatError(str(exc), "$") from None


def loads_presentation(text):
    """The presentation in a JSON text. Bytes are read as ``open`` reads a
    file in text mode: UTF-8 with universal newlines, so the offsets in
    invalid-JSON messages count the same characters."""
    if isinstance(text, bytes):
        try:
            text = io.TextIOWrapper(io.BytesIO(text), encoding="utf-8").read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"file is not UTF-8: {exc}", "$") from None
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and an integer literal past the
        # interpreter's limit on the digits of an int-string conversion.
        raise FormatError(f"invalid JSON: {exc}", "$") from None
    return presentation_from_dict(data)


def load_presentation(path):
    with open(path, "rb") as fh:
        return loads_presentation(fh.read())


def dump_presentation(P, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_presentation(P))
        fh.write("\n")
