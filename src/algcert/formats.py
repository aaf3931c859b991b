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
    F = P.field
    mul = []
    for (i, j), entries in sorted(P._mul.items()):
        for k, c in entries:
            mul.append([i, j, k, F.format(c)])
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
        inv = []
        for i, row in enumerate(P._star):
            for j, c in row:
                inv.append([i, j, F.format(c)])
        d["involution"] = inv
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

    # Each distinct scalar string is parsed once per file: a file repeats a
    # few strings many times (example2's tables hold nothing but "1"). A
    # string that fails to parse raises at its first occurrence, so it is
    # never stored, and non-strings are always handed to ``parse``.
    parsed = {}

    def parse(s):
        if type(s) is not str:
            return field.parse(s)
        c = parsed.get(s)
        if c is None:
            c = parsed[s] = field.parse(s)
        return c

    def scalar(s, pointer):
        try:
            return parse(s)
        except FormatError as exc:
            raise FormatError(str(exc), pointer) from None

    def vector(v, pointer):
        _expect(isinstance(v, list), "vector must be a list", pointer)
        _expect(len(v) == dim, f"vector length {len(v)} != dim {dim}", pointer)
        out = []
        for x in v:
            try:
                out.append(parse(x))
            except FormatError as exc:
                raise FormatError(str(exc), f"{pointer}[{len(out)}]") from None
        return out

    mul = d["mul"]
    _expect(isinstance(mul, list), "mul must be a list", "$.mul")
    mul_rows = []
    for t, row in enumerate(mul):
        ptr = f"$.mul[{t}]"
        _expect(isinstance(row, list) and len(row) == 4, "entry must be [i,j,k,scalar]", ptr)
        i, j, k, c = row
        for x in (i, j, k):
            _expect(type(x) is int and 0 <= x < dim, "index out of range", ptr)
        mul_rows.append((i, j, k, scalar(c, f"{ptr}[3]")))

    involution = None
    if "involution" in d:
        inv = d["involution"]
        _expect(isinstance(inv, list), "involution must be a list", "$.involution")
        involution = []
        for t, row in enumerate(inv):
            ptr = f"$.involution[{t}]"
            _expect(isinstance(row, list) and len(row) == 3, "entry must be [i,j,scalar]", ptr)
            i, j, c = row
            for x in (i, j):
                _expect(type(x) is int and 0 <= x < dim, "index out of range", ptr)
            involution.append((i, j, scalar(c, f"{ptr}[2]")))

    def named_vectors(key):
        obj = d[key]
        _expect(isinstance(obj, dict), f"{key} must be an object", f"$.{key}")
        out = {}
        for k, v in obj.items():
            out[k] = vector(v, f"$.{key}.{k}")
        return out

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
    except FormatError:
        raise
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
