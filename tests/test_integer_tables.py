"""The integer tables the constructor builds while it checks the table rows,
against a copy of the derivations they replaced, which read the table of
field scalars on first use: ``_int_mul`` = (D, rows) over the lcm D of the
denominators, ``_int_star`` = (S, rows) over the lcm S of the involution's
denominators, and ``_table_bounds`` = (w, T), the most terms of any b_i b_j
and the largest |c D|.

Built matrix algebras, example1 and example2 over Q and F_101, dense changes
of basis, the same tables dumped and loaded again, hand-written files whose
scalars are spelled "2/4", "6/3", "-0" or "0/7" with mixed denominators, and
seeded random tables whose terms come out of index order.

The loader hands each table scalar to the constructor as its pair (n, d),
so the tables of field scalars ``_mul`` and ``_star`` are built only when
something reads them: ``validate``, ``certify --claim thm1`` and
``certify --claim thm2`` on a dense file never do, and read afterwards they
equal the tables of the same presentation built from field values, with one
value per distinct scalar.
"""

import json
import random
from fractions import Fraction
from math import lcm

import pytest

import algcert as ac
from algcert import cli, formats
from algcert.algebra import AlgebraPresentation, axiom_violations
from algcert.linalg import QQ, PrimeField, field_from_name
from helpers import dense_change_of_basis

FIELDS = {"Q": QQ, "Fp101": PrimeField(101)}


def _common_denominator(scalars):
    return lcm(*(c.denominator for c in scalars))


def _over(d, entries):
    return tuple((k, c.numerator * (d // c.denominator)) for k, c in entries)


def _reference_int_mul(P):
    D = _common_denominator(c for entries in P._mul.values() for _, c in entries)
    rows = [{} for _ in range(P.dim)]
    for (i, j), entries in P._mul.items():
        rows[i][j] = _over(D, entries)
    return D, rows


def _reference_int_star(P):
    D = _common_denominator(c for row in P._star for _, c in row)
    return D, [_over(D, row) for row in P._star]


def _reference_table_bounds(P):
    _, rows = _reference_int_mul(P)
    entries = [e for row in rows for e in row.values()]
    top = max((abs(c) for e in entries for _, c in e), default=0)
    return max(map(len, entries), default=0), top


def _reference_mul(rows, F):
    """The table {(i, j): ((k, c), ...)} of the nonzero scalars of the rows
    (i, j, k, scalar), in index order."""
    table = {}
    for i, j, k, c in rows:
        c = F.parse(c) if isinstance(c, str) else F.coerce(c)
        if c:
            table.setdefault((i, j), []).append((k, c))
    return {key: tuple(sorted(entries)) for key, entries in table.items()}


def _check(P):
    assert P._int_mul == _reference_int_mul(P)
    assert P._table_bounds == _reference_table_bounds(P)
    if P.has_involution:
        assert P._int_star == _reference_int_star(P)
    else:
        assert P._int_star is None
    # Every integer row lists its terms in index order.
    for row in P._int_mul[1]:
        for e in row.values():
            assert [k for k, _ in e] == sorted({k for k, _ in e})
    loaded = formats.loads_presentation(formats.dumps_presentation(P))
    assert (loaded._mul, loaded._int_mul, loaded._table_bounds, loaded._int_star) == (
        P._mul, P._int_mul, P._table_bounds, P._int_star)


def _instances():
    out = {}
    for field, F in FIELDS.items():
        for n in range(2, 6):
            for involution in ("none", "transpose", "flip"):
                out[f"m{n}-{involution}-{field}"] = ac.build_matrix_algebra(n, F, involution)
        for D in (2, 3, 6):
            out[f"example1-D{D}-{field}"] = ac.build_example1(D, F)
            out[f"example2-D{D}-{field}"] = ac.build_example2(D, F)
        for seed in (1, 5):
            out[f"m3-flip-dense{seed}-{field}"] = dense_change_of_basis(
                out[f"m3-flip-{field}"], seed)
        out[f"example2-D2-dense-{field}"] = dense_change_of_basis(out[f"example2-D2-{field}"], 3)
    return out


INSTANCES = _instances()


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_built_tables_equal_the_reference(name):
    _check(INSTANCES[name])


def test_dense_tables_have_a_common_denominator():
    # The dense changes of basis over Q reach the rebuild from the sorted
    # table (D > 1), the sparse instances the rows built in the loop.
    assert INSTANCES["m3-flip-dense1-Q"]._int_mul[0] > 1
    assert INSTANCES["m3-flip-dense1-Q"]._int_star[0] > 1
    assert INSTANCES["m5-flip-Q"]._int_mul[0] == 1


HAND_WRITTEN = {
    "name": "spelled",
    "field": "Q",
    "dim": 3,
    "basis": ["a", "b", "c"],
    "mul": [
        [0, 0, 0, "2/4"],
        [0, 1, 2, "6/3"],
        [0, 1, 1, "-0"],
        [1, 0, 1, "0/7"],
        [1, 1, 2, "-5/6"],
        [1, 1, 0, "7/10"],
        [2, 2, 2, "3"],
        [2, 0, 1, "-12/8"],
        [2, 1, 0, "0"],
    ],
    "involution": [[0, 0, "4/2"], [1, 2, "-0"], [1, 1, "-1/3"], [2, 2, "9/6"], [2, 0, "0/7"]],
    "idempotents": {"e": ["2/4", "-0", "0/7"]},
    "generators": {"a": ["1", "0", "0"]},
    "unital": False,
}


def test_hand_written_scalars():
    P = formats.loads_presentation(json.dumps(HAND_WRITTEN))
    _check(P)
    assert P._mul == _reference_mul(HAND_WRITTEN["mul"], QQ)
    # 1/2, 2, -5/6, 7/10, 3, -3/2 over their lcm 30
    D, rows = P._int_mul
    assert D == 30
    assert rows[1][1] == ((0, 21), (2, -25))
    assert P._table_bounds == (2, 90)
    assert P._int_star == (6, [((0, 12),), ((1, -2),), ((2, 9),)])


def test_hand_written_integers():
    # Integer scalars spelled as fractions: D = 1, so the rows are the
    # ones the loop built, and the largest |c| is a negative constant.
    d = dict(HAND_WRITTEN)
    d["mul"] = [[0, 0, 0, "6/3"], [0, 0, 1, "-8/2"], [0, 1, 1, "-0"], [1, 1, 0, "0/7"],
                [1, 1, 2, "3"], [2, 2, 2, "-1"]]
    d["involution"] = [[0, 0, "1"], [1, 1, "-6/2"], [2, 2, "4/4"]]
    P = formats.loads_presentation(json.dumps(d))
    _check(P)
    assert P._int_mul == (1, [{0: ((0, 2), (1, -4))}, {1: ((2, 3),)}, {2: ((2, -1),)}])
    assert P._table_bounds == (2, 4)
    assert P._int_star == (1, [((0, 1),), ((1, -3),), ((2, 1),)])


def test_hand_written_residues():
    d = dict(HAND_WRITTEN, field="Fp:101")
    d["mul"] = [[i, j, k, str(n)] for (i, j, k, _), n in zip(HAND_WRITTEN["mul"], [
        -1, 203, -0, 0, 100, 5, 101, -202, 17])]
    d["involution"] = [[0, 0, "1"], [1, 1, "-1"], [2, 2, "102"]]
    d["idempotents"] = {"e": ["1", "0", "0"]}
    P = formats.loads_presentation(json.dumps(d))
    _check(P)
    assert P._mul == _reference_mul(d["mul"], PrimeField(101))
    assert P._int_mul[0] == 1 and P._int_star[0] == 1
    assert P._int_mul[1][0][0] == ((0, 100),) and P._int_star[1][1] == ((1, 100),)


def _random_rows(rng, F, dim, density):
    """The rows of a random table, shuffled so that the terms of a b_i b_j
    may come out of index order, with zeros, integers and fractions of mixed
    denominators (residues and out-of-range ints over F_p)."""
    rows = []
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if rng.random() < density:
                    if F is QQ:
                        c = rng.choice([0, rng.randint(-9, 9),
                                        Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                                        f"{rng.randint(-20, 20)}/{rng.randint(1, 6)}"])
                    else:
                        c = rng.choice([0, rng.randint(-300, 300), str(rng.randint(-300, 300))])
                    rows.append((i, j, k, c))
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("field", sorted(FIELDS))
def test_random_tables(field, seed):
    F = FIELDS[field]
    rng = random.Random(seed)
    dim = rng.randint(1, 6)
    rows = _random_rows(rng, F, dim, rng.choice([0.1, 0.4, 0.9]))
    star = [(i, j, c) for i, j, k, c in rows if k == 0 and i < dim]
    seen, involution = set(), []
    for i, j, c in star:
        if (i, j) not in seen:
            seen.add((i, j))
            involution.append((i, j, c))
    P = AlgebraPresentation(f"random{seed}", F, [f"b{i}" for i in range(dim)], rows,
                            involution=involution)
    _check(P)
    assert P._mul == _reference_mul(rows, F)
    # The same table given as a dict {(i, j): [(k, c), ...]}.
    table = {}
    for i, j, k, c in rows:
        table.setdefault((i, j), []).append((k, c))
    Q = AlgebraPresentation("dict", F, P.basis_labels, table, involution=involution)
    assert (Q._mul, Q._int_mul, Q._table_bounds, Q._int_star) == (
        P._mul, P._int_mul, P._table_bounds, P._int_star)


def _from_field_values(text):
    """The tables of the file text, built by the constructor from field
    values rather than from the loader's pairs."""
    d = json.loads(text)
    F = field_from_name(d["field"])
    return AlgebraPresentation(
        d["name"], F, d["basis"], [(i, j, k, F.parse(c)) for i, j, k, c in d["mul"]],
        involution=[(i, j, F.parse(c)) for i, j, c in d["involution"]])


def _check_fraction_tables(P, text):
    """P's tables of field scalars, read now, equal those built from field
    values, hold field values, and each holds one object per distinct
    value."""
    Q = _from_field_values(text)
    assert (P._mul, P._star) == (Q._mul, Q._star)
    for values in ([c for e in P._mul.values() for _, c in e],
                   [c for r in P._star for _, c in r]):
        assert {type(c) for c in values} == {type(P.field.one)}
        assert len({id(c) for c in values}) == len(set(values))


CLI_JOBS = (["validate"], ["certify", "--claim", "thm1"], ["certify", "--claim", "thm2"])


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_the_cli_builds_no_fraction_tables(monkeypatch, tmp_path, capsys, field):
    path = tmp_path / "dense.json"
    formats.dump_presentation(INSTANCES[f"m3-flip-dense1-{field}"], str(path))
    loaded = []
    load = cli.loads_presentation

    def capture(data):
        loaded.append(load(data))
        return loaded[-1]

    monkeypatch.setattr(cli, "loads_presentation", capture)
    for command, *rest in CLI_JOBS:
        assert cli.run_cli([command, str(path), *rest]) == 0
    assert '"verdict":"pass"' in capsys.readouterr().out
    assert len(loaded) == len(CLI_JOBS)
    for P in loaded:
        assert "_mul" not in vars(P) and "_star" not in vars(P)
        assert axiom_violations.__wrapped__ in P._memo  # the gate ran
    _check_fraction_tables(loaded[-1], path.read_text())


def test_hand_written_fraction_tables_are_built_on_first_read():
    text = json.dumps(HAND_WRITTEN)
    P = formats.loads_presentation(text)
    assert "_mul" not in vars(P) and "_star" not in vars(P)
    _check_fraction_tables(P, text)
    # "-0" and "0/7" are dropped; "2/4" and "6/3" are read as 1/2 and 2.
    assert P._mul[(0, 0)] == ((0, Fraction(1, 2)),) and (1, 0) not in P._mul
    assert P._mul[(0, 1)] == ((2, Fraction(2)),) and P._star[1] == ((1, Fraction(-1, 3)),)


def test_field_values_given_are_kept():
    # A scalar given as a field value is the table's own; one given as an
    # int or a string is built once per distinct value.
    half = Fraction(1, 2)
    P = AlgebraPresentation("kept", QQ, ["a", "b"],
                            [(0, 0, 0, half), (0, 1, 1, 3), (1, 0, 1, "3"), (1, 1, 0, "6/2")],
                            involution=[(0, 0, half), (1, 1, "1/2")])
    assert P._mul[(0, 0)][0][1] is half and P._star[0][0][1] is half
    assert P._mul[(1, 0)][0][1] is P._mul[(1, 1)][0][1] == 3
