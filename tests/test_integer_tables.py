"""The integer tables the constructor builds while it checks the table rows,
against a reference computed from the rows it was handed
(``helpers.reference_tables``): ``_int_mul`` = (D, rows) over the lcm D
of the denominators, ``_int_star`` = (S, rows) over the lcm S of the
involution's denominators, and ``_table_bounds`` = (w, T), the most terms
of any b_i b_j and the largest |c D|. The rows each built instance hands
to its constructor are recorded while it is built, so the reference never
reads the tables under test.

Built matrix algebras, example1 and example2 over Q and F_101, dense changes
of basis, the same tables dumped and loaded again, hand-written files whose
scalars are spelled "2/4", "6/3", "-0" or "0/7" with mixed denominators, and
seeded random tables whose terms come out of index order.
"""

import json
import random
from fractions import Fraction

import pytest

import algcert as ac
from algcert import cli, formats
from algcert.algebra import AlgebraPresentation, axiom_violations
from algcert.linalg import QQ, PrimeField
from helpers import dense_change_of_basis, reference_tables

FIELDS = {"Q": QQ, "Fp101": PrimeField(101)}


def _check(P, mul, involution):
    """P's integer tables equal the reference from the rows mul and
    involution it was handed, and survive a dump and a load."""
    assert (P._int_mul, P._table_bounds, P._int_star) == reference_tables(
        P.field, P.dim, mul, involution)
    # Every integer row lists its terms in index order.
    for row in P._int_mul[1]:
        for e in row.values():
            assert [k for k, _ in e] == sorted({k for k, _ in e})
    loaded = formats.loads_presentation(formats.dumps_presentation(P))
    assert (loaded._int_mul, loaded._table_bounds, loaded._int_star) == (
        P._int_mul, P._table_bounds, P._int_star)


def _recorded(given, build, *args):
    """build(*args), with the table and involution rows each constructor
    call is handed kept in the dict given, keyed by the presentation."""
    init = AlgebraPresentation.__init__

    def record(self, name, field, basis_labels, mul, involution=None, **rest):
        mul = list(mul)
        involution = None if involution is None else list(involution)
        given[self] = mul, involution
        init(self, name, field, basis_labels, mul, involution, **rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AlgebraPresentation, "__init__", record)
        return build(*args)


def _instances():
    """The instances by name, and the rows each one's constructor was
    handed."""
    out, given = {}, {}
    for field, F in FIELDS.items():
        for n in range(2, 6):
            for involution in ("none", "transpose", "flip"):
                out[f"m{n}-{involution}-{field}"] = _recorded(
                    given, ac.build_matrix_algebra, n, F, involution)
        for D in (2, 3, 6):
            out[f"example1-D{D}-{field}"] = _recorded(given, ac.build_example1, D, F)
            out[f"example2-D{D}-{field}"] = _recorded(given, ac.build_example2, D, F)
        for seed in (1, 5):
            out[f"m3-flip-dense{seed}-{field}"] = _recorded(
                given, dense_change_of_basis, out[f"m3-flip-{field}"], seed)
        out[f"example2-D2-dense-{field}"] = _recorded(
            given, dense_change_of_basis, out[f"example2-D2-{field}"], 3)
    return out, given


INSTANCES, GIVEN = _instances()


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_built_tables_equal_the_reference(name):
    P = INSTANCES[name]
    _check(P, *GIVEN[P])


CLI_JOBS = (["validate"], ["certify", "--claim", "thm1"], ["certify", "--claim", "thm2"])


def test_dense_tables_have_a_common_denominator(monkeypatch, tmp_path, capsys):
    # The dense changes of basis over Q reach the rebuild from the sorted
    # table (D > 1), the sparse instances the rows built in the loop.
    assert INSTANCES["m3-flip-dense1-Q"]._int_mul[0] > 1
    assert INSTANCES["m3-flip-dense1-Q"]._int_star[0] > 1
    assert INSTANCES["m5-flip-Q"]._int_mul[0] == 1
    # Dumped and loaded by the CLI, the dense tables are the same integer
    # tables, and the gate and both theorems pass on them.
    loaded = []
    load = cli.loads_presentation

    def capture(data):
        loaded.append(load(data))
        return loaded[-1]

    monkeypatch.setattr(cli, "loads_presentation", capture)
    for field in sorted(FIELDS):
        P = INSTANCES[f"m3-flip-dense1-{field}"]
        path = tmp_path / f"dense-{field}.json"
        formats.dump_presentation(P, str(path))
        loaded.clear()
        for command, *rest in CLI_JOBS:
            assert cli.run_cli([command, str(path), *rest]) == 0
        assert capsys.readouterr().out.count('"verdict":"pass"') == 2
        assert len(loaded) == len(CLI_JOBS)
        for Q in loaded:
            assert (Q._int_mul, Q._table_bounds, Q._int_star) == (
                P._int_mul, P._table_bounds, P._int_star)
            assert axiom_violations.__wrapped__ in Q._memo  # the gate ran


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
    _check(P, HAND_WRITTEN["mul"], HAND_WRITTEN["involution"])
    # 1/2, 2, -5/6, 7/10, 3, -3/2 over their lcm 30
    D, rows = P._int_mul
    assert D == 30
    # "2/4" and "6/3" are read as 1/2 and 2; "-0", "0/7" and "0" are dropped.
    assert rows[0] == {0: ((0, 15),), 1: ((2, 60),)}
    assert rows[1] == {1: ((0, 21), (2, -25))}
    assert rows[2] == {2: ((2, 90),), 0: ((1, -45),)}
    assert P._table_bounds == (2, 90)
    assert P._int_star == (6, [((0, 12),), ((1, -2),), ((2, 9),)])
    assert P.idempotents["e"].support == (2, ((0, 1),))


def test_hand_written_integers():
    # Integer scalars spelled as fractions: D = 1, so the rows are the
    # ones the loop built, and the largest |c| is a negative constant.
    d = dict(HAND_WRITTEN)
    d["mul"] = [[0, 0, 0, "6/3"], [0, 0, 1, "-8/2"], [0, 1, 1, "-0"], [1, 1, 0, "0/7"],
                [1, 1, 2, "3"], [2, 2, 2, "-1"]]
    d["involution"] = [[0, 0, "1"], [1, 1, "-6/2"], [2, 2, "4/4"]]
    P = formats.loads_presentation(json.dumps(d))
    _check(P, d["mul"], d["involution"])
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
    _check(P, d["mul"], d["involution"])
    assert P._int_mul[0] == 1 and P._int_star[0] == 1
    assert P._int_mul[1][0][0] == ((0, 100),) and P._int_star[1][1] == ((1, 100),)


def _random_rows(rng, F, dim, density):
    """The rows of a random table, shuffled so that the terms of a b_i b_j
    may come out of index order, with zeros, integers and fractions of mixed
    denominators (over F_p also out-of-range ints)."""
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
                        c = rng.choice([0, rng.randint(-300, 300), str(rng.randint(-300, 300)),
                                        Fraction(rng.randint(-300, 300), rng.randint(1, 12))])
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
    _check(P, rows, involution)
    # The same table given as a dict {(i, j): [(k, c), ...]}.
    table = {}
    for i, j, k, c in rows:
        table.setdefault((i, j), []).append((k, c))
    Q = AlgebraPresentation("dict", F, P.basis_labels, table, involution=involution)
    assert (Q._int_mul, Q._table_bounds, Q._int_star) == (
        P._int_mul, P._table_bounds, P._int_star)
