"""Saturation closures, trace invariants, and oracle agreement."""

import pytest

import algcert as ac
from algcert import closure
from algcert.closure import assert_lie_closed, oracle_until_stagnation
from algcert.errors import (
    BudgetExceededError,
    GeneratorSideError,
    StructureError,
)
from algcert.formats import presentation_from_dict
from helpers import (
    assoc_gens,
    component_pair_gens,
    count_muls,
    lie_gens,
    m2,
    m3,
    m4,
    pair_gens,
    unit_elem,
)


def test_lie_closure_sl2():
    # Oracle first: bracket words over {E12, E21} up to length 3 give
    # [E12,E21] = E11 - E22 and nothing new afterwards, so rank 3.
    P = m2()
    gens = lie_gens(P, ["E12", "E21"])
    oracle = ac.word_oracle(P, gens, 3)
    assert oracle.rank == 3
    trace = ac.lie_closure(P, gens)
    assert trace.final_rank == 3
    assert trace.final == oracle


def test_lie_closure_single_idempotent():
    P = m2()
    trace = ac.lie_closure(P, lie_gens(P, ["E11"]))
    assert trace.final_rank == 1


def test_lie_closure_abelian_upper_corner():
    # Strictly-upper x-polynomials: every bracket vanishes, closure = span.
    P = ac.build_example1(8)
    labels = [lab for lab in P.basis_labels if lab.endswith("E12")][:4]
    trace = ac.lie_closure(P, lie_gens(P, labels))
    assert trace.final_rank == len(labels)
    assert trace.stagnated_at == 1


def test_assoc_closure_matrix_units():
    P = m2()
    trace = ac.assoc_closure(P, assoc_gens(P, ["E12", "E21"]))
    assert trace.final_rank == 4
    assert ac.assoc_closure(P, assoc_gens(P, ["E11"])).final_rank == 1


def _truncated_poly(D):
    entries = []
    for a in range(D):
        for b in range(D):
            if a + b < D:
                entries.append([a, b, a + b, "1"])
    return presentation_from_dict(
        {
            "name": f"poly{D}",
            "field": "Q",
            "dim": D,
            "basis": ["1"] + [f"t^{k}" for k in range(1, D)],
            "mul": entries,
            "idempotents": {"e": ["1"] + ["0"] * (D - 1)},
            "generators": {"t": ["0", "1"] + ["0"] * (D - 2)},
            "unital": True,
            "unit": ["1"] + ["0"] * (D - 1),
        }
    )


def test_assoc_closure_truncated_polynomial():
    P = _truncated_poly(4)
    trace = ac.assoc_closure(
        P, ac.generator_set("associative", [("t", P.generators["t"], "test")])
    )
    assert trace.final_rank == 3  # t, t^2, t^3


def test_pair_closures_m2():
    P = m2()
    for kind in ("assoc-pair", "jordan-pair"):
        gens = pair_gens(P, kind, pluses=["E21"], minuses=["E12"])
        trace = ac.pair_closure(P, gens)
        minus, plus = trace.final
        assert minus.rank == 1 and plus.rank == 1
        assert minus.contains(unit_elem(P, "E12").coords)


def test_pair_closure_graded_corner():
    P = m3("flip")
    g = ac.z_grading(P, P.idempotents["e"])
    items = [("b", unit_elem(P, "E13"), "t"), ("a", unit_elem(P, "E31"), "t")]
    gens = ac.generator_set("assoc-pair", items, ("-", "+"))
    trace = ac.pair_closure(P, gens, components=(g.parts[-2], g.parts[2]))
    minus, plus = trace.final
    assert (minus.rank, plus.rank) == (1, 1)


def test_pair_side_membership_enforced():
    P = m2()
    gens = pair_gens(P, "assoc-pair", pluses=["E12"], minuses=["E21"])  # swapped
    e = P.idempotents["e"]
    pd = ac.peirce_decompose(P, e)
    with pytest.raises(GeneratorSideError):
        ac.pair_closure(P, gens, components=(pd.eRf, pd.fRe))


def test_generator_set_validation():
    P = m2()
    with pytest.raises(StructureError):
        ac.generator_set("ring", [("a", unit_elem(P, "E11"), "t")])
    with pytest.raises(StructureError):
        ac.generator_set(
            "lie",
            [("a", unit_elem(P, "E11"), "t"), ("a", unit_elem(P, "E12"), "t")],
        )
    with pytest.raises(StructureError):
        ac.generator_set("assoc-pair", [("a", unit_elem(P, "E11"), "t")])
    with pytest.raises(StructureError):
        ac.generator_set("lie", [("a", unit_elem(P, "E11"), "t")], sides=("+",))


def test_word_oracle_len1_is_span():
    P = m2()
    gens = lie_gens(P, ["E12", "E21"])
    assert ac.word_oracle(P, gens, 1) == P.span_of(
        [unit_elem(P, "E12"), unit_elem(P, "E21")]
    )


def test_word_oracle_assoc_len2():
    # Four products of length <= 2 over {E12, E21}: themselves, E11, E22.
    P = m2()
    assert ac.word_oracle(P, assoc_gens(P, ["E12", "E21"]), 2).rank == 4


def test_word_oracle_budget():
    P = m3()
    gens = lie_gens(P, ["E12", "E21", "E23", "E32"])
    with pytest.raises(BudgetExceededError):
        ac.word_oracle(P, gens, 6, budget=10)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("ALGCERT_MAX_WORDS", "5")
    P = m3()
    gens = lie_gens(P, ["E12", "E21", "E23", "E32"])
    with pytest.raises(BudgetExceededError):
        ac.word_oracle(P, gens, 4)


def test_trace_invariants():
    P = m3()
    trace = ac.lie_closure(P, lie_gens(P, ["E12", "E21", "E23", "E32"]))
    ranks = [k for _, k in trace.rounds]
    assert all(b > a for a, b in zip(ranks, ranks[1:-1]))
    assert ranks[-1] == ranks[-2]
    assert trace.stagnated_at == trace.rounds[-1][0]
    assert len(trace.rounds) <= P.dim + 2


def test_closure_idempotent():
    P = m3()
    trace = ac.lie_closure(P, lie_gens(P, ["E12", "E21"]))
    again = ac.lie_closure(
        P,
        ac.generator_set(
            "lie",
            [(f"r{k}", P.element(row), "re") for k, row in enumerate(trace.final.basis)],
        ),
    )
    assert again.final == trace.final
    assert again.stagnated_at == 1


def test_closure_monotone():
    P = m3()
    small = ac.lie_closure(P, lie_gens(P, ["E12"]))
    large = ac.lie_closure(P, lie_gens(P, ["E12", "E21"]))
    assert large.final.contains_subspace(small.final)


def test_closedness_postcheck_external():
    P = m3()
    trace = ac.lie_closure(P, lie_gens(P, ["E12", "E21"]))
    rows = [P.element(r) for r in trace.final.basis]
    for u in rows:
        for v in rows:
            assert trace.final.contains(P.commutator(u, v).coords)


def _oracle_agreement(P, gens, closer):
    trace = closer(P, gens)
    span, length = oracle_until_stagnation(P, gens)
    if isinstance(trace.final, tuple):
        assert span[0] == trace.final[0] and span[1] == trace.final[1]
    else:
        assert span == trace.final
    return length


def test_oracle_agreement_small_instances():
    # Engine vs brute force on every instance of ambient dim <= 9.
    cases = []
    for P in (m2(), m2("transpose"), m2("symplectic"), m3(), m3("flip")):
        cases.append((P, lie_gens(P, ["E12", "E21"]), ac.lie_closure))
        cases.append((P, assoc_gens(P, ["E12", "E21"]), ac.assoc_closure))
        cases.append((P, component_pair_gens(P, "assoc-pair"), ac.pair_closure))
        cases.append((P, component_pair_gens(P, "jordan-pair"), ac.pair_closure))
    for P in (m2("transpose"), m2("symplectic"), m3("flip")):
        kh = ac.kh_split(P)
        items = [(f"k{k}", P.element(r), "K") for k, r in enumerate(kh.K.basis)]
        cases.append((P, ac.generator_set("lie", items), ac.lie_closure))
    ex1 = ac.build_example1(3)
    cases.append((ex1, lie_gens(ex1, ["E11", "E12", "x*E12"]), ac.lie_closure))
    cases.append((ex1, assoc_gens(ex1, ["E12", "x*E11"]), ac.assoc_closure))
    ex2 = ac.build_example2(1)
    cases.append((ex2, lie_gens(ex2, ["E12", "E21"]), ac.lie_closure))
    cases.append((ex2, assoc_gens(ex2, ["E12", "E21", "x*E11"]), ac.assoc_closure))
    for P, gens, closer in cases:
        _oracle_agreement(P, gens, closer)


def test_assert_lie_closed_rejects_open_span():
    # [E12, E21] = E11 - E22 lies outside span(E12, E21).
    P = m2()
    with pytest.raises(AssertionError):
        assert_lie_closed(P, P.span_of([unit_elem(P, "E12"), unit_elem(P, "E21")]))
    assert_lie_closed(P, ac.lie_closure(P, lie_gens(P, ["E12", "E21"])).final)


def _saturate_every_round(P, seeds, product_round, assert_closed):
    """closure._saturate_linear as it was before the full-rank exit: every
    round computes all its products."""
    builder = ac.SpanBuilder(P.field, P.dim)
    vectors = []
    for el in seeds:
        if builder.add(el.coords):
            vectors.append(el)
    rounds = [(0, builder.rank)]
    old = 0
    rnd = 0
    while True:
        rnd += 1
        n = len(vectors)
        grew = False
        for el in product_round(vectors, old, n):
            if builder.add(el.coords):
                vectors.append(el)
                grew = True
        old = n
        rounds.append((rnd, builder.rank))
        if not grew:
            break
    final = builder.subspace()
    assert_closed(P, final)
    return closure.ClosureTrace(tuple(rounds), final, rnd)


@pytest.mark.parametrize(
    "P, labels, full",
    [
        (m3(), ["E12", "E21", "E23", "E32"], True),
        (m4("flip"), ["E12", "E23", "E34", "E41"], True),
        (m4(), ["E12", "E23", "E34"], False),
    ],
    ids=["m3", "m4-flip", "m4-strictly-upper"],
)
def test_assoc_closure_stops_at_full_rank(monkeypatch, P, labels, full):
    seeds = [el for _, el, _ in assoc_gens(P, labels).elements]
    muls = count_muls(monkeypatch)
    adds_at_full = [0]
    add = ac.SpanBuilder.add

    def counting_add(builder, vec):
        adds_at_full[0] += builder.is_full
        return add(builder, vec)

    monkeypatch.setattr(ac.SpanBuilder, "add", counting_add)
    every_round = _saturate_every_round(
        P, seeds, closure._assoc_round(P), closure._assert_assoc_closed
    )
    old_calls, muls[0] = muls[0], 0
    old_adds_at_full, adds_at_full[0] = adds_at_full[0], 0
    trace = ac.assoc_closure(P, assoc_gens(P, labels))
    assert trace == every_round
    assert trace.final.is_full == full
    assert adds_at_full[0] == 0
    if full:
        assert muls[0] < old_calls and old_adds_at_full > 0
    else:
        assert muls[0] == old_calls
