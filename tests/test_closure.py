"""Saturation closures, trace invariants, and oracle agreement."""

import random
from functools import partial

import pytest

import algcert as ac
from algcert import certificates as cc, closure
from algcert.algebra import axiom_violations
from algcert.certificates import random_element
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
    oracle_until_stagnation,
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


def _span(P, labels):
    return P.span_of([unit_elem(P, lab) for lab in labels])


def _lie_products(P, rows):
    (rows,) = rows
    for i, u in enumerate(rows):
        # [u, v] = -[v, u] and [u, u] = 0: only v before u.
        for v in rows[:i]:
            yield 0, P.commutator(u, v)


def _assoc_products(P, rows):
    (rows,) = rows
    for u in rows:
        for v in rows:
            yield 0, P.mul(u, v)


def _pair_products(P, rows, jordan):
    triple = P.jordan_triple if jordan else P.triple
    for side, other in ((1, 0), (0, 1)):
        outer = rows[side]
        for i, x in enumerate(outer):
            for y in rows[other]:
                for z in outer[i:] if jordan else outer:
                    yield side, triple(x, y, z)


_PRODUCTS = {
    "lie": _lie_products,
    "associative": _assoc_products,
    "assoc-pair": partial(_pair_products, jordan=False),
    "jordan-pair": partial(_pair_products, jordan=True),
}


def _closed(P, final, structure):
    """Test-local closedness: each product of the final basis rows, listed
    once, lies in its side's final. A pair final is (minus, plus)."""
    finals = final if isinstance(final, tuple) else (final,)
    rows = [[P.element(r) for r in f.basis] for f in finals]
    return all(finals[side].contains(w) for side, w in _PRODUCTS[structure](P, rows))


def test_assert_lie_closed_rejects_open_span():
    # [E12, E21] = E11 - E22 lies outside span(E12, E21); the Lie closure's
    # final contains it and is closed.
    P = m2()
    assert not _closed(P, _span(P, ["E12", "E21"]), "lie")
    assert _closed(P, ac.lie_closure(P, lie_gens(P, ["E12", "E21"])).final, "lie")


def test_assert_closed_rejects_open_assoc_span():
    # E12*E23 = E13 escapes from the first basis row times the second,
    # E31*E12 = E32 from the second times the first.
    P = m3()
    for labels in (["E12", "E23"], ["E12", "E31"]):
        assert not _closed(P, _span(P, labels), "associative")
    final = ac.assoc_closure(P, assoc_gens(P, ["E12", "E23"])).final
    assert _closed(P, final, "associative")


@pytest.mark.parametrize("jordan", [False, True])
def test_assert_closed_rejects_open_pair(jordan):
    # One basis row per side: the only triples are x*y*x. With the unit of
    # M2 on one side and E12 on the other, 1*E12*1 = E12 leaves span(1).
    P = m2()
    kind = "jordan-pair" if jordan else "assoc-pair"
    one, e12 = P.span_of([P.unit]), _span(P, ["E12"])
    for finals in ((e12, one), (one, e12)):
        assert not _closed(P, finals, kind)
    assert _closed(P, (e12, _span(P, ["E21"])), kind)


_CLOSERS = {
    "lie": ac.lie_closure,
    "associative": ac.assoc_closure,
    "assoc-pair": ac.pair_closure,
    "jordan-pair": ac.pair_closure,
}


def _oracle_instances():
    out = {}
    for field in ("Q", "Fp:101"):
        F = ac.field_from_name(field)
        for n in (2, 3):
            for inv in ("none", "transpose", "flip"):
                out[f"m{n}-{inv}-{field}"] = ac.build_matrix_algebra(n, F, inv)
    out["m4-flip-Q"] = ac.build_matrix_algebra(4, involution="flip")
    out["m4-none-Q"] = ac.build_matrix_algebra(4)
    out["m4-transpose-Fp:101"] = ac.build_matrix_algebra(4, ac.field_from_name("Fp:101"), "transpose")
    out["example1-D2"] = ac.build_example1(2)
    out["example2-D1"] = ac.build_example2(1)
    return out


ORACLE_INSTANCES = _oracle_instances()


def _draw(P, rng, comp, sparse):
    """A random element of comp; with sparse, of the span of two of its
    basis rows."""
    if sparse and comp.rank > 2:
        comp = P.span_of([P.element(r) for r in rng.sample(comp.basis, 2)])
    return random_element(P, rng, comp, nonzero=comp.rank > 0)


def _oracle_cases(P, rng, draws=6):
    """Seeded random generator sets: 1-3 elements of R for the Lie and
    associative closures, 1-2 per side from eR(1-e) and (1-e)Re for the
    pairs. Each is drawn dense and sparse: sparse generators keep the
    finals short of R and of the components, so that one missing product
    shows."""
    layouts = []
    if P.dim <= 9:
        # Lie and associative words over M4 outgrow the oracle's budget.
        R = P.span_of([P.basis_element(i) for i in range(P.dim)])
        layouts += [(structure, [(None, R, 1, 3)]) for structure in ("lie", "associative")]
    e = P.idempotents["e"]
    if P.dim == 16:
        # On M4, e = E11 + E22. When e or 1 - e has rank 1, as on M2 and
        # M3, x*y*z is a multiple of x or of z: the generators' span is
        # closed, and no missing triple could show.
        e = P.add(unit_elem(P, "E11"), unit_elem(P, "E22"))
    pd = ac.peirce_decompose(P, e)
    for structure in closure.PAIR_STRUCTURES:
        layouts.append((structure, [("-", pd.eRf, 1, 2), ("+", pd.fRe, 1, 2)]))
    cases = []
    for structure, layout in layouts:
        for sparse in (False, True):
            for _ in range(draws):
                items, sides = [], []
                for side, comp, lo, hi in layout:
                    for _ in range(rng.randint(lo, hi)):
                        items.append((f"g{len(items)}", _draw(P, rng, comp, sparse), "random"))
                        sides.append(side)
                pair = structure in closure.PAIR_STRUCTURES
                cases.append(ac.generator_set(structure, items, sides if pair else None))
    return cases


def _oracle_mismatches(P, cases):
    """The cases whose closure differs from the oracle or is not closed."""
    bad = []
    for gens in cases:
        final = _CLOSERS[gens.structure](P, gens).final
        span, _ = oracle_until_stagnation(P, gens)
        if final != span or not _closed(P, final, gens.structure):
            bad.append(gens)
    return bad


@pytest.mark.parametrize("name", sorted(ORACLE_INSTANCES))
def test_closure_equals_oracle_on_random_generators(name):
    P = ORACLE_INSTANCES[name]
    rng = random.Random(f"oracle-{name}")
    bad = _oracle_mismatches(P, _oracle_cases(P, rng))
    assert not bad, [(g.structure, [P.render(el) for _, el, _ in g.elements]) for g in bad]


def _saturate_every_round(P, seeds, product_round):
    """closure._saturate_linear on one side as it was before the full-rank
    exit: every round computes all its products."""
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
        for _, el in product_round(P, [vectors], [old], [n]):
            if builder.add(el.coords):
                vectors.append(el)
                grew = True
        old = n
        rounds.append((rnd, builder.rank))
        if not grew:
            break
    return closure.ClosureTrace(tuple(rounds), builder.subspace(), rnd)


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
    every_round = _saturate_every_round(P, seeds, closure._assoc_round)
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
    # Apart from the counts above: the final is closed.
    assert _closed(P, trace.final, "associative")


def _two_builder_triples(P, jordan, outer, inner, old_outer, old_inner, n_outer, n_inner):
    for i in range(n_outer):
        for j in range(n_inner):
            for k in range(n_outer):
                if i < old_outer and j < old_inner and k < old_outer:
                    continue
                if jordan and k < i:
                    continue
                x, y, z = outer[i], inner[j], outer[k]
                yield P.jordan_triple(x, y, z) if jordan else P.triple(x, y, z)


def _two_builder_pair_closure(P, S, jordan):
    """closure.pair_closure's own loop before pairs went through the
    saturation engine: two builders, plus triples first, no full-rank exit
    (the closedness check is left out; it does not change the trace)."""
    bm = ac.SpanBuilder(P.field, P.dim)
    bp = ac.SpanBuilder(P.field, P.dim)
    vm, vp = [], []
    for el in S.side_elements("-"):
        if bm.add(el.coords):
            vm.append(el)
    for el in S.side_elements("+"):
        if bp.add(el.coords):
            vp.append(el)
    rounds = [(0, bm.rank + bp.rank)]
    old_m = old_p = 0
    rnd = 0
    triples = partial(_two_builder_triples, P, jordan)
    while True:
        rnd += 1
        nm, np_ = len(vm), len(vp)
        grew = False
        for el in triples(vp, vm, old_p, old_m, np_, nm):
            if bp.add(el.coords):
                vp.append(el)
                grew = True
        for el in triples(vm, vp, old_m, old_p, nm, np_):
            if bm.add(el.coords):
                vm.append(el)
                grew = True
        old_m, old_p = nm, np_
        rounds.append((rnd, bm.rank + bp.rank))
        if not grew:
            break
    return closure.ClosureTrace(tuple(rounds), (bm.subspace(), bp.subspace()), rnd)


@pytest.mark.parametrize("jordan", [False, True])
@pytest.mark.parametrize("old", [(0, 0), (1, 2), (2, 1), (3, 3)])
def test_pair_round_lists_the_two_builder_triples(jordan, old):
    # Dense elements of M3, so that distinct triples are distinct elements.
    P = m3()
    rng = random.Random(5)
    vectors = [[P.element([rng.randint(-3, 3) for _ in range(P.dim)]) for _ in range(3)]
               for _ in range(2)]
    n = (3, 3)
    got = list(closure._pair_round(P, vectors, old, n, jordan))
    minus, plus = vectors
    want = [(1, w) for w in _two_builder_triples(P, jordan, plus, minus, old[1], old[0], 3, 3)]
    want += [(0, w) for w in _two_builder_triples(P, jordan, minus, plus, old[0], old[1], 3, 3)]
    assert got == want


def _unit_pair(P, kind):
    """Plus side E11, E12, E21 and minus side the unit of M2: x*1*z and
    {x,1,z} = xz + zx reach R on the plus side, and 1*x*1 carries each plus
    element to the minus side, so both sides end full."""
    items = [("one", P.unit, "t")] + [
        (lab, unit_elem(P, lab), "t") for lab in ("E11", "E12", "E21")
    ]
    return ac.generator_set(kind, items, ("-", "+", "+", "+"))


@pytest.mark.parametrize("kind", ["assoc-pair", "jordan-pair"])
@pytest.mark.parametrize(
    "case", ["m3-flip", "m4-flip", "m3-not-full", "m2-full"]
)
def test_pair_closure_matches_two_builder_loop(monkeypatch, kind, case):
    if case == "m3-flip":
        P = m3("flip")
        gens = component_pair_gens(P, kind)
    elif case == "m4-flip":
        P = m4("flip")
        gens = component_pair_gens(P, kind)
    elif case == "m3-not-full":
        P = m3("flip")
        gens = pair_gens(P, kind, pluses=["E21"], minuses=["E12", "E13"])
    else:
        P = m2()
        gens = _unit_pair(P, kind)
    muls = count_muls(monkeypatch)
    old = _two_builder_pair_closure(P, gens, kind == "jordan-pair")
    old_calls, muls[0] = muls[0], 0
    trace = ac.pair_closure(P, gens, kind)
    assert trace == old
    full = all(side.is_full for side in trace.final)
    assert full == (case == "m2-full")
    if full:
        # The rounds after both sides are full do not run.
        assert muls[0] < old_calls



# -- target ceilings -----------------------------------------------------------


def _ceiling_instances():
    out = {}
    for field in ("Q", "Fp:101"):
        F = ac.field_from_name(field)
        for n in (2, 3):
            for inv in ("transpose", "flip"):
                out[f"m{n}-{inv}-{field}"] = ac.build_matrix_algebra(n, F, inv)
        out[f"example2-D1-{field}"] = ac.build_example2(1, F)
        out[f"example1-D2-{field}"] = ac.build_example1(2, F)
    out["m4-flip-Q"] = ac.build_matrix_algebra(4, involution="flip")
    return out


CEILING_INSTANCES = _ceiling_instances()


def _bracket_targets(P):
    """[R, R], and [K, K] when P has an involution: both bracket-closed."""
    out = {"[R,R]": cc.derived_subspace(P)}
    if P.has_involution:
        out["[K,K]"] = cc.derived_K_subspace(P)
    return out


@pytest.mark.parametrize("name", sorted(CEILING_INSTANCES))
def test_lie_ceiling_keeps_the_trace(name):
    # Seeded generator sets drawn inside a bracket-closed target: with the
    # target's rank as ceiling the trace is the same, the final is closed,
    # and (up to dim 9, within the oracle's budget) equals the word span.
    P = CEILING_INSTANCES[name]
    assert not axiom_violations(P)
    rng = random.Random(f"ceiling-{name}")
    for label, target in _bracket_targets(P).items():
        for sparse in (False, True):
            for t in range(6):
                items = [
                    (f"g{i}", _draw(P, rng, target, sparse), "random")
                    for i in range(rng.randint(1, 3))
                ]
                gens = ac.generator_set("lie", items)
                capped = ac.lie_closure(P, gens, target)
                assert capped == ac.lie_closure(P, gens), (label, sparse, t)
                assert _closed(P, capped.final, "lie")
                if P.dim <= 9:
                    assert capped.final == oracle_until_stagnation(P, gens)[0]


@pytest.mark.parametrize("field", ["Q", "Fp:101"])
def test_lie_ceiling_skips_the_products_past_the_target(field, monkeypatch):
    # Lemma 1's generators on M4 flip reach [R, R] in the first round; the
    # rest of that round and the whole stagnation round are not computed.
    P = ac.build_matrix_algebra(4, ac.field_from_name(field), "flip")
    pd = ac.peirce_decompose(P, P.idempotents["e"])
    items = [(f"g{k}", P.element(row), "t") for k, row in enumerate(pd.eRf.basis + pd.fRe.basis)]
    gens = ac.generator_set("lie", items)
    target = cc.derived_subspace(P)
    muls = count_muls(monkeypatch)
    plain = ac.lie_closure(P, gens)
    plain_calls, muls[0] = muls[0], 0
    capped = ac.lie_closure(P, gens, target)
    assert capped == plain and capped.final == target
    assert muls[0] < plain_calls / 2


def _recorded_ceilings(monkeypatch):
    seen = []
    saturate = closure._saturate_linear

    def recording(P, seeds, product_round, ceilings=None):
        seen.append(ceilings)
        return saturate(P, seeds, product_round, ceilings)

    monkeypatch.setattr(closure, "_saturate_linear", recording)
    return seen


def test_target_missing_a_seed_sets_no_ceiling(monkeypatch):
    # span(E12) misses E21; its rank 1 as ceiling would stop the closure
    # at its first seed, but the closure is sl2, of rank 3.
    P = m2()
    gens = lie_gens(P, ["E12", "E21"])
    plain = ac.lie_closure(P, gens)
    seen = _recorded_ceilings(monkeypatch)
    assert ac.lie_closure(P, gens, _span(P, ["E12"])) == plain
    assert plain.final_rank == 3
    assert ac.lie_closure(P, gens, cc.derived_subspace(P)) == plain
    assert seen == [None, [3]]


def test_pair_components_that_are_not_closed_set_no_ceiling(monkeypatch):
    # Random pair generators on M4 flip over e = E11 + E22, with the spans
    # of their own sides as components: those hold the generators but are
    # not closed wherever the closure grows past them.
    P = ORACLE_INSTANCES["m4-flip-Q"]
    seen = _recorded_ceilings(monkeypatch)
    grown = 0
    for gens in _oracle_cases(P, random.Random("open-components"), draws=4):
        spans = (P.span_of(gens.side_elements("-")), P.span_of(gens.side_elements("+")))
        plain = ac.pair_closure(P, gens)
        assert ac.pair_closure(P, gens, components=spans) == plain
        grown += plain.final != spans
    assert grown
    assert set(map(repr, seen)) == {"None"}


@pytest.mark.parametrize("name", sorted(ORACLE_INSTANCES))
def test_pair_ceiling_inside_closed_components_keeps_the_trace(name, monkeypatch):
    # The Peirce components eR(1-e) and (1-e)Re are closed under both triple
    # products, as at the certificates' call sites; generators drawn inside
    # them give the same trace with the components' ranks as ceilings.
    P = ORACLE_INSTANCES[name]
    rng = random.Random(f"pair-ceiling-{name}")
    cases = [g for g in _oracle_cases(P, rng, draws=4) if g.structure in closure.PAIR_STRUCTURES]
    e = P.idempotents["e"]
    if P.dim == 16:
        e = P.add(unit_elem(P, "E11"), unit_elem(P, "E22"))
    pd = ac.peirce_decompose(P, e)
    components = (pd.eRf, pd.fRe)
    seen = _recorded_ceilings(monkeypatch)
    for gens in cases:
        plain = ac.pair_closure(P, gens, components=components)
        capped = closure._pair_closure(P, gens, gens.structure, components, closed=True)
        assert capped == plain
        assert _closed(P, capped.final, gens.structure)
    assert seen == [None, [pd.eRf.rank, pd.fRe.rank]] * len(cases)
