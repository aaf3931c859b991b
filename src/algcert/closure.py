"""Fixed-point saturation for sub-structures generated by a finite set,
plus a brute-force word oracle used to cross-check the saturation engine.

The engine keeps an append-only list of spanning vectors and a canonical
echelon accumulator. Each round multiplies the vectors found in the previous
round against everything seen so far, so work per round is proportional to
the new material, while the final echelonized subspace is canonical and
schedule-independent. Closedness of the final subspace is re-verified after
every run by applying the products to its basis.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import (
    BudgetExceededError,
    GeneratorSideError,
    StructureError,
)
from .linalg import SpanBuilder

STRUCTURES = ("lie", "associative", "assoc-pair", "jordan-pair")
PAIR_STRUCTURES = ("assoc-pair", "jordan-pair")

DEFAULT_WORD_BUDGET = 200_000
_BUDGET_ENV = "ALGCERT_MAX_WORDS"


def word_budget(budget=None):
    if budget is not None:
        return int(budget)
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return DEFAULT_WORD_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise StructureError(f"{_BUDGET_ENV} must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class GeneratorSet:
    """Tagged finite list of elements with a structure kind.

    elements holds (label, element, provenance) triples; for pair structures
    ``sides`` assigns '+' or '-' to each element.
    """

    structure: str
    elements: tuple
    sides: tuple | None = None

    def __post_init__(self):
        if self.structure not in STRUCTURES:
            raise StructureError(f"unknown structure kind: {self.structure!r}")
        labels = [lab for lab, _, _ in self.elements]
        if len(set(labels)) != len(labels):
            raise StructureError("generator labels must be unique")
        if self.structure in PAIR_STRUCTURES:
            if self.sides is None or len(self.sides) != len(self.elements):
                raise StructureError("pair structures need one side per element")
            if any(s not in ("+", "-") for s in self.sides):
                raise StructureError("sides must be '+' or '-'")
        elif self.sides is not None:
            raise StructureError(f"{self.structure} generators carry no sides")

    def side_elements(self, side):
        return [
            el for (_, el, _), s in zip(self.elements, self.sides) if s == side
        ]


def generator_set(structure, items, sides=None):
    return GeneratorSet(
        structure,
        tuple((str(l), el, str(p)) for l, el, p in items),
        tuple(sides) if sides is not None else None,
    )


@dataclass(frozen=True)
class ClosureTrace:
    """Round-by-round ranks and the closed final subspace.

    For pair structures ``final`` is a (minus, plus) tuple of subspaces and
    the per-round rank is the total over both sides.
    """

    rounds: tuple
    final: object
    stagnated_at: int

    @property
    def final_rank(self):
        if isinstance(self.final, tuple):
            return self.final[0].rank + self.final[1].rank
        return self.final.rank

    def to_json_dict(self):
        d = {
            "rounds": [{"round": r, "rank": k} for r, k in self.rounds],
            "final_rank": self.final_rank,
            "stagnated_at": self.stagnated_at,
        }
        if isinstance(self.final, tuple):
            d["final_rank_minus"] = self.final[0].rank
            d["final_rank_plus"] = self.final[1].rank
        return d


def _check_trace_invariants(rounds):
    ranks = [k for _, k in rounds]
    for a, b in zip(ranks, ranks[1:-1]):
        if b <= a:
            raise AssertionError("closure rank must strictly grow before stagnation")
    if len(ranks) >= 2 and ranks[-1] < ranks[-2]:
        raise AssertionError("closure rank decreased")


def _saturate_linear(P, seeds, product_round, assert_closed):
    builder = SpanBuilder(P.field, P.dim)
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
        # A full span cannot grow: its round stops at full rank, and the
        # next one records the stagnation without computing products.
        if not builder.is_full:
            for el in product_round(vectors, old, n):
                if builder.add(el.coords):
                    vectors.append(el)
                    grew = True
                    if builder.is_full:
                        break
        old = n
        rounds.append((rnd, builder.rank))
        if not grew:
            break
    final = builder.subspace()
    assert_closed(P, final)
    _check_trace_invariants(rounds)
    return ClosureTrace(tuple(rounds), final, rnd)


def _lie_round(P):
    def rounds(vectors, old, n):
        for j in range(old, n):
            for i in range(j):
                yield P.commutator(vectors[i], vectors[j])
    return rounds


def _assoc_round(P):
    def rounds(vectors, old, n):
        for j in range(old, n):
            yield P.mul(vectors[j], vectors[j])
            for i in range(j):
                yield P.mul(vectors[i], vectors[j])
                yield P.mul(vectors[j], vectors[i])
    return rounds


def _assert_closed(P, final, op_pairs):
    rows = [P.element(r) for r in final.basis]
    for u in rows:
        for v in rows:
            for w in op_pairs(u, v):
                if not final.contains(w.coords):
                    raise AssertionError(
                        "final subspace escaped under re-applied products"
                    )


def assert_lie_closed(P, final):
    """Raise AssertionError unless the subspace is closed under [a,b]."""
    _assert_closed(P, final, lambda u, v: (P.commutator(u, v),))


def _assert_assoc_closed(P, final):
    _assert_closed(P, final, lambda u, v: (P.mul(u, v), P.mul(v, u)))


def lie_closure(P, S):
    """Smallest subspace containing S and closed under [a,b] = ab - ba."""
    if S.structure != "lie":
        raise StructureError("lie_closure needs a lie generator set")
    seeds = [el for _, el, _ in S.elements]
    return _saturate_linear(P, seeds, _lie_round(P), assert_lie_closed)


def assoc_closure(P, S):
    """Smallest subspace containing S and closed under the algebra product."""
    if S.structure != "associative":
        raise StructureError("assoc_closure needs an associative generator set")
    seeds = [el for _, el, _ in S.elements]
    return _saturate_linear(P, seeds, _assoc_round(P), _assert_assoc_closed)


def pair_closure(P, S, kind=None, components=None):
    """Pair of subspaces closed under the alternating triple products.

    kind picks the product family: x*y*z for 'assoc-pair', the symmetrized
    x*y*z + z*y*x for 'jordan-pair'. When ``components`` = (minus, plus)
    subspaces are supplied every generator must lie in its declared side.
    """
    kind = kind or S.structure
    if kind not in PAIR_STRUCTURES or S.structure not in PAIR_STRUCTURES:
        raise StructureError("pair_closure needs a pair generator set")
    minus_seeds = S.side_elements("-")
    plus_seeds = S.side_elements("+")
    if components is not None:
        comp_minus, comp_plus = components
        for (label, el, _), side in zip(S.elements, S.sides):
            comp = comp_minus if side == "-" else comp_plus
            if not comp.contains(el.coords):
                raise GeneratorSideError(
                    f"generator {label!r} lies outside its {side} component"
                )

    jordan = kind == "jordan-pair"
    bm = SpanBuilder(P.field, P.dim)
    bp = SpanBuilder(P.field, P.dim)
    vm, vp = [], []
    for el in minus_seeds:
        if bm.add(el.coords):
            vm.append(el)
    for el in plus_seeds:
        if bp.add(el.coords):
            vp.append(el)
    rounds = [(0, bm.rank + bp.rank)]
    old_m = old_p = 0
    rnd = 0

    def _triples(outer, inner, old_outer, old_inner, n_outer, n_inner):
        for i in range(n_outer):
            for j in range(n_inner):
                for k in range(n_outer):
                    if i < old_outer and j < old_inner and k < old_outer:
                        continue
                    if jordan and k < i:
                        continue
                    x, y, z = outer[i], inner[j], outer[k]
                    yield P.jordan_triple(x, y, z) if jordan else P.triple(x, y, z)

    while True:
        rnd += 1
        nm, np_ = len(vm), len(vp)
        grew = False
        for el in _triples(vp, vm, old_p, old_m, np_, nm):
            if bp.add(el.coords):
                vp.append(el)
                grew = True
        for el in _triples(vm, vp, old_m, old_p, nm, np_):
            if bm.add(el.coords):
                vm.append(el)
                grew = True
        old_m, old_p = nm, np_
        rounds.append((rnd, bm.rank + bp.rank))
        if not grew:
            break

    final = (bm.subspace(), bp.subspace())
    _check_pair_closed(P, final, jordan)
    _check_trace_invariants(rounds)
    return ClosureTrace(tuple(rounds), final, rnd)


def _check_pair_closed(P, final, jordan):
    minus, plus = final
    rows_m = [P.element(r) for r in minus.basis]
    rows_p = [P.element(r) for r in plus.basis]
    for outer_rows, inner_rows, target in (
        (rows_p, rows_m, plus),
        (rows_m, rows_p, minus),
    ):
        for x in outer_rows:
            for y in inner_rows:
                for z in outer_rows:
                    w = P.jordan_triple(x, y, z) if jordan else P.triple(x, y, z)
                    if not target.contains(w.coords):
                        raise AssertionError(
                            "pair closure escaped under re-applied triples"
                        )


def _dedupe_exact(elements):
    seen = {}
    for el in elements:
        seen.setdefault(el.coords, el)
    return list(seen.values())


class _WordCounter:
    def __init__(self, budget):
        self.budget = budget
        self.count = 0

    def tick(self, n=1):
        self.count += n
        if self.count > self.budget:
            raise BudgetExceededError(self.count, self.budget)


def word_oracle(P, S, max_len, budget=None):
    """Span of all structure words over S up to the given length.

    Pure enumeration: full binary bracket trees for 'lie', left-nested
    products for 'associative', alternating words for 'assoc-pair' and all
    triple nestings for 'jordan-pair'. No saturation shortcuts; only exact
    duplicates and exact zeros are dropped, neither of which can change a
    span or the bracket trees reachable from it. Returns a Subspace, or a
    (minus, plus) tuple for pair structures.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    counter = _WordCounter(word_budget(budget))
    if S.structure == "lie":
        return _oracle_lie(P, S, max_len, counter)
    if S.structure == "associative":
        return _oracle_assoc(P, S, max_len, counter)
    return _oracle_pair(P, S, max_len, counter)


def _oracle_lie(P, S, max_len, counter):
    seeds = [el for _, el, _ in S.elements]
    counter.tick(len(seeds))
    levels = {1: _dedupe_exact([e for e in seeds if not P.is_zero(e)])}
    for n in range(2, max_len + 1):
        out = []
        for i in range(1, n):
            j = n - i
            for a in levels.get(i, ()):
                for b in levels.get(j, ()):
                    counter.tick()
                    w = P.commutator(a, b)
                    if not P.is_zero(w):
                        out.append(w)
        levels[n] = _dedupe_exact(out)
    b = SpanBuilder(P.field, P.dim)
    for el in seeds:
        b.add(el.coords)
    for n in range(2, max_len + 1):
        for el in levels[n]:
            b.add(el.coords)
    return b.subspace()


def _oracle_assoc(P, S, max_len, counter):
    seeds = [el for _, el, _ in S.elements]
    counter.tick(len(seeds))
    level = _dedupe_exact([e for e in seeds if not P.is_zero(e)])
    b = SpanBuilder(P.field, P.dim)
    for el in seeds:
        b.add(el.coords)
    for _ in range(2, max_len + 1):
        nxt = []
        for w in level:
            for g in seeds:
                counter.tick()
                prod = P.mul(w, g)
                if not P.is_zero(prod):
                    nxt.append(prod)
        level = _dedupe_exact(nxt)
        for el in level:
            b.add(el.coords)
    return b.subspace()


def _oracle_pair(P, S, max_len, counter):
    jordan = S.structure == "jordan-pair"
    seeds = {
        "-": [e for e in S.side_elements("-") if not P.is_zero(e)],
        "+": [e for e in S.side_elements("+") if not P.is_zero(e)],
    }
    counter.tick(len(S.elements))
    levels = {"-": {1: _dedupe_exact(seeds["-"])}, "+": {1: _dedupe_exact(seeds["+"])}}
    for n in range(3, max_len + 1, 2):
        for side in ("+", "-"):
            other = "-" if side == "+" else "+"
            out = []
            if jordan:
                for n1 in range(1, n - 1, 2):
                    for n2 in range(1, n - n1, 2):
                        n3 = n - n1 - n2
                        if n3 < 1:
                            continue
                        for a in levels[side].get(n1, ()):
                            for y in levels[other].get(n2, ()):
                                for c in levels[side].get(n3, ()):
                                    counter.tick()
                                    w = P.jordan_triple(a, y, c)
                                    if not P.is_zero(w):
                                        out.append(w)
            else:
                for w0 in levels[side].get(n - 2, ()):
                    for y in seeds[other]:
                        for z in seeds[side]:
                            counter.tick()
                            w = P.triple(w0, y, z)
                            if not P.is_zero(w):
                                out.append(w)
            levels[side][n] = _dedupe_exact(out)
    result = []
    for side in ("-", "+"):
        b = SpanBuilder(P.field, P.dim)
        for n in sorted(levels[side]):
            for el in levels[side][n]:
                b.add(el.coords)
        result.append(b.subspace())
    return tuple(result)


def oracle_until_stagnation(P, S, start_len=1, budget=None, max_rounds=12):
    """Grow max_len until the oracle span stops changing; returns (span, len)."""
    step = 2 if S.structure in PAIR_STRUCTURES else 1
    prev = word_oracle(P, S, start_len, budget)
    length = start_len
    for _ in range(max_rounds):
        nxt = word_oracle(P, S, length + step, budget)
        if nxt == prev:
            return prev, length
        prev = nxt
        length += step
    return prev, length
