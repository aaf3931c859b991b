"""Fixed-point saturation for sub-structures generated by a finite set,
plus a brute-force word oracle used to cross-check the saturation engine.

One engine, ``_saturate_linear``, serves every closure: Lie and associative
subalgebras, associative and Jordan pairs (one span per side) and the
two-sided ideals of ``algebra.principal_ideal`` and of ``ideal_span`` on a
file that fails the axiom gate (behind it the seeds already span the
ideal). Per side it keeps an append-only list of spanning vectors and a
canonical echelon accumulator. Each round multiplies the vectors found in
the previous round against everything seen so far, so work per round is
proportional to the new material, while the final echelonized subspaces
are canonical and schedule-independent. A round stops once every side is
full.

A product that only feeds a span stays an integer vector: the rounds
multiply factors (``AlgebraPresentation._factor``) through the product
kernel and yield int vectors, which the spans take as they are. Most
products grow nothing and are never Elements. A vector that grows its side
becomes a factor, an Element with its reach and its packed operators, when
the round that first multiplies it starts, and every later round reuses
them: a bracket or product is computed only where the reach allows, and on
a table with products of more than one term it costs one multiply-add per
term of the other factor.

A final is closed by its own rounds, with no re-check. A round multiplies
each vector found in the previous round with every vector found so far
(triples skip only those of three old vectors), so each product of
spanning vectors, up to [u,v] = -[v,u] and {x,y,z} = {z,y,x}, is computed
in the round after its newest factor is found. The saturation stops only
after a round that adds nothing: then every such product lies in the span,
and by bilinearity so does every product of the final's elements. A full
side is R, which holds every product.

A closure can also stop at a ceiling: the rank of a closed subspace known
to hold the generators, and with them everything they generate. The final
lies in what the generators generate, so once it has the ceiling's rank it
is that subspace and closed. ``lie_closure`` takes such a ``target``
(a bracket-closed span such as [R, R]) and checks that it holds the
generators; pair closures take their components' ranks only from callers
that have proved the components closed. The round list is the same as
without the ceiling.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

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


class WordBudget:
    """The words one enumeration has charged against the word budget:
    ``ALGCERT_MAX_WORDS`` when it is set, else the default. Every
    enumeration counts from zero on its own ``WordBudget``."""

    def __init__(self):
        raw = os.environ.get(_BUDGET_ENV, str(DEFAULT_WORD_BUDGET))
        try:
            # ASCII digits only: int() would also read "1_0", " 7 ", "+4"
            # and any Unicode decimal digit.
            self.budget = int(raw) if raw.isascii() and raw.isdigit() else 0
        except ValueError:  # past the interpreter's int-string digit limit
            self.budget = 0
        if self.budget < 1:
            raise StructureError(f"{_BUDGET_ENV} must be a positive integer, got {raw!r}")
        self.count = 0

    def tick(self, n=1):
        self.count += n
        if self.count > self.budget:
            raise BudgetExceededError(self.count, self.budget)


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


def _saturate_linear(P, seeds, product_round, ceilings=None):
    """Saturate one span per side, from one iterable of seeds per side.

    product_round(P, factors, old, n) yields (side, product) for the
    products involving a vector found in the previous round, those at
    index old[s] to n[s] on side s. A round's rank is the total over the
    sides. Every product is taken once its newest factor is found, so when
    a round adds nothing, or every side is full, the finals are closed.

    The products are int vectors (``AlgebraPresentation._ints``), and
    seeds may be too. A vector that grows its side is kept as it came; it
    becomes a factor, an Element with its reach and its packed operators
    (``AlgebraPresentation._factor``), when the round that multiplies it
    first starts, and keeps them for every later round. So a product that
    grows nothing is never an Element, and neither is a vector of a side
    that ends full or at its ceiling before it is used.

    ``ceilings`` holds one rank per side that the side's final is known to
    reach once closed (the rank of a closed span that holds it; see
    ``lie_closure``). A side at its ceiling is treated like a full side: it
    takes no more vectors, and once every side is at its ceiling the round
    stops and the next one is recorded without computing its products. The
    round list is the same as without ceilings, since a side that reached
    its ceiling could not have grown in those rounds.
    """
    if ceilings is None:
        ceilings = [P.dim] * len(seeds)
    builders = [SpanBuilder(P.field, P.dim) for _ in seeds]
    vectors = [[] for _ in seeds]
    factors = [[] for _ in seeds]
    done = [False] * len(seeds)
    for side, els in enumerate(seeds):
        # Seeds may be a lazy stream of products; a side at its ceiling
        # takes no more.
        for el in els:
            if builders[side].add(el):
                vectors[side].append(el)
                done[side] = builders[side].rank >= ceilings[side]
                if done[side]:
                    break
    rounds = [(0, sum(b.rank for b in builders))]
    old = [0] * len(seeds)
    rnd = 0
    while True:
        rnd += 1
        n = [len(v) for v in vectors]
        grew = False
        # Sides at their ceilings cannot grow: the round stops once every
        # side is there, and the next one records the stagnation without
        # computing products.
        if not all(done):
            for side, vs in enumerate(vectors):
                factors[side].extend(map(P._factor, vs[old[side]:]))
            for side, vec in product_round(P, factors, old, n):
                if not done[side] and builders[side].add(vec):
                    vectors[side].append(vec)
                    grew = True
                    done[side] = builders[side].rank >= ceilings[side]
                    if all(done):
                        break
        old = n
        rounds.append((rnd, sum(b.rank for b in builders)))
        if not grew:
            break
    finals = tuple(b.subspace() for b in builders)
    return ClosureTrace(tuple(rounds), finals if len(finals) > 1 else finals[0], rnd)


# Product rounds, one per structure: each yields (side, int vector) for the
# products of the factors in ``vectors``. Pairs keep the minus side as side
# 0 and the plus side as side 1, and list plus triples first.


def _lie_round(P, vectors, old, n):
    (vectors,), (old,), (n,) = vectors, old, n
    for j in range(old, n):
        for i in range(j):
            yield 0, P._bracket(vectors[i], vectors[j])


def _assoc_round(P, vectors, old, n):
    (vectors,), (old,), (n,) = vectors, old, n
    for j in range(old, n):
        v = vectors[j]
        yield 0, P._product(v, v)
        for i in range(j):
            yield 0, P._product(vectors[i], v)
            yield 0, P._product(v, vectors[i])


def _pair_round(P, vectors, old, n, jordan):
    """Triples x*y*z, x and z on one side, in (x, y, z) index order, except
    those of three old vectors; for {x,y,z} = {z,y,x} only z from x on. Each
    x*y is an Element held as a factor, computed once per round on first
    use; the outer products stay int vectors."""
    for side, other in ((1, 0), (0, 1)):
        outer, inner = vectors[side], vectors[other]
        lefts = {}  # (i, j) -> the factor outer[i] * inner[j]

        def left(i, j):
            f = lefts.get((i, j))
            if f is None:
                f = lefts[i, j] = P._factor(P._product(outer[i], inner[j]))
            return f

        for i in range(n[side]):
            for j in range(n[other]):
                start = i if jordan else 0
                if i < old[side] and j < old[other]:
                    start = max(start, old[side])
                for k in range(start, n[side]):
                    xyz = P._product(left(i, j), outer[k])
                    if jordan:
                        xyz = P._combination(xyz, (P._product(left(k, j), outer[i]),), 1)
                    yield side, xyz


def lie_closure(P, S, target=None):
    """Smallest subspace containing S and closed under [a,b] = ab - ba.

    ``target``, when given, must be a bracket-closed subspace. If it holds
    every generator, it holds the Lie algebra <S> they generate, and the
    closure stops once its final has target's rank: the final lies in <S>,
    so <S> ⊆ target = final ⊆ <S>. A target that misses a generator sets
    no ceiling.
    """
    if S.structure != "lie":
        raise StructureError("lie_closure needs a lie generator set")
    seeds = [el for _, el, _ in S.elements]
    ceilings = None
    if target is not None and all(target.contains(el) for el in seeds):
        ceilings = [target.rank]
    return _saturate_linear(P, [seeds], _lie_round, ceilings)


def assoc_closure(P, S):
    """Smallest subspace containing S and closed under the algebra product."""
    if S.structure != "associative":
        raise StructureError("assoc_closure needs an associative generator set")
    seeds = [el for _, el, _ in S.elements]
    return _saturate_linear(P, [seeds], _assoc_round)


def pair_closure(P, S, kind=None, components=None):
    """Pair of subspaces closed under the alternating triple products.

    kind picks the product family: x*y*z for 'assoc-pair', the symmetrized
    x*y*z + z*y*x for 'jordan-pair'. When ``components`` = (minus, plus)
    subspaces are supplied every generator must lie in its declared side;
    they are only checked, since they need not be closed.
    """
    return _pair_closure(P, S, kind, components, closed=False)


def _pair_closure(P, S, kind, components, closed):
    """``pair_closure``; with closed, the caller has proved the components
    closed under the kind's triple products. They hold every generator
    (checked), so they hold the pair <S> the generators generate, and each
    side stops at its component's rank: the final side lies in <S>'s, so
    <S>_side ⊆ component = final_side ⊆ <S>_side."""
    kind = kind or S.structure
    if kind not in PAIR_STRUCTURES or S.structure not in PAIR_STRUCTURES:
        raise StructureError("pair_closure needs a pair generator set")
    ceilings = None
    if components is not None:
        comp_minus, comp_plus = components
        for (label, el, _), side in zip(S.elements, S.sides):
            comp = comp_minus if side == "-" else comp_plus
            if not comp.contains(el):
                raise GeneratorSideError(
                    f"generator {label!r} lies outside its {side} component"
                )
        if closed:
            ceilings = [comp_minus.rank, comp_plus.rank]
    jordan = kind == "jordan-pair"
    seeds = [S.side_elements("-"), S.side_elements("+")]
    return _saturate_linear(P, seeds, partial(_pair_round, jordan=jordan), ceilings)


def _dedupe_exact(elements):
    seen = {}
    for el in elements:
        seen.setdefault(el.support, el)
    return list(seen.values())


def word_oracle(P, S, max_len):
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
    counter = WordBudget()
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
        b.add(el)
    for n in range(2, max_len + 1):
        for el in levels[n]:
            b.add(el)
    return b.subspace()


def _oracle_assoc(P, S, max_len, counter):
    seeds = [el for _, el, _ in S.elements]
    counter.tick(len(seeds))
    level = _dedupe_exact([e for e in seeds if not P.is_zero(e)])
    b = SpanBuilder(P.field, P.dim)
    for el in seeds:
        b.add(el)
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
            b.add(el)
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
                b.add(el)
        result.append(b.subspace())
    return tuple(result)
