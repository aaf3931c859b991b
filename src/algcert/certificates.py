"""Executable generation certificates for commutator Lie algebras.

Each operation here builds a finite generating set the way the corresponding
claim prescribes, closes it with the saturation engine, and compares the
result against an independently computed target subspace. A certificate is
only ``pass`` when the closed subspace equals the target exactly; failed
generation hypotheses (ReR = R and friends) yield ``hypothesis-not-met``
rather than a verdict, so a pass is never asserted where the claim does not
apply. Targets are spans that bilinearity makes bracket-closed, which is
not re-checked. A pass is sound whether or not the closure is closed: every
vector of a final is a generator or a product of its vectors, so the final
lies in the structure <S> the generators S generate; a closed target that
equals the final contains S, hence <S>, so <S> = target. The same argument
lets a closure stop at a closed target's rank (``closure.lie_closure``'s
``target``, and closed pair components through ``closure._pair_closure``),
which changes no trace.
"""

from __future__ import annotations

import functools
import itertools
import random
from bisect import bisect_left
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from types import SimpleNamespace

from .algebra import (
    embed_in_hull,
    hypotheses_for,
    ideal_span,  # noqa: F401  bound here for bench/selftest.py's tracer check
    require_axioms,
    restrict_from_hull,
    unital_hull,
)
from .closure import (
    GeneratorSet,
    _pair_closure,
    assoc_closure,
    generator_set,
    lie_closure,
    pair_closure,
    word_budget,
)
from .decomposition import kh_split, peirce_decompose, z_grading
from .errors import (
    BudgetExceededError,
    CapExceededError,
    FormatError,
    MissingGeneratorsError,
)
from .linalg import CombinationSolver, SpanBuilder

PASS = "pass"
FAIL = "fail"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"


@dataclass
class Certificate:
    claim: str
    verdict: str
    presentation: object
    generators: GeneratorSet | None = None
    trace: object = None
    target: object = None
    detail: dict = dataclass_field(default_factory=dict)
    seed: int | None = None

    def to_json_dict(self):
        P = self.presentation
        d = {
            "claim": self.claim,
            "verdict": self.verdict,
            "algebra": P.name,
            "seed": self.seed,
            "detail": self.detail,
        }
        if self.generators is not None:
            gens = []
            sides = self.generators.sides or (None,) * len(self.generators.elements)
            for (label, el, prov), side in zip(self.generators.elements, sides):
                entry = {"label": label, "provenance": prov, "element": P.render(el)}
                if side is not None:
                    entry["side"] = side
                gens.append(entry)
            d["generators"] = {
                "structure": self.generators.structure,
                "elements": gens,
            }
        else:
            d["generators"] = None
        d["trace"] = self.trace.to_json_dict() if self.trace is not None else None
        if self.target is None:
            d["target_rank"] = None
        elif isinstance(self.target, tuple):
            d["target_rank"] = self.target[0].rank + self.target[1].rank
            d["target_rank_minus"] = self.target[0].rank
            d["target_rank_plus"] = self.target[1].rank
        else:
            d["target_rank"] = self.target.rank
        return d


def _verdict(final, target):
    # A pair final is a (minus, plus) tuple, compared side by side; a
    # Subspace never equals a tuple.
    return PASS if final == target else FAIL


# -- random sampling ------------------------------------------------------


def random_scalar(field, rng, lo=-3, hi=3):
    if hasattr(field, "p"):
        return rng.randrange(field.p)
    return Fraction(rng.randint(lo, hi))


def random_element(P, rng, subspace=None, nonzero=False):
    """sum c_r * row_r over the basis rows of subspace (of P when it is
    None), one ``random_scalar`` c_r per row and draw; with nonzero, drawn
    again until the sum is nonzero.

    The draws are those of ``random_scalar``, taken as plain ints, and the
    sum runs on ints over the sparse integer basis of the subspace
    (``Subspace._sparse_basis``, built once per subspace)."""
    if subspace is None:
        m, rows = 1, [((i, 1),) for i in range(P.dim)]
    else:
        m, rows = subspace._sparse_basis
    p = getattr(P.field, "p", 0)
    for _ in range(64):
        acc = {}
        for row in rows:
            c = rng.randrange(p) if p else rng.randint(-3, 3)
            if c:
                for k, x in row:
                    acc[k] = acc.get(k, 0) + c * x
        el = P._from_ints(acc, m)
        if not nonzero or not P.is_zero(el):
            return el
    raise ValueError("could not sample a nonzero element (zero subspace?)")


# -- hypotheses ------------------------------------------------------------


def _resolve_idempotent(P, e):
    if e is None:
        e = "e"
    if isinstance(e, str):
        if e not in P.idempotents:
            raise FormatError(f"no idempotent named {e!r} in {P.name}")
        return P.idempotents[e]
    return e


def _hypothesis_certificate(P, claim, results, seed=None, extra=None):
    failed = [k for k, v in results.items() if v is False]
    detail = {"hypotheses": results, "failed_hypotheses": failed}
    if extra:
        detail.update(extra)
    return Certificate(
        claim=claim,
        verdict=HYPOTHESIS_NOT_MET,
        presentation=P,
        detail=detail,
        seed=seed,
    )


# -- targets ---------------------------------------------------------------


def _bracket_span(P, rows):
    """Span of all [r_i, r_j], i < j, over the elements rows. [u, v] is
    zero unless the support of one meets the reach of the other: with each
    row's support and reach taken once and the rows indexed by support, only
    those pairs are bracketed (uv, vu each only where the reach allows), and
    a bracket equal to +-w for a w that grew the span is skipped. The span
    is canonical, so neither shortcut changes it."""
    supports = [[i for i, _ in v.support[1]] for v in rows]
    reaches = [P._reach(v) for v in rows]
    holds = {}  # basis index -> positions of the rows whose support holds it
    for q, s in enumerate(supports):
        for i in s:
            holds.setdefault(i, []).append(q)
    pairs = {(min(p, q), max(p, q)) for p, r in enumerate(reaches)
             for i in r for q in holds.get(i, ()) if q != p}
    b = SpanBuilder(P.field, P.dim)
    grew = set()
    for p, q in sorted(pairs):
        u, v = rows[p], rows[q]
        uv = P.mul(u, v) if not reaches[p].isdisjoint(supports[q]) else P.zero()
        vu = P.mul(v, u) if not reaches[q].isdisjoint(supports[p]) else P.zero()
        w = P.sub(uv, vu)
        if w not in grew and b.add(w):
            grew.update((w, P.neg(w)))
    return b.subspace()


def commutator_span(P):
    """Span of all [b_i, b_j] over basis pairs: the pairs bracketed are
    those with b_i b_j or b_j b_i in the structure table."""
    return _bracket_span(P, [P.basis_element(i) for i in range(P.dim)])


def derived_subspace(P):
    """The derived subalgebra [R, R]: the commutator span, bracket-closed
    by bilinearity. A pass on it is sound: the final holds the generators
    and lies in the Lie algebra L they generate, so this closed span, equal
    to the final, contains L and is L."""
    return commutator_span(P)


def skew_commutator_span(P):
    """Span of all [k_i, k_j] over a basis of the skew part K."""
    return _bracket_span(P, P.elements(_skew_part(P)))


def derived_K_subspace(P):
    """The derived subalgebra [K, K] of the skew part: [k, k']* = -[k, k']
    puts [K, K] in K once the involution law holds (the axiom gate), so the
    span is bracket-closed by bilinearity."""
    return skew_commutator_span(P)


# -- working copy / word machinery ------------------------------------------


def _working(P):
    """A unital presentation to compute in: P itself, or its hull."""
    if P.unital:
        return P, (lambda el: el), (lambda el: el)
    H = unital_hull(P)
    return H, functools.partial(embed_in_hull, H), functools.partial(restrict_from_hull, P)


class _WordLevels:
    """Length-graded, zero-pruned enumeration of products of generators."""

    def __init__(self, Pw, gens, budget):
        self.Pw = Pw
        self.gens = gens
        self.budget = budget
        self.count = 0
        first = []
        for name, el in gens:
            self._tick()
            if not Pw.is_zero(el):
                first.append((name, el))
        self.levels = [first]

    def _tick(self):
        self.count += 1
        if self.count > self.budget:
            raise BudgetExceededError(self.count, self.budget)

    def level(self, length):
        """Nonzero products of exactly ``length`` generators."""
        if length < 1:
            raise ValueError("word length must be >= 1")
        while len(self.levels) < length:
            prev = self.levels[-1]
            nxt = []
            for lab, w in prev:
                for name, g in self.gens:
                    self._tick()
                    prod = self.Pw.mul(w, g)
                    if not self.Pw.is_zero(prod):
                        nxt.append((f"{lab}*{name}", prod))
            self.levels.append(nxt)
        return self.levels[length - 1]

    def words_upto(self, length, include_empty=False):
        out = [("", None)] if include_empty else []
        for n in range(1, length + 1):
            out.extend(self.level(n))
        return out


def _sandwich(Pw, u, mid, v):
    """u * mid * v where u, v may be None (empty word)."""
    left = mid if u is None else Pw.mul(u, mid)
    return left if v is None else Pw.mul(left, v)


class _SandwichWitnesses:
    """Finds decompositions target = sum alpha * u*mid*v.

    Words u, v range over products of the declared generators, the empty
    word included (it stands for the hull's unit). The search grows one
    word length at a time, and only until the target lies in the span, so
    ``length`` is the least length that decomposes every target so far.
    That length belongs to the search, not to a target: a later target
    reads 0 once the span already holds it. The solver combines only inputs
    that grew its rank, which are linearly independent, so a target's terms
    are unique and growing more levels leaves them unchanged.

    The solver gets only the nonzero products, and ``products[i]`` names
    its input i. A product (u*mid)*v is zero when v's support misses the
    reach of u*mid, so each u*mid is paired only with the empty word and
    the words that ``index`` (basis index -> positions of the words whose
    support holds it) finds in its reach. Once the solver's span is full,
    no later input can enter a solution, and none is added.
    """

    def __init__(self, Pw, mid, words, cap):
        self.Pw = Pw
        self.mid = mid
        self.words = words
        self.cap = cap
        self.solver = CombinationSolver(Pw.field, Pw.dim)
        self.products = []  # (u_label, u_el, v_label, v_el) per solver input
        self.lefts = []  # (u * mid, its reach) for each word u up to the length
        self.index = {}  # basis index -> positions in words_upto, ascending
        self.length = -1

    def _meeting(self, reach, start):
        """Positions, from start on and in order, of the nonempty words
        whose support meets reach."""
        hits = set()
        for i in reach:
            positions = self.index.get(i)
            if positions:
                hits.update(positions[bisect_left(positions, start):])
        return sorted(hits)

    def _grow_to(self, L):
        """Add the products u*mid*v with max(|u|, |v|) = length for each
        length up to L: new u against every v, then old u against new v,
        each in word order."""
        Pw, mid, solver = self.Pw, self.mid, self.solver
        while self.length < L and solver.rank < Pw.dim:
            self.length += 1
            new = self.words.level(self.length) if self.length >= 1 else [("", None)]
            upto = self.words.words_upto(self.length, include_empty=True)
            n_old = len(upto) - len(new)
            for pos in range(max(n_old, 1), len(upto)):
                for i, _ in upto[pos][1].support[1]:
                    self.index.setdefault(i, []).append(pos)

            def pairs():
                for ul, u in new:
                    left = mid if u is None else Pw.mul(u, mid)
                    reach = Pw._reach(left)
                    self.lefts.append((left, reach))
                    for pos in [0] + self._meeting(reach, 1):
                        yield ul, u, left, upto[pos]
                for (ul, u), (left, reach) in zip(upto[:n_old], self.lefts):
                    for pos in self._meeting(reach, n_old):
                        yield ul, u, left, upto[pos]

            for ul, u, left, (vl, v) in pairs():
                prod = left if v is None else Pw.mul(left, v)
                if Pw.is_zero(prod):
                    continue
                self.products.append((ul, u, vl, v))
                if solver.add(prod) and solver.rank == Pw.dim:
                    return

    def decompose(self, target, what):
        """(L, terms) with terms = [(coeff, u_label, u_el, v_label, v_el)]."""
        for L in range(0, self.cap + 1):
            self._grow_to(L)
            sol = self.solver.solve(target)
            if sol is not None:
                terms = [
                    (c,) + self.products[i] for i, c in sorted(sol.items())
                ]
                return L, terms
        raise CapExceededError(what, self.cap)


def _witness_search(P, e, f, cap, budget):
    """The witness search over e and f (1 - e when f is None, taken in the
    hull when P has no unit): the working copy, the declared generators
    lifted into it, one ``_WordLevels`` over them and one
    ``_SandwichWitnesses`` for each of e and f. Lemma 2 and lemma 5 read
    the generators' decompositions from it; theorem 2 builds one for both.
    """
    budget = word_budget(budget)
    Pw, lift, lower = _working(P)
    gens = [(name, lift(el)) for name, el in sorted(P.generators.items())]
    if not gens:
        raise MissingGeneratorsError(f"{P.name} declares no generators")
    words = _WordLevels(Pw, gens, budget)
    e_w = lift(e)
    f_w = Pw.sub(Pw.unit, e_w) if f is None else lift(f)
    return SimpleNamespace(
        Pw=Pw, lift=lift, lower=lower, gens=gens, words=words,
        wit_e=_SandwichWitnesses(Pw, e_w, words, cap),
        wit_f=_SandwichWitnesses(Pw, f_w, words, cap),
    )


# -- lemma1 ---------------------------------------------------------------


def lemma1_certificate(P, e=None):
    """[R,R] is generated as a Lie algebra by eR(1-e) + (1-e)Re."""
    e = _resolve_idempotent(P, e)
    hyp = hypotheses_for(P, e, ("e^2=e", "ReR=R", "R(1-e)R=R"))
    if not all(hyp.values()):
        return _hypothesis_certificate(P, "lemma1", hyp)
    pd = peirce_decompose(P, e)
    items = []
    for name, comp in (("eR(1-e)", pd.eRf), ("(1-e)Re", pd.fRe)):
        for k, el in enumerate(P.elements(comp)):
            items.append((f"{name}:{k}", el, name))
    gens = generator_set("lie", items)
    target = derived_subspace(P)
    trace = lie_closure(P, gens, target)
    return Certificate(
        claim="lemma1",
        verdict=_verdict(trace.final, target),
        presentation=P,
        generators=gens,
        trace=trace,
        target=target,
        detail={
            "hypotheses": hyp,
            "peirce_dims": pd.dims(),
            "commutator_span_rank": target.rank,
            "derived_rank": target.rank,
        },
    )


# -- lemma2 ---------------------------------------------------------------


def _lemma2_impl(P, search):
    """The bounded sandwich-word generating set over a ``_witness_search``.

    Decomposes every declared generator over the search's e and f; d, the
    larger of the lengths the two searches grew to, is the least length
    that decomposes them all.
    Returns (GeneratorSet, info) where info carries d, the word bound 3d + 1
    and the pair components (eRf-span, fRe-span).
    """
    Pw, lift, lower, words = search.Pw, search.lift, search.lower, search.words
    e_w, f_w = search.wit_e.mid, search.wit_f.mid

    # Pair components over the original algebra's basis.
    comp_minus_b = SpanBuilder(P.field, P.dim)
    comp_plus_b = SpanBuilder(P.field, P.dim)
    for i in range(P.dim):
        b = lift(P.basis_element(i))
        comp_minus_b.add(lower(_sandwich(Pw, e_w, b, f_w)))
        comp_plus_b.add(lower(_sandwich(Pw, f_w, b, e_w)))
    comp_minus = comp_minus_b.subspace()
    comp_plus = comp_plus_b.subspace()

    for name, el in search.gens:
        search.wit_e.decompose(el, f"{name} over e")
        search.wit_f.decompose(el, f"{name} over f")
    d = max(search.wit_e.length, search.wit_f.length)
    bound = 3 * d + 1

    items = []
    sides = []
    got_minus = SpanBuilder(P.field, P.dim)
    got_plus = SpanBuilder(P.field, P.dim)
    done = False
    for length in range(1, bound + 1):
        if done:
            break
        for lab, u in words.level(length):
            gm = lower(_sandwich(Pw, e_w, u, f_w))
            if got_minus.add(gm):
                items.append((f"e*{lab}*f", gm, f"word:{lab}"))
                sides.append("-")
            gp = lower(_sandwich(Pw, f_w, u, e_w))
            if got_plus.add(gp):
                items.append((f"f*{lab}*e", gp, f"word:{lab}"))
                sides.append("+")
            if (
                got_minus.rank == comp_minus.rank
                and got_plus.rank == comp_plus.rank
            ):
                # Every remaining word is already inside the spans, so the
                # deduplicated set is complete.
                done = True
                break

    gens_out = generator_set("assoc-pair", items, sides)
    return gens_out, {"d": d, "word_bound": bound, "components": (comp_minus, comp_plus)}


def lemma2_generating_set(P, e=None, cap=6, budget=None):
    """Sandwich words e*u*f and f*u*e of bounded length, deduplicated by span,
    for f = 1 - e (taken in the hull when the algebra is not unital).

    The bound is 3d+1 where d is the largest word length appearing in the
    minimal decompositions of the declared generators over e and over f.
    """
    e = _resolve_idempotent(P, e)
    gens_out, _ = _lemma2_impl(P, _witness_search(P, e, None, cap, budget))
    return gens_out


def lemma2_certificate(P, e=None, cap=6, budget=None):
    """The bounded word set generates the associative pair (eRf, fRe)."""
    require_axioms(P)
    e = _resolve_idempotent(P, e)
    hyp = hypotheses_for(P, e, ("e^2=e", "R=alg<gens>", "ReR=R", "R(1-e)R=R"))
    if not all(hyp.values()):
        return _hypothesis_certificate(P, "lemma2", hyp)
    gens, info = _lemma2_impl(P, _witness_search(P, e, None, cap, budget))
    target = info["components"]
    # eRf.fRe.eRf lies in eRf (and symmetrically) by associativity, so the
    # components are closed behind the gate.
    trace = _pair_closure(P, gens, "assoc-pair", target, closed=True)
    return Certificate(
        claim="lemma2",
        verdict=_verdict(trace.final, target),
        presentation=P,
        generators=gens,
        trace=trace,
        target=target,
        detail={
            "hypotheses": hyp,
            "d": info["d"],
            "word_bound": info["word_bound"],
            "component_dims": (target[0].rank, target[1].rank),
        },
    )


# -- lemma3 ---------------------------------------------------------------


def _index_sequences(n_outer, n_inner):
    """(iseq, jseq) pairs of the distinct-index monomials, in emission order:
    s + 1 pairwise distinct outer indices and s arbitrary inner ones."""
    for s in range(n_outer):
        if s > 0 and not n_inner:
            return
        for iseq in itertools.permutations(range(n_outer), s + 1):
            for jseq in itertools.product(range(n_inner), repeat=s):
                yield iseq, jseq


def _distinct_index_monomials(P, pair_gens, components, budget=None):
    """Alternating monomials whose outer-side indices are pairwise distinct.

    For the '+' family these are a+_{i1} b-_{j1} a+_{i2} ... a+_{i_{s+1}}
    with distinct i's and arbitrary j's, and symmetrically for '-'.
    Deduplicated by span per side.

    ``components`` = (minus, plus) are subspaces that contain every monomial
    of their side. A side stops once its span has that component's rank: no
    later monomial can grow it, so the emitted set is the same as that of the
    full enumeration, and only the words enumerated before the stop are
    charged to the budget.
    """
    budget = word_budget(budget)
    count = 0
    by_side = {"+": [], "-": []}
    for (label, el, _), side in zip(pair_gens.elements, pair_gens.sides):
        by_side[side].append((label, el))
    items = []
    sides = []
    for sigma, ceiling in (("-", components[0].rank), ("+", components[1].rank)):
        outer = by_side[sigma]
        inner = by_side["-" if sigma == "+" else "+"]
        got = SpanBuilder(P.field, P.dim)
        for iseq, jseq in _index_sequences(len(outer), len(inner)):
            if got.rank == ceiling:
                break
            count += 1
            if count > budget:
                raise BudgetExceededError(count, budget)
            el = outer[iseq[0]][1]
            word = outer[iseq[0]][0]
            for t in range(len(jseq)):
                el = P.mul(P.mul(el, inner[jseq[t]][1]), outer[iseq[t + 1]][1])
                word += f"*{inner[jseq[t]][0]}*{outer[iseq[t + 1]][0]}"
            if got.add(el):
                items.append((f"mono{sigma}{len(items)}", el, f"monomial:{word}"))
                sides.append(sigma)
    return generator_set("jordan-pair", items, sides)


# Lemma 3's ``identity_checks``: two identities on 100 substitutions, each
# covered by the proof in ``lemma3_jordan_check``'s docstring, none run.
JORDAN_IDENTITY_CHECKS = 200


def lemma3_jordan_check(P, pair_generators, seed=0):
    """Jordan-pair generation: the Jordan-pair closure of the distinct-index
    monomials equals the associative-pair closure of the generators.

    The reduction identities are proved, not sampled. The symmetrized one,
    (xyu)vu + uv(xyu) = {xyu, v, u}, is the definition {a,b,c} = abc + cba.
    Both sides of the linearized one, xy{u1,v,u2} = {xyu1,v,u2} +
    {xyu2,v,u1} - {u1,vxy,u2}, are xyu1vu2 + xyu2vu1 by associativity,
    which the gate checks.
    """
    require_axioms(P)
    if pair_generators.structure not in ("assoc-pair", "jordan-pair"):
        raise ValueError("lemma3 needs pair generators")
    assoc_gens = GeneratorSet(
        "assoc-pair", pair_generators.elements, pair_generators.sides
    )
    target_trace = pair_closure(P, assoc_gens, "assoc-pair")
    comp_minus, comp_plus = target_trace.final

    # The monomials are iterated triple products of the inputs, so they lie
    # in the associative pair the inputs generate. That pair is closed under
    # x*y*z, hence under x*y*z + z*y*x.
    monomials = _distinct_index_monomials(P, pair_generators, target_trace.final)
    trace = _pair_closure(P, monomials, "jordan-pair", target_trace.final, closed=True)
    verdict = _verdict(trace.final, target_trace.final)
    return Certificate(
        claim="lemma3",
        verdict=verdict,
        presentation=P,
        generators=monomials,
        trace=trace,
        target=target_trace.final,
        detail={
            "identity_checks": JORDAN_IDENTITY_CHECKS,
            "monomial_count": len(monomials.elements),
            "pair_dims": (comp_minus.rank, comp_plus.rank),
        },
        seed=seed,
    )


def _lemma3_claim(P, opts):
    """lemma3 on the bases of the off-diagonal Peirce components of e."""
    pd = peirce_decompose(P, _resolve_idempotent(P, None))
    items = []
    sides = []
    for side, comp in (("-", pd.eRf), ("+", pd.fRe)):
        for k, el in enumerate(P.elements(comp)):
            items.append((f"p{side}{k}", el, "component-basis"))
            sides.append(side)
    gens = generator_set("assoc-pair", items, sides)
    return lemma3_jordan_check(P, gens, seed=opts.seed)


# -- theorem1 ---------------------------------------------------------------

# Peirce triples reported as ``transfer_identity_checks`` (100 per side),
# each covered by the proof in ``theorem1_certify``'s docstring, none run.
TRANSFER_IDENTITY_TRIPLES = 200


def theorem1_certify(P, e=None, seed=0, cap=6, budget=None):
    """Pipeline certificate: [R,R] is finitely generated.

    Bounded sandwich words generate the off-diagonal associative pair; the
    distinct-index monomials over them generate its Jordan pair; the same
    monomials Lie-generate [R,R]. The bracket transfer identity
    {a,b,c} = [[a,b],c] holds on every Peirce triple, a, c from one Peirce
    component and b from the other, so it is proved rather than sampled.

    Expanding both sides, {a,b,c} - [[a,b],c] = b(ac) + (ca)b, and ac and
    ca are zero: with f = 1 - e (in the hull when R has no unit), a, c in
    eRf give ac = ea(fe)cf and ca = ec(fe)af, and fe = e - e^2 = 0 once the
    gate has passed and e^2 = e; symmetrically in fRe, where ef = 0. The
    report's ``transfer_identity_checks`` is ``TRANSFER_IDENTITY_TRIPLES``:
    a count of Peirce triples that the proof covers, not of checks run.
    """
    require_axioms(P)
    e = _resolve_idempotent(P, e)
    hyp = hypotheses_for(P, e, ("e^2=e", "R=alg<gens>", "ReR=R", "R(1-e)R=R"))
    if not all(hyp.values()):
        return _hypothesis_certificate(P, "theorem1", hyp, seed=seed)

    pair_gens, info = _lemma2_impl(P, _witness_search(P, e, None, cap, budget))
    comp_minus, comp_plus = info["components"]

    # eRf.fRe.eRf lies in eRf (and symmetrically), so every monomial lies in
    # its side's component.
    monomials = _distinct_index_monomials(
        P, pair_gens, (comp_minus, comp_plus), budget
    )
    jordan_trace = _pair_closure(
        P, monomials, "jordan-pair", (comp_minus, comp_plus), closed=True
    )
    jordan_ok = jordan_trace.final == (comp_minus, comp_plus)

    lie_gens = generator_set(
        "lie", [(lab, el, prov) for lab, el, prov in monomials.elements]
    )
    target = derived_subspace(P)
    trace = lie_closure(P, lie_gens, target)
    verdict = PASS if jordan_ok and trace.final == target else FAIL
    return Certificate(
        claim="theorem1",
        verdict=verdict,
        presentation=P,
        generators=lie_gens,
        trace=trace,
        target=target,
        detail={
            "hypotheses": hyp,
            "d": info["d"],
            "word_bound": info["word_bound"],
            "pair_generator_count": len(pair_gens.elements),
            "jordan_generator_count": len(monomials.elements),
            "jordan_generation_ok": jordan_ok,
            "pair_dims": (comp_minus.rank, comp_plus.rank),
            "transfer_identity_checks": TRANSFER_IDENTITY_TRIPLES,
            "commutator_span_rank": target.rank,
            "derived_rank": target.rank,
        },
        seed=seed,
    )


# -- lemma4 ---------------------------------------------------------------

_THEOREM2_HYPS = ("involution", "e^2=e", "ee*=0", "e*e=0", "ReR=R", "R(1-e-e*)R=R")
_THEOREM2_FULL_HYPS = _THEOREM2_HYPS + ("R=alg<gens>",)


def _graded_split(P, e, grading=None):
    """(grading, kh_split(P, grading)) for the idempotent e, computed once
    per presentation and idempotent and memoised on P: z_grading is a
    function of (P, e). K and H do not depend on the grading, so the split
    also serves as P's ungraded one (``_skew_part``)."""
    key = ("kh_split", e.support)
    if key not in P._memo:
        grading = grading if grading is not None else z_grading(P, e)
        P._memo[key] = grading, kh_split(P, grading)
        P._memo.setdefault(("kh_split", None), P._memo[key])
    return P._memo[key]


def _skew_part(P):
    """The skew part K of P, from a memoised split when there is one."""
    key = ("kh_split", None)
    if key not in P._memo:
        P._memo[key] = None, kh_split(P)
    return P._memo[key][1].K


def _squares_family(P, K1):
    """K1-basis vectors and their pairwise sums; spans {k^2 : k in K1}.

    Polarization: (k+k')^2 - k^2 - k'^2 = 2 k o k', so squares of the family
    span the same space as all squares of K1 (characteristic is not 2).
    """
    rows = P.elements(K1)
    family = list(rows)
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            family.append(P.add(rows[i], rows[j]))
    return family


def lemma4_check(P, grading=None, e=None):
    """K_{±2} = [K_{±1}, K_{±1}] and H_{±2} = span{k^2 : k in K_{±1}}."""
    require_axioms(P)
    e = grading.e if grading is not None else _resolve_idempotent(P, e)
    hyp = hypotheses_for(P, e, _THEOREM2_HYPS)
    if not all(hyp.values()):
        return _hypothesis_certificate(P, "lemma4", hyp)
    grading, kh = _graded_split(P, e, grading)
    checks = {}
    ok = True
    for sigma in (1, -1):
        K1, _ = kh.graded[sigma]
        K2, H2 = kh.graded[2 * sigma]
        bracket_span = _bracket_span(P, P.elements(K1))
        sq = SpanBuilder(P.field, P.dim)
        for k in _squares_family(P, K1):
            sq.add(P.mul(k, k))
        square_span = sq.subspace()
        checks[f"K_{2 * sigma}=[K_{sigma},K_{sigma}]"] = bracket_span == K2
        checks[f"H_{2 * sigma}=span(k^2)"] = square_span == H2
        ok = ok and bracket_span == K2 and square_span == H2
    return Certificate(
        claim="lemma4",
        verdict=PASS if ok else FAIL,
        presentation=P,
        detail={
            "hypotheses": hyp,
            "equalities": checks,
            "graded_dims": {
                str(i): (kh.graded[i][0].rank, kh.graded[i][1].rank)
                for i in range(-2, 3)
            },
        },
    )


# -- lemma5 ---------------------------------------------------------------


def _brace_set(P, mid_name, mid, witnesses, lower, ee):
    """Braces {s} with s = x - x(e + e*) and x = mid * w, over the
    decomposition right-words w (None is the empty word)."""
    out = []
    seen = SpanBuilder(P.field, P.dim)
    for w_label, w in witnesses:
        x = mid if w is None else P.mul(mid, lower(w))
        br = P.brace(P.sub(x, P.mul(x, ee)))
        if seen.add(br):
            out.append((f"{{{mid_name}*{w_label or '1'}*s}}", br, f"witness:{w_label or '1'}"))
    return out


def _lemma5_impl(P, grading, search):
    """``lemma5_sets`` over a ``_witness_search`` on the grading's e and e*."""
    wit_minus = []
    wit_plus = []
    for name, el in search.gens:
        _, terms_e = search.wit_e.decompose(el, f"{name} over e")
        _, terms_s = search.wit_f.decompose(el, f"{name} over e*")
        wit_minus.extend((vl, v) for _, _, _, vl, v in terms_e)
        wit_plus.extend((vl, v) for _, _, _, vl, v in terms_s)

    ee = P.add(grading.e, grading.estar)
    minus_items = _brace_set(P, "e", grading.e, wit_minus, search.lower, ee)
    plus_items = _brace_set(P, "e*", grading.estar, wit_plus, search.lower, ee)

    spans_ok = True
    # R_{2s} times M_{-s} on both sides must span R_s, for s = 1, -1.
    for items, sign in ((minus_items, 1), (plus_items, -1)):
        span = SpanBuilder(P.field, P.dim)
        for _, m, _ in items:
            for r in P.elements(grading.parts[2 * sign]):
                span.add(P.mul(m, r))
                span.add(P.mul(r, m))
        spans_ok = spans_ok and span.subspace() == grading.parts[sign]

    info = {
        "spans_ok": spans_ok,
        "sizes": (len(minus_items), len(plus_items)),
        "odd_dims": (grading.parts[-1].rank, grading.parts[1].rank),
    }
    return generator_set("lie", minus_items), generator_set("lie", plus_items), info


def lemma5_sets(P, grading=None, e=None, cap=6, budget=None):
    """Finite skew sets M_{-1}, M_1 with R_1 = M_{-1}R_2 + R_2M_{-1} and the
    mirror equality, built from braces over decomposition witnesses.

    Returns (M_minus, M_plus, info); info["spans_ok"] records whether the
    two spanning equalities hold.
    """
    e = grading.e if grading is not None else _resolve_idempotent(P, e)
    grading = grading if grading is not None else z_grading(P, e)
    return _lemma5_impl(P, grading, _witness_search(P, e, grading.estar, cap, budget))


def lemma5_certificate(P, grading=None, e=None, cap=6, budget=None):
    """Certificate form of the odd-component spanning equalities."""
    require_axioms(P)
    e = grading.e if grading is not None else _resolve_idempotent(P, e)
    hyp = hypotheses_for(P, e, ("involution", "e^2=e", "ee*=0", "e*e=0", "ReR=R"))
    if not all(hyp.values()):
        return _hypothesis_certificate(P, "lemma5", hyp)
    M_minus, M_plus, info = lemma5_sets(P, grading, e, cap=cap, budget=budget)
    merged = generator_set(
        "lie", tuple(M_minus.elements) + tuple(M_plus.elements)
    )
    return Certificate(
        claim="lemma5",
        verdict=PASS if info["spans_ok"] else FAIL,
        presentation=P,
        generators=merged,
        detail={
            "hypotheses": hyp,
            "sizes": info["sizes"],
            "odd_component_dims": info["odd_dims"],
        },
    )


# -- lemma6 ---------------------------------------------------------------


def lemma6_check(P, grading=None, e=None):
    """K_{±1} and K_{±2} lie inside [K,K], and K_{-1} + K_1 Lie-generates it."""
    require_axioms(P)
    e = grading.e if grading is not None else _resolve_idempotent(P, e)
    hyp = hypotheses_for(P, e, _THEOREM2_HYPS)
    if not all(hyp.values()):
        return _hypothesis_certificate(P, "lemma6", hyp)
    grading, kh = _graded_split(P, e, grading)
    target = derived_K_subspace(P)
    membership_ok = all(target.contains_subspace(kh.graded[i][0]) for i in (-2, -1, 1, 2))
    items = []
    for i in (-1, 1):
        for k, el in enumerate(P.elements(kh.graded[i][0])):
            items.append((f"K_{i}:{k}", el, f"K_{i}-basis"))
    gens = generator_set("lie", items)
    # [K, K] is bracket-closed (derived_K_subspace): the grading was built
    # behind the gate.
    trace = lie_closure(P, gens, target)
    verdict = PASS if membership_ok and trace.final == target else FAIL
    return Certificate(
        claim="lemma6",
        verdict=verdict,
        presentation=P,
        generators=gens,
        trace=trace,
        target=target,
        detail={
            "hypotheses": hyp,
            "membership_ok": membership_ok,
            "derived_K_rank": target.rank,
        },
    )


# -- theorem2 ---------------------------------------------------------------


def _alternating_products(P, outer, inner, r_max, budget, ceiling):
    """Span-representative alternating products a b a ... a with <= r_max
    outer slots.

    Each level keeps only products that grew the span so far; every later
    use of these products is linear in the product, so replacing a level by
    span representatives leaves all generated subspaces unchanged. Every
    product lies in a corner component of rank ``ceiling``, so the
    enumeration stops once the span has that rank.
    """
    reps = []
    seen = SpanBuilder(P.field, P.dim)
    count = 0
    level = []
    for lab, el in outer:
        count += 1
        if count > budget:
            raise BudgetExceededError(count, budget)
        if seen.add(el):
            reps.append((lab, el))
            level.append((lab, el))
            if seen.rank == ceiling:
                return reps
    for _ in range(2, r_max + 1):
        nxt = []
        for lab, w in level:
            for blab, b in inner:
                wb = P.mul(w, b)
                if P.is_zero(wb):
                    continue
                for alab, a in outer:
                    count += 1
                    if count > budget:
                        raise BudgetExceededError(count, budget)
                    wba = P.mul(wb, a)
                    if seen.add(wba):
                        entry = (f"{lab}*{blab}*{alab}", wba)
                        reps.append(entry)
                        nxt.append(entry)
                        if seen.rank == ceiling:
                            return reps
        level = nxt
        if not level:
            break
    return reps


def theorem2_certify(P, e=None, seed=0, cap=6, budget=None):
    """Pipeline certificate: [K,K] is finitely generated.

    Assembles the finite union set: the odd skew sets M_{±1}, brackets of
    braces of bounded alternating corner products, the circle-bracket
    elements coming from the squares decomposition of symmetrized products,
    and braces of M against the corner products; then compares the Lie
    closure of the union with [K,K].
    """
    require_axioms(P)
    e = _resolve_idempotent(P, e)
    hyp = hypotheses_for(P, e, _THEOREM2_FULL_HYPS)
    if not all(hyp.values()):
        return _hypothesis_certificate(P, "theorem2", hyp, seed=seed)
    budget_n = word_budget(budget)

    grading, kh = _graded_split(P, e)
    estar = grading.estar

    # The gate proves the grading multiplicative (``z_grading``).
    stage = {"grading_dims": grading.dims(), "grading_multiplicative": True}

    l4 = lemma4_check(P, grading)
    stage["lemma4"] = l4.verdict
    if l4.verdict != PASS:
        return Certificate(
            "theorem2", FAIL, P, detail={"hypotheses": hyp, "stages": stage,
                                         "failed_stage": "lemma4"}, seed=seed,
        )

    search = _witness_search(P, e, estar, cap, budget)
    M_minus, M_plus, l5info = _lemma5_impl(P, grading, search)
    stage["lemma5_spans_ok"] = l5info["spans_ok"]
    if not l5info["spans_ok"]:
        return Certificate(
            "theorem2", FAIL, P, detail={"hypotheses": hyp, "stages": stage,
                                         "failed_stage": "lemma5"}, seed=seed,
        )

    # Generators of the corner pair (R_{-2}, R_2), split into skew/symmetric
    # parts.
    pair_gens, pair_info = _lemma2_impl(P, search)
    half = P.field.inv(P.field.coerce(2))
    split_sides = {"-": [], "+": []}
    for (label, el, _), side in zip(pair_gens.elements, pair_gens.sides):
        k_part = P.scale(half, P.brace(el))
        h_part = P.sub(el, k_part)
        for part, tag in ((k_part, "K"), (h_part, "H")):
            if not P.is_zero(part):
                split_sides[side].append((f"{tag}({label})", part))
    for side in ("-", "+"):
        seen = SpanBuilder(P.field, P.dim)
        split_sides[side] = [
            (lab, el) for lab, el in split_sides[side] if seen.add(el)
        ]
    n = max(len(split_sides["-"]), len(split_sides["+"]), 1)
    stage["pair_generator_count"] = n

    # P2 lies in the + corner component and Pm2 in the - one.
    corner_minus, corner_plus = pair_info["components"]
    P2 = _alternating_products(
        P, split_sides["+"], split_sides["-"], n + 2, budget_n, corner_plus.rank
    )
    Pm2 = _alternating_products(
        P, split_sides["-"], split_sides["+"], n + 2, budget_n, corner_minus.rank
    )
    stage["corner_product_counts"] = (len(Pm2), len(P2))

    union = []

    def push(label, el, prov):
        if not P.is_zero(el):
            union.append((f"u{len(union)}:{label}", el, prov))

    for lab, el, prov in M_minus.elements:
        push(lab, el, "M_-1")
    for lab, el, prov in M_plus.elements:
        push(lab, el, "M_1")

    braces = []
    seen_braces = SpanBuilder(P.field, P.dim)
    for lab, p in Pm2 + P2:
        br = P.brace(p)
        if seen_braces.add(br):
            braces.append((lab, br))
    for i, (lab1, b1) in enumerate(braces):
        for lab2, b2 in braces[i + 1:]:
            push(f"[{{{lab1}}},{{{lab2}}}]", P.commutator(b1, b2), "brace-bracket")

    # Squares decomposition p + p* = sum alpha k^2 with k in K_{±1}.
    solvers = {}
    families = {}
    for sigma in (1, -1):
        fam = _squares_family(P, kh.graded[sigma][0])
        families[sigma] = fam
        sol = CombinationSolver(P.field, P.dim)
        for k in fam:
            sol.add(P.mul(k, k))
        solvers[sigma] = sol
    sym_parts = []  # (label, h = p + p*, witness ks)
    for source, sigma in ((P2, 1), (Pm2, -1)):
        for lab, p in source:
            h = P.add(p, P.involve(p))
            if P.is_zero(h):
                continue
            sol = solvers[sigma].solve(h)
            ks = [families[sigma][i] for i in sorted(sol)] if sol else []
            sym_parts.append((lab, h, ks))
    for lab_q, _, ks in sym_parts:
        for k in ks:
            for lab_p, h_p, _ in sym_parts:
                push(
                    f"[({lab_p}+*)ok({lab_q}),k]",
                    P.commutator(P.circle(h_p, k), k),
                    "square-circle",
                )

    for lab_m, m, _ in M_minus.elements:
        for lab_p, p in P2:
            push(f"{{{lab_m}*{lab_p}}}", P.brace(P.mul(m, p)), "M_-1*P_2")
    for lab_m, m, _ in M_plus.elements:
        for lab_p, p in Pm2:
            push(f"{{{lab_m}*{lab_p}}}", P.brace(P.mul(m, p)), "M_1*P_-2")

    # Span-deduplicate the union; Lie closure only depends on the span.
    seen_union = SpanBuilder(P.field, P.dim)
    union = [(lab, el, prov) for lab, el, prov in union if seen_union.add(el)]
    gens = generator_set("lie", union)
    target = derived_K_subspace(P)
    trace = lie_closure(P, gens, target)
    stage["union_size"] = len(union)
    return Certificate(
        claim="theorem2",
        verdict=_verdict(trace.final, target),
        presentation=P,
        generators=gens,
        trace=trace,
        target=target,
        detail={
            "hypotheses": hyp,
            "stages": stage,
            "derived_K_rank": target.rank,
            "d": pair_info["d"],
        },
        seed=seed,
    )


# -- lemma7 ---------------------------------------------------------------


def lemma7_reduction_check(P, grading=None, e=None, n_bound=2, trials=12, seed=0):
    """Alternating corner products with a repeated middle factor reduce.

    For random a's in K_2 ∪ H_2 and b's in K_{-2} ∪ H_{-2} with fewer than n
    distinct b's, the product a1 b1 ... bn a_{n+1} must lie in the span of
    shorter alternating products times (K_{-2}K_2 + H_{-2}H_2).
    """
    require_axioms(P)
    if n_bound < 2:
        raise ValueError("n_bound must be >= 2")
    e = grading.e if grading is not None else _resolve_idempotent(P, e)
    hyp = hypotheses_for(P, e, ("involution", "e^2=e", "ee*=0", "e*e=0"))
    if not all(hyp.values()):
        return _hypothesis_certificate(P, "lemma7", hyp, seed=seed)
    grading, kh = _graded_split(P, e, grading)
    K2, H2 = kh.graded[2]
    Km2, Hm2 = kh.graded[-2]

    D = SpanBuilder(P.field, P.dim)
    for left, right in ((Km2, K2), (Hm2, H2)):
        right_rows = P.elements(right)
        for u in P.elements(left):
            for v in right_rows:
                D.add(P.mul(u, v))
    D_rows = P.elements(D.subspace())

    rng = random.Random(seed)
    n = n_bound

    def sample_from(parts):
        pools = [s for s in parts if s.rank > 0]
        if not pools:
            return P.zero()
        return random_element(P, rng, rng.choice(pools))

    def rhs_span(a_pool, b_pool):
        span = SpanBuilder(P.field, P.dim)
        words = [[a] for a in a_pool]
        for r in range(0, n):
            if r > 0:
                words = [w + [b, a] for w in words for b in b_pool for a in a_pool]
            for w in words:
                el = w[0]
                for x in w[1:]:
                    el = P.mul(el, x)
                for d in D_rows:
                    span.add(P.mul(el, d))
        return span

    checked = 0
    failures = []
    for t in range(trials):
        a_pool = [sample_from((K2, H2)) for _ in range(n + 1)]
        distinct = [sample_from((Km2, Hm2)) for _ in range(n - 1)]
        b_pool = list(distinct)
        b_pool.insert(rng.randrange(n), distinct[rng.randrange(len(distinct))])
        w = a_pool[0]
        for i in range(n):
            w = P.mul(P.mul(w, b_pool[i]), a_pool[i + 1])
        checked += 1
        if P.is_zero(w):
            continue  # zero lies in every span
        span = rhs_span(a_pool, b_pool)
        if not span.contains(w):
            failures.append(t)
    verdict = PASS if not failures else FAIL
    return Certificate(
        claim="lemma7",
        verdict=verdict,
        presentation=P,
        detail={
            "hypotheses": hyp,
            "n": n,
            "trials": checked,
            "failed_trials": failures,
            "corner_dims": {
                "K_-2": Km2.rank, "H_-2": Hm2.rank, "K_2": K2.rank, "H_2": H2.rank,
            },
        },
        seed=seed,
    )


# -- simple/semiprime instance checks ----------------------------------------


def lemma8_check(P, e=None):
    """For a desk-simple involutive algebra with e + e* = 1, the corner skew
    parts K_{-2} + K_2 generate R as an associative algebra."""
    require_axioms(P)
    e = _resolve_idempotent(P, e)
    hyp = hypotheses_for(
        P, e, ("involution", "e^2=e", "ee*=0", "e*e=0", "e+e*=1", "simple(desk-scale)")
    )
    if not all(hyp.values()):
        return _hypothesis_certificate(P, "lemma8", hyp)
    grading, kh = _graded_split(P, e)
    items = []
    for i in (-2, 2):
        for k, el in enumerate(P.elements(kh.graded[i][0])):
            items.append((f"K_{i}:{k}", el, f"K_{i}-basis"))
    gens = generator_set("associative", items)
    trace = assoc_closure(P, gens)
    target = P.span_of([P.basis_element(i) for i in range(P.dim)])
    return Certificate(
        claim="lemma8",
        verdict=_verdict(trace.final, target),
        presentation=P,
        generators=gens,
        trace=trace,
        target=target,
        detail={"hypotheses": hyp, "corner_skew_dims": (kh.graded[-2][0].rank, kh.graded[2][0].rank)},
    )


def lemma9_check(P, samples=20, seed=0):
    """In a desk-semiprime involutive algebra, k K k = 0 forces k = 0.

    Checked contrapositively: k K k is nonzero for every nonzero skew basis
    vector and for sampled random nonzero skew elements.
    """
    hyp = hypotheses_for(P, None, ("involution",))
    if not hyp["involution"]:
        return _hypothesis_certificate(P, "lemma9", hyp, seed=seed)
    hyp.update(hypotheses_for(P, None, ("semiprime(desk-scale)",)))
    witness = hyp.pop("square-zero-ideal-witness", None)
    K = _skew_part(P)
    K_rows = P.elements(K)
    if witness is not None:
        # Illustrate the failure: a nonzero skew element annihilated by K.
        demo = None
        for k in K_rows:
            if not P.is_zero(k) and all(
                P.is_zero(P.triple(k, x, k)) for x in K_rows
            ):
                demo = P.render(k)
                break
        extra = {
            "square-zero-ideal-witness": witness,
            "skew-annihilator-witness": demo,
        }
        return _hypothesis_certificate(P, "lemma9", hyp, seed=seed, extra=extra)

    rng = random.Random(seed)

    def k_K_k_nonzero(k):
        return any(not P.is_zero(P.triple(k, x, k)) for x in K_rows)

    failures = []
    for i, k in enumerate(K_rows):
        if not P.is_zero(k) and not k_K_k_nonzero(k):
            failures.append(f"basis:{i}")
    checked = len(K_rows)
    if K.rank > 0:
        for t in range(samples):
            k = random_element(P, rng, K, nonzero=True)
            checked += 1
            if not k_K_k_nonzero(k):
                failures.append(f"sample:{t}")
    return Certificate(
        claim="lemma9",
        verdict=PASS if not failures else FAIL,
        presentation=P,
        detail={
            "hypotheses": hyp,
            "K_rank": K.rank,
            "checked": checked,
            "failures": failures,
        },
        seed=seed,
    )


# -- stagnation probe ---------------------------------------------------------


def stagnation_probe(P, target, trials=50, max_gen=5, seed=0):
    """Randomized refutation: bounded generator sets drawn inside ``target``
    never Lie-generate it.

    The target must be bracket-closed. Reports per-trial closure ranks and
    whether every trial stagnated strictly below the target rank; also
    records whether the target is bracket-abelian, in which case any g
    generators span at most rank g.
    """
    brackets = _bracket_span(P, P.elements(target))
    if not target.contains_subspace(brackets):
        raise ValueError("stagnation target is not bracket-closed")
    rng = random.Random(seed)
    results = []
    reached = 0
    max_rank = 0
    for t in range(trials):
        g = rng.randint(1, max_gen)
        items = []
        for i in range(g):
            el = random_element(P, rng, target, nonzero=target.rank > 0)
            items.append((f"t{t}g{i}", el, "random"))
        trace = lie_closure(P, generator_set("lie", items), target)
        rank = trace.final_rank
        max_rank = max(max_rank, rank)
        hit = rank == target.rank
        reached += hit
        results.append({"trial": t, "size": g, "rank": rank, "reached": hit})
    verdict = PASS if reached == 0 else FAIL
    return Certificate(
        claim="stagnation",
        verdict=verdict,
        presentation=P,
        target=target,
        detail={
            "trials": trials,
            "max_gen": max_gen,
            "target_rank": target.rank,
            "max_rank_achieved": max_rank,
            "reached_target_count": reached,
            "bracket_abelian": brackets.rank == 0,
            "results": results,
        },
        seed=seed,
    )


def _stagnation_claim(P, opts):
    """The stagnation probe on [K, K] when P has an involution, else on [R, R]."""
    target = derived_K_subspace(P) if P.has_involution else derived_subspace(P)
    return stagnation_probe(
        P, target, trials=opts.trials, max_gen=opts.max_gen, seed=opts.seed
    )


# -- claim registry -------------------------------------------------------------

# Claim name -> runner(P, opts); opts carries seed, cap, trials and max_gen.
CLAIMS = {
    "lemma1": lambda P, opts: lemma1_certificate(P),
    "lemma2": lambda P, opts: lemma2_certificate(P, cap=opts.cap),
    "lemma3": _lemma3_claim,
    "lemma4": lambda P, opts: lemma4_check(P),
    "lemma5": lambda P, opts: lemma5_certificate(P, cap=opts.cap),
    "lemma6": lambda P, opts: lemma6_check(P),
    "lemma7": lambda P, opts: lemma7_reduction_check(
        P, trials=min(opts.trials, 20), seed=opts.seed
    ),
    "thm1": lambda P, opts: theorem1_certify(P, seed=opts.seed, cap=opts.cap),
    "thm2": lambda P, opts: theorem2_certify(P, seed=opts.seed, cap=opts.cap),
    "lemma8": lambda P, opts: lemma8_check(P),
    "lemma9": lambda P, opts: lemma9_check(
        P, samples=min(opts.trials, 50), seed=opts.seed
    ),
    "stagnation": _stagnation_claim,
}


def certify(P, claim, opts):
    """Run a registered claim behind the axiom gate."""
    require_axioms(P)
    return CLAIMS[claim](P, opts)
