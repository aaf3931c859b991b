"""Structure-constant presentations of associative algebras with involution.

An :class:`AlgebraPresentation` fixes a basis b_0..b_{dim-1}, a sparse
multiplication table b_i * b_j = sum_k c_ijk b_k, an optional involution
given as a linear map on basis elements, named idempotents, named algebra
generators, and an optional unit. An :class:`Element` is an exact vector
over that basis, held as its integer support: its nonzero coordinates as
ints over a common denominator, made canonical by dividing out their gcd.
Sums, scalings, products and the involution work on supports and the
presentation's integer tables, sum into a dict keyed by basis index, so
they cost their operands' supports and not dim, and hand the canonical
support of the result to the new element; its dense coordinates,
Fractions over Q and residues over F_p, are built only when something
reads them. A product the table makes zero costs no division: the reach
of a (``_reach``), the indices j with b_i * b_j != 0 for some i in its
support, tells which products a * b can be nonzero, and callers skip the
others.

The presentation is treated as immutable once built; every operation is a
pure function of its inputs. The axiom checks and the named generation
hypotheses (``HYPOTHESES``) are therefore memoised on the presentation, and
the integer tables are derived on first use.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import compress
from math import lcm

from .closure import _saturate_linear, assoc_closure, generator_set
from .errors import (
    DimensionError,
    FormatError,
    MissingInvolutionError,
    UnitalityError,
)
from .linalg import echelonize


def _common_denominator(scalars):
    """The lcm of the denominators; 1 over F_p, whose scalars are ints."""
    return lcm(*(c.denominator for c in scalars))


def _over(d, entries):
    """(index, scalar) pairs as (index, int) pairs scaled by the common
    denominator d of their scalars."""
    return tuple((k, c.numerator * (d // c.denominator)) for k, c in entries)


# The widest slot, in bits, at which ``mul`` sums on packed rows. A packed
# multiply-add costs about dim times the limbs of the small ones it replaces:
# on dense M3 and M4 flip over Q the packed product is 1.5-7x faster than the
# loop up to 256-bit slots, about as fast or slower at 512 and about half as
# fast at 1024.
_PACKED_WIDTH_MAX = 256


def _slot_width(bound):
    """The least power of two s with bound < 2^s."""
    return 1 << (bound.bit_length() - 1).bit_length()


class Element:
    """Exact vector over a presentation's basis.

    An element is its support, ``(d, ((i, n_i), ...))``: its nonzero
    coordinates c_i = n_i / d as ints over the lcm d of their denominators
    (d = 1 over F_p), in index order. The support is canonical, so elements
    compare and hash by it. Products, sums and the involution hand theirs
    over (``AlgebraPresentation._from_ints``), and ``coords``, the dense
    tuple of field scalars, is built on first read. ``Element(coords)``
    builds the support on first use instead.
    """

    __slots__ = ("_coords", "_support", "_dim", "_field")

    def __init__(self, coords):
        self._coords = tuple(coords)
        self._support = None
        self._dim = len(self._coords)
        self._field = None

    @classmethod
    def _of(cls, field, dim, support):
        """The element of the field's dim-space with the given support."""
        el = cls.__new__(cls)
        el._coords = None
        el._support = support
        el._dim = dim
        el._field = field
        return el

    def __len__(self):
        return self._dim

    @property
    def coords(self):
        """The dense tuple of field scalars, built on first read."""
        if self._coords is None:
            self._coords = self._field.to_coords(self._support, self._dim)
        return self._coords

    @property
    def support(self):
        """The canonical support, built from ``coords`` on first use."""
        if self._support is None:
            coords = self._coords
            nonzero = [(i, coords[i]) for i in compress(range(len(coords)), coords)]
            d = _common_denominator(c for _, c in nonzero)
            self._support = (d, _over(d, nonzero))
        return self._support

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self._dim == other._dim and self.support == other.support

    def __hash__(self):
        return hash((self._dim, self.support))

    def __repr__(self):
        return f"Element(coords={self.coords!r})"


class AlgebraPresentation:
    def __init__(
        self,
        name,
        field,
        basis_labels,
        mul,
        involution=None,
        idempotents=None,
        generators=None,
        unital=False,
        unit=None,
    ):
        self.name = str(name)
        self.field = field
        self.basis_labels = tuple(str(s) for s in basis_labels)
        self.dim = len(self.basis_labels)
        if self.dim < 1:
            raise FormatError("presentation needs at least one basis element")
        if len(set(self.basis_labels)) != self.dim:
            raise FormatError("basis labels must be unique")
        self._mul = self._normalize_mul(mul)
        self._star = self._normalize_involution(involution)
        self.idempotents = {
            str(k): self.element(v) for k, v in dict(idempotents or {}).items()
        }
        self.generators = {
            str(k): self.element(v) for k, v in dict(generators or {}).items()
        }
        self.unital = bool(unital)
        if self.unital:
            if unit is None:
                raise FormatError("unital presentation must declare its unit")
            self.unit = self.element(unit)
        else:
            if unit is not None:
                raise FormatError("non-unital presentation must not declare a unit")
            self.unit = None
        self._basis_cache = None
        self._memo = {}
        self._packed = {}
        self._half = field.inv(field.coerce(2))

    # -- construction helpers -------------------------------------------

    def _checked_entries(self, rows, kind, shape):
        """(indices, c) for each row (*indices, scalar) of a ``kind`` table
        whose scalar is nonzero, checked in order: the row's arity (its
        ``shape``), each index in range, no repeated indices; the scalar
        is parsed or coerced once."""
        F = self.field
        dim = self.dim
        arity = shape.count(",") + 1
        seen = set()
        for row in rows:
            if len(row) != arity:
                raise FormatError(f"{kind} entry must be [{shape}]: {row!r}")
            idx, c = tuple(row[:-1]), row[-1]
            for x in idx:
                if not isinstance(x, int) or not 0 <= x < dim:
                    raise FormatError(f"{kind} index out of range: {row!r}")
            if idx in seen:
                raise FormatError(f"duplicate {kind} entry for ({','.join(map(str, idx))})")
            seen.add(idx)
            c = F.parse(c) if isinstance(c, str) else F.coerce(c)
            if c:
                yield idx, c

    def _normalize_mul(self, mul):
        if hasattr(mul, "items"):
            rows = [(i, j, k, c) for (i, j), entries in mul.items() for k, c in entries]
        else:
            rows = [tuple(row) for row in mul]
        table = {}
        for (i, j, k), c in self._checked_entries(rows, "mul", "i, j, k, scalar"):
            table.setdefault((i, j), []).append((k, c))
        return {key: tuple(sorted(entries)) for key, entries in table.items()}

    def _normalize_involution(self, involution):
        if involution is None:
            return None
        rows = [[] for _ in range(self.dim)]
        for (i, j), c in self._checked_entries(involution, "involution", "i, j, scalar"):
            rows[i].append((j, c))
        return tuple(tuple(sorted(r)) for r in rows)

    # -- element helpers -------------------------------------------------

    def element(self, coords):
        """Coerce a sequence of scalars / ints / scalar strings to an Element,
        built from its support: each scalar is converted once, and the
        dense coordinates wait for their first read."""
        if isinstance(coords, Element):
            coords = coords.coords
        coords = list(coords)
        if len(coords) != self.dim:
            raise DimensionError(
                f"element has {len(coords)} coords, expected {self.dim}"
            )
        F = self.field
        zero = F.zero  # what ``parse`` returns for "0"
        nonzero = []
        for i, x in enumerate(coords):
            if x is zero:
                continue
            c = F.parse(x) if isinstance(x, str) else F.coerce(x)
            if c:
                nonzero.append((i, c))
        d = _common_denominator(c for _, c in nonzero)
        return Element._of(F, self.dim, (d, _over(d, nonzero)))

    def _from_ints(self, nums, d):
        """The element with coordinates n / d for the ints n in the dict
        nums {index: n}, built from its canonical support."""
        return Element._of(self.field, self.dim, self.field.from_ints(nums, d))

    def elements(self, sub):
        """The canonical basis of the subspace sub as Elements. An integer
        row is primitive, so the row over its pivot entry, its first entry,
        is already a canonical support."""
        F, dim = self.field, self.dim
        return [Element._of(F, dim, (row[0][1], row)) for row in sub.rows]

    def zero(self):
        return Element._of(self.field, self.dim, (1, ()))

    def basis_element(self, i):
        if self._basis_cache is None:
            self._basis_cache = [
                Element._of(self.field, self.dim, (1, ((k, 1),))) for k in range(self.dim)
            ]
        return self._basis_cache[i]

    def is_zero(self, a):
        return not a.support[1]

    def equal(self, a, b):
        return a == b

    def _combine(self, a, b, sign):
        """a + sign * b for sign = 1 or -1, on the integer supports over the
        lcm of their denominators, converted once. A zero b gives a, and a
        zero a with sign 1 gives b."""
        da, sa = a.support
        db, sb = b.support
        if not sb:
            return a
        if not sa and sign == 1:
            return b
        d = lcm(da, db)
        fa, fb = d // da, sign * (d // db)
        acc = {i: n * fa for i, n in sa}
        for i, n in sb:
            acc[i] = acc.get(i, 0) + n * fb
        return self._from_ints(acc, d)

    def add(self, a, b):
        return self._combine(a, b, 1)

    def sub(self, a, b):
        return self._combine(a, b, -1)

    def neg(self, a):
        return self.scale(-1, a)

    def scale(self, c, a):
        c = self.field.coerce(c)
        d, sa = a.support
        n = c.numerator
        return self._from_ints({i: x * n for i, x in sa}, d * c.denominator)

    # -- products ---------------------------------------------------------

    @functools.cached_property
    def _int_mul(self):
        """(D, rows): the structure constants as ints over their common
        denominator D, rows[i][j] = ((k, c_ijk * D), ...)."""
        D = _common_denominator(
            c for entries in self._mul.values() for _, c in entries
        )
        rows = [{} for _ in range(self.dim)]
        for (i, j), entries in self._mul.items():
            rows[i][j] = _over(D, entries)
        return D, rows

    def _reach(self, a):
        """The indices j with b_i * b_j != 0 for some i in the support of a:
        a * b is zero whenever the support of b misses them."""
        _, rows = self._int_mul
        return set().union(*(rows[i] for i, _ in a.support[1]))

    @functools.cached_property
    def _int_star(self):
        """(D, rows): the involution as ints over their common denominator
        D, rows[i] = ((j, s_ij * D), ...)."""
        D = _common_denominator(c for row in self._star for _, c in row)
        return D, [_over(D, row) for row in self._star]

    @functools.cached_property
    def _table_bounds(self):
        """(w, T): the most terms of any b_i * b_j and the largest |c| of
        the integer structure constants over D."""
        _, rows = self._int_mul
        entries = [e for row in rows for e in row.values()]
        top = max((abs(c) for e in entries for _, c in e), default=0)
        return max(map(len, entries), default=0), top

    def _packed_rows(self, s):
        """rows[i][j] = sum_k c_ijk * D * 2^(s k): the integer row of
        b_i * b_j packed into s-bit slots, built once per width s."""
        packed = self._packed.get(s)
        if packed is None:
            _, rows = self._int_mul
            packed = self._packed[s] = [
                {j: _pack(e, s) for j, e in row.items()} for row in rows
            ]
        return packed

    def _packed_product(self, sa, sb, s):
        """The nonzero integer coordinates {k: sum_ij x_i y_j c_ijk} of a * b
        for the supports sa and sb, as sum_i x_i sum_j y_j P_ij on the
        packed rows of width s, unpacked into balanced digits."""
        packed = self._packed_rows(s)
        total = 0
        for i, x in sa:
            row = packed[i]
            if not row:
                continue
            inner = 0
            for j, y in sb:
                p = row.get(j)
                if p:
                    inner += y * p
            total += x * inner
        return _balanced_digits(total, s)

    def mul(self, a, b):
        """Bilinear extension of the structure constants: integer products
        over the supports of a and b, summed into a dict keyed by output
        index, one division per nonzero coordinate. A product whose terms
        all vanish is the zero element, with no division.

        When some b_i * b_j has more than one term, the products are summed
        on packed rows (``_packed_product``): one big-int multiply-add per
        pair of the supports, then one balanced-digit unpack. Slot k of the
        sum is sum x_i y_j c_ijk, within X Y T of zero for X = sum |x_i|,
        Y = sum |y_j| and T the largest |c|; a width s with 2 X Y T < 2^s
        keeps every slot strictly inside +-2^(s-1), so the balanced digits
        are the slots exactly, over Q and over F_p alike. s is rounded up to
        a power of two, so that few widths of packed rows are built. Tables
        whose products have one term each keep the loop over the supports,
        and so do slots wider than ``_PACKED_WIDTH_MAX`` bits, where the loop
        is faster.
        """
        if len(a) != self.dim or len(b) != self.dim:
            raise DimensionError("element dimension mismatch")
        D, rows = self._int_mul
        da, sa = a.support
        db, sb = b.support
        acc = None
        w, top = self._table_bounds
        if w > 1:
            bound = 2 * sum(abs(x) for _, x in sa) * sum(abs(y) for _, y in sb) * top
            s = _slot_width(bound)
            if s <= _PACKED_WIDTH_MAX:
                acc = self._packed_product(sa, sb, s)
        if acc is None:
            acc = {}
            for i, x in sa:
                row = rows[i]
                if not row:
                    continue
                for j, y in sb:
                    entries = row.get(j)
                    if entries:
                        xy = x * y
                        for k, c in entries:
                            acc[k] = acc.get(k, 0) + xy * c
        if not any(acc.values()):
            return self.zero()
        return self._from_ints(acc, da * db * D)

    def mul_basis(self, i, j):
        """Product of two basis elements, as an Element."""
        F = self.field
        acc = [F.zero] * self.dim
        for k, c in self._mul.get((i, j), ()):
            acc[k] = c
        return Element(tuple(acc))

    @property
    def has_involution(self):
        return self._star is not None

    def involve(self, a):
        if self._star is None:
            raise MissingInvolutionError(f"{self.name} has no involution")
        D, rows = self._int_star
        da, sa = a.support
        acc = {}
        for i, x in sa:
            for j, s in rows[i]:
                acc[j] = acc.get(j, 0) + x * s
        return self._from_ints(acc, da * D)

    def commutator(self, a, b):
        """ab - ba, each product taken only when the reach allows it to be
        nonzero (``_product_or_zero``)."""
        return self.sub(_product_or_zero(self, a, b), _product_or_zero(self, b, a))

    def circle(self, a, b):
        half = self._half
        s = self.add(self.mul(a, b), self.mul(b, a))
        return self.scale(half, s)

    def triple(self, a, b, c):
        """Associative triple product a*b*c."""
        return self.mul(self.mul(a, b), c)

    def jordan_triple(self, a, b, c):
        """Symmetrized triple product a*b*c + c*b*a."""
        return self.add(self.triple(a, b, c), self.triple(c, b, a))

    def brace(self, a):
        """a - a*, the skew part scaled by 2."""
        return self.sub(a, self.involve(a))

    # -- rendering ---------------------------------------------------------

    def render(self, a):
        """Human-readable linear combination over the basis labels."""
        F = self.field
        terms = []
        for i, c in enumerate(a.coords):
            if not c:
                continue
            label = self.basis_labels[i]
            s = F.format(c)
            if s == "1":
                terms.append(("+", label))
            elif s == "-1":
                terms.append(("-", label))
            elif s.startswith("-"):
                terms.append(("-", f"{s[1:]}*{label}"))
            else:
                terms.append(("+", f"{s}*{label}"))
        if not terms:
            return "0"
        sign, first = terms[0]
        out = first if sign == "+" else "-" + first
        for sign, t in terms[1:]:
            out += f" {sign} {t}"
        return out

    def span_of(self, elements):
        return echelonize(self.field, elements, self.dim)

    def __repr__(self):
        return f"AlgebraPresentation({self.name!r}, dim={self.dim})"


def _product_or_zero(P, a, b):
    """a * b, or the zero element with no product when the support of b
    misses the reach of a."""
    if P._reach(a).isdisjoint(i for i, _ in b.support[1]):
        return P.zero()
    return P.mul(a, b)


def unital_hull(P):
    """Adjoin a unit as a new last basis element; the input embeds as an ideal."""
    if P.unital:
        raise UnitalityError(f"{P.name} is already unital")
    F = P.field
    dim = P.dim
    label = "1" if "1" not in P.basis_labels else "@unit"
    mul = []
    for (i, j), entries in sorted(P._mul.items()):
        for k, c in entries:
            mul.append((i, j, k, c))
    for i in range(dim):
        mul.append((i, dim, i, F.one))
        mul.append((dim, i, i, F.one))
    mul.append((dim, dim, dim, F.one))
    involution = None
    if P.has_involution:
        involution = []
        for i, row in enumerate(P._star):
            for j, c in row:
                involution.append((i, j, c))
        involution.append((dim, dim, F.one))
    embed = lambda el: tuple(el.coords) + (F.zero,)
    return AlgebraPresentation(
        name=P.name + "+1",
        field=F,
        basis_labels=P.basis_labels + (label,),
        mul=mul,
        involution=involution,
        idempotents={k: embed(v) for k, v in P.idempotents.items()},
        generators={k: embed(v) for k, v in P.generators.items()},
        unital=True,
        unit=(F.zero,) * dim + (F.one,),
    )


def embed_in_hull(H, el):
    """Lift an element of the original algebra into its hull H: the same
    support, with a zero unit coordinate."""
    if len(el) != H.dim - 1:
        raise DimensionError(f"element has {len(el)} coords, expected {H.dim - 1}")
    return Element._of(H.field, H.dim, el.support)


def restrict_from_hull(P, el):
    """Drop the unit coordinate of a hull element that lies in the ideal."""
    if len(el) != P.dim + 1:
        raise DimensionError(f"element has {len(el)} coords, expected {P.dim + 1}")
    _, pairs = el.support
    if pairs and pairs[-1][0] == P.dim:
        raise DimensionError("element does not lie in the embedded algebra")
    return Element._of(P.field, P.dim, el.support)


def _ideal_round(P, vectors, old, n):
    (vectors,), (old,), (n,) = vectors, old, n
    for r in vectors[old:n]:
        for i in range(P.dim):
            e_i = P.basis_element(i)
            yield 0, P.mul(e_i, r)
            yield 0, P.mul(r, e_i)


def _ideal_closure(P, seeds):
    """Span of seeds, saturated under left and right multiplication by the
    basis; a full span is R, an ideal, and stops the saturation."""
    return _saturate_linear(P, [seeds], _ideal_round).final


def ideal_span(P, x, unit_coeff=0):
    """Span of all products b_i * (unit_coeff + x) * b_j, saturated on both sides.

    With unit_coeff=0 this is the two-sided product space R x R; unit_coeff=1
    gives R(1+x)R, which is how complements like 1-e are handled without
    leaving the algebra. The seeds are the products (b_i x + c b_i) b_j for
    the b_j in the reach of the left factor, in index order; the others are
    zero, and a zero left factor yields none.
    """
    coeff = P.field.coerce(unit_coeff)

    def products():
        for i in range(P.dim):
            # b_i(c + x)b_j = (b_i x + c b_i) b_j by bilinearity; it is zero
            # unless b_j lies in the reach of the left factor.
            b_i = P.basis_element(i)
            left = P.mul(b_i, x)
            if coeff:
                left = P.add(left, P.scale(coeff, b_i))
            for j in sorted(P._reach(left)):
                yield P.mul(left, P.basis_element(j))

    return _ideal_closure(P, products())


def principal_ideal(P, x):
    """Two-sided ideal generated by x (contains x itself)."""
    return _ideal_closure(P, [x])


@dataclass(frozen=True)
class Violation:
    axiom: str
    indices: tuple
    message: str


@dataclass
class ValidationReport:
    violations: list
    hypotheses: dict

    @property
    def ok(self):
        return not self.violations


def _per_presentation(fn):
    """Memoise fn(P) on P; presentations are immutable."""

    @functools.wraps(fn)
    def memoised(P):
        if fn not in P._memo:
            P._memo[fn] = fn(P)
        return P._memo[fn]

    return memoised


def _generators_generate(P, e):
    """The declared generators (with the unit, when present) span R as an
    associative subalgebra."""
    if not P.generators:
        return False
    items = [(name, el, "declared") for name, el in sorted(P.generators.items())]
    if P.unital:
        items.append(("@1", P.unit, "unit"))
    return assoc_closure(P, generator_set("associative", items)).final.is_full


def _desk_simple(P, e):
    """Desk-scale check: every basis element generates R as an ideal."""
    return all(
        principal_ideal(P, P.basis_element(i)).is_full for i in range(P.dim)
    )


@_per_presentation
def _square_zero_witness(P):
    """Desk-scale semiprimeness check: the label of a basis element that
    generates a square-zero ideal, or None when no basis element does."""
    for i in range(P.dim):
        ideal = principal_ideal(P, P.basis_element(i))
        if ideal.rank == 0:
            continue
        rows = P.elements(ideal)
        if all(P.is_zero(P.mul(u, v)) for u in rows for v in rows):
            return P.basis_labels[i]
    return None


# Hypothesis name -> evaluator(P, e) for the idempotent e (None where the
# hypothesis does not mention e). Every hypothesis about e* is False when P
# has no involution.
HYPOTHESES = {
    "involution": lambda P, e: P.has_involution,
    "e^2=e": lambda P, e: P.equal(P.mul(e, e), e),
    "ee*=0": lambda P, e: P.has_involution and P.is_zero(P.mul(e, P.involve(e))),
    "e*e=0": lambda P, e: P.has_involution and P.is_zero(P.mul(P.involve(e), e)),
    "ReR=R": lambda P, e: ideal_span(P, e).is_full,
    "Re*R=R": lambda P, e: P.has_involution and ideal_span(P, P.involve(e)).is_full,
    "R(1-e)R=R": lambda P, e: ideal_span(P, P.neg(e), unit_coeff=1).is_full,
    "R(1-e-e*)R=R": lambda P, e: P.has_involution
    and ideal_span(P, P.neg(P.add(e, P.involve(e))), unit_coeff=1).is_full,
    "e+e*=1": lambda P, e: P.has_involution
    and P.unital
    and P.equal(P.add(e, P.involve(e)), P.unit),
    # s = 1-e-e*; without a unit, the hull's unit keeps s nonzero.
    "s!=0": lambda P, e: P.has_involution
    and not (P.unital and P.equal(P.add(e, P.involve(e)), P.unit)),
    "R=alg<gens>": _generators_generate,
    "simple(desk-scale)": _desk_simple,
    "semiprime(desk-scale)": lambda P, e: _square_zero_witness(P) is None,
}


def hypotheses_for(P, e, wants):
    """Evaluate named generation hypotheses for the idempotent e.

    Results are memoised on P per name and idempotent. A failed
    semiprimeness check also reports its square-zero-ideal witness.
    """
    out = {}
    for name in wants:
        if name not in HYPOTHESES:
            raise ValueError(f"unknown hypothesis {name!r}")
        key = (name, None if e is None else e.support)
        if key not in P._memo:
            P._memo[key] = HYPOTHESES[name](P, e)
        out[name] = P._memo[key]
    if out.get("semiprime(desk-scale)") is False:
        out["square-zero-ideal-witness"] = _square_zero_witness(P)
    return out


def _pack(entries, s):
    """sum c 2^(s k) over the (k, c) pairs: a row packed into s-bit slots."""
    return sum(c << (s * k) for k, c in entries)


def _balanced_digits(x, s):
    """The nonzero balanced base-2^s digits d_l in [-2^(s-1), 2^(s-1)) of
    x = sum d_l 2^(s l), as a dict {l: d_l}."""
    half, mask = 1 << (s - 1), (1 << s) - 1
    digits = {}
    l = 0
    while x:
        d = ((x + half) & mask) - half
        if d:
            digits[l] = d
        x = (x - d) >> s
        l += 1
    return digits


def _unequal_keys(F, left, right, s):
    """The sorted keys of the dicts of packed s-bit rows left and right at
    which ``from_ints`` over F leaves a balanced digit of left - right nonzero."""
    if left == right:
        return []
    return [
        key for key in sorted(left.keys() | right.keys())
        if (diff := left.get(key, 0) - right.get(key, 0))
        and F.from_ints(_balanced_digits(diff, s), 1)[1]
    ]


def _associativity_triples(P):
    """The triples (i, j, k), in order, with (b_i b_j) b_k != b_i (b_j b_k).

    Both sides are compared on packed rows of the integer structure
    constants over D: slot l of the int P_mk = sum_l c_mkl 2^(s l) is the
    coefficient of b_l in b_m b_k. For each i, (b_i b_j) b_k is
    sum_m c_ijm P_mk and b_i (b_j b_k) is sum_m c_jkm P_im, one big-int
    multiply-add per term in place of one per term and slot; the second
    sum reaches the pairs (j, k) through the column index
    m -> (j dim + k, c_jkm). The sums for one i are keyed by j dim + k, and
    when the two sides are equal dicts, no triple of that i is violated.

    A slot of either side sums at most w products of two constants, w the
    most entries of any b_i b_j and T the largest |c|, so each slot of the
    difference of the sides lies within 2 w T^2 < 2^s, and s is the
    smallest width with that bound. The rows come from the cache ``mul``
    reads (``_packed_rows``), at this width: the argument below holds for
    any s with 2 w T^2 < 2^s, but rounding s up to ``mul``'s power of two
    would make every multiply-add wider (on dense M4 flip s = 74 would
    become 128 and the check take half as long again). Then the packed
    sides are equal iff every slot is, and a nonzero difference has a
    nonzero balanced digit. Over Q that decides the triple. Over F_p the
    constants are residues in [0, p), so the slots lie within
    w T^2 < 2^(s-1) and the balanced digits are the slots themselves; they
    may be nonzero multiples of p, so unequal sides are checked key by
    key, and the triple is a violation iff ``from_ints`` leaves one of its
    digits nonzero.

    Only the output index l is packed. Packing (k, l) together into dim^2
    s-bit slots is faster on small tables, but each multiply-add then spans
    dim times as many limbs: on M24 flip over Q (dim 576) it made the axiom
    gate about 90 times slower.
    """
    F = P.field
    dim = P.dim
    _, rows = P._int_mul
    width, top = P._table_bounds
    s = (2 * width * top * top).bit_length()
    packed = P._packed_rows(s)
    column = [[] for _ in range(dim)]  # m -> (j dim + k, c_jkm)
    for j, row in enumerate(rows):
        for k, e in row.items():
            for m, c in e:
                column[m].append((j * dim + k, c))
    triples = []
    for i in range(dim):
        left = {}
        for j, e in rows[i].items():
            for m, c in e:
                for k, x in packed[m].items():
                    jk = j * dim + k
                    left[jk] = left.get(jk, 0) + c * x
        right = {}
        for m, x in packed[i].items():
            for jk, c in column[m]:
                right[jk] = right.get(jk, 0) + c * x
        triples.extend((i, *divmod(jk, dim)) for jk in _unequal_keys(F, left, right, s))
    return triples


def _involution_law_pairs(P):
    """The pairs (i, j), in order, with (b_i b_j)* != b_j* b_i*.

    On the integer table over D and the integer involution over S, both
    sides are compared over D S^2 on rows packed into t-bit slots, slot l
    holding the coefficient of b_l: Q_m packs b_m* and P_ab packs b_a b_b.
    The left side is S sum_m c_ijm Q_m. The right side is
    sum_a s_ja R_a for R_a = sum_b s_ib P_ab, the packed b_a b_i*, summed
    into the j with a in the support of b_j* through the column index
    a -> (j, s_ja) of the involution. So only candidate pairs are visited:
    those with b_i b_j != 0 (the left side) or with b_a b_b != 0 for some
    a in the support of b_j* and b in that of b_i* (the right side); both
    sides of any other pair are zero.

    A slot of the left side is within S w T U and one of the right side
    within v^2 U^2 T, for w and T as in ``_associativity_triples``, v the
    most entries of any b_m* and U the largest |s|. t is the bit length of
    twice their sum, so every slot of the difference lies strictly inside
    +-2^(t-1) and the balanced digits are the slots themselves. As in the
    associativity check, a nonzero difference is a violation iff
    ``from_ints`` leaves a digit nonzero: over F_p (S = 1) the raw sums of
    residues may differ by multiples of p. The packed table rows are built
    here, at width t, and not kept: ``mul``'s per-width cache holds only
    the widths that products and the associativity check read.
    """
    F = P.field
    dim = P.dim
    _, rows = P._int_mul
    S, star = P._int_star
    width, top = P._table_bounds
    v = max(map(len, star))
    u = max((abs(c) for row in star for _, c in row), default=0)
    t = (2 * (S * width * top * u + v * v * u * u * top)).bit_length()
    packed_star = [_pack(row, t) for row in star]
    by_right = [[] for _ in range(dim)]  # b -> (a, P_ab)
    for a, row in enumerate(rows):
        for b, e in row.items():
            by_right[b].append((a, _pack(e, t)))
    star_column = [[] for _ in range(dim)]  # a -> (j, s_ja)
    for j, row in enumerate(star):
        for a, c in row:
            star_column[a].append((j, c))
    pairs = []
    for i in range(dim):
        left = {
            j: S * sum(c * packed_star[m] for m, c in e) for j, e in rows[i].items()
        }
        right_of = {}  # a -> R_a
        for b, c in star[i]:
            for a, x in by_right[b]:
                right_of[a] = right_of.get(a, 0) + c * x
        right = {}
        for a, x in right_of.items():
            for j, c in star_column[a]:
                right[j] = right.get(j, 0) + c * x
        pairs.extend((i, j) for j in _unequal_keys(F, left, right, t))
    return pairs


def _differs_from_basis(F, nums, i, scale):
    """Whether the vector with coordinates n / scale, for the ints n in the
    dict nums {index: n}, differs from b_i over F. nums is changed in
    place."""
    nums[i] = nums.get(i, 0) - scale
    return any(nums.values()) and bool(F.from_ints(nums, 1)[1])


def _unit_failures(P):
    """The indices i, in order, with u b_i != b_i or b_i u != b_i for the
    declared unit u.

    For u = sum n_m b_m / d and the integer structure constants over D, the
    coordinates of u b_i and b_i u over d D are sum_m n_m c_mik and
    sum_m n_m c_imk: a sum over the support of u for each side, in place
    of two products per basis element. As in ``_unequal_keys``, over F_p
    (d = D = 1) the raw sums of residues may differ from those of b_i by
    multiples of p, so a nonzero difference fails iff ``from_ints`` leaves
    it nonzero.
    """
    F = P.field
    dim = P.dim
    D, rows = P._int_mul
    d, unit = P.unit.support
    one = d * D
    failures = []
    for i in range(dim):
        left, right = {}, {}
        for m, n in unit:
            for k, c in rows[m].get(i, ()):
                left[k] = left.get(k, 0) + n * c
            for k, c in rows[i].get(m, ()):
                right[k] = right.get(k, 0) + n * c
        if _differs_from_basis(F, left, i, one) or _differs_from_basis(F, right, i, one):
            failures.append(i)
    return failures


def _order2_failures(P):
    """The indices i, in order, with b_i** != b_i.

    For the integer involution over S, the coordinates of b_i** over S^2
    are sum_j s_ij s_jk, and a nonzero difference from b_i is decided by
    ``from_ints`` as in ``_unit_failures``.
    """
    F = P.field
    S, star = P._int_star
    failures = []
    for i, row in enumerate(star):
        acc = {}
        for j, s in row:
            for k, t in star[j]:
                acc[k] = acc.get(k, 0) + s * t
        if _differs_from_basis(F, acc, i, S * S):
            failures.append(i)
    return failures


@_per_presentation
def axiom_violations(P):
    """The violated algebra axioms, as a tuple of Violations: associativity
    (on packed rows, see ``_associativity_triples``), the involution laws,
    the unit law, then e^2 = e for every declared idempotent in name
    order."""
    violations = [
        Violation("associativity", (i, j, k), f"(b{i}*b{j})*b{k} != b{i}*(b{j}*b{k})")
        for i, j, k in _associativity_triples(P)
    ]
    if P.has_involution:
        for i in _order2_failures(P):
            violations.append(Violation("involution-order2", (i,), f"b{i}** != b{i}"))
        for i, j in _involution_law_pairs(P):
            violations.append(
                Violation(
                    "involution-antiautomorphism",
                    (i, j),
                    f"(b{i}*b{j})* != b{j}* * b{i}*",
                )
            )

    if P.unital:
        for i in _unit_failures(P):
            violations.append(Violation("unit", (i,), f"declared unit does not fix b{i}"))

    for name, e in sorted(P.idempotents.items()):
        if not hypotheses_for(P, e, ("e^2=e",))["e^2=e"]:
            violations.append(
                Violation("idempotent", (name,), f"{name}^2 != {name}")
            )
    return tuple(violations)


def require_axioms(P):
    """The axiom gate: raise FormatError on the first violated axiom. Every
    entry that uses a fact the axioms prove calls it first."""
    violations = axiom_violations(P)
    if violations:
        first = violations[0]
        raise FormatError(
            f"presentation violates {first.axiom} at {first.indices}: "
            f"{first.message}"
        )


def validate_presentation(P):
    """Check the algebra axioms and report the generation hypotheses.

    Axiom violations (associativity, involution laws, idempotency, unit law)
    are returned as data. For every declared idempotent e the report also
    records whether ReR = R, R(1-e)R = R and, when an involution is present,
    whether ee* = e*e = 0 and R(1-e-e*)R = R, each computed by two-sided
    ideal saturation.
    """
    violations = list(axiom_violations(P))
    wants = ("e^2=e", "ReR=R", "R(1-e)R=R")
    if P.has_involution:
        wants += ("ee*=0", "e*e=0", "R(1-e-e*)R=R", "s!=0")
    hypotheses = {
        name: hypotheses_for(P, e, wants) for name, e in sorted(P.idempotents.items())
    }
    return ValidationReport(violations, hypotheses)
