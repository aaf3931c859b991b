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

Every product goes through one integer kernel, ``_ints``: it returns a * b
as an int vector (d, nums), the dict of its nonzero integer coordinates
over d = da db D (residues over F_p, reduced before anything tests for
zero). On a table with a product of more than one term, it sums the
table's rows packed into slots of one big int each (Kronecker
substitution; von zur Gathen and Gerhard, *Modern Computer Algebra*,
section 8.4) and unpacks once: over the packed rows of each pair of the
supports for a one-shot product, or on a held factor's packed operator
(``_operator``), built per side and slot width on first use, so that each
product costs one multiply-add per term of the other operand.

An element that multiplies many others is held as a factor (``_factor``):
an Element that also carries its support's indices, its reach and its
packed operators on either side. The kernel picks the path from its
operands, and ``_product`` and ``_bracket`` multiply factors only where
the reach allows, [u, v] as one int vector uv - vu. A product that only
feeds a span (``linalg.SpanBuilder``) or the combination solver stays an
int vector, which both take as it is: the closure rounds, ``ideal_span``'s
seeds, the bracket spans, the corners of ``decomposition`` and the witness
search. ``mul`` makes an Element (``_element``) of a product that a caller
keeps (words, witnesses, generators).

The constructor checks each row of the table and of the involution once,
in one loop per table that takes each scalar to its exact pair (n, d)
(``_exact_pair``). The loader hands every scalar over as its pair in
lowest terms (``parse_pair``), which is taken as it is, so a loaded file
builds no Fraction on its way to the tables. Once the lcm of the
denominators is known, the constructor builds the integer tables
(``_int_mul``, ``_int_star`` and the bounds ``_table_bounds``), the only
stored form of the table and the involution: every product, the axiom
gate, dumps and the unital hull read them. The presentation is treated as
immutable once built; every operation is a pure function of its inputs.
The axiom checks and the named generation hypotheses (``HYPOTHESES``) are
therefore memoised on the presentation, and so are its packed rows,
which only a table with a product of more than one term builds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import lcm

from .closure import _saturate_linear
from .errors import (
    DimensionError,
    FormatError,
    MissingInvolutionError,
    UnitalityError,
)
from .linalg import ZERO_PAIR, PrimeField, SpanBuilder, echelonize, unit_span


def _exact_pair(F, s):
    """The pair (n, d), d > 0, of a scalar s over F: a string's through
    ``parse_pair``, and a pair (n, d), an int or a Fraction taken exactly,
    which over F_p is the residue (n d^-1, 1). Anything else (a float, a
    bool), and over F_p a denominator divisible by p, is a FormatError."""
    if type(s) is str:
        return F.parse_pair(s)
    if type(s) is tuple:
        n, d = s
    elif type(s) is not int and not isinstance(s, Fraction):
        raise FormatError(f"not an exact scalar: {s!r}")
    else:
        n, d = s.numerator, s.denominator
    if isinstance(F, PrimeField):
        if d % F.p == 0:
            raise FormatError(f"denominator divisible by {F.p}: {s!r}")
        return F.from_pair(n, d), 1
    return n, d


# The widest slot, in bits, at which a one-shot product sums on packed rows;
# wider ones take the loop over the supports. Its packed sum makes
# |sa| |sb| multiply-adds of dim-slot ints, and past 512-bit slots these cost
# more than the loop's small ones. One-shot products of full operands on the
# dense flip M_n over Q with both numerators near 2^(s/2), ms per product,
# packed against the loop (Python 3.11, 2-core x86_64):
#   s = 512:  M3 0.17 / 0.19, M5 2.55 / 3.58, M7 21.4 / 36.7;
#   s = 1024: M3 0.61 / 0.24, M5 6.60 / 4.19, M7 59.7 / 51.6;
#   s = 2048: M3 2.40 / 0.42, M5 73.9 / 8.48, M7 188 / 63.3.
# On dense M7, 431 of theorem 1's one-shot products and 977 of theorem 2's
# need 512-bit slots, and the loop would take 3.3 s and 9.8 s of them
# where the packed sum takes 2.1 s and 3.4 s; no one-shot product needs 1024
# bits there. A held factor's operators (``_operator``) pack once per side
# and width and have no cap.
_PACKED_WIDTH_MAX = 512


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
    tuple of field scalars, is built on first read.
    """

    __slots__ = ("_coords", "support", "_dim", "_field")

    @classmethod
    def _of(cls, field, dim, support):
        """The element of the field's dim-space with the given support."""
        el = cls.__new__(cls)
        el._coords = None
        el.support = support
        el._dim = dim
        el._field = field
        return el

    def __len__(self):
        return self._dim

    @property
    def coords(self):
        """The dense tuple of field scalars, built on first read."""
        if self._coords is None:
            self._coords = self._field.to_coords(self.support, self._dim)
        return self._coords

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self._dim == other._dim and self.support == other.support

    def __hash__(self):
        return hash((self._dim, self.support))

    def __repr__(self):
        return f"Element(coords={self.coords!r})"


class _Factor(Element):
    """An Element held as a factor of many products
    (``AlgebraPresentation._factor``), equal to its Element and hashed as
    it. It also holds the set of its support's indices, its reach, the
    operator bound 2 X T of its support's abs sum X times the largest
    constant T (None on a table whose products have one term each), and
    ``ops``, the {j: Q_j} of its packed operator for each side and slot
    width met so far, keyed (on_left, s) (``AlgebraPresentation._operator``).
    """

    __slots__ = ("indices", "reach", "bound", "ops")


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
        self._set_mul_tables(mul)
        self._set_star_tables(involution)
        self._p = getattr(field, "p", 0)  # p over F_p, 0 over Q
        self._zero = Element._of(field, self.dim, (1, ()))
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

    def _set_mul_tables(self, mul):
        """The multiplication table, checked and converted in one loop over
        its rows (i, j, k, scalar), or over the entries of a dict
        {(i, j): ((k, scalar), ...)}: each row's arity, each index in range,
        no (i, j, k) twice (a zero scalar still counts as an entry), and
        the scalar taken to its exact pair (n, d) once (``_exact_pair``);
        zero scalars are dropped.

        Sets ``_int_mul``, the integer table (D, rows) with
        rows[i][j] = ((k, c D), ...) over the lcm D of the denominators, and
        ``_table_bounds`` (w, T), the most terms of any b_i b_j and the
        largest |c D|. The integer rows are built once D is known, from the
        indices and pairs of the nonzero entries the loop kept.
        """
        dim = self.dim
        F = self.field
        if hasattr(mul, "items"):
            mul = [(i, j, k, c) for (i, j), entries in mul.items() for k, c in entries]
        checked, nums, dens = [], [], []
        seen = set()
        for row in mul:
            if type(row) is not tuple:
                row = tuple(row)
            if len(row) != 4:
                raise FormatError(f"mul entry must be [i, j, k, scalar]: {row!r}")
            i, j, k, s = row
            # type(...) is int: a bool is an int to isinstance.
            if not (type(i) is int and type(j) is int and type(k) is int
                    and 0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise FormatError(f"mul index out of range: {row!r}")
            key = (i * dim + j) * dim + k
            if key in seen:
                raise FormatError(f"duplicate mul entry for ({i},{j},{k})")
            seen.add(key)
            # A tuple is the loader's pair, taken as it is.
            n, d = s if type(s) is tuple else _exact_pair(F, s)
            if n:
                checked.append((i, j, k))
                nums.append(n)
                dens.append(d)
        D = lcm(*set(dens))
        if D > 1:
            nums = [n * (D // d) for n, d in zip(nums, dens)]
        # A product's first term makes a tuple, which most tables keep; its
        # second makes a list, which is sorted and frozen at the end.
        rows = [{} for _ in range(dim)]
        longer = []
        for (i, j, k), n in zip(checked, nums):
            r = rows[i]
            e = r.get(j)
            if e is None:
                r[j] = ((k, n),)
            elif type(e) is tuple:
                r[j] = [*e, (k, n)]
                longer.append((r, j))
            else:
                e.append((k, n))
        w = 1 if checked else 0
        for r, j in longer:
            e = r[j]
            e.sort()
            w = max(w, len(e))
            r[j] = tuple(e)
        self._int_mul = D, rows
        self._table_bounds = w, max(map(abs, nums), default=0)

    def _set_star_tables(self, involution):
        """The involution, checked and converted in one loop over its rows
        (i, j, scalar) as ``_set_mul_tables`` checks the table. Sets
        ``_int_star``, the integer rows (S, rows) with
        rows[i] = ((j, s_ij S), ...) over the lcm S of the denominators;
        ``_int_star`` is None without an involution."""
        self._int_star = None
        if involution is None:
            return
        dim = self.dim
        F = self.field
        checked, nums, dens = [], [], []
        seen = set()
        for row in involution:
            if len(row) != 3:
                raise FormatError(f"involution entry must be [i, j, scalar]: {row!r}")
            i, j, s = row
            if not (type(i) is int and type(j) is int and 0 <= i < dim and 0 <= j < dim):
                raise FormatError(f"involution index out of range: {row!r}")
            key = i * dim + j
            if key in seen:
                raise FormatError(f"duplicate involution entry for ({i},{j})")
            seen.add(key)
            # A tuple is the loader's pair, taken as it is.
            n, d = s if type(s) is tuple else _exact_pair(F, s)
            if n:
                checked.append((i, j))
                nums.append(n)
                dens.append(d)
        S = lcm(*set(dens))
        rows = [[] for _ in range(dim)]
        for (i, j), n, d in zip(checked, nums, dens):
            rows[i].append((j, n * (S // d)))
        self._int_star = S, [tuple(sorted(r)) for r in rows]

    # -- element helpers -------------------------------------------------

    def element(self, coords):
        """Coerce a sequence of scalars / ints / scalar strings / pairs
        (n, d) to an Element, built from its canonical support
        (``_from_ints``, so a pair need not be in lowest terms): each
        scalar is converted once, and the dense coordinates wait for their
        first read."""
        if isinstance(coords, Element):
            coords = coords.coords
        elif type(coords) is not list:
            coords = list(coords)
        if len(coords) != self.dim:
            raise DimensionError(
                f"element has {len(coords)} coords, expected {self.dim}"
            )
        F = self.field
        zero = F.zero
        # The loader spells "0" as ZERO_PAIR, builders as the field's zero.
        nonzero = [(i, _exact_pair(F, x))
                   for i, x in enumerate(coords) if x is not ZERO_PAIR and x is not zero]
        D = lcm(*{d for _, (n, d) in nonzero if n})
        return self._from_ints({i: n * (D // d) for i, (n, d) in nonzero if n}, D)

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
        return self._zero

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

    def add(self, a, b):
        return self._element(self._combination(a, (b,), 1))

    def sub(self, a, b):
        return self._element(self._combination(a, (b,), -1))

    def neg(self, a):
        return self.scale(-1, a)

    def scale(self, c, a):
        """c * a for an exact scalar c or a pair (n, d) (``_exact_pair``)."""
        n, dc = _exact_pair(self.field, c)
        d, sa = a.support
        return self._from_ints({i: x * n for i, x in sa}, d * dc)

    # -- products ---------------------------------------------------------

    def _reach(self, a):
        """The indices j with b_i * b_j != 0 for some i in the support of a:
        a * b is zero whenever the support of b misses them."""
        _, rows = self._int_mul
        return set().union(*(rows[i] for i, _ in a.support[1]))

    def _packed_rows(self, s):
        """rows[i][j] = sum_k c_ijk * D * 2^(s k): the integer row of
        b_i * b_j packed into s-bit slots, built once per width s. Only a
        table with a product of more than one term reads them, in ``_ints``
        and in the associativity check; a one-term table builds none."""
        packed = self._packed.get(s)
        if packed is None:
            _, rows = self._int_mul
            packed = self._packed[s] = [
                {j: _pack(e, s) for j, e in row.items()} for row in rows
            ]
        return packed

    def _packed_product(self, sa, sb, s):
        """The packed sum sum_i x_i sum_j y_j P_ij of a * b for the
        supports sa and sb, on the packed rows of width s."""
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
        return total

    def _ints(self, a, b):
        """The product kernel: a * b as an int vector (d, nums), the dict
        nums of its nonzero integer coordinates over d = da db D (residues
        over F_p), for the supports (da, sa) and (db, sb) and the table over
        D. A zero operand gives an empty dict, with no width computed.

        When some b_i * b_j has more than one term, the products are summed
        on packed rows, then unpacked once into balanced digits (Kronecker
        substitution). A held factor (``_factor``) brings its packed
        operator (``_operator``): a's left one when a is held, else b's
        right one when b is held, one big-int multiply-add per term of the
        other operand. Otherwise the product is one-shot, one multiply-add
        per pair of the supports (``_packed_product``). Slot k of the sum
        is sum x_i y_j c_ijk, within X Y T of zero for X = sum |x_i|,
        Y = sum |y_j| and T the largest |c|; a width s with 2 X Y T < 2^s
        keeps every slot strictly inside +-2^(s-1), so the balanced digits
        are the slots exactly, over Q and over F_p alike. s is rounded up to
        a power of two, so that few widths of packed rows are built. Tables
        whose products have one term each keep the loop over the supports,
        and so do one-shot products with slots wider than
        ``_PACKED_WIDTH_MAX`` bits, where the loop is faster.
        """
        D, rows = self._int_mul
        da, sa = a.support
        db, sb = b.support
        d = da * db * D
        if not sa or not sb:
            return d, {}
        w, top = self._table_bounds
        if w > 1:
            if type(a) is _Factor or type(b) is _Factor:
                held, on_left, other = (a, True, sb) if type(a) is _Factor else (b, False, sa)
                s = _slot_width(held.bound * sum(abs(y) for _, y in other))
                q = held.ops.get((on_left, s))
                if q is None:
                    q = self._operator(held, on_left, s)
                total = 0
                for j, y in other:
                    Q = q.get(j)
                    if Q:
                        total += y * Q
            else:
                s = _slot_width(2 * sum(abs(x) for _, x in sa) * sum(abs(y) for _, y in sb) * top)
                total = self._packed_product(sa, sb, s) if s <= _PACKED_WIDTH_MAX else None
            if total is not None:
                return d, self._reduced(_balanced_digits(total, s))
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
        return d, self._reduced(acc)

    def _reduced(self, nums):
        """The nonzero entries of the int dict nums, residues over F_p; over
        Q nums itself when it has no zero entry."""
        p = self._p
        if p:
            return {k: r for k, n in nums.items() if (r := n % p)}
        if 0 in nums.values():
            return {k: n for k, n in nums.items() if n}
        return nums

    def _element(self, vec, cls=Element):
        """The Element of the int vector vec = (d, nums), the zero element
        with no division when nums is empty; with cls = ``_Factor``, a
        factor built on the same canonical support."""
        d, nums = vec
        if not nums:
            return self._zero if cls is Element else cls._of(self.field, self.dim, (1, ()))
        if self._p and d == 1:
            # Nonzero residues over 1 need no division.
            return cls._of(self.field, self.dim, (1, tuple(sorted(nums.items()))))
        return cls._of(self.field, self.dim, self.field.from_ints(nums, d))

    def _combination(self, first, rest, sign=-1):
        """first + sign * sum(rest), for sign = 1 or -1 and Elements or int
        vectors, as one int vector over the lcm of their denominators. Zero
        terms are dropped first, and do not enter the lcm; a lone nonzero int
        vector with sign 1 (first, or a rest term after a zero first) is
        returned as it is."""
        m, nums = first if type(first) is tuple else first.support
        if nums:
            parts = [(1, m, nums)]
        else:
            parts, m = [], 1
        for v in rest:
            d, nums = v if type(v) is tuple else v.support
            if nums:
                parts.append((sign, d, nums))
                m = lcm(m, d)
        if not parts:
            return 1, {}
        if len(parts) == 1 and parts[0][0] == 1 and type(parts[0][2]) is dict:
            return m, parts[0][2]
        acc = {}
        for f, d, nums in parts:
            f *= m // d
            for k, n in nums.items() if type(nums) is dict else nums:
                acc[k] = acc.get(k, 0) + f * n
        return m, self._reduced(acc)

    def mul(self, a, b):
        """Bilinear extension of the structure constants: the product kernel
        (``_ints``) made an Element, one division per nonzero coordinate. A
        zero operand, or a product whose terms all vanish, is the zero
        element, with no division.

        ``mul`` is one-shot for plain Elements: on a table with a product
        of more than one term its |sa| |sb| multiply-adds cost less than
        packing a for one use. A caller that multiplies one element by many
        holds it as a factor (``_factor``), whose operators the kernel
        reads, and a product that only feeds a span stays an int vector
        (``_ints``, ``_product``, ``_bracket``).
        """
        if a._dim != self.dim or b._dim != self.dim:
            raise DimensionError("element dimension mismatch")
        return self._element(self._ints(a, b))

    def _operator(self, f, on_left, s):
        """The {j: Q_j} of the factor f's packed operator as a left factor
        (on_left) or as a right one, at slot width s, stored in f.ops.

        Over the packed rows P_ij of b_i * b_j at width s, Q_j is
        sum_i x_i P_ij on the left, so that f * b = sum_j y_j Q_j, and
        sum_i x_i P_ji on the right, so that b * f = sum_j y_j Q_j. A
        product is then one multiply-add per term of b in place of one per
        pair of the supports; s is the kernel's width for the pair, and the
        Q_j of each side and width are built on first use and live as long
        as the factor. Operators have no width cap.
        """
        packed = self._packed_rows(s)
        q = f.ops[on_left, s] = {}
        if on_left:
            for i, x in f.support[1]:
                for j, p in packed[i].items():
                    q[j] = q.get(j, 0) + x * p
        else:
            for j, row in enumerate(packed):
                t = 0
                for i, x in f.support[1]:
                    p = row.get(i)
                    if p:
                        t += x * p
                if t:
                    q[j] = t
        return q

    def _factor(self, x):
        """x held as a factor of many products (``_Factor``), for an
        Element or an int vector x; a factor is returned as it is."""
        if type(x) is _Factor:
            return x
        if type(x) is tuple:
            f = self._element(x, _Factor)
        elif x._dim != self.dim:
            raise DimensionError("element dimension mismatch")
        else:
            f = _Factor._of(self.field, self.dim, x.support)
        pairs = f.support[1]
        f.indices = {i for i, _ in pairs}
        f.reach = self._reach(f)
        w, top = self._table_bounds
        f.bound = 2 * sum(abs(n) for _, n in pairs) * top if w > 1 else None
        f.ops = {}
        return f

    def _product(self, u, v):
        """u * v for the factors u and v as an int vector (``_ints``, on
        u's left operator), computed only where the reach of u meets the
        support of v; an empty dict otherwise."""
        if u.reach.isdisjoint(v.indices):
            return u.support[0] * v.support[0] * self._int_mul[0], {}
        return self._ints(u, v)

    def _bracket(self, u, v):
        """[u, v] = uv - vu for the factors u and v as one int vector: both
        sides lie over du dv D, and each is computed only where the reach
        allows (``_product``)."""
        d, uv = self._product(u, v)
        _, vu = self._product(v, u)
        if not vu:
            return d, uv
        acc = dict(uv)
        for k, n in vu.items():
            acc[k] = acc.get(k, 0) - n
        return d, self._reduced(acc)

    def mul_basis(self, i, j):
        """Product of two basis elements, as an Element."""
        D, rows = self._int_mul
        return self._from_ints(dict(rows[i].get(j, ())), D)

    @property
    def has_involution(self):
        return self._int_star is not None

    def involve(self, a):
        if self._int_star is None:
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
        nonzero (``_bracket``)."""
        return self._element(self._bracket(self._factor(a), self._factor(b)))

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


def unital_hull(P):
    """Adjoin a unit as a new last basis element; the input embeds as an
    ideal. P's integer rows go to the constructor as pairs, (c, D) for the
    table over D and (c, S) for the involution over S."""
    if P.unital:
        raise UnitalityError(f"{P.name} is already unital")
    F = P.field
    dim = P.dim
    label = "1" if "1" not in P.basis_labels else "@unit"
    D, rows = P._int_mul
    mul = [(i, j, k, (c, D))
           for i, row in enumerate(rows) for j, e in row.items() for k, c in e]
    for i in range(dim):
        mul.append((i, dim, i, F.one))
        mul.append((dim, i, i, F.one))
    mul.append((dim, dim, dim, F.one))
    involution = None
    if P.has_involution:
        S, star = P._int_star
        involution = [(i, j, (c, S)) for i, row in enumerate(star) for j, c in row]
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
    """b_i r and r b_i for each new vector r and basis element b_i, each
    only where the reach allows (``_product``), as int vectors. A round
    with no new vector builds no basis factor."""
    (vectors,), (old,), (n,) = vectors, old, n
    if old == n:
        return
    basis = _basis_factors(P)
    for r in vectors[old:n]:
        for b_i in basis:
            yield 0, P._product(b_i, r)
            yield 0, P._product(r, b_i)


def _ideal_closure(P, seeds):
    """Span of seeds, saturated under left and right multiplication by the
    basis; a full span is R, an ideal, and stops the saturation."""
    return _saturate_linear(P, [seeds], _ideal_round).final


def ideal_span(P, x, unit_coeff=0):
    """The two-sided ideal that the products b_i * (unit_coeff + x) * b_j span.

    With unit_coeff=0 this is the two-sided product space R x R; unit_coeff=1
    gives R(1+x)R, which is how complements like 1-e are handled without
    leaving the algebra. The seeds are the products (b_i x + c b_i) b_j for
    the b_j in the reach of the left factor, in index order; the others are
    zero, and a zero left factor yields none. x is held as a factor, and
    each left factor is one int vector, b_i x on x's right operator plus
    c b_i (``AlgebraPresentation._combination``), held as a factor only
    when it is nonzero; each seed is the int vector of its product
    (``AlgebraPresentation._ints``).

    Behind the axiom gate, a declared unit folds c 1 into x: the unit law
    gives b_i (c 1 + x) = b_i x + c b_i, so x becomes y = c 1 + x and c
    becomes 0, and each left factor is the one product b_i y. A file that
    fails the gate need not satisfy the unit law, and ``validate`` still
    evaluates it, so there c 1 is not folded. With c = 0, a zero x (a zero
    y behind the gate) returns the zero subspace with no product.

    Behind the gate the seeds' span is already the ideal, so it takes no
    saturation round: the seeds span R y R, and by associativity
    b_k (b_i y b_j) = (b_k b_i) y b_j, a combination of seeds, and the same
    on the right. The seeds go into one span, which stops once it is full.
    On a one-term table (``_table_bounds``) a one-term left factor c b_k has
    as seeds the nonzero multiples of the b_t in row k, so its seeds are
    the unit vectors b_t of the indices t in that row, read with no product
    and kept as a set of indices: with no other seed their span is built
    with no elimination (``linalg.unit_span``). A file that fails the gate
    keeps the saturation (``_ideal_closure``).
    """
    n, d = _exact_pair(P.field, unit_coeff)
    gated = not axiom_violations(P)
    if n and P.unital and gated:
        du, unit = P.unit.support
        x, n = P._combination(x, ((du * d, {k: n * u for k, u in unit}),), 1), 0
    x = P._factor(x)
    if not n and not x.indices:
        return unit_span(P.field, P.dim, ())

    def lefts():
        for i in range(P.dim):
            # b_i(c + x)b_j = (b_i x + c b_i) b_j by bilinearity.
            left = P._ints(P.basis_element(i), x)
            if n:
                left = P._combination(left, ((d, {i: n}),), 1)
            if left[1]:
                yield left

    def seeds(left):
        # A seed is zero unless b_j lies in the reach of the left factor.
        left = P._factor(left)
        return (P._ints(left, P.basis_element(j)) for j in sorted(left.reach))

    if not gated:
        return _ideal_closure(P, (s for left in lefts() for s in seeds(left)))
    rows = P._int_mul[1] if P._table_bounds[0] <= 1 else None
    span = SpanBuilder(P.field, P.dim)  # the seeds of the other left factors
    reached = set()  # the indices t of the unit vectors read off the table
    for left in lefts():
        if rows is not None and len(left[1]) == 1:
            k, = left[1]
            reached.update(t for (t, _), in rows[k].values())
        else:
            for s in seeds(left):
                if span.add(s) and span.is_full:
                    break
        if span.is_full or len(reached) == P.dim:
            break
    if not span.rank:
        return unit_span(P.field, P.dim, reached)
    for t in sorted(reached):
        span.add((1, {t: 1}))
    return span.subspace()


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


@_per_presentation
def _basis_factors(P):
    """The basis elements as factors (``_factor``)."""
    return [P._factor(P.basis_element(i)) for i in range(P.dim)]


def _generators_generate(P, e):
    """The declared generators S (with the unit, when present) span R as an
    associative subalgebra.

    Behind the axiom gate, V, the span of the words in S and the unit, is
    grown level by level: the closure of S and the unit under x -> g x for
    g in S, each new vector held as a factor (``_product``). V lies in the
    subalgebra W that S and the unit generate, which is the span of the
    words by associativity. Once V holds b_g for every g in the gate's
    left generating set G (``_left_generators``), W holds every
    right-nested product of G, so W = R, with no further product. A V that
    stops growing first is W, and is not R. Every claim that asks this
    gates first; a presentation that fails the gate raises FormatError
    (``require_axioms``).
    """
    require_axioms(P)
    if not P.generators:
        return False
    declared = [el for _, el in sorted(P.generators.items())]
    held = None  # the declared generators as factors, from level 1 on
    span = SpanBuilder(P.field, P.dim)
    missing = list(_left_generators(P))
    level = declared + [P.unit] if P.unital else declared
    while True:
        grown = []
        for v in level:
            if span.add(v):
                # V only grows, so testing the last index still missing
                # after each growth finds the first growth that holds G;
                # b_g lies in V only if g is a pivot of V's rows.
                while missing and (j := missing[-1]) in span.rows and span.contains((1, {j: 1})):
                    missing.pop()
                if not missing:
                    return True
                grown.append(v)
        if not grown:
            return False
        held = held or [P._factor(el) for el in declared]
        level = (P._product(g, v) for v in map(P._factor, grown) for g in held)


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


def _unequal_terms(p, left, right):
    """The sorted keys of the dicts of one-term sides left and right,
    {key: (l, c)}, at which the sides differ: a key that one side lacks (a
    zero side), or unequal terms once each c is reduced mod p over F_p
    (p > 0; over Q, p = 0 and c is compared as it is). Raw sides that
    are equal need no reduction."""
    if p and left != right:
        left = {key: (l, c % p) for key, (l, c) in left.items()}
        right = {key: (l, c % p) for key, (l, c) in right.items()}
    if left == right:
        return []
    return [key for key in sorted(left.keys() | right.keys())
            if left.get(key) != right.get(key)]


@_per_presentation
def _left_generators(P):
    """The indices of a left generating set G of the basis, in order: the
    right-nested products b_g1 (b_g2 (... b_gr)) of its elements span R.

    A worklist closure over the integer table, walking the basis indices
    in order: an index i joins G when b_i is not in the span V of the
    vectors found so far, each of which is b_g or b_g v for g in G and v
    found before it. Each pair (g, v) is tried once. While every product
    met has one term, the vectors found are basis elements up to a scalar
    and V is the set of indices reached: b_l is reached when
    b_g b_x = c b_l for g in G and x reached, and the closure costs
    O(|G| dim) dict reads. The first product with more than one term hands
    the walk to ``_span_generators``, which keeps V in a ``SpanBuilder``.
    Memoised as a tuple: the gate and ``R=alg<gens>`` share it.
    """
    _, rows = P._int_mul
    reached = [False] * P.dim
    gens, tried = [], []  # tried: the x already tried with every g in gens
    for i in range(P.dim):
        if reached[i]:
            continue
        reached[i] = True
        gens.append(i)
        todo = [i]
        products = [rows[i].get(x) for x in tried]
        while True:
            for e in products:
                if e:
                    if len(e) > 1:
                        return _span_generators(P, gens, reached, i + 1)
                    if not reached[e[0][0]]:
                        reached[e[0][0]] = True
                        todo.append(e[0][0])
            if not todo:
                break
            x = todo.pop()
            products = [rows[g].get(x) for g in gens]
            tried.append(x)
    return tuple(gens)


def _span_generators(P, gens, reached, start):
    """``_left_generators`` from index start on, for the generators gens
    found so far, once a product has more than one term: V, the span of
    the basis elements reached (every index below start among them), is
    kept in a ``SpanBuilder`` and closed under x -> b_g x for g in G, and
    an index joins G when b_i is not in V. The vectors found are integer
    supports, each known only up to a scalar, which V does not see. The
    walk stops when V is R."""
    F, dim = P.field, P.dim
    _, rows = P._int_mul
    span = SpanBuilder(F, dim)
    todo = []

    def found(pairs):
        """Whether the vector with support pairs grew V; a vector that did
        waits in todo."""
        if span.add(Element._of(F, dim, (1, pairs))):
            todo.append(pairs)
            return True
        return False

    def times(g, pairs):
        """The support of b_g v, for the support pairs of v, up to a scalar."""
        row = rows[g]
        acc = {}
        for j, n in pairs:
            for k, c in row.get(j, ()):
                acc[k] = acc.get(k, 0) + n * c
        return F.from_ints(acc, 1)[1]

    for x in compress(range(dim), reached):
        found(((x, 1),))
    tried = []  # the vectors already tried with every g in gens
    indices = iter(range(start, dim))
    while True:
        while todo and not span.is_full:
            v = todo.pop()
            for g in gens:
                found(times(g, v))
            tried.append(v)
        if span.is_full:
            return tuple(gens)
        g = next(i for i in indices if found(((i, 1),)))
        gens.append(g)
        for v in tried:
            found(times(g, v))


def _associativity_triples(P, indices=None):
    """The triples (i, j, k), in order, with (b_i b_j) b_k != b_i (b_j b_k),
    for i in ``indices`` (ascending; every index by default).

    Both sides are compared on packed rows of the integer structure
    constants over D: slot l of the int P_mk = sum_l c_mkl 2^(s l) is the
    coefficient of b_l in b_m b_k. For each i, (b_i b_j) b_k is
    sum_m c_ijm P_mk and b_i (b_j b_k) is sum_m c_jkm P_im, one big-int
    multiply-add per term in place of one per term and slot; the second
    sum reaches the pairs (j, k) through the column index
    m -> (j dim + k, c_jkm). The sums for one i are keyed by j dim + k, and
    when the two sides are equal dicts, no triple of that i is violated.
    A table whose products have one term each packs nothing: each side of
    each key is one term, compared as it is (``_one_term_triples``).

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
    indices = range(dim) if indices is None else indices
    if width <= 1:
        return _one_term_triples(P, indices)
    s = (2 * width * top * top).bit_length()
    packed = P._packed_rows(s)
    column = [[] for _ in range(dim)]  # m -> (j dim + k, c_jkm)
    for j, row in enumerate(rows):
        for k, e in row.items():
            for m, c in e:
                column[m].append((j * dim + k, c))
    triples = []
    for i in indices:
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


def _one_term_triples(P, indices):
    """``_associativity_triples`` on a table whose products have one term
    each.

    For b_i b_j = c b_m and b_m b_k = x b_l, (b_i b_j) b_k is the one term
    (l, c x) over D^2, and b_i (b_j b_k) is (l, c x) for b_j b_k = c b_m
    and b_i b_m = x b_l, reached through the column index
    m -> (j dim + k, c); a side with a zero factor is zero, and has no key.
    A product of two nonzero constants is nonzero over Q, and over F_p,
    whose constants are nonzero residues of a prime, once reduced mod p.
    So the sides are equal iff their terms are, which is what the packed
    sums and their balanced digits decide on a wider table, with no row
    packed."""
    p = P._p
    dim = P.dim
    _, rows = P._int_mul
    column = [[] for _ in range(dim)]  # m -> (j dim + k, c_jkm)
    for j, row in enumerate(rows):
        jd = j * dim
        for k, ((m, c),) in row.items():
            column[m].append((jd + k, c))
    triples = []
    for i in indices:
        row = rows[i]
        left = {j * dim + k: (l, c * x)
                for j, ((m, c),) in row.items() for k, ((l, x),) in rows[m].items()}
        right = {jk: (l, c * x) for m, ((l, x),) in row.items() for jk, c in column[m]}
        triples.extend((i, *divmod(jk, dim)) for jk in _unequal_terms(p, left, right))
    return triples


def _involution_law_pairs(P, indices=None):
    """The pairs (i, j), in order, with (b_i b_j)* != b_j* b_i*, for i in
    ``indices`` (ascending; every index by default).

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
    the widths that products and the associativity check read. Only the
    columns b the right side reads are packed, those in the supports of
    the b_i* visited. When every product and every b_m* has one term, each
    side is one term, compared as it is (``_one_term_pairs``).
    """
    F = P.field
    dim = P.dim
    _, rows = P._int_mul
    S, star = P._int_star
    width, top = P._table_bounds
    v = max(map(len, star))
    indices = range(dim) if indices is None else indices
    if width <= 1 and v <= 1:
        return _one_term_pairs(P, indices)
    u = max((abs(c) for row in star for _, c in row), default=0)
    t = (2 * (S * width * top * u + v * v * u * u * top)).bit_length()
    packed_star = [_pack(row, t) for row in star]
    read = {b for i in indices for b, _ in star[i]}
    by_right = [[] for _ in range(dim)]  # b -> (a, P_ab)
    for a, row in enumerate(rows):
        for b, e in row.items():
            if b in read:
                by_right[b].append((a, _pack(e, t)))
    star_column = [[] for _ in range(dim)]  # a -> (j, s_ja)
    for j, row in enumerate(star):
        for a, c in row:
            star_column[a].append((j, c))
    pairs = []
    for i in indices:
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


def _one_term_pairs(P, indices):
    """``_involution_law_pairs`` when every b_i b_j and every b_i* has at
    most one term.

    For b_i b_j = c b_m and b_m* = s b_n, the left side over D S^2 is the
    one term (n, S c s); for b_i* = s_i b_b, b_j* = s_j b_a and
    b_a b_b = c b_l, the right side is (l, s_j s_i c). Each j has one a,
    so the column index a -> (j, s_ja) gives each pair one right term. As
    in ``_one_term_triples``, a product of nonzero constants is nonzero, so
    the sides are equal iff their terms are once reduced mod p."""
    p = P._p
    dim = P.dim
    _, rows = P._int_mul
    S, star = P._int_star
    read = {b for i in indices for b, _ in star[i]}
    by_right = [[] for _ in range(dim)]  # b -> (a, l, c) for b_a b_b = c b_l
    for a, row in enumerate(rows):
        for b, ((l, c),) in row.items():
            if b in read:
                by_right[b].append((a, l, c))
    star_column = [[] for _ in range(dim)]  # a -> (j, s_ja)
    for j, row in enumerate(star):
        for a, c in row:
            star_column[a].append((j, c))
    pairs = []
    for i in indices:
        left = {j: (n, S * c * s) for j, ((m, c),) in rows[i].items() for n, s in star[m]}
        right = {j: (l, sj * s * c)
                 for b, s in star[i] for a, l, c in by_right[b] for j, sj in star_column[a]}
        pairs.extend((i, j) for j in _unequal_terms(p, left, right))
    return pairs


def _differs_from_basis(F, nums, i, scale):
    """Whether the vector with coordinates n / scale, for the ints n in the
    dict nums {index: n}, differs from b_i over F. nums is changed in
    place."""
    nums[i] = nums.get(i, 0) - scale
    return any(nums.values()) and bool(F.from_ints(nums, 1)[1])


def _unit_failures(P, indices=None):
    """The indices i, in order, with u b_i != b_i or b_i u != b_i for the
    declared unit u, for i in ``indices`` (ascending; every index by
    default).

    For u = sum n_m b_m / d and the integer structure constants over D, the
    coordinates of u b_i and b_i u over d D are sum_m n_m c_mik and
    sum_m n_m c_imk: a sum over the support of u for each side, in place
    of two products per basis element. As in ``_unequal_keys``, over F_p
    (d = D = 1) the raw sums of residues may differ from those of b_i by
    multiples of p, so a nonzero difference fails iff ``from_ints`` leaves
    it nonzero.
    """
    F = P.field
    D, rows = P._int_mul
    d, unit = P.unit.support
    one = d * D
    failures = []
    for i in range(P.dim) if indices is None else indices:
        left, right = {}, {}
        for m, n in unit:
            for k, c in rows[m].get(i, ()):
                left[k] = left.get(k, 0) + n * c
            for k, c in rows[i].get(m, ()):
                right[k] = right.get(k, 0) + n * c
        if _differs_from_basis(F, left, i, one) or _differs_from_basis(F, right, i, one):
            failures.append(i)
    return failures


def _order2_failures(P, indices=None):
    """The indices i, in order, with b_i** != b_i, for i in ``indices``
    (ascending; every index by default).

    For the integer involution over S, the coordinates of b_i** over S^2
    are sum_j s_ij s_jk, and a nonzero difference from b_i is decided by
    ``from_ints`` as in ``_unit_failures``.
    """
    F = P.field
    S, star = P._int_star
    failures = []
    for i in range(P.dim) if indices is None else indices:
        acc = {}
        for j, s in star[i]:
            for k, t in star[j]:
                acc[k] = acc.get(k, 0) + s * t
        if _differs_from_basis(F, acc, i, S * S):
            failures.append(i)
    return failures


@_per_presentation
def axiom_violations(P):
    """The violated algebra axioms, as a tuple of Violations: associativity
    (on one terms or packed rows, see ``_associativity_triples``), the
    involution laws, the unit law, then e^2 = e for every declared
    idempotent in name order.

    Associativity, the involution laws and the unit law are checked first
    only on the rows of a left generating set G (``_left_generators``),
    whose right-nested products span R. A law that holds on G holds on R
    when the elements x that satisfy it form a subspace A closed under
    x -> b_g x for every g in G: A contains each b_g, hence every
    right-nested product of G, so A = R. By the Teichmueller identity,
    which holds in every nonassociative algebra,

        (wx, y, z) - (w, xy, z) + (w, x, yz) = w (x, y, z) + (w, x, y) z

    for the associator (x, y, z) = (xy)z - x(yz): if (g, y, z) = 0 for
    every g in G and (x, y, z) = 0, for all y and z, then (gx, y, z) = 0.
    Once associativity holds, the involution law reduces the same way: if
    (gb)* = b* g* for every g in G and every b, and x satisfies the law,
    then ((gx) b)* = (g (xb))* = (xb)* g* = b* x* g* = b* (gx)*; and so
    does the unit law, since u (gx) = (ug) x = gx and (gx) u = g (xu) = gx.
    Once the involution law holds, ** is an automorphism,
    (xy)** = (y* x*)* = x** y**, so (gx)** = g** x** = gx whenever
    g** = g and x** = x.

    So a check that finds nothing on G proves its law on every index. A
    check that finds a violation on G, when G is not every index, is rerun
    on every index, and a check whose premises failed (the involution and
    unit laws once associativity fails, the order-2 law once the
    involution law fails) runs on every index outright. The violations,
    their order and their messages are therefore those of the checks on
    every row. On a dense table G is found through the span of products,
    and is two indices on the dense changes of basis of M3, M4 and M5.
    """
    gens = _left_generators(P)

    def on_generators(check, premises=True):
        if not premises:
            return check(P)
        found = check(P, gens)
        return check(P) if found and len(gens) < P.dim else found

    triples = on_generators(_associativity_triples)
    violations = [
        Violation("associativity", (i, j, k), f"(b{i}*b{j})*b{k} != b{i}*(b{j}*b{k})")
        for i, j, k in triples
    ]
    if P.has_involution:
        pairs = on_generators(_involution_law_pairs, not triples)
        for i in on_generators(_order2_failures, not pairs):
            violations.append(Violation("involution-order2", (i,), f"b{i}** != b{i}"))
        for i, j in pairs:
            violations.append(
                Violation(
                    "involution-antiautomorphism",
                    (i, j),
                    f"(b{i}*b{j})* != b{j}* * b{i}*",
                )
            )

    if P.unital:
        for i in on_generators(_unit_failures, not triples):
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
