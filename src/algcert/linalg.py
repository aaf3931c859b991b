"""Exact linear algebra over Q and over odd prime fields.

Vectors are tuples of scalars: :class:`fractions.Fraction` over Q, plain
int residues in [0, p-1] over F_p. A span is kept in reduced row-echelon
form, which makes it canonical: two lists of vectors with the same span
echelonize to identical rows, so subspace equality is plain ``==``.

Elimination runs on sparse rows of ints, so it costs the supports of the
vectors and rows it touches, not the dimension. A row holds only its
nonzero entries. Over Q a row is primitive: its pivot entry is positive,
its other pivot columns are zero and the gcd of its entries is 1, so it is
the canonical row times the lcm of its denominators. Over F_p a row holds
residues with pivot entry 1. A vector enters as a dict {column: int} and
is cleared fraction-free, as w <- a*w - c*row (after Bareiss 1968), mod p
over F_p, and divided by its gcd when it is stored. Since every row is
zero at the other pivot columns, clearing one pivot never changes another:
a vector is cleared only against the rows of the pivots in its support,
and a new row clears its pivot column only from the rows that hold it.

A :class:`SpanBuilder` keeps its rows as dicts {column: int} keyed by
their pivots, with an index from each other column to the rows nonzero
there. A :class:`Subspace` snapshot holds the rows as tuples of their
``(column, n)`` entries in column order, which compare and hash
canonically, and nothing else; its Fraction ``basis`` is built on first
read. A :class:`CombinationSolver` keeps each row's combination of its
inputs as ints over a common denominator. Fractions appear only where a
value leaves the integer form: a ``basis`` that is read, the remainder
``reduce`` returns and the coefficients a solve returns. An Element passed
as a vector hands over its integer support, and nothing here reads its
dense coordinates; a zero Element is only length-checked (and counted by
the solver), never eliminated.

The fields turn integers back into scalars: ``from_ints(nums, d)`` gives
the canonical support of the vector nums / d for a dict nums {index: int}
(an Element's form, see ``algebra``), and ``to_coords`` the dense tuple of
a support.

Everything here is immutable after construction except :class:`SpanBuilder`,
the mutable accumulator used while a span is still growing.
"""

from __future__ import annotations

import functools
import re
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionError, FieldMismatchError, FormatError

_RAT_RE = re.compile(r"^-?\d+(/\d+)?$")
_INT_RE = re.compile(r"^-?\d+$")


def _digits(s):
    """int(s) for a string of digits; past the interpreter's limit on the
    digits of an int-string conversion, a FormatError rather than int's
    ValueError."""
    try:
        return int(s)
    except ValueError:
        raise FormatError(f"number too long to convert: {len(s)} characters") from None


class RationalField:
    """Arbitrary-precision rationals; Fraction keeps them in lowest terms
    with positive denominator, which is exactly the canonical form the
    serialization needs."""

    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        # A Fraction is immutable and already in lowest terms.
        return x if type(x) is Fraction else Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def from_ints(self, nums, d):
        """The support (d', ((k, n'), ...)) of the vector with coordinates
        n / d for the ints n in the dict nums {k: n}, zeros allowed: its
        nonzero coordinates in index order as ints n' over the lcm d' > 0
        of their denominators, which is nums and d divided by their gcd."""
        g = gcd(d, *nums.values())
        if d < 0:
            g = -g
        if g == 1:
            return d, tuple(sorted([(k, n) for k, n in nums.items() if n]))
        return d // g, tuple(sorted([(k, n // g) for k, n in nums.items() if n]))

    def to_coords(self, support, dim):
        """The dense coordinate tuple of length dim of a support."""
        d, pairs = support
        out = [self.zero] * dim
        for k, n in pairs:
            out[k] = Fraction(n, d)
        return tuple(out)

    def parse(self, s):
        # The exact string "0", most entries of a dense file, needs no
        # conversion; "-0", "00" and the rest take the checked path.
        if s == "0":
            return self.zero
        if not isinstance(s, str) or not _RAT_RE.match(s):
            raise FormatError(f"not a rational scalar: {s!r}")
        num, _, den = s.partition("/")
        try:
            return Fraction(_digits(num), _digits(den) if den else 1)
        except ZeroDivisionError:
            raise FormatError(f"zero denominator in rational scalar: {s!r}") from None

    def format(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """Residues modulo an odd prime p, stored as ints in [0, p-1]."""

    def __init__(self, p):
        if isinstance(p, int) and p >= PRIME_BOUND:
            raise FormatError(f"prime field modulus must be below {PRIME_BOUND}, got {p}")
        if not isinstance(p, int) or p < 3 or p % 2 == 0 or not _is_prime(p):
            raise FormatError(f"prime field needs an odd prime, got {p!r}")
        self.p = p
        self.name = f"Fp:{p}"
        self.zero = 0
        self.one = 1

    def coerce(self, x):
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def from_ints(self, nums, d):
        """The support (1, ((k, residue), ...)) of the vector with
        coordinates n / d for the ints n in the dict nums {k: n}: its
        nonzero residues in index order."""
        p = self.p
        inv = pow(d, -1, p)
        return 1, tuple(sorted([(k, r) for k, n in nums.items() if (r := n * inv % p)]))

    def to_coords(self, support, dim):
        """The dense residue tuple of length dim of a support."""
        out = [0] * dim
        for k, r in support[1]:
            out[k] = r
        return tuple(out)

    def parse(self, s):
        if s == "0":
            return self.zero
        if not isinstance(s, str) or not _INT_RE.match(s):
            raise FormatError(f"not a prime-field scalar: {s!r}")
        return _digits(s) % self.p

    def format(self, a):
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


QQ = RationalField()


# Miller-Rabin with the prime bases 2..41 is exact below this bound, the
# least strong pseudoprime to all of them (Sorenson and Webster). The bases
# 2..37 alone are not: 318665857834031151167461 is a strong pseudoprime to
# each of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin primality, exact for n < PRIME_BOUND."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def field_from_name(name):
    """Resolve a field tag: "Q" or "Fp:<p>"."""
    if name == "Q":
        return QQ
    if isinstance(name, str) and name.startswith("Fp:"):
        tail = name[3:]
        if not _INT_RE.match(tail):
            raise FormatError(f"bad prime field tag: {name!r}")
        return PrimeField(_digits(tail))
    raise FormatError(f"unknown field tag: {name!r}")


def _check_length(vec, ambient_dim):
    if len(vec) != ambient_dim:
        raise DimensionError(f"vector length {len(vec)} != ambient dim {ambient_dim}")


def _is_zero_element(vec):
    """True for an Element (anything with a ``support``) that is zero."""
    support = getattr(vec, "support", None)
    return support is not None and not support[1]


def _modulus(field):
    """p over F_p, 0 over Q."""
    return getattr(field, "p", 0)


def _int_vector(field, vec, ambient_dim):
    """(d, w) with vec = w / d for a new dict w of nonzero ints keyed by
    column, in column order: residues and d = 1 over F_p. An Element
    (anything with a ``support``) hands over its nonzero coordinates as
    they are."""
    _check_length(vec, ambient_dim)
    support = getattr(vec, "support", None)
    if support is not None:
        d, pairs = support
        return d, dict(pairs)
    p = _modulus(field)
    if p:
        return 1, {k: r for k, x in enumerate(vec) if (r := x % p)}
    d = lcm(*(x.denominator for x in vec))
    return d, {k: x.numerator * (d // x.denominator) for k, x in enumerate(vec) if x}


def _eliminate(w, rows, p):
    """Clear the pivot columns of the int dict w against the integer rows
    {pivot: {column: int}} of a reduced echelon form, fraction-free:
    w <- a*w - c*row for the row's pivot entry a and c = w[pivot], divided
    by gcd(a, c). Over F_p (p > 0) every pivot entry is 1 and the step runs
    mod p. A row is zero at every other pivot column, so clearing one pivot
    never changes w at another: the pivots cleared are those in the support
    w has on entry, visited in its order. Only their rows are read.

    w is changed in place to s times the exact remainder of the input, and
    keeps only nonzero entries; returns s.
    """
    s = 1
    for j in [j for j in w if j in rows]:
        row = rows[j]
        c = w[j]
        if p:
            for k, y in row.items():
                x = (w.get(k, 0) - c * y) % p
                if x:
                    w[k] = x
                else:
                    del w[k]
            continue
        a = row[j]
        g = gcd(a, c)
        a //= g
        c //= g
        if a != 1:
            for k in w:
                w[k] *= a
            s *= a
        for k, y in row.items():
            x = w.get(k, 0) - c * y
            if x:
                w[k] = x
            else:
                del w[k]
    return s


def _make_primitive(w, j, p):
    """Make the nonzero int dict w, with pivot column j, the row stored
    for it, in place: divided by the gcd of its entries with its pivot
    entry positive over Q, pivot entry 1 over F_p."""
    if p:
        inv = pow(w[j], -1, p)
        if inv != 1:
            for k in w:
                w[k] = w[k] * inv % p
        return
    g = gcd(*w.values())
    if w[j] < 0:
        g = -g
    if g != 1:
        for k in w:
            w[k] //= g


class _Echelon:
    """Reduction against integer rows in reduced echelon form, shared by
    :class:`Subspace` and :class:`SpanBuilder`, which provide ``field``,
    ``ambient_dim``, ``rows`` and ``_pivot_rows``, the rows as
    {pivot: {column: int}}."""

    @property
    def rank(self):
        return len(self.rows)

    @property
    def is_full(self):
        return len(self.rows) == self.ambient_dim

    def _int_remainder(self, vec):
        """(d, w): the remainder of vec after elimination against the rows
        is w / d for the dict w of nonzero ints (residues over F_p)."""
        d, w = _int_vector(self.field, vec, self.ambient_dim)
        s = _eliminate(w, self._pivot_rows, _modulus(self.field))
        return d * s, w

    def reduce(self, vec):
        """Remainder of vec after elimination against the rows."""
        F = self.field
        d, w = self._int_remainder(vec)
        return F.to_coords(F.from_ints(w, d), self.ambient_dim)

    def contains(self, vec):
        """Whether the remainder of vec is zero, read off its integer form
        without building its coordinates."""
        return not self._int_remainder(vec)[1]


@dataclass(frozen=True)
class Subspace(_Echelon):
    """A linear subspace, held as the integer rows of its canonical reduced
    row-echelon basis. ``rows[r]`` is the r-th canonical row times the lcm
    of its denominators (primitive, pivot entry positive) over Q, and the
    canonical row itself over F_p, as the tuple of its nonzero entries
    ``((column, n), ...)`` in column order; its first entry is its pivot.
    Pivots strictly increase and every pivot column is zero outside its
    row, so the rows are canonical and equality of subspaces is equality
    of rows. Only :meth:`SpanBuilder.subspace` builds one.
    """

    field: object
    ambient_dim: int
    pivots: tuple
    rows: tuple

    @functools.cached_property
    def _pivot_rows(self):
        """{pivot: {column: int}}, the rows as reduction reads them, built
        on first use."""
        return {row[0][0]: dict(row) for row in self.rows}

    @functools.cached_property
    def basis(self):
        """The canonical basis as tuples of field scalars (pivot entries 1),
        built on first read: a row over its pivot entry is a canonical
        support, since the row is primitive."""
        F = self.field
        return tuple(F.to_coords((row[0][1], row), self.ambient_dim) for row in self.rows)

    @functools.cached_property
    def _sparse_basis(self):
        """(m, rows): the canonical basis as sparse integer rows over the lcm
        m of the pivot entries of the integer rows, rows[r] = ((k, n), ...)
        with basis[r][k] = n / m (m = 1 over F_p). Built on first use."""
        m = lcm(*(row[0][1] for row in self.rows))
        return m, tuple(
            tuple((k, m // row[0][1] * n) for k, n in row) for row in self.rows
        )

    def contains_subspace(self, other):
        _check_compatible(self, other)
        rows, p = self._pivot_rows, _modulus(self.field)
        for row in other.rows:
            w = dict(row)
            _eliminate(w, rows, p)
            if w:
                return False
        return True

    def builder(self):
        b = SpanBuilder(self.field, self.ambient_dim)
        for j, row in zip(self.pivots, self.rows):
            b.rows[j] = dict(row)
            for k, _ in row[1:]:
                b._holders.setdefault(k, set()).add(j)
        b.pivots = list(self.pivots)
        return b


class SpanBuilder(_Echelon):
    """Mutable reduced-row-echelon accumulator.

    ``add`` keeps the stored rows in full reduced echelon form at all times,
    as integer rows (see the module docstring), so the frozen
    :class:`Subspace` snapshot is canonical no matter what order vectors
    arrived in. ``rows`` maps each pivot to its row {column: int},
    ``pivots`` lists the pivots in increasing order, and ``_holders`` maps
    each column that is not a pivot to the pivots of the rows that are
    nonzero there.
    """

    def __init__(self, field, ambient_dim):
        if ambient_dim < 0:
            raise DimensionError("ambient dimension must be >= 0")
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = {}
        self.pivots = []
        self._holders = {}

    @property
    def _pivot_rows(self):
        return self.rows

    def add(self, vec):
        """Insert vec into the span. Returns True iff the rank grew. A full
        span and a zero Element return False once the length is checked."""
        if self.is_full or _is_zero_element(vec):
            _check_length(vec, self.ambient_dim)
            return False
        _, w = _int_vector(self.field, vec, self.ambient_dim)
        _eliminate(w, self.rows, _modulus(self.field))
        if not w:
            return False
        self._insert(w, min(w))
        return True

    def _insert(self, w, j):
        """Store the nonzero remainder w, already eliminated against the
        rows, whose first nonzero column is j: clear column j from the rows
        that hold it (a*row - c*w over gcd(a, c), a = w[j], c = row[j], then
        made primitive; mod p over F_p, where pivot entries stay 1) and
        insert w as a row. w becomes the row."""
        p = _modulus(self.field)
        _make_primitive(w, j, p)
        a = w[j]
        rows, holders = self.rows, self._holders
        for k in w:
            if k != j:
                holders.setdefault(k, set()).add(j)
        for q in holders.pop(j, ()):
            row = rows[q]
            c = row[j]
            if not p:
                g = gcd(a, c)
                if a != g:
                    f = a // g
                    for k in row:
                        row[k] *= f
                c //= g
            for k, y in w.items():
                x = row.get(k)
                if x is None:
                    row[k] = (-c * y) % p if p else -c * y
                    holders[k].add(q)
                    continue
                x -= c * y
                if p:
                    x %= p
                if x:
                    row[k] = x
                else:
                    del row[k]
                    if k != j:
                        holders[k].discard(q)
            if not p:
                _make_primitive(row, q, 0)
        rows[j] = w
        insort(self.pivots, j)

    def subspace(self):
        """The frozen snapshot of the span: its pivots and rows, copied."""
        rows = self.rows
        return Subspace(
            self.field,
            self.ambient_dim,
            tuple(self.pivots),
            tuple(tuple(sorted(rows[j].items())) for j in self.pivots),
        )


def _check_compatible(a, b):
    if a.field != b.field:
        raise FieldMismatchError(f"fields differ: {a.field} vs {b.field}")
    if a.ambient_dim != b.ambient_dim:
        raise DimensionError(
            f"ambient dims differ: {a.ambient_dim} vs {b.ambient_dim}"
        )


def echelonize(field, vectors, ambient_dim):
    """Canonical reduced-echelon basis of the span of ``vectors``."""
    b = SpanBuilder(field, ambient_dim)
    for v in vectors:
        b.add(v)
    return b.subspace()


def _lowest(nums, d, p):
    """The combination nums / d, for a dict nums of input index -> int, as
    (D, N) in lowest terms with its zero entries dropped: D > 0 and
    gcd(D, *N.values()) = 1 over Q, D = 1 and N residues over F_p."""
    if p:
        inv = pow(d, -1, p)
        return 1, {i: r for i, n in nums.items() if (r := n * inv % p)}
    nums = {i: n for i, n in nums.items() if n}
    g = gcd(d, *nums.values())
    if d < 0:
        g = -g
    if g != 1:
        d //= g
        nums = {i: n // g for i, n in nums.items()}
    return d, nums


class CombinationSolver:
    """Incremental exact solver that remembers how each pivot row was formed
    from the input vectors, so a solve returns explicit combination
    coefficients. Elimination order is insertion order, which makes the
    returned witnesses deterministic.

    The rows are the integer rows of a SpanBuilder, and an input that does
    not grow it is only counted: no solution uses it. Each row's
    combination is kept in integers, keyed by its pivot column q, as
    (D, N) with canonical row_q = sum_i N[i] / D * input_i, in lowest terms
    (D = 1 and N residues over F_p). A vector v in the span equals
    sum v[q] * row_q over the pivots q in its support, which is how a
    solve reads its coefficients and how an input's remainder is written
    in the inputs; Fractions are built only for the coefficients a solve
    returns.
    """

    def __init__(self, field, ambient_dim):
        self.field = field
        self.ambient_dim = ambient_dim
        self.count = 0
        self._span = SpanBuilder(field, ambient_dim)
        self._combos = {}  # pivot column -> (D, {input index: N})

    def _expand(self, w):
        """(L, sums) with sum_q w[q] * row_q = sum_i sums[i] / L * input_i
        over the pivots q in the support of the int dict w, in its order: L
        is the lcm of their combinations' D, and zero sums are kept (reduced
        mod p over F_p by the caller)."""
        combos = self._combos
        terms = [(x, combos[q]) for q, x in w.items() if q in combos]
        L = lcm(*(D for _, (D, _) in terms))
        sums = {}
        for x, (D, N) in terms:
            m = x * (L // D)
            for i, n in N.items():
                sums[i] = sums.get(i, 0) + m * n
        return L, sums

    def add(self, vec):
        """Register one more input vector. Returns True iff the rank grew.
        A zero Element, or any input once the span is full, is only counted
        after its length is checked."""
        idx = self.count
        self.count += 1
        span = self._span
        if span.is_full or _is_zero_element(vec):
            _check_length(vec, self.ambient_dim)
            return False
        p = _modulus(self.field)
        d, w = _int_vector(self.field, vec, self.ambient_dim)
        r = dict(w)
        s = _eliminate(r, span.rows, p)
        if not r:
            return False
        j = min(r)
        # r = s * (d * vec - sum_q w[q] * row_q), so the new canonical row
        # r / r[j] is s / r[j] times that combination of the inputs.
        L, sums = self._expand(w)
        nums = {i: -s * t for i, t in sums.items()}
        nums[idx] = s * d * L
        new = _lowest(nums, r[j] * L, p)
        # Inserting r clears column j of each row: row_q - (c / b) * r / r[j]
        # for c = row[j] and the pivot entry b = row[q] (b = 1 over F_p).
        rows = span.rows
        changed = [(q, rows[q][j], rows[q][q]) for q in span._holders.get(j, ())]
        span._insert(r, j)
        combos = self._combos
        Dn, Nn = new
        for q, c, b in changed:
            D, N = combos[q]
            M = lcm(D, b * Dn)
            nums = {i: n * (M // D) for i, n in N.items()}
            f = c * (M // (b * Dn))
            for i, n in Nn.items():
                nums[i] = nums.get(i, 0) - f * n
            combos[q] = _lowest(nums, M, p)
        combos[j] = new
        return True

    @property
    def rank(self):
        return self._span.rank

    def combination(self, k):
        """The combination of the k-th pivot row as {input index: scalar}:
        the canonical row is sum coefficient * input."""
        D, N = self._combos[self._span.pivots[k]]
        if _modulus(self.field):
            return dict(N)
        return {i: Fraction(n, D) for i, n in N.items()}

    def solve(self, target):
        """Sparse dict {input index: coeff} expressing target, or None."""
        span = self._span
        p = _modulus(self.field)
        d, w = _int_vector(self.field, target, self.ambient_dim)
        r = dict(w)
        _eliminate(r, span.rows, p)
        if r:
            return None
        L, sums = self._expand(w)
        if p:
            return _lowest(sums, d * L, p)[1]
        return {i: Fraction(t, d * L) for i, t in sums.items() if t}
