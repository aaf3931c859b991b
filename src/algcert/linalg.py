"""Exact linear algebra over Q and over odd prime fields.

Vectors are tuples of scalars: :class:`fractions.Fraction` over Q, plain
int residues in [0, p-1] over F_p. Subspaces are stored as reduced
row-echelon bases, which makes every span canonical: two lists of vectors
with the same span echelonize to bit-identical bases, so subspace equality
is plain ``==``.

Everything here is immutable after construction except :class:`SpanBuilder`,
the mutable accumulator used while a span is still growing.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd

from .errors import DimensionError, FieldMismatchError, FormatError

_RAT_RE = re.compile(r"^-?\d+(/\d+)?$")
_INT_RE = re.compile(r"^-?\d+$")


class RationalField:
    """Arbitrary-precision rationals; Fraction keeps them in lowest terms
    with positive denominator, which is exactly the canonical form the
    serialization needs."""

    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        return Fraction(x)

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
        """The vector with coordinates n / d for the ints n in the list nums:
        (coords, (d', ((k, n'), ...))), its canonical coordinates and its
        nonzero ones as ints n' over the lcm d' of their denominators."""
        nonzero = list(compress(range(len(nums)), nums))
        g = gcd(d, *(nums[k] for k in nonzero))
        d //= g
        out = [self.zero] * len(nums)
        support = []
        for k in nonzero:
            n = nums[k] // g
            out[k] = Fraction(n, d)
            support.append((k, n))
        return tuple(out), (d, tuple(support))

    def parse(self, s):
        if not isinstance(s, str) or not _RAT_RE.match(s):
            raise FormatError(f"not a rational scalar: {s!r}")
        try:
            return Fraction(s)
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
        """The vector with coordinates n / d for the ints n in the list nums:
        (coords, (1, ((k, residue), ...))), its residues and its nonzero
        ones."""
        p = self.p
        inv = pow(d, -1, p)
        out = list(nums)
        support = []
        for k in compress(range(len(out)), out):
            r = out[k] = out[k] * inv % p
            if r:
                support.append((k, r))
        return tuple(out), (1, tuple(support))

    def parse(self, s):
        if not isinstance(s, str) or not _INT_RE.match(s):
            raise FormatError(f"not a prime-field scalar: {s!r}")
        return int(s) % self.p

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
        return PrimeField(int(tail))
    raise FormatError(f"unknown field tag: {name!r}")


def parse_vector(field, items, ambient_dim):
    if len(items) != ambient_dim:
        raise DimensionError(
            f"vector has length {len(items)}, expected {ambient_dim}"
        )
    return tuple(field.parse(s) for s in items)


def format_vector(field, vec):
    return [field.format(x) for x in vec]


def _check_length(vec, ambient_dim):
    if len(vec) != ambient_dim:
        raise DimensionError(f"vector length {len(vec)} != ambient dim {ambient_dim}")


def _first_nonzero(v):
    for i, x in enumerate(v):
        if x:
            return i
    return None


@dataclass(frozen=True)
class Subspace:
    """A linear subspace in canonical reduced row-echelon form.

    Invariants: pivot entries are 1, pivot columns are otherwise zero,
    pivots strictly increase. Equality of subspaces is equality of bases.
    """

    field: object
    ambient_dim: int
    basis: tuple
    pivots: tuple

    @property
    def rank(self):
        return len(self.basis)

    @property
    def is_full(self):
        return self.rank == self.ambient_dim

    def reduce(self, vec):
        """Remainder of vec after elimination against the basis."""
        _check_length(vec, self.ambient_dim)
        F = self.field
        w = list(vec)
        for p, row in zip(self.pivots, self.basis):
            c = w[p]
            if c:
                w = [F.sub(a, F.mul(c, b)) for a, b in zip(w, row)]
        return tuple(w)

    def contains(self, vec):
        return _first_nonzero(self.reduce(vec)) is None

    def contains_subspace(self, other):
        _check_compatible(self, other)
        return all(self.contains(row) for row in other.basis)

    def builder(self):
        b = SpanBuilder(self.field, self.ambient_dim)
        for row in self.basis:
            b.add(row)
        return b


class SpanBuilder:
    """Mutable reduced-row-echelon accumulator.

    ``add`` keeps the stored rows in full RREF at all times, so the frozen
    :class:`Subspace` snapshot is canonical no matter what order vectors
    arrived in.
    """

    def __init__(self, field, ambient_dim):
        if ambient_dim < 0:
            raise DimensionError("ambient dimension must be >= 0")
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = []
        self.pivots = []

    @property
    def rank(self):
        return len(self.rows)

    @property
    def is_full(self):
        return len(self.rows) == self.ambient_dim

    def reduce(self, vec):
        _check_length(vec, self.ambient_dim)
        F = self.field
        w = list(vec)
        for p, row in zip(self.pivots, self.rows):
            c = w[p]
            if c:
                w = [F.sub(a, F.mul(c, b)) for a, b in zip(w, row)]
        return w

    def contains(self, vec):
        return _first_nonzero(self.reduce(vec)) is None

    def add(self, vec):
        """Insert vec into the span. Returns True iff the rank grew."""
        if self.is_full:
            _check_length(vec, self.ambient_dim)
            return False
        F = self.field
        w = self.reduce(vec)
        j = _first_nonzero(w)
        if j is None:
            return False
        inv = F.inv(w[j])
        w = [F.mul(inv, a) for a in w]
        for k, row in enumerate(self.rows):
            c = row[j]
            if c:
                self.rows[k] = [F.sub(a, F.mul(c, b)) for a, b in zip(row, w)]
        at = bisect_left(self.pivots, j)
        self.pivots.insert(at, j)
        self.rows.insert(at, w)
        return True

    def subspace(self):
        return Subspace(
            self.field,
            self.ambient_dim,
            tuple(tuple(r) for r in self.rows),
            tuple(self.pivots),
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


def subspace_sum(a, b):
    """Canonical basis of a + b."""
    _check_compatible(a, b)
    out = a.builder()
    for row in b.basis:
        out.add(row)
    return out.subspace()


def intersect(a, b):
    """Canonical basis of the intersection, by the Zassenhaus block trick."""
    _check_compatible(a, b)
    n = a.ambient_dim
    F = a.field
    big = SpanBuilder(F, 2 * n)
    for u in a.basis:
        big.add(tuple(u) + tuple(u))
    for w in b.basis:
        big.add(tuple(w) + (F.zero,) * n)
    out = SpanBuilder(F, n)
    for row in big.rows:
        if _first_nonzero(row[:n]) is None:
            out.add(row[n:])
    return out.subspace()


class CombinationSolver:
    """Incremental exact solver that remembers how each pivot row was formed
    from the input vectors, so a solve returns explicit combination
    coefficients. Elimination order is insertion order, which makes the
    returned witnesses deterministic.
    """

    def __init__(self, field, ambient_dim):
        self.field = field
        self.ambient_dim = ambient_dim
        self.count = 0
        self.rows = []    # reduced rows, pivot entry 1
        self.combos = []  # sparse dicts: input index -> coefficient
        self.pivots = []

    def _reduce(self, vec, combo):
        F = self.field
        v = list(vec)
        c = dict(combo)
        for p, row, cb in zip(self.pivots, self.rows, self.combos):
            f = v[p]
            if f:
                v = [F.sub(a, F.mul(f, b)) for a, b in zip(v, row)]
                for i, b in cb.items():
                    c[i] = F.sub(c.get(i, F.zero), F.mul(f, b))
        return v, c

    def add(self, vec):
        """Register one more input vector. Returns True iff the rank grew."""
        _check_length(vec, self.ambient_dim)
        F = self.field
        idx = self.count
        self.count += 1
        v, c = self._reduce(vec, {idx: F.one})
        j = _first_nonzero(v)
        if j is None:
            return False
        inv = F.inv(v[j])
        v = [F.mul(inv, a) for a in v]
        c = {i: F.mul(inv, a) for i, a in c.items()}
        for k, (row, cb) in enumerate(zip(self.rows, self.combos)):
            f = row[j]
            if f:
                self.rows[k] = [F.sub(a, F.mul(f, b)) for a, b in zip(row, v)]
                new_cb = dict(cb)
                for i, b in c.items():
                    new_cb[i] = F.sub(new_cb.get(i, F.zero), F.mul(f, b))
                self.combos[k] = new_cb
        at = bisect_left(self.pivots, j)
        self.pivots.insert(at, j)
        self.rows.insert(at, v)
        self.combos.insert(at, c)
        return True

    @property
    def rank(self):
        return len(self.rows)

    def solve(self, target):
        """Sparse dict {input index: coeff} expressing target, or None."""
        F = self.field
        v, c = self._reduce(target, {})
        if _first_nonzero(v) is not None:
            return None
        return {i: F.neg(a) for i, a in c.items() if a}


def linear_combination(field, vectors, target):
    """Exact coefficients c with sum(c_i * vectors[i]) == target, or None."""
    solver = CombinationSolver(field, len(target))
    for v in vectors:
        solver.add(v)
    sol = solver.solve(target)
    if sol is None:
        return None
    out = [field.zero] * len(vectors)
    for i, c in sol.items():
        out[i] = c
    return out
