"""Exact arithmetic on finite sums  sum_i c_i * sqrt(m_i)  with rational c_i.

Simplex volumes are square roots of rationals, so every mass that appears in
this package is a number of this shape.  Keeping them symbolic makes mass
comparisons exact: no tolerance is involved anywhere a guarantee says "exact".

Radicands are positive integers kept pairwise square-independent (no product
of two distinct keys is a perfect square), which makes the representation
canonical enough for zero testing: a sum is zero iff all coefficients are
zero, by linear independence of square roots of such integers over Q.
Signs of nonzero sums are decided by interval refinement with integer square
roots, which terminates because the value is provably nonzero.
`integer_rows` splits a list of such values over one set of radicands into
integer rows, the form in which the exact LP keeps its costs.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

# Trial-division primes for pulling square factors out of radicands.  Missing
# a large square factor never breaks correctness (pairwise normalization in
# _insert keeps the basis independent); it only makes keys less pretty.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)

_MAX_SIGN_BITS = 1 << 14


def _reduce_radicand(n: int) -> tuple[int, int]:
    # sqrt(n) = mult * sqrt(reduced)
    mult = 1
    for p in _SMALL_PRIMES:
        pp = p * p
        while n % pp == 0:
            n //= pp
            mult *= p
    root = isqrt(n)
    if root * root == n:
        return 1, mult * root
    return n, mult


def _fold_key(keys, rad: int) -> tuple[int, Fraction | int]:
    """(key, mult) with sqrt(rad) = mult * sqrt(key): the first of `keys`
    whose product with rad is a perfect square, else rad itself and 1."""
    if rad != 1:
        for key in keys:
            if key == rad:
                break
            prod = key * rad
            root = isqrt(prod)
            if root * root == prod:
                return key, Fraction(root, key)
    return rad, 1


def integer_rows(values) -> tuple[list[int], list[list[int]], int]:
    """Splits rationals and RadicalSums v_0..v_{n-1} over one set of
    radicands: returns (keys, rows, den) with

        v_j = sum_k rows[k][j] * sqrt(keys[k]) / den,

    rows[k] a list of n ints and den > 0 the least common denominator.
    Radicands are folded in value order the way `RadicalSum._insert` folds
    them, so sqrt(20402) = 101*sqrt(2) joins an earlier sqrt(2)."""
    values = list(values)   # alive until the end, so no id is reused
    index: dict[int, int] = {}
    known = {}   # id -> {key: coefficient}: a repeated object splits once
    for v in values:
        if id(v) not in known:
            parts = known[id(v)] = {}
            for rad, c in (v.terms if isinstance(v, RadicalSum)
                           else {1: Fraction(v)} if v else {}).items():
                key, mult = _fold_key(index, rad)
                index.setdefault(key, len(index))
                parts[key] = c * mult if mult != 1 else c
    den = lcm(*(c.denominator for parts in known.values() for c in parts.values()))
    scaled = {i: [(index[key], c.numerator * (den // c.denominator))
                  for key, c in parts.items()] for i, parts in known.items()}
    rows = [[0] * len(values) for _ in index]
    for j, v in enumerate(values):
        for k, coeff in scaled[id(v)]:
            rows[k][j] = coeff
    return list(index), rows, den


class RadicalSum:
    """Immutable-by-convention exact value  sum c_i*sqrt(m_i),  c_i in Q."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        # Internal constructor; terms assumed canonical. Use the classmethods.
        self.terms = terms if terms is not None else {}

    @classmethod
    def from_rational(cls, q) -> "RadicalSum":
        q = Fraction(q)
        return cls({1: q} if q else {})

    @classmethod
    def sqrt_rational(cls, q) -> "RadicalSum":
        """sqrt(p/q) as a RadicalSum; q must be >= 0."""
        q = Fraction(q)
        if q < 0:
            raise ValueError("square root of a negative rational")
        if q == 0:
            return cls()
        rad = q.numerator * q.denominator  # sqrt(p/q) = sqrt(p*q)/q
        rad, mult = _reduce_radicand(rad)
        out = cls()
        out._insert(rad, Fraction(mult, q.denominator))
        return out

    @classmethod
    def from_weights(cls, weights) -> "RadicalSum":
        """sum w * sqrt(rad) over a {rad: w} map, each radicand folded in
        once, in the map's order."""
        out = cls()
        for rad, w in weights.items():
            out._insert(rad, w)
        return out

    def _insert(self, rad: int, coeff: Fraction) -> None:
        if not coeff:
            return
        rad, mult = _fold_key(self.terms, rad)
        if mult != 1:
            coeff = coeff * mult
        old = self.terms.get(rad)
        c = coeff if old is None else old + coeff
        if c:
            self.terms[rad] = c
        else:
            self.terms.pop(rad, None)

    # -- ring operations ---------------------------------------------------

    def _coerce(other) -> "RadicalSum | None":
        if isinstance(other, RadicalSum):
            return other
        if isinstance(other, (int, Fraction)):
            return RadicalSum.from_rational(other)
        return None

    def __add__(self, other):
        o = RadicalSum._coerce(other)
        if o is None:
            return NotImplemented
        out = RadicalSum(dict(self.terms))
        for rad, c in o.terms.items():
            out._insert(rad, c)
        return out

    __radd__ = __add__

    def __neg__(self):
        return RadicalSum({r: -c for r, c in self.terms.items()})

    def __sub__(self, other):
        o = RadicalSum._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = RadicalSum._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if other == 0:
                return RadicalSum()
            return RadicalSum({r: c * other for r, c in self.terms.items()})
        if isinstance(other, RadicalSum):
            out = RadicalSum()
            for r1, c1 in self.terms.items():
                for r2, c2 in other.terms.items():
                    rad, mult = _reduce_radicand(r1 * r2)
                    out._insert(rad, c1 * c2 * mult)
            return out
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return all(r == 1 for r in self.terms)

    def as_rational(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if self.is_rational():
            return self.terms[1]
        raise ValueError("value is irrational: %r" % self)

    def sign(self) -> int:
        """-1, 0 or 1.  A sum with coefficients of mixed signs is bracketed
        with floor(sqrt(rad) * 2^bits) for bits = 32, 64, ... up to
        _MAX_SIGN_BITS, until the bracket excludes 0.  The refinement runs
        in integers: every coefficient is scaled by their least common
        denominator and every root by 2^bits, which moves no decision."""
        terms = self.terms
        if not terms:
            return 0
        if all(c > 0 for c in terms.values()):
            return 1
        if all(c < 0 for c in terms.values()):
            return -1
        den = lcm(*(c.denominator for c in terms.values()))
        scaled = [(rad, c.numerator * (den // c.denominator)) for rad, c in terms.items()]
        # the bracket is [base + below, base + above], base = sum c*floor(.)
        below = sum(c for _, c in scaled if c < 0)
        above = sum(c for _, c in scaled if c > 0)
        bits = 32
        while bits <= _MAX_SIGN_BITS:
            base = sum(c * isqrt(rad << 2 * bits) for rad, c in scaled)
            if base + below > 0:
                return 1
            if base + above < 0:
                return -1
            bits *= 2
        raise ArithmeticError("sign undecided at %d bits: %r" % (_MAX_SIGN_BITS, self))

    # -- comparisons (total order) ------------------------------------------

    def _cmp(self, other) -> int:
        o = RadicalSum._coerce(other)
        if o is None:
            raise TypeError("cannot compare RadicalSum with %r" % type(other))
        return (self - o).sign()

    def __eq__(self, other):
        o = RadicalSum._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).is_zero()

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    __hash__ = None  # mutable dict inside; not hashable

    # -- conversion -----------------------------------------------------------

    def __float__(self) -> float:
        total = 0.0
        for rad, c in self.terms.items():
            # integer sqrt at 53 extra bits keeps big radicands finite/accurate
            approx = isqrt(rad << 106) / float(1 << 53)
            total += float(c) * approx
        return total

    def __str__(self):
        """Closed form with radicands ascending, e.g. "1/2 + 3*sqrt(2)"."""
        if not self.terms:
            return "0"
        return " + ".join(str(c) if rad == 1 else "%s*sqrt(%d)" % (c, rad)
                          for rad, c in sorted(self.terms.items()))

    def __repr__(self):
        return "RadicalSum(%s)" % self
