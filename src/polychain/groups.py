"""Normed abelian coefficient groups for polyhedral chains.

Four concrete groups: the reals, the integers, the integers mod p (p >= 2),
and the circle R/Z.  Elements are always exact rationals (`Fraction`); the
circle and mod-p groups store the canonical representative ([0,1) resp.
{0,...,p-1}) and use the quotient norm min(v, 1-v) resp. min(v, p-v).

Each group defines its reduction and its norm once, on integers: for an
element num/den, `wrap(num, den)` is the canonical element's numerator over
the same den (num for the reals and the integers, num mod den for the
circle, num mod p*den for mod p), and `norm_num(num, den)` is its norm's
numerator over den.  Chains sum their coefficients as numerators over one
common denominator with these two (`chains.summed`, `PolyChain.mass_exact`);
`normalize` and `norm` are the same two read on one `Fraction`.

The projection R -> R/Z and its minimal-norm section are the concrete
homomorphism pair used by the lifting machinery; their norm constants are
exactly 1 in both directions (see `project` / `section`).
"""

from __future__ import annotations

from fractions import Fraction


class GroupError(ValueError):
    pass


def _fraction(value) -> Fraction:
    # a Fraction is immutable, so it is returned as it is, not copied
    return value if isinstance(value, Fraction) else Fraction(value)


class Group:
    """Base class; concrete groups are stateless singletons (except ModP).

    The base `wrap` and `norm_num` are those of the reals and the integers,
    where every element is its own canonical representative."""

    tag = "abstract"

    def wrap(self, num: int, den: int) -> int:
        """The numerator over den of the canonical element num/den."""
        return num

    def norm_num(self, num: int, den: int) -> int:
        """The numerator over den of the norm of num/den."""
        return abs(num)

    def normalize(self, value) -> Fraction:
        v = _fraction(value)
        num = self.wrap(v.numerator, v.denominator)
        return v if num == v.numerator else Fraction(num, v.denominator)

    def norm(self, value) -> Fraction:
        v = self.normalize(value)
        num = self.norm_num(v.numerator, v.denominator)
        return v if num == v.numerator else Fraction(num, v.denominator)

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return self.normalize(a + b)

    def neg(self, a: Fraction) -> Fraction:
        return self.normalize(-a)

    def scale(self, a: Fraction, s) -> Fraction:
        """s*a for integer s; the real group also accepts rational s."""
        if not isinstance(s, int):
            raise GroupError("%s coefficients scale by integers only" % self.tag)
        return self.normalize(a * s)

    def __repr__(self):
        return "Group(%s)" % self.tag

    def __eq__(self, other):
        return isinstance(other, Group) and self.tag == other.tag

    def __hash__(self):
        return hash(self.tag)


class RealGroup(Group):
    tag = "real"

    def scale(self, a, s) -> Fraction:
        return _fraction(a) * _fraction(s)


class IntegerGroup(Group):
    tag = "integer"

    def normalize(self, value) -> Fraction:
        v = _fraction(value)
        if v.denominator != 1:
            raise GroupError("integer coefficient expected, got %s" % v)
        return v


class ModPGroup(Group):
    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2:
            raise GroupError("mod-p group needs integer p >= 2, got %r" % (p,))
        self.p = p
        self.tag = "mod:%d" % p

    def wrap(self, num: int, den: int) -> int:
        return num % (self.p * den)

    def norm_num(self, num: int, den: int) -> int:
        v = num % (self.p * den)
        return min(v, self.p * den - v)

    def normalize(self, value) -> Fraction:
        v = _fraction(value)
        if v.denominator != 1:
            raise GroupError("mod-%d coefficient expected integral, got %s" % (self.p, v))
        return super().normalize(v)


class CircleGroup(Group):
    tag = "circle"

    def wrap(self, num: int, den: int) -> int:
        return num % den  # num/den mod 1, in [0, 1)

    def norm_num(self, num: int, den: int) -> int:
        """Distance to the nearest integer, min(v, 1 - v) for v = num/den
        mod 1, read on the numerators; v itself on a tie."""
        v = num % den
        return den - v if 2 * v > den else v


REAL = RealGroup()
INTEGER = IntegerGroup()
CIRCLE = CircleGroup()


def modp(p: int) -> ModPGroup:
    return ModPGroup(p)


def group_from_tag(tag: str) -> Group:
    if tag == "real":
        return REAL
    if tag == "integer":
        return INTEGER
    if tag == "circle":
        return CIRCLE
    if tag.startswith("mod:"):
        try:
            p = int(tag.split(":", 1)[1])
        except ValueError:
            raise GroupError("bad group tag %r" % tag) from None
        return modp(p)
    raise GroupError("unknown group tag %r" % tag)


def project(g) -> Fraction:
    """R -> R/Z, value mod 1.  Norm non-increasing: |phi(g)| <= |g|."""
    return CIRCLE.normalize(g)


def section(c) -> Fraction:
    """Minimal-norm preimage of a circle element under `project`.

    Returns c for c <= 1/2 and c - 1 otherwise, so |section(c)| equals the
    circle norm of c; the tie at 1/2 resolves to +1/2.
    """
    c = CIRCLE.normalize(c)
    return c if c <= Fraction(1, 2) else c - 1
