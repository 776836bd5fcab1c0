"""Exact radical arithmetic: canonical radicands, total order, conversions."""

import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polychain.radicals import RadicalSum, integer_rows

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12)
radicands = st.sampled_from((1, 2, 3, 5, 6, 7, 10, 13))


def rs(q):
    return RadicalSum.from_rational(q)


def test_zero_and_rational_round_trip():
    assert RadicalSum().is_zero()
    assert rs(0).is_zero()
    v = rs(Fraction(-7, 3))
    assert v.as_rational() == Fraction(-7, 3)
    assert float(v) == pytest.approx(-7 / 3)


def test_sqrt_merging_produces_canonical_radicands():
    # sqrt(8) = 2*sqrt(2); sqrt(2)*sqrt(8) = 4 exactly
    a = RadicalSum.sqrt_rational(8)
    assert a.terms == {2: Fraction(2)}
    prod = RadicalSum.sqrt_rational(2) * a
    assert prod.as_rational() == 4


def test_sqrt_of_rational_squares_back():
    v = RadicalSum.sqrt_rational(Fraction(9, 4))
    assert v.as_rational() == Fraction(3, 2)
    w = RadicalSum.sqrt_rational(Fraction(2, 9))
    assert (w * w).as_rational() == Fraction(2, 9)


def test_irrational_sum_is_not_rational():
    v = RadicalSum.sqrt_rational(2) + rs(1)
    assert not v.is_zero()
    with pytest.raises(ValueError):
        v.as_rational()


def test_sign_and_total_order():
    root2 = RadicalSum.sqrt_rational(2)
    root3 = RadicalSum.sqrt_rational(3)
    assert (root3 - root2).sign() == 1
    assert (root2 - root3).sign() == -1
    # 1 + sqrt(2) vs sqrt(3) + 1/2: 2.414... vs 2.232...
    assert rs(1) + root2 > root3 + rs(Fraction(1, 2))
    assert root2 < rs(Fraction(3, 2))
    assert rs(7) == rs(7)


def test_known_cancellation():
    # (1 + sqrt(2)) * (1 - sqrt(2)) = -1
    a = rs(1) + RadicalSum.sqrt_rational(2)
    b = rs(1) - RadicalSum.sqrt_rational(2)
    assert (a * b).as_rational() == -1


def test_division_by_rational():
    v = RadicalSum.sqrt_rational(2) * Fraction(3, 2)
    assert (v / 3).terms == {2: Fraction(1, 2)}
    with pytest.raises(ZeroDivisionError):
        v / 0


def test_mixed_scalar_operations():
    v = RadicalSum.sqrt_rational(5)
    assert (2 * v) == (v * 2)
    assert (v + 1) == (Fraction(1) + v)
    assert (v - v).is_zero()
    assert (-v).sign() == -1


@settings(max_examples=60)
@given(rationals, rationals, radicands, radicands)
def test_ring_identities(a, b, m1, m2):
    x = rs(a) + RadicalSum.sqrt_rational(m1)
    y = rs(b) - RadicalSum.sqrt_rational(m2)
    assert ((x + y) * (x - y) - (x * x - y * y)).is_zero()
    assert ((x + y) - (y + x)).is_zero()
    assert (x * y - y * x).is_zero()


@settings(max_examples=60)
@given(rationals, radicands)
def test_order_is_compatible_with_float(a, m):
    v = rs(a) + RadicalSum.sqrt_rational(m)
    w = rs(a)
    if v.sign() > 0:
        assert float(v) > -1e-12
    assert (v >= w) == (float(v) >= float(w) - 1e-9)


def decimal_value(v: RadicalSum) -> Decimal:
    """v at 300 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 300
        return sum(Decimal(c.numerator) / Decimal(c.denominator) * Decimal(rad).sqrt()
                   for rad, c in v.terms.items())


def decimal_sign(v: RadicalSum) -> int:
    total = decimal_value(v)
    return (total > 0) - (total < 0)


def pell_gap(steps: int) -> RadicalSum:
    """p/q - sqrt(2) for the convergent p/q of sqrt(2) after `steps` steps;
    |p/q - sqrt(2)| < 1/q^2, so large steps defeat a 32-bit bracket."""
    p, q = 1, 1
    for _ in range(steps):
        p, q = p + 2 * q, p + q
    return rs(Fraction(p, q)) - RadicalSum.sqrt_rational(2)


def test_sign_matches_a_300_digit_decimal_reference():
    rng = random.Random(23)
    primes = (2, 3, 5, 7, 11, 13, 101, 999983)
    for _ in range(400):
        v = RadicalSum()
        for rad in rng.sample(primes, rng.randint(2, 4)):
            # denominators past 10^6, numerators of either sign
            c = Fraction(rng.randint(-10 ** 9, 10 ** 9) or 1, rng.randint(10 ** 6, 10 ** 12))
            v = v + RadicalSum.sqrt_rational(rad) * c
        v = v + rs(Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 7)))
        assert v.sign() == decimal_sign(v)
        assert (-v).sign() == -decimal_sign(v)


def test_sign_of_pell_near_cancellations_needs_more_than_32_bits():
    # the 32-bit bracket of a - sqrt(2) is 2^-32 wide; these gaps are narrower
    for steps in range(16, 60, 3):
        gap = pell_gap(steps)
        assert 0 < abs(decimal_value(gap)) < Decimal(2) ** -32
        assert gap.sign() == decimal_sign(gap)
        # convergents alternate around sqrt(2)
        assert gap.sign() == -pell_gap(steps + 1).sign()
        # the same gap spread over three radicands and a fine denominator
        spread = (gap + RadicalSum.sqrt_rational(3) * Fraction(1, 10 ** 7)
                  - RadicalSum.sqrt_rational(3) * Fraction(1, 10 ** 7 + 1))
        assert len(spread.terms) == 3
        assert spread.sign() == decimal_sign(spread)


def test_integer_rows_fold_dependent_radicands():
    root2 = RadicalSum.sqrt_rational(2)
    root20402 = RadicalSum.sqrt_rational(20402)   # 101 * sqrt(2); 101 is no trial prime
    assert list(root20402.terms) == [20402]
    keys, rows, den = integer_rows([root2 / 3, Fraction(1, 2), root20402, 0,
                                    rs(1) + RadicalSum.sqrt_rational(3) / 4])
    assert keys == [2, 1, 3] and den == 12
    assert rows == [[4, 0, 1212, 0, 0], [0, 6, 0, 0, 12], [0, 0, 0, 0, 3]]
