"""Coefficient groups: normalization, norms, projection and section."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polychain.groups import (CIRCLE, INTEGER, REAL, GroupError, ModPGroup,
                              project, section)

circle_values = st.fractions(
    min_value=Fraction(0), max_value=Fraction(39, 40), max_denominator=40)
reals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=24)


def test_real_group_basics():
    assert REAL.normalize(Fraction(3, 2)) == Fraction(3, 2)
    assert REAL.norm(Fraction(-5, 4)) == Fraction(5, 4)
    assert REAL.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)
    assert REAL.scale(Fraction(1, 3), Fraction(1, 2)) == Fraction(1, 6)


def test_integer_group_rejects_fractions():
    assert INTEGER.normalize(4) == 4
    with pytest.raises(GroupError):
        INTEGER.normalize(Fraction(1, 2))
    with pytest.raises(GroupError):
        INTEGER.scale(2, Fraction(1, 2))


def test_mod_p_norm_is_distance_to_zero():
    g5 = ModPGroup(5)
    assert g5.normalize(7) == 2
    assert g5.norm(1) == 1
    assert g5.norm(4) == 1
    assert g5.norm(2) == 2
    assert g5.norm(3) == 2
    assert g5.neg(2) == 3
    with pytest.raises(GroupError):
        ModPGroup(1)


def test_circle_normalization_and_norm():
    assert CIRCLE.normalize(Fraction(5, 4)) == Fraction(1, 4)
    assert CIRCLE.normalize(Fraction(-1, 4)) == Fraction(3, 4)
    assert CIRCLE.norm(Fraction(1, 4)) == Fraction(1, 4)
    assert CIRCLE.norm(Fraction(3, 4)) == Fraction(1, 4)
    assert CIRCLE.norm(Fraction(1, 2)) == Fraction(1, 2)


def test_circle_norm_is_the_smaller_of_both_distances():
    rng = Random(115)
    values = [Fraction(0), Fraction(1, 2), Fraction(499, 1000), Fraction(501, 1000),
              Fraction(1, 3), Fraction(2, 3), Fraction(999999, 1000000)]
    values += [Fraction(rng.randint(0, 10 ** 6), 10 ** 6 + 1) for _ in range(200)]
    outside = [Fraction(1), Fraction(-1, 2), Fraction(3, 2), Fraction(7), Fraction(-13, 4),
               Fraction(9, 4), Fraction(-1, 1000)]
    outside += [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 3))
                for _ in range(200)]
    for value in values + outside:
        v = CIRCLE.normalize(value)
        expected = min(v, 1 - v)
        got = CIRCLE.norm(value)
        assert type(got) is Fraction and got == expected
        if value in values:  # normalize hands an in-range value back as it is
            assert (got is value) == (expected is v)


def test_section_picks_minimal_norm_representative():
    # frozen by hand: 3/4 lifts to -1/4, 1/4 stays, the tie at 1/2 goes up
    assert section(Fraction(3, 4)) == Fraction(-1, 4)
    assert section(Fraction(1, 4)) == Fraction(1, 4)
    assert section(Fraction(1, 2)) == Fraction(1, 2)
    assert section(Fraction(0)) == 0


@settings(max_examples=80)
@given(circle_values)
def test_section_inverts_projection_with_equal_norm(c):
    lifted = section(c)
    assert project(lifted) == c
    assert abs(lifted) == CIRCLE.norm(c)
    assert abs(lifted) <= Fraction(1, 2)


@settings(max_examples=80)
@given(reals)
def test_projection_is_a_homomorphism_and_short(a):
    b = Fraction(5, 7)
    assert project(a + b) == CIRCLE.add(project(a), project(b))
    assert CIRCLE.norm(project(a)) <= abs(a)


@settings(max_examples=80)
@given(circle_values, circle_values)
def test_circle_norm_triangle_inequality(a, b):
    assert CIRCLE.norm(CIRCLE.add(a, b)) <= CIRCLE.norm(a) + CIRCLE.norm(b)
    assert CIRCLE.norm(CIRCLE.neg(a)) == CIRCLE.norm(a)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12))
def test_mod_p_norm_triangle_inequality(a, b):
    g = ModPGroup(13)
    assert g.norm(g.add(a, b)) <= g.norm(a) + g.norm(b)


# The Fraction definitions the integer primitives replaced, as the oracle.
def fraction_normalize(group, v):
    if group is CIRCLE:
        return v - (v.numerator // v.denominator)
    if isinstance(group, ModPGroup):
        return Fraction(v.numerator % group.p)
    return v


def fraction_norm(group, v):
    v = fraction_normalize(group, v)
    if group is CIRCLE:
        return min(v, 1 - v)
    if isinstance(group, ModPGroup):
        return min(v, group.p - v)
    return abs(v)


MOD5, MOD4 = ModPGroup(5), ModPGroup(4)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
       st.integers(min_value=1, max_value=10 ** 4))
def test_integer_primitives_agree_with_the_fraction_definitions(num, den):
    # num/den need not be in lowest terms: the chain kernels pass numerators
    # over a chain's common denominator
    for group in (REAL, CIRCLE):
        v = Fraction(num, den)
        assert Fraction(group.wrap(num, den), den) == fraction_normalize(group, v)
        assert Fraction(group.norm_num(num, den), den) == fraction_norm(group, v)
        assert group.normalize(v) == fraction_normalize(group, v)
        assert group.norm(v) == fraction_norm(group, v)
    # the integral groups see integral values num over any den
    for group in (INTEGER, MOD5, MOD4):
        v = Fraction(num)
        assert Fraction(group.wrap(num * den, den), den) == fraction_normalize(group, v)
        assert Fraction(group.norm_num(num * den, den), den) == fraction_norm(group, v)
        assert group.normalize(v) == fraction_normalize(group, v)
        assert group.norm(v) == fraction_norm(group, v)


def test_integer_primitives_on_ties_negatives_and_unit_denominators():
    # circle tie at 1/2, from either side and past a period
    for num, den in ((1, 2), (-1, 2), (3, 2), (5, 10), (-15, 10)):
        assert CIRCLE.wrap(num, den) == den // 2 and CIRCLE.norm_num(num, den) == den // 2
    assert CIRCLE.norm(Fraction(1, 2)) == Fraction(1, 2)
    # mod-p tie at p/2: 2 in mod 4 is its own negative
    assert MOD4.wrap(2, 1) == MOD4.wrap(-2, 1) == 2 and MOD4.norm_num(2, 1) == 2
    assert MOD4.wrap(6, 3) == 6 and MOD4.norm_num(-6, 3) == 6
    # negative numerators and den = 1
    assert CIRCLE.wrap(-1, 4) == 3 and CIRCLE.norm_num(-1, 4) == 1
    assert CIRCLE.wrap(-8, 4) == 0 and CIRCLE.norm_num(7, 1) == 0
    assert MOD5.wrap(-7, 1) == 3 and MOD5.norm_num(-7, 1) == 2
    assert MOD5.wrap(-14, 2) == 6 and MOD5.norm_num(-14, 2) == 4
    assert REAL.wrap(-3, 1) == -3 and REAL.norm_num(-3, 7) == 3
    assert INTEGER.wrap(-4, 1) == -4 and INTEGER.norm_num(-4, 1) == 4
