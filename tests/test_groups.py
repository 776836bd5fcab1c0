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
