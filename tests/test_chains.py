"""Chain algebra: canonical form, boundary and prism identities."""

from fractions import Fraction
from math import lcm as math_lcm
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polychain.chains import ChainError, PolyChain, prism, pushforward, subdivide
from polychain.gen import random_chain
from polychain.geometry import AffineMap, GeometryError, Simplex, canonical
from polychain.grid import grid_complex
from polychain.groups import CIRCLE, INTEGER, REAL, ModPGroup
from polychain.radicals import RadicalSum

F = Fraction


def pt(*coords):
    return tuple(F(c) for c in coords)


def seg(a, b, c=1):
    return ((a, b), F(c))


def build(items, group=REAL, dim=1, ambient=2):
    return PolyChain.build(group, ambient, dim, items)


coeffs = st.fractions(min_value=F(-6), max_value=F(6), max_denominator=8)
coords = st.integers(min_value=0, max_value=3).map(lambda v: F(v, 3))


@st.composite
def free_chains(draw, dim=1, ambient=2, group=REAL):
    n = draw(st.integers(min_value=1, max_value=5))
    items = []
    for _ in range(n):
        verts = tuple(tuple(draw(coords) for _ in range(ambient))
                      for _ in range(dim + 1))
        c = draw(coeffs)
        if group is INTEGER:
            c = F(round(c))
        items.append((verts, c))
    return PolyChain.build(group, ambient, dim, items)


def test_orientation_folds_into_coefficient():
    a, b = pt(0, 0), pt(1, 0)
    assert build([seg(a, b)]) == build([seg(b, a, -1)])
    assert build([seg(a, b), seg(b, a)]).is_zero()


def test_repeated_vertex_terms_are_dropped():
    ch = build([((pt(0, 0), pt(0, 0)), F(3))])
    assert ch.is_zero()


def test_degenerate_distinct_vertex_terms_are_kept():
    # zero volume but distinct vertices: stays, carries no mass
    ch = build([((pt(0, 0), pt(1, 0), pt(2, 0)), F(1))], dim=2)
    assert len(ch) == 1
    assert ch.mass_exact().is_zero()


def test_addition_merges_and_cancels():
    a, b, c = pt(0, 0), pt(1, 0), pt(1, 1)
    x = build([seg(a, b, F(1, 2)), seg(b, c, 1)])
    y = build([seg(a, b, F(1, 2)), seg(b, c, -1)])
    s = x + y
    assert len(s) == 1
    assert s.mass_exact().as_rational() == 1
    assert (x - x).is_zero()


def test_group_coefficients_are_validated():
    with pytest.raises(Exception):
        build([seg(pt(0, 0), pt(1, 0), F(1, 2))], group=INTEGER)
    ch = build([seg(pt(0, 0), pt(1, 0), 7)], group=ModPGroup(5))
    assert next(iter(ch.terms.values())) == 2


def test_boundary_of_square_cancels_inner_diagonal():
    cx = grid_complex(2, 1)
    full = cx.full_chain(REAL)
    loop = full.boundary()
    assert len(loop) == 4
    assert loop.mass_exact().as_rational() == 4
    assert loop.boundary().is_zero()


def test_mass_and_boundary_are_computed_once_per_chain():
    ch = build([seg(pt(0, 0), pt(1, 0)), seg(pt(1, 0), pt(1, 1), 2)])
    assert ch.boundary() is ch.boundary()
    assert ch.mass_exact() is ch.mass_exact()
    assert ch.boundary().mass_exact().as_rational() == 4  # -(0,0) - (1,0) + 2(1,1)


def test_boundary_requires_positive_dimension():
    ch = PolyChain.build(REAL, 2, 0, [((pt(0, 0),), F(1))])
    with pytest.raises(ChainError):
        ch.boundary()


@settings(max_examples=40, deadline=None)
@given(free_chains(dim=1), free_chains(dim=2))
def test_boundary_of_boundary_vanishes(c1, c2):
    if c1.dim >= 1:
        assert c1.boundary().dim == 0
    assert c2.boundary().boundary().is_zero()


@settings(max_examples=30, deadline=None)
@given(free_chains(dim=1, group=CIRCLE), free_chains(dim=2, group=CIRCLE))
def test_boundary_of_boundary_vanishes_over_circle(c1, c2):
    assert c2.boundary().boundary().is_zero()
    assert (c1 + c1.scale(-1)).is_zero()


def test_pushforward_scales_mass_by_jacobian():
    ch = build([seg(pt(0, 0), pt(1, 0)), seg(pt(0, 0), pt(0, 1))])
    h = AffineMap.homothety(pt(0, 0), F(1, 3))
    img = pushforward(ch, h)
    assert img.mass_exact().as_rational() == F(2, 3)


def test_pushforward_moves_terms_as_build_would(monkeypatch):
    rng = Random(2024)

    def rational():
        return F(rng.randint(-9, 9), rng.randint(1, 9))
    chains = []
    for d in (1, 2, 3):
        for k in range(d + 1):
            for group in (REAL, CIRCLE):
                items = [(tuple(tuple(rational() for _ in range(d)) for _ in range(k + 1)),
                          rational()) for _ in range(4)]
                if k == 2:  # a zero-volume term with distinct vertices
                    items.append(((pt(*[0] * d), pt(*[1] * d), pt(*[2] * d)), F(1, 3)))
                chains.append(PolyChain.build(group, d, k, items))
    built = []
    original = PolyChain.build.__func__

    def counting_build(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)
    for ch in chains:
        d = ch.ambient_dim
        for r in (F(1), F(1, 2), F(127, 128), F(7, 3)):
            f = AffineMap(r, tuple(rational() for _ in range(d)))
            for s in ch.terms:  # warm caches, which `Simplex.moved` carries
                s.sq_volume()
            expected = PolyChain.build(ch.group, d, ch.dim,
                                       [(tuple(map(f, s.vertices)), c)
                                        for s, c in ch.terms.items()])
            built.clear()
            with monkeypatch.context() as m:
                m.setattr(PolyChain, "build", classmethod(counting_build))
                got = pushforward(ch, f)
            assert not built
            assert list(got.terms.items()) == list(expected.terms.items())
            assert got.complex is None
            assert str(got.mass_exact()) == str(expected.mass_exact())
    for r in (F(-1), F(0)):  # no map with such a scale reaches pushforward
        with pytest.raises(GeometryError):
            AffineMap(r, pt(0, 0))


@settings(max_examples=25, deadline=None)
@given(free_chains(dim=1), st.fractions(min_value=F(1, 4), max_value=F(3, 4),
                                        max_denominator=4))
def test_prism_boundary_identity(chain, ratio):
    # boundary(prism(c)) = to(c) - from(c) - prism(boundary(c))
    f = AffineMap.identity(2)
    g = AffineMap.homothety(pt(F(1, 2), F(1, 2)), ratio)
    p = prism(chain, f, g)
    lhs = p.boundary()
    rhs = pushforward(chain, g) - pushforward(chain, f) \
        - prism(chain.boundary(), f, g)
    assert lhs == rhs


def test_prism_identity_over_circle_coefficients():
    items = [((pt(0, 0), pt(1, 0)), F(1, 3)), ((pt(1, 0), pt(1, 1)), F(4, 5))]
    chain = PolyChain.build(CIRCLE, 2, 1, items)
    f = AffineMap.identity(2)
    g = AffineMap.translation(pt(F(1, 7), F(1, 9)))
    p = prism(chain, f, g)
    assert p.boundary() == pushforward(chain, g) - pushforward(chain, f) \
        - prism(chain.boundary(), f, g)


def test_subdivision_preserves_mass_and_commutes_with_boundary():
    tri = build([((pt(0, 0), pt(1, 0), pt(0, 1)), F(2, 3))], dim=2)
    fine = subdivide(tri)
    assert len(fine) == 4
    assert (fine.mass_exact() - tri.mass_exact()).is_zero()
    # the subdivided boundary is a refinement; compare after refining both
    assert fine.boundary() == subdivide(tri.boundary())

    seg1 = build([seg(pt(0, 0), pt(1, 1))])
    fine1 = subdivide(seg1)
    assert len(fine1) == 2
    assert (fine1.mass_exact() - seg1.mass_exact()).is_zero()
    assert fine1.boundary() == seg1.boundary()  # midpoints cancel


def test_subdivision_of_tetrahedron_preserves_everything():
    verts = (pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1))
    tet = PolyChain.build(REAL, 3, 3, [(verts, F(1))])
    fine = subdivide(tet)
    assert len(fine) == 8
    assert (fine.mass_exact() - tet.mass_exact()).is_zero()
    assert fine.boundary() == subdivide(tet.boundary())
    assert fine.boundary().boundary().is_zero()


def test_complex_membership_is_enforced():
    cx = grid_complex(2, 1)
    with pytest.raises(Exception):
        PolyChain.build(REAL, 2, 1, [seg(pt(0, 0), pt(F(1, 3), 0))], complex=cx)


def test_restrict_mass_is_additive():
    ch = build([seg(pt(0, 0), pt(1, 0)), seg(pt(1, 0), pt(1, 1), F(1, 2))])
    some, rest = ch.support()[:1], ch.support()[1:]
    restricted = ch.restrict(some)
    assert len(restricted) == 1
    s = some[0]
    assert (restricted.mass_exact() - s.volume() * ch.terms[s]).is_zero()
    assert (restricted.mass_exact() + ch.restrict(rest).mass_exact()
            - ch.mass_exact()).is_zero()


def test_restrict_accepts_carriers_in_either_vertex_order():
    a, b = pt(0, 0), pt(1, 0)
    free = build([seg(a, b, F(1, 2)), seg(b, pt(1, 1))])
    on_grid = grid_complex(2, 1).full_chain(REAL).boundary()
    for ch in (free, on_grid):
        edge = [c for s, c in ch.terms.items() if s.vertices == (a, b)]
        for carrier in ((a, b), (b, a)):
            kept = ch.restrict([Simplex(canonical(carrier)[0])])
            assert [s.vertices for s in kept.terms] == [(a, b)]
            assert list(kept.terms.values()) == edge


def per_term_mass(chain):
    # reference: one RadicalSum addition per term, in term order
    total = RadicalSum()
    for simplex, coeff in chain.terms.items():
        n = chain.group.norm(coeff)
        if n:
            total = total + simplex.volume() * n
    return total


def test_mass_matches_the_per_term_fold_term_by_term():
    chains = [random_chain(seed, d, 3, k, group, terms=8)
              for seed in range(4) for d, k in ((2, 1), (3, 1), (3, 2))
              for group in (REAL, INTEGER, CIRCLE)]
    seen = set()
    for ch in chains:
        seen |= {rad for s in ch.terms for rad in s.volume().terms}
        expect = per_term_mass(ch)
        got = ch.mass_exact()
        assert list(got.terms.items()) == list(expect.terms.items())
    assert {1, 2, 3} <= seen
    # sqrt(2 * 101^2) keeps its square factor (101 > 97 is past the trial
    # primes), so it is folded into the sqrt(2) key, or sqrt(2) into it
    unit = pt(0, 0), pt(1, 1)
    far = pt(0, 0), pt(101, 101)
    for items, key in (([seg(*far, 3), seg(*unit, F(1, 2)), seg(pt(0, 0), pt(1, 0))], 20402),
                       ([seg(*unit, F(-1, 2)), seg(*far, 3), seg(pt(0, 0), pt(1, 0))], 2)):
        ch = build(items)
        assert {rad for s in ch.terms for rad in s.volume().terms} == {1, 2, 20402}
        expect = per_term_mass(ch)
        got = ch.mass_exact()
        assert set(got.terms) == {key, 1}
        assert list(got.terms.items()) == list(expect.terms.items())


def term_weight_mass(chain):
    # reference: each term's norm times its volume, added per radicand in
    # term order, then folded into one RadicalSum
    weights = {}
    for simplex, coeff in chain.terms.items():
        n = chain.group.norm(coeff)
        if n:
            for rad, c in simplex.volume().terms.items():
                weights[rad] = weights.get(rad, 0) + c * n
    return RadicalSum.from_weights(weights)


def test_mass_grouped_by_shared_volume_matches_the_per_term_sum():
    mod5 = ModPGroup(5)
    chains = []
    for seed in range(4):
        for group in (REAL, INTEGER, mod5, CIRCLE):
            for d, n, k in ((2, 3, 1), (2, 3, 2), (3, 2, 1), (3, 2, 2), (3, 2, 3)):
                grid = random_chain(seed, d, n, k, group, terms=12)
                free = PolyChain.build(group, d, k, [(s.vertices, c) for s, c in
                                                     grid.terms.items()])
                chains += [grid, free, subdivide(free)]
                if k:
                    chains.append(grid.boundary())
    # zero-norm terms: a zero coefficient held as a term, a zero-volume term
    cx = grid_complex(2, 2)
    held = dict(cx.full_chain(REAL, F(1, 3)).boundary().terms)
    held[next(iter(held))] = F(0)
    chains.append(PolyChain(REAL, 2, 1, held, cx))
    flat = build([((pt(0, 0), pt(1, 1), pt(2, 2)), F(3)), ((pt(0, 0), pt(1, 0), pt(0, 1)), F(1, 2)),
                  ((pt(0, 0), pt(2, 0), pt(0, 1)), F(-2, 3))], dim=2)
    chains.append(flat)
    shared = 0
    for ch in chains:
        vols = [id(s.volume()) for s in ch.terms]
        shared += len(vols) > len(set(vols))
        got, expect = ch.mass_exact(), term_weight_mass(ch)
        assert str(got) == str(expect)
        assert float(got).hex() == float(expect).hex()
        assert list(got.terms) == list(expect.terms)
    assert shared > 20
    assert any(s.is_degenerate() for s in flat.terms)


def test_as_real_keeps_the_simplices_and_the_complex():
    cx = grid_complex(2, 2)
    ints = cx.full_chain(INTEGER, 3).boundary()
    real = ints.as_real()
    assert real.group is REAL and real.complex is cx
    assert list(real.terms.items()) == list(ints.terms.items())
    assert all(a is b for a, b in zip(real.terms, ints.terms))
    assert real.as_real() is real
    with pytest.raises(ChainError):
        cx.full_chain(CIRCLE, F(1, 3)).as_real()


def summed_by_fractions(group, pairs):
    # reference: the Fraction summation the integer kernel replaced, one
    # group.add per repeated key, in first-seen order, a key that reaches
    # zero dropped and appended again by a later pair
    terms = {}
    for s, c in pairs:
        if s in terms:
            c = group.add(terms[s], c)
        if c:
            terms[s] = c
        else:
            terms.pop(s, None)
    return terms


def boundary_by_fractions(chain):
    return summed_by_fractions(chain.group, (
        (Simplex(face), c if sign > 0 else chain.group.neg(c))
        for s, c in chain.terms.items()
        for face, sign in ((s.vertices[:i] + s.vertices[i + 1:], (-1) ** i)
                           for i in range(len(s.vertices)))))


def test_grid_boundary_equals_the_free_boundary_in_the_fraction_order():
    mod5 = ModPGroup(5)
    for seed in range(3):
        for d in (1, 2, 3):
            for k in range(1, d + 1):
                for group in (REAL, INTEGER, mod5, CIRCLE):
                    ch = random_chain(seed, d, 2, k, group, terms=10)
                    free = PolyChain(group, d, k, dict(ch.terms))
                    grid_b, free_b = ch.boundary(), free.boundary()
                    expect = list(boundary_by_fractions(ch).items())
                    assert grid_b.complex is ch.complex and free_b.complex is None
                    assert list(grid_b.terms.items()) == expect
                    assert list(free_b.terms.items()) == expect
                    assert str(grid_b.mass_exact()) == str(free_b.mass_exact())
                    assert float(grid_b.mass_exact()) == float(free_b.mass_exact())


def test_boundary_order_drops_a_cancelled_face_and_appends_it_again():
    a, b, c, e = pt(0, 0), pt(1, 0), pt(2, 0), pt(1, 1)
    for group, one, minus in ((REAL, F(1), F(-1)), (CIRCLE, F(1, 3), F(2, 3)),
                              (ModPGroup(5), F(1), F(4))):
        ch = build([seg(a, b, one), seg(b, c, one), seg(b, e, one)], group)
        # b: +1 from (a, b), -1 from (b, c) drops it, -1 from (b, e) appends it
        terms = ch.boundary().terms
        assert [s.vertices[0] for s in terms] == [a, c, e, b]
        assert list(terms.values()) == [minus, one, one, minus]
        assert list(terms.items()) == list(boundary_by_fractions(ch).items())


def test_boundary_and_mass_with_a_common_denominator_past_64_bits():
    primes = (1000003, 1000033, 1000037, 1000039, 1000081)
    ch = random_chain(4, 2, 3, 2, REAL, terms=8)
    items = [(s.vertices, c / primes[i % len(primes)]) for i, (s, c) in enumerate(ch.terms.items())]
    for cx in (ch.complex, None):
        big = PolyChain.build(REAL, 2, 2, items, complex=cx)
        dens = {c.denominator for c in big.terms.values()}
        assert max(dens) < 2 ** 64 < math_lcm(*dens)
        assert list(big.boundary().terms.items()) == list(boundary_by_fractions(big).items())
        assert big.mass_exact().terms == per_term_mass(big).terms
        assert big.boundary().mass_exact().terms == per_term_mass(big.boundary()).terms
