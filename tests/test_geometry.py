"""Exact simplex geometry: volumes, orientation, hull intersections."""

import math
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd
from random import Random

import pytest
import sympy

from polychain.chains import PolyChain, prism, pushforward
from polychain.geometry import (AffineMap, GeometryError, Simplex, _common_lattice,
                                _equalities_rank, canonical, det, gauss_jordan, is_tangent,
                                lowest_terms, overlap_dim, overlap_dim_at_least,
                                point_in_simplex, simplex_in_simplex, solve_linear)
from polychain.grid import grid_complex
from polychain.groups import REAL
from polychain.radicals import RadicalSum
from polychain.simplex_lp import check_certificate

F = Fraction


def pt(*coords):
    return tuple(F(c) for c in coords)


def rank_of(rows) -> int:
    return len(gauss_jordan(rows)[1])


def integer_vector(vec):
    """The rational vector times the lcm of its denominators."""
    scale = math.lcm(*[F(c).denominator for c in vec])
    return tuple(int(F(c) * scale) for c in vec)


def test_canonical_sorts_and_tracks_parity():
    verts, sign = canonical((pt(1, 0), pt(0, 0)))
    assert verts == (pt(0, 0), pt(1, 0))
    assert sign == -1
    verts2, sign2 = canonical((pt(0, 0), pt(1, 0)))
    assert verts2 == verts
    assert sign2 == 1


def test_volume_oracles():
    # segment of length 1/2, right triangle of area 1/8, diagonal sqrt(2)
    seg = Simplex((pt(0, 0), pt(F(1, 2), 0)))
    assert seg.volume().as_rational() == F(1, 2)
    tri = Simplex((pt(0, 0), pt(F(1, 2), 0), pt(F(1, 2), F(1, 2))))
    assert tri.volume().as_rational() == F(1, 8)
    diag = Simplex((pt(0, 0), pt(1, 1)))
    assert (diag.volume() * diag.volume()).as_rational() == 2
    point = Simplex((pt(3, 4),))
    assert point.volume().as_rational() == 1


def test_degenerate_simplices():
    flat = Simplex((pt(0, 0), pt(1, 0), pt(2, 0)))
    assert flat.is_degenerate()
    assert flat.volume().is_zero()
    assert not Simplex((pt(0, 0), pt(1, 0))).is_degenerate()


def test_det_and_solve():
    assert det([[F(2), F(1)], [F(1), F(1)]]) == 1
    sol = solve_linear([[F(2), F(0)], [F(0), F(4)]], [F(1), F(2)])
    assert sol is not None
    x, nullspace = sol
    assert x == [F(1, 2), F(1, 2)]
    assert nullspace == []
    assert solve_linear([[F(1)], [F(0)]], [F(0), F(1)]) is None


def random_matrix(rng, rows, cols, rank=None):
    """Seeded rational matrix; with `rank`, a product of rows x rank and
    rank x cols factors, so its rank is at most that."""
    def entries(r, c):
        return [[F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(c)] for _ in range(r)]
    if rank is None:
        return entries(rows, cols)
    left, right = entries(rows, rank), entries(rank, cols)
    return [[sum((left[i][t] * right[t][j] for t in range(rank)), F(0)) for j in range(cols)]
            for i in range(rows)]


def as_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in rows])


def as_fractions(vec):
    return [F(int(sympy.fraction(v)[0]), int(sympy.fraction(v)[1])) for v in vec]


# (rows, cols, rank of the factorization or None for a generic matrix)
SHAPES = [(3, 3, None), (4, 4, None), (4, 4, 2), (3, 3, 1), (2, 5, None),
          (5, 2, None), (4, 6, 3), (6, 4, 3), (1, 1, None), (3, 3, 0)]


def test_elimination_agrees_with_sympy():
    rng = Random(20231)
    for rows, cols, rank in SHAPES * 4:
        a = random_matrix(rng, rows, cols, rank)
        ref = as_sympy(a)
        assert rank_of(a) == ref.rank()
        if rows == cols:
            assert det(a) == ref.det()
        # a right-hand side in the column space, then a random one, which
        # rank-deficient matrices mostly cannot reach
        for b in ([sum((x * y for x, y in zip(row, random_matrix(rng, 1, cols)[0])), F(0))
                   for row in a],
                  [F(rng.randint(-5, 5)) for _ in range(rows)]):
            sol = solve_linear(a, b)
            try:
                expected, params = ref.gauss_jordan_solve(as_sympy([b]).T)
            except ValueError:  # sympy: the system is inconsistent
                assert sol is None
                continue
            x, null = sol
            assert x == as_fractions(expected.subs({t: 0 for t in params}))
            ref_null = ref.nullspace()
            assert len(null) == len(ref_null) == cols - ref.rank()
            if null:
                both = sympy.Matrix.hstack(as_sympy(null).T, *ref_null)
                assert both.rank() == len(null)
                assert all(v == 0 for v in ref * as_sympy(null).T)


def test_closed_form_determinants_match_the_elimination_kernel():
    rng = Random(18)
    for n in (1, 2, 3, 4):
        for rank in (None, None, n - 1, 0):
            for _ in range(10):
                a = random_matrix(rng, n, n, rank)
                value = det(a)
                assert isinstance(value, Fraction)
                assert value == gauss_jordan(a)[2]
                if rank is not None:
                    assert value == 0
    # rows that repeat, and a non-square matrix
    assert det([[F(1, 2), F(3)], [F(1, 2), F(3)]]) == 0
    assert det([[F(1), F(2), F(3)], [F(4), F(5), F(6)], [F(1), F(2), F(3)]]) == 0
    assert det([[F(1), F(2)]]) == 0


def test_solve_linear_with_radical_right_hand_sides():
    rng = Random(7)
    radicands = (1, 2, 3)
    for n in (1, 2, 3, 5):
        a = random_matrix(rng, n, n)
        while det(a) == 0:
            a = random_matrix(rng, n, n)
        parts = {r: [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
                 for r in radicands}

        def combine(vectors):
            return [sum((RadicalSum.sqrt_rational(r) * vectors[r][i] for r in radicands),
                        RadicalSum()) for i in range(n)]
        solved = {r: solve_linear(a, parts[r]) for r in radicands}
        assert all(null == [] for _, null in solved.values())
        solved = {r: x for r, (x, _) in solved.items()}
        assert solved[1] == as_fractions(as_sympy(a).LUsolve(as_sympy([parts[1]]).T))
        assert solve_linear(a, combine(parts)) == (combine(solved), [])
    singular = [[F(1), F(2)], [F(2), F(4)]]
    assert solve_linear(singular, [F(1), F(1)]) is None
    # the certificate rejects a singular basis matrix, consistent or not
    for b in ([1, 1], [1, 2]):
        assert not check_certificate(singular, b, [0, 0], [0, 1])


def test_tangency():
    seg = Simplex((pt(0, 0), pt(1, 0)))
    assert is_tangent((1, 0), seg)
    assert is_tangent((-7, 0), seg)
    assert not is_tangent((0, 1), seg)
    assert not is_tangent((3, 4), seg)  # the unit vector (3/5, 4/5), scaled


def test_overlap_dimensions():
    a = Simplex((pt(0, 0), pt(1, 0)))
    b = Simplex((pt(F(1, 2), 0), pt(2, 0)))     # collinear overlap: dim 1
    c = Simplex((pt(F(1, 2), -1), pt(F(1, 2), 1)))  # crossing: dim 0
    d = Simplex((pt(0, 1), pt(1, 1)))           # parallel, disjoint
    assert overlap_dim(a, b) == 1
    assert overlap_dim(a, c) == 0
    assert overlap_dim(a, d) < 0
    assert overlap_dim_at_least(a, b, 1)
    assert not overlap_dim_at_least(a, c, 1)
    assert not overlap_dim_at_least(a, d, 0)


def test_touching_at_one_point_is_dim_zero():
    a = Simplex((pt(0, 0), pt(1, 0)))
    e = Simplex((pt(1, 0), pt(2, 1)))
    assert overlap_dim(a, e) == 0


def test_containment():
    tri = Simplex((pt(0, 0), pt(1, 0), pt(0, 1)))
    inner = Simplex((pt(F(1, 4), F(1, 4)), pt(F(1, 2), F(1, 4))))
    outer = Simplex((pt(0, 0), pt(2, 0)))
    assert point_in_simplex((1, 1), tri, 4)
    assert point_in_simplex((2, 2), tri, 8)
    assert point_in_simplex((0, 1), tri)
    assert not point_in_simplex((1, 1), tri)
    assert not point_in_simplex((3, 2), tri, 4)
    assert simplex_in_simplex(inner, tri)
    assert not simplex_in_simplex(outer, tri)


def test_affine_maps_compose_pointwise():
    h = AffineMap.homothety(pt(F(1, 2), F(1, 2)), F(1, 2))
    assert h(pt(0, 0)) == pt(F(1, 4), F(1, 4))
    assert h(pt(F(1, 2), F(1, 2))) == pt(F(1, 2), F(1, 2))
    t = AffineMap.translation(pt(F(1, 8), 0))
    assert t(h(pt(1, 1))) == pt(F(7, 8), F(3, 4))
    ident = AffineMap.identity(2)
    assert ident(pt(F(2, 7), F(3, 5))) == pt(F(2, 7), F(3, 5))


def test_scalar_maps_agree_with_the_matrix_product():
    def by_matrix(f, p):
        matrix = [[f.scale if i == j else 0 for j in range(len(p))] for i in range(len(p))]
        return tuple(sum(a * x for a, x in zip(row, p)) + s
                     for row, s in zip(matrix, f.shift))

    rng = Random(4)
    for _ in range(20):
        c = pt(F(rng.randint(-9, 9), rng.randint(1, 9)), F(rng.randint(-9, 9), 7))
        r = F(rng.randint(1, 9), rng.randint(1, 9))
        maps = [AffineMap.identity(2), AffineMap.translation(c),
                AffineMap.homothety(c, r), AffineMap(r, c)]
        assert [f.scale for f in maps] == [1, 1, r, r]
        p = pt(F(rng.randint(-9, 9), 4), F(rng.randint(-9, 9), 3))
        for f in maps:
            assert f(p) == by_matrix(f, p)
            for h in maps:
                composed = f.compose(h)
                assert composed(p) == f(h(p))
                assert composed.scale == f.scale * h.scale


def test_simplex_rejects_bad_input():
    with pytest.raises(GeometryError):
        Simplex((pt(0, 0), pt(0, 0, 0)))
    with pytest.raises(GeometryError):
        Simplex(())


def random_simplex(rng, d, k, denominator=9):
    verts = {tuple(F(rng.randint(-9, 9), rng.randint(1, denominator)) for _ in range(d))
             for _ in range(k + 1)}
    while len(verts) < k + 1:
        verts.add(tuple(F(rng.randint(-9, 9), 7) for _ in range(d)))
    return Simplex(canonical(verts)[0])


def test_moved_simplex_equals_the_recomputed_image():
    rng = Random(1808)
    flat = Simplex((pt(0, 0), pt(1, 1), pt(2, 2)))
    cases = [random_simplex(rng, d, k) for d in (1, 2, 3) for k in range(d + 1)
             for _ in range(3)] + [flat]
    for s in cases:
        for r in (F(1), F(1, 2), F(127, 128), F(7, 3)):
            shift = tuple(F(rng.randint(-9, 9), rng.randint(1, 16)) for _ in range(s.ambient_dim))
            f = AffineMap(r, shift)
            for warm in (False, True):
                source = Simplex(s.vertices)
                if warm:
                    source.sq_volume()
                    source.volume()
                    if not source.is_degenerate():
                        source.hull()
                image = source.moved(f)
                ref = Simplex(tuple(map(f, s.vertices)))
                assert image.vertices == ref.vertices
                assert canonical(ref.vertices) == (ref.vertices, 1)
                assert image == ref and hash(image) == hash(ref)
                # carried over when known, left to compute otherwise
                assert (image._sqvol is not None) == warm
                assert (image._eqs is not None) == (warm and not s.is_degenerate())
                assert image.sq_volume() == ref.sq_volume()
                assert str(image.volume()) == str(ref.volume())
                if warm and r == 1:
                    assert image.volume() is source.volume()
                if s.is_degenerate():
                    with pytest.raises(GeometryError):
                        image.hull()
                else:
                    assert image.hull() == ref.hull()
    for r in (F(-1), F(0)):  # moved's r > 0 is AffineMap's precondition
        with pytest.raises(GeometryError):
            AffineMap(r, (F(0),))


# -- the Fraction predicates, kept as the reference ----------------------------
# The hull predicates as they were decided on Fraction rows rebuilt from each
# simplex's `vertices`.  The integer predicates of `geometry` must agree with
# them exactly, and the approximation stages must decide alike under both
# (tests/test_approx.py).


def ref_edges(s):
    v0 = s.vertices[0]
    return [tuple(a - b for a, b in zip(v, v0)) for v in s.vertices[1:]]


def ref_dot(u, v):
    return sum((a * b for a, b in zip(u, v)), F(0))


def ref_equalities(s):
    """(row, rhs) pairs meaning row . x = rhs: the nullspace of the edge
    span through the first vertex."""
    edges = ref_edges(s)
    k, d = len(edges), s.ambient_dim
    if k == d:
        if s.is_degenerate():
            raise GeometryError("degenerate simplex has no H-description")
        return ()
    _, null = solve_linear([list(e) for e in edges] or [[F(0)] * d], [F(0)] * max(k, 1))
    if len(null) != d - k:
        raise GeometryError("degenerate simplex has no H-description")
    v0 = s.vertices[0]
    return tuple((tuple(n), ref_dot(n, v0)) for n in null)


def ref_inequalities(s):
    """Barycentric (row, rhs) pairs meaning row . x >= rhs, from the
    inverse Gram matrix of the Fraction edges."""
    v0 = s.vertices[0]
    edges = ref_edges(s)
    k, d = len(edges), s.ambient_dim
    if k == 0:
        return ()
    gram = [[ref_dot(e1, e2) for e2 in edges] for e1 in edges]
    reduced = gauss_jordan(
        [row + [F(1 if i == j else 0) for j in range(k)] for i, row in enumerate(gram)], k)[0]
    ginv = [row[k:] for row in reduced]
    bary = [tuple(sum(ginv[i][j] * edges[j][c] for j in range(k)) for c in range(d))
            for i in range(k)]
    ineqs = [(row, ref_dot(row, v0)) for row in bary]
    total = tuple(sum(-r[c] for r in bary) for c in range(d))
    ineqs.append((total, ref_dot(total, v0) - 1))
    return tuple(ineqs)


def ref_hull(s):
    return ref_equalities(s), ref_inequalities(s)


def ref_bboxes_disjoint(s1, s2):
    (lo1, hi1), (lo2, hi2) = ([list(map(f, zip(*s.vertices))) for f in (min, max)]
                              for s in (s1, s2))
    return any(h1 < l2 or h2 < l1 for l2, h1, l1, h2 in zip(lo2, hi1, lo1, hi2))


def ref_equalities_rank(eqs, d):
    rows, pivots, _ = gauss_jordan([list(row) + [rhs] for row, rhs in eqs], d)
    if any(rows[i][d] for i in range(len(pivots), len(rows))):
        return None
    return len(pivots)


def ref_is_tangent(direction, simplex):
    vec = [F(c) for c in direction]
    return all(ref_dot(n, vec) == 0 for n, _ in ref_equalities(simplex))


def ref_overlap_dim(s1, s2):
    if ref_bboxes_disjoint(s1, s2):
        return -1
    d = s1.ambient_dim
    eqs1, in1 = ref_hull(s1)
    eqs2, in2 = ref_hull(s2)
    eqs, ineqs = eqs1 + eqs2, in1 + in2
    if eqs:
        r = ref_equalities_rank(eqs, d)
        if r is None:
            return -1
        u = d - r
    else:
        u = d
    points = set()
    for active in combinations(range(len(ineqs)), u):
        rows = [e[0] for e in eqs] + [ineqs[i][0] for i in active]
        rhs = [e[1] for e in eqs] + [ineqs[i][1] for i in active]
        sol = solve_linear(rows, rhs)
        if sol is None or sol[1]:
            continue
        x = sol[0]
        if all(ref_dot(row, x) >= r for row, r in ineqs):
            points.add(tuple(x))
    if not points:
        return -1
    pts = sorted(points)
    diffs = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
    return rank_of(diffs) if diffs else 0


def ref_overlap_dim_at_least(s1, s2, k):
    if k <= -1:
        return True
    if ref_bboxes_disjoint(s1, s2):
        return False
    eqs = ref_equalities(s1) + ref_equalities(s2)
    if eqs:
        r = ref_equalities_rank(eqs, s1.ambient_dim)
        if r is None or s1.ambient_dim - r < k:
            return False
    return ref_overlap_dim(s1, s2) >= k


def ref_point_in_simplex(point, s):
    eqs, ineqs = ref_hull(s)
    return (all(ref_dot(row, point) == rhs for row, rhs in eqs)
            and all(ref_dot(row, point) >= rhs for row, rhs in ineqs))


def reference_cases(rng):
    """Seeded rational simplices as (simplex, twin) pairs: the simplex made
    by `Simplex.trusted` (so no `vertices` view), the twin an equal simplex
    for the reference to read.  d = 1..3 and every k <= d, each with a copy
    whose integer points share a factor with den that `lowest_terms`
    divides out, and images under `Simplex.moved` with and without their
    equalities carried over."""
    cases = []
    for d in (1, 2, 3):
        for k in range(d + 1):
            for _ in range(3):
                s = random_simplex(rng, d, k, denominator=rng.choice((1, 2, 3)))
                cases.append((Simplex.trusted(s.num, s.den), s))
                m = rng.choice((2, 6))
                num, den = lowest_terms(tuple(tuple(c * m for c in p) for p in s.num), s.den * m)
                assert den == s.den
                cases.append((Simplex.trusted(num, den), s))
                f = AffineMap(F(rng.randint(1, 6), rng.randint(1, 6)),
                              [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d)])
                twin = Simplex(canonical(tuple(map(f, s.vertices)))[0])
                for warm in (False, True):
                    source = Simplex.trusted(s.num, s.den)
                    if warm and not s.is_degenerate():
                        source.equalities()
                    cases.append((source.moved(f), twin))
                # a translate by a third of an edge: a pair that overlaps
                if k:
                    step = [F(c, 3 * s.den) for c in Simplex.trusted(s.num, s.den).lattice_edges()[0]]
                    g = AffineMap.translation(step)
                    cases.append((Simplex.trusted(s.num, s.den).moved(g),
                                  Simplex(tuple(map(g, s.vertices)))))
    return cases


def test_integer_predicates_agree_with_the_fraction_reference():
    rng = Random(2026)
    cases = reference_cases(rng)
    assert any(s._eqs is not None for s, _ in cases)  # carried by `moved`
    dims, tangent, inside = set(), set(), set()
    for s, twin in cases:
        assert s == twin
        d = s.ambient_dim
        vectors = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(4)]
        vectors += [(0,) * d] + [integer_vector(e) for e in ref_edges(twin)]
        for v in vectors:
            try:
                expected = ref_is_tangent(v, twin)
            except GeometryError:
                with pytest.raises(GeometryError):
                    is_tangent(v, s)
                continue
            assert is_tangent(v, s) == expected
            tangent.add(expected)
        if s.is_degenerate():
            continue
        # the vertices, the barycentre, a point past the last vertex along
        # its edge (on the hull, outside the simplex) and random points
        k = len(s.num) - 1
        points = [(p, s.den) for p in s.num]
        points.append((tuple(map(sum, zip(*s.num))), s.den * (k + 1)))
        points.append((tuple(2 * a - b for a, b in zip(s.num[-1], s.num[0])), s.den))
        points += [(tuple(rng.randint(-9, 9) for _ in range(d)), rng.choice((1, 2, 5)))
                   for _ in range(4)]
        for p, den in points:
            expected = ref_point_in_simplex(tuple(F(c, den) for c in p), twin)
            assert point_in_simplex(p, s, den) == expected
            inside.add(expected)
    solid = [pair for pair in cases if not pair[1].is_degenerate()]
    pairs = [(a, b) for a in solid for b in solid
             if a[0].ambient_dim == b[0].ambient_dim and rng.random() < 0.05]
    for (a, ta), (b, tb) in pairs:
        d = a.ambient_dim
        dim = overlap_dim(a, b)
        assert dim == ref_overlap_dim(ta, tb), (ta, tb)
        dims.add(dim)
        for k in range(-1, d + 1):
            assert overlap_dim_at_least(a, b, k) == ref_overlap_dim_at_least(ta, tb, k)
        eqs = _common_lattice(a, b, a.equalities(), b.equalities())
        fraction_eqs = ref_equalities(ta) + ref_equalities(tb)
        if eqs:
            assert _equalities_rank(eqs, d) == ref_equalities_rank(fraction_eqs, d)
    assert dims == {-1, 0, 1, 2, 3}
    assert tangent == {True, False} and inside == {True, False}
    # nothing above built the Fraction view of the integer simplices
    assert all(s._verts is None for s, _ in cases)


def _rank_tangent(direction, simplex):
    """Tangency by comparing ranks, with and without the direction."""
    vec = [F(c) for c in direction]
    if all(c == 0 for c in vec):
        return True
    rows = [list(e) for e in ref_edges(simplex)]
    if not rows:
        return False
    return rank_of(rows + [vec]) == rank_of(rows)


def test_tangency_by_hull_normals_agrees_with_the_rank_test():
    rng = Random(77)
    flat = Simplex((pt(0, 0, 0), pt(1, 1, 0), pt(2, 2, 0)))
    cases = [random_simplex(rng, d, k) for d in (2, 3) for k in range(d + 1)
             for _ in range(4)]
    with pytest.raises(GeometryError):  # a degenerate simplex has no hull
        is_tangent((1, 1, 0), flat)
    seen = set()
    for s in cases:
        d = s.ambient_dim
        edges = ref_edges(s)
        vectors = [tuple(F(rng.randint(-3, 3)) for _ in range(d)) for _ in range(6)]
        vectors += [tuple(F(0) for _ in range(d))]
        for _ in range(3):  # in the edge span
            weights = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in edges]
            vectors.append(tuple(sum((w * e[i] for w, e in zip(weights, edges)), F(0))
                                 for i in range(d)))
        for v in vectors:
            expected = _rank_tangent(v, s)
            assert is_tangent(integer_vector(v), s) == expected
            seen.add(expected)
    assert seen == {True, False}


def test_overlap_dim_at_least_agrees_with_overlap_dim():
    pairs = [
        ((pt(0, 0), pt(1, 0)), (pt(F(1, 2), -1), pt(F(1, 2), 1))),          # crossing
        ((pt(0, 0), pt(1, 0)), (pt(1, 0), pt(2, 1))),                      # touching
        ((pt(0, 0), pt(1, 0)), (pt(F(1, 2), 0), pt(2, 0))),                # collinear overlap
        ((pt(0, 0), pt(1, 0)), (pt(0, 1), pt(1, 1))),                      # parallel, disjoint
        ((pt(0, 0), pt(1, 0), pt(0, 1)), (pt(0, 0), pt(1, 0), pt(0, 1))),  # identical
        ((pt(0, 0), pt(1, 0), pt(0, 1)), (pt(F(1, 4), F(1, 4)), pt(2, 2))),
        ((pt(0, 0), pt(1, 0), pt(0, 1)), (pt(1, 0), pt(1, 1), pt(0, 1))),  # shared edge
        ((pt(0, 0, 0), pt(1, 0, 0)), (pt(F(1, 2), -1, 0), pt(F(1, 2), 1, 0))),
        ((pt(0, 0, 0), pt(1, 0, 0)), (pt(F(1, 2), -1, 1), pt(F(1, 2), 1, 1))),  # skew
        ((pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0)), (pt(0, 0, 1), pt(1, 0, 1), pt(0, 1, 1))),
        ((pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0)), (pt(0, 0, 0), pt(1, 0, 0), pt(0, 0, 1))),
        ((pt(0, 0, 0), pt(2, 0, 0), pt(0, 2, 0)), (pt(1, 1, -1), pt(1, 1, 1))),
        ((pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)),
         (pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1))),
    ]
    cases = [(Simplex(a), Simplex(b)) for a, b in pairs]
    # seeded pairs on a coarse lattice, so that many of them meet
    rng = Random(9)
    for d in (2, 3):
        for _ in range(60):
            a, b = (random_simplex(rng, d, rng.randint(0, d), denominator=1)
                    for _ in range(2))
            if not (a.is_degenerate() or b.is_degenerate()):
                cases.append((a, b))
    seen = set()
    for a, b in cases:
        dim = overlap_dim(a, b)
        seen.add(dim)
        for k in range(-1, a.ambient_dim + 1):
            assert overlap_dim_at_least(a, b, k) == (dim >= k), (a, b, k)
        # one elimination decides what solving and a rank did
        eqs = _common_lattice(a, b, a.equalities(), b.equalities())
        fraction_eqs = ref_equalities(a) + ref_equalities(b)
        assert bool(eqs) == bool(fraction_eqs)
        if eqs:
            rows, rhs = [e[0] for e in fraction_eqs], [e[1] for e in fraction_eqs]
            expected = None if solve_linear(rows, rhs) is None else rank_of(rows)
            assert _equalities_rank(eqs, a.ambient_dim) == expected
    assert seen == {-1, 0, 1, 2, 3}


# -- integer-lattice representation ----------------------------------------


def test_equal_simplices_hash_and_compare_equal_however_their_vertices_are_written():
    equal = [
        (Simplex(((F(2, 4), F(0)), (F(1), F(6, 8)))), Simplex(((F(1, 2), 0), (1, F(3, 4))))),
        (Simplex(((0, 0), (1, 0))), Simplex(((F(0), F(0)), (F(1), F(0))))),
        (Simplex(((F(3, 6),),)), Simplex(((F(1, 2),),))),
    ]
    # the n = 2 corners: lattice entries 0 and 2 share the factor 2 with n
    cx = grid_complex(2, 2)
    corners = [s for s in cx.simplices(0) if all(c.denominator == 1 for c in s.vertices[0])]
    assert len(corners) == 4 and all(s.den == 1 for s in corners)
    equal += [(s, Simplex([[int(c) for c in s.vertices[0]]])) for s in corners]
    equal += [(s, Simplex(s.vertices)) for k in (1, 2) for s in cx.simplices(k)]
    for a, b in equal:
        assert a == b and hash(a) == hash(b)
        assert (a.num, a.den) == (b.num, b.den)
        assert all(gcd(s.den, *[c for p in s.num for c in p]) == 1 for s in (a, b))
    distinct = [
        (Simplex(((F(1, 2), 0),)), Simplex(((F(1, 4), 0),))),      # same numerators
        (Simplex(((F(1, 2), 0),)), Simplex(((1, 0),))),
        (Simplex(((0, 0), (1, 0))), Simplex(((1, 0), (0, 0)))),    # orientation
        (Simplex(((0, 0), (F(1, 3), 0))), Simplex(((0, 0), (F(1, 3), 0), (0, 1)))),
    ]
    for a, b in distinct:
        assert a != b
    assert len({a for pair in distinct for a in pair}) == 7


BIG_DENOMINATORS = (10 ** 6 + 3, 10 ** 6 + 33, 2 ** 21, 1, 6)


def big_point(rng, d):
    return tuple(F(rng.randint(-10 ** 7, 10 ** 7), rng.choice(BIG_DENOMINATORS))
                 for _ in range(d))


def big_free_chain(rng, d, k, terms=4):
    """A free k-chain whose vertices have denominators past 10^6; one term
    has a single vertex over 10^6 + 3 and the rest integral, so dropping
    that vertex shrinks the denominator of the face."""
    items = []
    while len(items) < terms:
        verts = [big_point(rng, d) for _ in range(k + 1)]
        if len(set(verts)) == k + 1:
            items.append((tuple(verts), F(rng.randint(1, 9), rng.randint(1, 9))))
    lone = tuple(tuple(F(rng.randint(-9, 9)) for _ in range(d)) for _ in range(k))
    items.append((lone + (tuple(F(rng.randint(1, 9), 10 ** 6 + 3) for _ in range(d)),), F(1)))
    return PolyChain.build(REAL, d, k, items)


def test_moved_faces_and_prism_match_simplices_rebuilt_from_fraction_vertices():
    rng = Random(2024)
    shrunk = 0
    for d in (1, 2, 3):
        for k in range(d + 1):
            chain = big_free_chain(rng, d, k)
            maps = [AffineMap(F(rng.randint(1, 10 ** 7), 10 ** 6 + 3), big_point(rng, d)),
                    AffineMap.translation(big_point(rng, d)), AffineMap.identity(d),
                    AffineMap.homothety(big_point(rng, d), F(127, 128))]
            for f in maps:
                assert list(pushforward(chain, f).terms) == [s.moved(f) for s in chain.terms]
                for s in chain.terms:
                    image = s.moved(f)
                    ref = Simplex(canonical(tuple(map(f, s.vertices)))[0])
                    assert image == ref and hash(image) == hash(ref)
                    assert image.vertices == ref.vertices
            if k:
                expected = {}
                for s, c in chain.terms.items():
                    for i in range(k + 1):
                        face = Simplex(s.vertices[:i] + s.vertices[i + 1:])
                        expected[face] = expected.get(face, 0) + (c if i % 2 == 0 else -c)
                        shrunk += face.den < s.den
                got = chain.boundary().terms
                assert got == {s: c for s, c in expected.items() if c}
            if k < d:
                f0, f1 = maps[0], maps[3]
                items = []
                for s, c in chain.terms.items():
                    lower, upper = [f0(v) for v in s.vertices], [f1(v) for v in s.vertices]
                    items += [(tuple(lower[:i + 1]) + tuple(upper[i:]), c if i % 2 == 0 else -c)
                              for i in range(k + 1)]
                got = prism(chain, f0, f1)
                # the terms, in order, of the vertex-tuple constructor
                ref = PolyChain.build(REAL, d, k + 1, items)
                assert list(got.terms.items()) == list(ref.terms.items())
                # and each one sorted as Fractions and rebuilt from them
                expected = {}
                for verts, c in items:
                    verts, sign = canonical(verts)
                    if sign:
                        key = Simplex(verts)
                        expected[key] = expected.get(key, 0) + sign * c
                assert got.terms == {s: c for s, c in expected.items() if c}
    assert shrunk > 0


def test_sq_volume_equals_the_fraction_gram_determinant():
    rng = Random(31)
    cases = 0
    while cases < 200:
        d = rng.randint(1, 3)
        k = rng.randint(0, d)
        s = random_simplex(rng, d, k, denominator=rng.choice((9, 10 ** 6 + 3)))
        edges = ref_edges(s)
        gram = [[sum((a * b for a, b in zip(e1, e2)), F(0)) for e2 in edges] for e1 in edges]
        expected = gauss_jordan(gram)[2] / factorial(k) ** 2 if k else F(1)
        assert Simplex(s.vertices).sq_volume() == expected
        cases += 1


def test_a_point_shift_or_direction_of_the_wrong_length_is_refused():
    seg = Simplex((pt(0, 0), pt(1, 0)))
    with pytest.raises(GeometryError, match="direction"):
        is_tangent((1, 0, 0), seg)
    with pytest.raises(GeometryError, match="shift"):
        seg.moved(AffineMap.translation(pt(1, 2, 3)))
    with pytest.raises(GeometryError, match="point"):
        point_in_simplex((0, 0, 0), seg)
    with pytest.raises(GeometryError, match="point"):
        AffineMap.translation(pt(1, 2, 3))(pt(0, 0))
    with pytest.raises(GeometryError):
        AffineMap.translation(pt(1, 2)).compose(AffineMap.translation(pt(1, 2, 3)))
    with pytest.raises(GeometryError, match="ambient"):
        overlap_dim_at_least(seg, Simplex((pt(0, 0, 0), pt(1, 0, 0))), 0)
