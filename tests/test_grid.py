"""Kuhn grid complexes: frozen counts, incidence, exact re-embedding."""

from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from polychain import geometry, grid
from polychain.approx import shrink_toward
from polychain.chains import PolyChain
from polychain.gen import random_chain, random_grid_function
from polychain.geometry import Simplex, canonical, faces
from polychain.coarea import GridFunction
from polychain.grid import (GridComplex, GridError, InputLimitError, check_grid, embed_on,
                            grid_complex)
from polychain.groups import CIRCLE, INTEGER, REAL, modp
from polychain.radicals import RadicalSum

F = Fraction


def pt(*coords):
    return tuple(F(c) for c in coords)


def test_counts_d2_single_cube():
    # frozen: unit square cut along one diagonal
    cx = grid_complex(2, 1)
    assert [cx.count(k) for k in range(3)] == [4, 5, 2]


def test_counts_d3_single_cube():
    # frozen: 6 path simplices through the cube, Euler characteristic 1
    cx = grid_complex(3, 1)
    counts = [cx.count(k) for k in range(4)]
    assert counts == [8, 19, 18, 6]
    assert counts[0] - counts[1] + counts[2] - counts[3] == 1


def test_counts_scale_with_resolution():
    cx = grid_complex(2, 3)
    assert cx.count(0) == 16
    assert cx.count(2) == 18
    euler = cx.count(0) - cx.count(1) + cx.count(2)
    assert euler == 1


def test_dimension_and_resolution_validation():
    with pytest.raises(GridError):
        grid_complex(4, 1)
    with pytest.raises(GridError):
        grid_complex(2, 0)


def test_oversized_grids_are_refused_before_any_cell_is_built(monkeypatch):
    # 120^2 * 2! = 28,800 top simplices; 100^2 * 2! is the largest d=2 grid
    assert 100 ** 2 * 2 <= grid.MAX_GRID_SIMPLICES < 120 ** 2 * 2
    monkeypatch.setattr(grid, "_kuhn_shapes", lambda d: pytest.fail("cells were built"))
    monkeypatch.setattr(grid, "_CACHE", {})
    message = r"grid: n=120 in R\^2 exceeds MAX_GRID_SIMPLICES = 20000"
    with pytest.raises(InputLimitError, match=message):
        grid_complex(2, 120)
    with pytest.raises(InputLimitError, match=message):
        GridComplex(2, 120)
    with pytest.raises(InputLimitError, match=message):
        GridFunction.build(2, 120, [0] * 120 ** 2)
    with pytest.raises(InputLimitError, match=r"complex: n=15 in R\^3"):
        check_grid(3, 15, "complex")
    assert grid._CACHE == {}


def test_incidence_squares_to_zero():
    for d, n in ((2, 2), (3, 1)):
        cx = grid_complex(d, n)
        for k in range(2, d + 1):
            rows = cx.incidence(k)
            below = cx.incidence(k - 1)
            for i in range(cx.count(k)):
                acc = {}
                for face, sign in rows[i]:
                    for sub, sub_sign in below[face]:
                        acc[sub] = acc.get(sub, 0) + sign * sub_sign
                assert all(v == 0 for v in acc.values())


def test_full_chain_boundary_is_the_box_boundary():
    for d in (2, 3):
        cx = grid_complex(d, 2)
        bdry = cx.full_chain(REAL).boundary()
        # mass = surface area of the unit box: 4 in 2d, 6 in 3d
        assert bdry.mass_exact().as_rational() == 2 * d
        assert bdry.boundary().is_zero()


def test_cube_chain_is_positively_oriented():
    cx = grid_complex(2, 2)
    cell = cx.cube_chain(REAL, (0, 1))
    assert cell.mass_exact().as_rational() == F(1, 4)
    bdry = cell.boundary()
    assert bdry.mass_exact().as_rational() == 2  # perimeter of one 1/2-cell
    # canonical storage folds orientation into the sign, never the magnitude
    assert all(c in (1, -1) for c in cell.terms.values())
    # the full chain is the sum of its positively oriented cells
    total = cx.full_chain(REAL)
    acc = None
    for cube in cx.cubes():
        piece = cx.cube_chain(REAL, cube)
        acc = piece if acc is None else acc + piece
    assert acc == total


def test_chain_vector_round_trip():
    cx = grid_complex(2, 1)
    full = cx.full_chain(INTEGER)
    vec = cx.chain_vector(full)
    assert sorted(abs(c) for c in vec) == [1, 1]
    back = cx.chain_from_vector(INTEGER, 2, vec)
    assert back == full


def test_chain_vector_refuses_foreign_terms_and_dimensions():
    cx = grid_complex(2, 1)
    foreign = PolyChain.build(REAL, 2, 1, [((pt(0, 0), pt(F(1, 2), 0)), 1)], complex=None)
    with pytest.raises(GridError):
        cx.chain_vector(foreign)
    for k in (3, -1):
        with pytest.raises(GridError):
            cx.chain_vector(PolyChain.zero(REAL, 2, k))


def test_diameter_and_bbox():
    cx = grid_complex(2, 2)
    assert (cx.diameter() * cx.diameter()).as_rational() == 2
    lo, hi = cx.bbox()
    assert lo == (0, 0)
    assert hi == (1, 1)


def test_embed_on_refinement_preserves_chain_data():
    coarse = grid_complex(2, 1)
    fine = grid_complex(2, 2)
    loop = coarse.full_chain(REAL).boundary()
    lifted = embed_on(fine, loop)
    assert lifted.complex is fine
    assert (lifted.mass_exact() - loop.mass_exact()).is_zero()
    assert lifted.boundary().is_zero()

    area = coarse.full_chain(REAL)
    lifted_area = embed_on(fine, area)
    assert (lifted_area.mass_exact() - area.mass_exact()).is_zero()
    assert (lifted_area.boundary().mass_exact()
            - area.boundary().mass_exact()).is_zero()


def test_embed_on_3d_refinement():
    coarse = grid_complex(3, 1)
    fine = grid_complex(3, 2)
    solid = coarse.full_chain(REAL)
    lifted = embed_on(fine, solid)
    assert (lifted.mass_exact() - solid.mass_exact()).is_zero()
    assert lifted.boundary().mass_exact().as_rational() == 6


def test_embed_on_rejects_unaligned_chains():
    fine = grid_complex(2, 3)
    off = PolyChain.build(REAL, 2, 1,
                          [(((F(0), F(0)), (F(1, 2), F(0))), F(1))])
    with pytest.raises(GridError):
        embed_on(fine, off)


def test_embed_on_identity_when_same_complex():
    cx = grid_complex(2, 2)
    ch = cx.full_chain(REAL)
    assert embed_on(cx, ch) == ch


def test_simplex_lookup_round_trip():
    cx = grid_complex(3, 1)
    for k in range(4):
        for i in range(cx.count(k)):
            s = cx.simplices(k)[i]
            assert cx.index_of(k, s) == i


# (d, n) of a small grid per dimension, for the seeded chain checks
GRIDS = ((1, 4), (2, 3), (3, 2))


def _stored(cx, k, s):
    return cx.simplices(k)[cx.index_of(k, s)]


def test_complex_boundary_matches_vertex_tuple_boundary():
    for d, n in GRIDS:
        cx = grid_complex(d, n)
        for k in range(1, d + 1):
            for seed in range(4):
                ch = random_chain(seed, d, n, k, terms=6)
                assert all(s is _stored(cx, k, s) for s in ch.terms)
                free = PolyChain.build(REAL, d, k, [(s.vertices, c) for s, c in ch.terms.items()])
                bd, free_bd = ch.boundary(), free.boundary()
                assert free_bd.complex is None and bd.complex is cx
                assert list(bd.terms.items()) == list(free_bd.terms.items())
                assert all(s is _stored(cx, k - 1, s) for s in bd.terms)


def test_warm_boundary_mass_builds_no_simplex_and_no_determinant(monkeypatch):
    cx = grid_complex(3, 2)
    for k in range(4):
        for s in cx.simplices(k):
            s.volume()
        if k:
            cx.incidence(k)
    chains = [random_chain(seed, 3, 2, k, terms=8) for seed in range(3) for k in (1, 2, 3)]
    calls = {"det": 0, "init": 0}
    det, init = geometry.det, Simplex.__init__

    def counting_det(rows):
        calls["det"] += 1
        return det(rows)

    def counting_init(self, vertices):
        calls["init"] += 1
        init(self, vertices)

    monkeypatch.setattr(geometry, "det", counting_det)
    monkeypatch.setattr(Simplex, "__init__", counting_init)
    for ch in chains:
        ch.boundary().mass_exact()
    assert calls == {"det": 0, "init": 0}
    # the counters see the vertex-tuple route, which builds its faces
    triangle = (pt(0, 0, 0), pt(1, 0, 0), pt(1, 1, 1))
    PolyChain.build(REAL, 3, 2, [(triangle, 1)]).boundary().mass_exact()
    assert calls["init"] > 0 and calls["det"] > 0


def test_grid_cache_drops_its_oldest_complex(monkeypatch):
    monkeypatch.setattr(grid, "_CACHE", {})
    monkeypatch.setattr(grid, "MAX_CACHED_GRIDS", 2)
    first = grid_complex(2, 2)
    loop = first.full_chain(REAL).boundary()
    grid_complex(2, 3)
    grid_complex(2, 4)
    assert len(grid._CACHE) == 2
    rebuilt = grid_complex(2, 2)
    assert rebuilt is not first
    again = rebuilt.full_chain(REAL).boundary()
    assert again == loop and (again - loop).is_zero()
    assert embed_on(rebuilt, loop).complex is rebuilt
    assert all(s is _stored(rebuilt, 1, s) for s in embed_on(rebuilt, loop).terms)


def _solve_cramer(columns, rhs):
    """Exact x with sum_j x_j columns[j] = rhs for a regular square system."""
    rows = [list(r) for r in zip(*columns)]
    base = geometry.det(rows)
    out = []
    for j in range(len(columns)):
        swapped = [row[:j] + [b] + row[j + 1:] for row, b in zip(rows, rhs)]
        out.append(geometry.det(swapped) / base)
    return out


def _contains(outer, point):
    """Is the point in the closed simplex?  Least-squares barycentric
    coordinates from the Gram system, then an exact residual check."""
    v0 = outer.vertices[0]
    edges = [tuple(a - b for a, b in zip(v, v0)) for v in outer.vertices[1:]]
    rel = tuple(a - b for a, b in zip(point, v0))
    gram = [[sum(a * b for a, b in zip(e, f)) for f in edges] for e in edges]
    lam = _solve_cramer(gram, [sum(a * b for a, b in zip(e, rel)) for e in edges])
    back = tuple(sum(l * e[i] for l, e in zip(lam, edges)) for i in range(len(v0)))
    return back == rel and all(l >= 0 for l in lam) and sum(lam) <= 1


def _edges(s):
    """The Fraction edges of a simplex from its first vertex."""
    v0 = s.vertices[0]
    return [tuple(a - b for a, b in zip(v, v0)) for v in s.vertices[1:]]


def _box(s):
    """The Fraction bounding box of a simplex's vertices."""
    cols = list(zip(*s.vertices))
    return [min(c) for c in cols], [max(c) for c in cols]


def _brute_force_embed(fine, chain):
    """Every fine k-simplex inside a term, signed by the sign of
    det(E_t E_sigma^T), which is det(C) det(Gram_sigma) for E_t = C E_sigma."""
    k = chain.dim
    items = []
    for sigma, coeff in chain.terms.items():
        sig_edges = _edges(sigma)
        for t in fine.simplices(k):
            if all(_contains(sigma, v) for v in t.vertices):
                cross = [[sum(a * b for a, b in zip(e, f)) for f in sig_edges] for e in _edges(t)]
                items.append((t.vertices, coeff if geometry.det(cross) > 0 else -coeff))
    return PolyChain.build(chain.group, chain.ambient_dim, k, items, complex=fine)


def test_embed_on_matches_brute_force_reference():
    cases = [(random_chain(seed, 2, 2, k, terms=4), grid_complex(2, 4))
             for seed in range(3) for k in (1, 2)]
    cases += [(random_chain(seed, 3, 1, k, terms=3), grid_complex(3, 2))
              for seed in range(2) for k in (1, 2, 3)]
    # a shrunken soup chain, which lands on the 2*2*n refinement
    soup, _ = shrink_toward(random_chain(7, 2, 2, 1, terms=4), (F(1, 2), F(1, 2)), F(1, 2))
    cases.append((soup, grid_complex(2, 8)))
    for chain, fine in cases:
        got = embed_on(fine, chain)
        assert got == _brute_force_embed(fine, chain)
        assert all(s is _stored(fine, chain.dim, s) for s in got.terms)


def _full_scan_embed(target, chain):
    """embed_on as a scan of every target k-cell per term: the (id, coeff)
    pairs in the order the scan finds them."""
    group, k = chain.group, chain.dim
    pairs = []
    for sigma, coeff in chain.terms.items():
        lo, hi = _box(sigma)
        base = _edges(sigma)
        covered = RadicalSum()
        for i, t in enumerate(target.simplices(k)):
            tlo, thi = _box(t)
            if any(a < b for a, b in zip(tlo, lo)) or any(a > b for a, b in zip(thi, hi)):
                continue
            if not geometry.simplex_in_simplex(t, sigma):
                continue
            rel = geometry.det([[sum(a * b for a, b in zip(e, f)) for f in base]
                                for e in _edges(t)])
            pairs.append((i, coeff if rel > 0 else group.neg(coeff)))
            covered = covered + t.volume()
        assert (covered - sigma.volume()).is_zero()
    return pairs


@pytest.mark.parametrize("d,n", [(2, 2), (3, 1)])
@pytest.mark.parametrize("ratio", [2, 3, 4])
def test_embed_on_candidates_match_a_full_scan(d, n, ratio, monkeypatch):
    fine = grid_complex(d, n * ratio)
    cases = [random_chain(seed, d, n, k, terms=3) for seed in range(2) for k in range(1, d + 1)]
    # free chains, halved toward the origin: they land on even refinements
    if ratio % 2 == 0:
        for seed in (2, 3):
            for k in range(1, d + 1):
                ch = random_chain(seed, d, n, k, terms=3)
                cases.append(PolyChain.build(ch.group, d, k, [
                    (tuple(tuple(c / 2 for c in v) for v in s.vertices), coeff)
                    for s, coeff in ch.terms.items()]))
    for chain in cases:
        seen = []
        with monkeypatch.context() as m:
            m.setattr(GridComplex, "chain_from_ids",
                      lambda self, group, k, pairs: seen.append(list(pairs)))
            embed_on(fine, chain)
        assert seen == [_full_scan_embed(fine, chain)]
        want = fine.chain_from_ids(chain.group, chain.dim, seen[0])
        got = embed_on(fine, chain)
        assert list(got.terms.items()) == list(want.terms.items())


def _built_on(cx, group, k, pairs):
    """The same cells through vertex tuples: PolyChain.build on the complex."""
    return PolyChain.build(group, cx.ambient_dim, k,
                           [(cx.simplices(k)[i].vertices, c) for i, c in pairs], complex=cx)


def test_chain_from_ids_equals_build_on_the_same_cells():
    cx = grid_complex(2, 2)
    cases = [
        # id 5 cancels; id 3 cancels, then comes back at the end
        (REAL, [(3, F(1, 2)), (7, F(-2, 3)), (3, F(-1, 2)), (5, 1), (5, -1), (3, 2)], {5}),
        (INTEGER, [(0, 2), (4, -3), (0, -2), (6, 1), (4, 1)], {0}),
        # 3/4 + 1/4 and 1 wrap to 0; 5/3 and -1/2 wrap into [0, 1)
        (CIRCLE, [(1, F(3, 4)), (1, F(1, 4)), (2, F(5, 3)), (6, 1), (7, F(-1, 2))], {1, 6}),
        # 1 + 2 and 5 + 1 are 0 mod 3
        (modp(3), [(2, 1), (2, 2), (4, 5), (7, -1), (4, 1)], {2, 4}),
    ]
    for group, pairs, dropped in cases:
        for k in (1, 2):
            got = cx.chain_from_ids(group, k, pairs)
            want = _built_on(cx, group, k, pairs)
            assert list(got.terms.items()) == list(want.terms.items())
            assert got.group == group and got.dim == k and got.complex is cx
            assert all(s is _stored(cx, k, s) for s in got.terms)
            assert {cx.index_of(k, s) for s in got.terms} == {i for i, _ in pairs} - dropped


def test_warm_id_constructors_build_no_simplex(monkeypatch):
    u = random_grid_function(4, 2, 3)
    cx = u.complex
    top = u.to_chain()
    vec = cx.chain_vector(top)
    calls = []
    init = Simplex.__init__

    def counting_init(self, vertices):
        calls.append(vertices)
        init(self, vertices)

    monkeypatch.setattr(Simplex, "__init__", counting_init)
    assert u.to_chain() == top and not top.is_zero()
    assert cx.chain_from_vector(REAL, 2, vec) == top
    assert calls == []
    # the counter sees build, which makes one Simplex per term
    PolyChain.build(REAL, 2, 2, [(s.vertices, c) for s, c in top.terms.items()], complex=cx)
    assert len(calls) == len(top)


def test_complex_chains_sort_by_id_as_by_vertices():
    for d, n in ((1, 3), (2, 3), (3, 2)):
        cx = grid_complex(d, n)
        for k in range(d + 1):
            # every cell, inserted in reverse id order
            ch = cx.chain_from_ids(REAL, k, [(i, i + 1) for i in reversed(range(cx.count(k)))])
            by_vertices = sorted(ch.terms.items(), key=lambda kv: kv[0].vertices)
            assert ch.items_sorted() == by_vertices
            assert ch.support() == [s for s, _ in by_vertices]


def _reference_complex(d, n):
    """The Kuhn complex built from Fraction vertices: one Simplex per top
    path, sorted by vertices, lower cells from vertex subsets, incidence by
    Simplex lookup and a Gram determinant per cell.  Returns (simplices per
    k, top orientations, cube -> top ids, incidence per k)."""
    step = F(1, n)
    tops = []
    for cube in product(range(n), repeat=d):
        corner = tuple(step * c for c in cube)
        for perm in permutations(range(d)):
            path = [corner]
            cur = list(corner)
            for axis in perm:
                cur[axis] += step
                path.append(tuple(cur))
            verts, sign = canonical(tuple(path))
            inversions = sum(a > b for a, b in combinations(perm, 2))
            tops.append((Simplex(verts), (-1) ** inversions * sign, cube))
    tops.sort(key=lambda t: t[0].vertices)
    simplices = {d: tuple(t[0] for t in tops)}
    cube_tops = {}
    for i, t in enumerate(tops):
        cube_tops.setdefault(t[2], []).append(i)
    for k in range(d - 1, -1, -1):
        seen = set()
        for s in simplices[k + 1]:
            for sub in combinations(s.vertices, k + 1):
                seen.add(sub)
        simplices[k] = tuple(Simplex(v) for v in sorted(seen))
    index = {k: {s: i for i, s in enumerate(v)} for k, v in simplices.items()}
    incidence = {k: tuple(tuple((index[k - 1][Simplex(fv)], sign) for fv, sign in faces(s.vertices))
                          for s in simplices[k])
                 for k in range(1, d + 1)}
    return (simplices, tuple(t[1] for t in tops),
            {c: tuple(ids) for c, ids in cube_tops.items()}, incidence)


REFERENCE_GRIDS = [(d, n) for d in (1, 2, 3) for n in (1, 2, 3, 4)] + [(2, 20), (3, 6)]


@pytest.mark.parametrize("d,n", REFERENCE_GRIDS)
def test_closed_form_complex_matches_the_fraction_construction(d, n):
    cx = GridComplex(d, n)
    simplices, top_orient, cube_tops, incidence = _reference_complex(d, n)
    assert cx._top_orient == top_orient
    assert cx.cells_of_cube(d) == cube_tops
    for k in range(d + 1):
        ref = simplices[k]
        assert cx.count(k) == len(ref)
        # the integer cells are the reference vertices times n
        assert [tuple(tuple(F(c, n) for c in p) for p in cell) for cell in cx._cells[k]] \
            == [s.vertices for s in ref]
        got = cx.simplices(k)
        assert [s.vertices for s in got] == [s.vertices for s in ref]
        assert all(s == Simplex(s.vertices) and hash(s) == hash(Simplex(s.vertices)) for s in got)
        assert [cx.index_of(k, s) for s in ref] == list(range(len(ref)))
        # shape-table volumes against a Gram determinant per cell
        assert [s.sq_volume() for s in got] == [s.sq_volume() for s in ref]
        assert [s.volume().terms for s in got] == [s.volume().terms for s in ref]
        if k:
            assert cx.incidence(k) == incidence[k]
        if k < d:
            cols = [[] for _ in ref]
            for parent, row in enumerate(incidence[k + 1]):
                for face, sign in row:
                    cols[face].append((parent, sign))
            assert cx.coboundary(k) == tuple(tuple(c) for c in cols)


def test_lookups_refuse_vertices_off_the_lattice():
    cx = GridComplex(2, 2)
    half, third = F(1, 2), F(1, 3)
    off = [
        Simplex([(third, 0)]),                       # non-integral on the n=2 lattice
        Simplex([(0, 0), (half, third)]),
        Simplex([(F(3, 2), 0)]),                     # out of the box
        Simplex([(0, 0), (-half, 0)]),
        Simplex([(0, 0), (1, 1)]),                   # lattice points, not a cell
        Simplex([(half, 0), (0, half)]),             # the other diagonal
        Simplex([(0, 0), (half, 0), (1, 0)]),        # collinear lattice points
    ]
    for s in off:
        with pytest.raises(GridError):
            cx.index_of(s.dim, s)
        with pytest.raises(GridError):
            PolyChain.build(REAL, 2, s.dim, [(s.vertices, 1)], complex=cx)
    cell = cx.simplices(1)[3]
    with pytest.raises(GridError):
        cx.index_of(2, cell)                         # a 1-cell asked for as a 2-cell
    with pytest.raises(GridError):
        cx.index_of(3, cell)                         # no 3-cells in R^2
    with pytest.raises(GridError):
        cx.index_of(0, Simplex([(0, 0, 0)]))         # another ambient dimension
