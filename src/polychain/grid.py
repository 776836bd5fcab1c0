"""Structured backend: Kuhn triangulation of a cubical grid.

The unit box [0, 1]^d is cut into n^d cells; each cell is split
into d! simplices along vertex paths that append unit steps in every
coordinate order.  The resulting complex is simplicial, its simplices are
exactly the monotone vertex chains of the cell lattices, and refining the
grid by any integer ratio refines every simplex of the coarse grid.

The complex is stored as integer lattice cells: a k-cell is the tuple of
its k+1 lattice points (a vertex times n, each point tuple built once), in
increasing lexicographic order.  Kuhn's triangulation is translation
invariant, so every k-cell is v0 + shape for its first point v0 and one of
a few shapes, the chains 0 < o_1 < ... < o_k of 0/1 offsets that a path
through the unit cube passes (for d = 3: 1, 7, 12 and 6 shapes for
k = 0..3).  The k-cells are listed by v0 in lexicographic order and, for
each v0, by shape in sorted order, which is the vertex-sorted order with
no sort; a top cell's orientation is the sign of its path's axis order.
Ids are positions in these lists.  Integer tuples sort as their Fraction
vertices (the points divided by n) do, so ids are the positions in the
vertex-sorted simplex lists, two complexes with equal parameters enumerate
identically, and sorting a complex's simplices by id orders them as their
vertex tuples do (`id_key`; complex-backed chains sort their terms this
way).  Incidence rows look each face up in a dict keyed by the integer
cells.

A dimension's `Simplex` objects and its Simplex -> id index are made the
first time something asks for them (`simplices`, `index_of`, `id_key`,
`chain_from_ids`, `chain_vector`).  A stored simplex is its cell's lattice
tuple over den = n, in lowest terms, so it equals and hashes like the
simplex built from the Fraction vertices, and no Fraction is made until
something reads `vertices`.  `index_of` is the one Simplex -> id lookup;
`simplices(k)[i]` is the stored object of id i.
Volumes are translation invariant, so each shape takes one Gram
determinant and every cell of the shape gets its squared volume and volume
from that table entry.  Each simplex of a complex is one stored object, so
its hash and volume are computed once however many chains use it.  Chains
made here are built from cell ids (`chain_from_ids`): (id, coeff) pairs
become terms keyed by the stored simplices, with no vertex tuple sorted and
no new Simplex; `PolyChain.build` stays the constructor for chains given
by vertex tuples (files, free chains).

`check_grid` is the one grid check: it refuses a dimension or resolution
no complex here is built for, and a grid past MAX_GRID_SIMPLICES top
simplices, before anything builds it.  `GridComplex` calls it, and so do
the readers and commands that take a grid from their input, each naming
where the grid came from.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import combinations, permutations, product
from math import ceil, factorial, floor

from . import chains as _chains
from .geometry import Simplex, det, faces, lowest_terms, point_in_simplex
from .radicals import RadicalSum


class GridError(ValueError):
    pass


class InputLimitError(ValueError):
    """Well-formed input that exceeds a named size limit."""


# Largest grid that may be built, in top simplices (n^d * d!).  Time and
# memory grow about in proportion to this: at d=3 n=12 (10368 top
# simplices) the complex's integer cells take 0.05 s, and every Simplex
# object with all incidence tables 0.7 s and 48 MB in all (2 cores,
# Python 3.11.7).
MAX_GRID_SIMPLICES = 20000


def check_grid(ambient_dim: int, resolution: int, where: str = "grid") -> None:
    """Refuse grid parameters no Kuhn complex here is built for, and a grid
    past MAX_GRID_SIMPLICES top simplices; `where` names the grid's source
    in the InputLimitError.  Cheap: nothing is built."""
    if ambient_dim not in (1, 2, 3):
        raise GridError("ambient dimension must be 1, 2 or 3")
    if resolution < 1:
        raise GridError("resolution must be >= 1")
    if resolution ** ambient_dim * factorial(ambient_dim) > MAX_GRID_SIMPLICES:
        raise InputLimitError("%s: n=%d in R^%d exceeds MAX_GRID_SIMPLICES = %d"
                              % (where, resolution, ambient_dim, MAX_GRID_SIMPLICES))


def _perm_sign(perm) -> int:
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return -1 if inv % 2 else 1


@functools.cache
def _kuhn_shapes(d: int):
    """Per k, the sorted shapes (0, o_1, ..., o_k) of the Kuhn k-cells: the
    offsets from the first vertex along some path through the unit cube.
    Also the orientation of each top shape in that order, the sign of its
    path's axis order."""
    shapes = [set() for _ in range(d + 1)]
    orient = {}
    origin = (0,) * d
    for perm in permutations(range(d)):
        path = [origin]
        for axis in perm:
            path.append(tuple(c + (i == axis) for i, c in enumerate(path[-1])))
        orient[tuple(path)] = _perm_sign(perm)
        for k in range(d + 1):
            for sub in combinations(path, k + 1):
                shapes[k].add(tuple(tuple(a - b for a, b in zip(p, sub[0])) for p in sub))
    shapes = tuple(tuple(sorted(s)) for s in shapes)
    return shapes, tuple(orient[shape] for shape in shapes[d])


class GridComplex:
    __slots__ = ("ambient_dim", "resolution", "_cells", "_shape_of", "_ids",
                 "_simplices", "_index", "_top_orient", "_cube_cells",
                 "_incidence", "_coboundary")

    def __init__(self, ambient_dim: int, resolution: int):
        check_grid(ambient_dim, resolution)
        self.ambient_dim = ambient_dim
        self.resolution = resolution

        d, n = ambient_dim, resolution
        # lattice points in lexicographic order; a point's position is linear
        # in its coordinates, so v0 + offset sits at base + the offset's step.
        # A shape fits at v0 unless its last offset steps along an axis on
        # which v0 is already at n (the bits of `far`).
        points = list(product(range(n + 1), repeat=d))
        place = [(n + 1) ** (d - 1 - j) for j in range(d)]
        far = [sum(1 << j for j, c in enumerate(p) if c == n) for p in points]
        shapes, top_sign = _kuhn_shapes(d)
        self._cells: dict[int, list] = {}
        self._shape_of: dict[int, list] = {}
        for k, kind in enumerate(shapes):
            # (steps to each vertex, axes the last vertex moves along)
            table = [(tuple(sum(c * w for c, w in zip(o, place)) for o in shape),
                      sum(1 << j for j, c in enumerate(shape[-1]) if c))
                     for shape in kind]
            cells, shape_of = [], []
            for base, blocked in enumerate(far):
                for si, (steps, axes) in enumerate(table):
                    if not blocked & axes:
                        cells.append(tuple([points[base + s] for s in steps]))
                        shape_of.append(si)
            self._cells[k] = cells
            self._shape_of[k] = shape_of

        self._top_orient = tuple(top_sign[si] for si in self._shape_of[d])

        self._ids: dict[int, dict] = {}
        self._simplices: dict[int, tuple] = {}
        self._index: dict[int, dict] = {}
        self._cube_cells: dict[int, dict] = {}
        self._incidence: dict[int, tuple] = {}
        self._coboundary: dict[int, tuple] = {}

    def _make(self, k: int) -> None:
        """Build dimension k's Simplex objects and Simplex -> id index, with
        squared volumes and volumes from one Gram determinant per shape.

        A stored cell is its lattice tuple over den = n in lowest terms.
        For k >= 1 two points of a cell differ by a 0/1 step that is 1 on
        some axis, so the gcd is already 1 and the tuple is used as is;
        only 0-cells are divided by theirs."""
        n = self.resolution
        known = Simplex.trusted
        shape_vol = []
        for shape in _kuhn_shapes(self.ambient_dim)[0][k]:
            s = known(*lowest_terms(shape, n))
            shape_vol.append((s.sq_volume(), s.volume()))
        cells = self._cells[k]
        if k == 0:
            stored = tuple([known(*lowest_terms(cell, n), *shape_vol[0]) for cell in cells])
        else:
            stored = tuple([known(cell, n, *shape_vol[si])
                            for cell, si in zip(cells, self._shape_of[k])])
        self._simplices[k] = stored
        self._index[k] = dict(zip(stored, range(len(stored))))

    def _table(self, k: int):
        """Dimension k's Simplex -> id index, or None when k is out of range."""
        table = self._index.get(k)
        if table is None and k in self._cells:
            self._make(k)
            table = self._index[k]
        return table

    # -- enumeration ---------------------------------------------------------

    def count(self, k: int) -> int:
        return len(self._cells[k])

    def simplices(self, k: int) -> tuple:
        if k not in self._simplices:
            self._make(k)
        return self._simplices[k]

    def index_of(self, k: int, s: Simplex) -> int:
        try:
            return self._index[k][s]
        except KeyError:
            table = self._table(k)
            if table is not None and s in table:
                return table[s]
            raise GridError("simplex not on this complex: %r" % (s,)) from None

    def id_key(self, k: int):
        """Sort key giving a stored k-simplex its id, which orders simplices
        as their sorted vertex tuples do without comparing Fractions."""
        return self._table(k).__getitem__

    def cubes(self):
        return product(*(range(self.resolution),) * self.ambient_dim)

    def cells_of_cube(self, k: int) -> dict:
        """Lattice cube -> ascending ids of the k-cells whose first point,
        clipped to n - 1, is that cube's corner; for k = d, the d! top
        cells of the cube."""
        if k not in self._cube_cells:
            top = self.resolution - 1
            by_cube: dict[tuple, list] = {}
            for i, cell in enumerate(self._cells[k]):
                cube = tuple([c if c < top else top for c in cell[0]])
                by_cube.setdefault(cube, []).append(i)
            self._cube_cells[k] = {c: tuple(ids) for c, ids in by_cube.items()}
        return self._cube_cells[k]

    # -- incidence -------------------------------------------------------------

    def incidence(self, k: int) -> tuple:
        """Per k-simplex id: ((face_id, sign), ...) rows of the boundary map."""
        if k not in self._incidence:
            if not 1 <= k <= self.ambient_dim:
                raise GridError("incidence defined for 1 <= k <= d")
            if k - 1 not in self._ids:
                lower = self._cells[k - 1]
                self._ids[k - 1] = dict(zip(lower, range(len(lower))))
            ids = self._ids[k - 1]
            self._incidence[k] = tuple([tuple([(ids[fv], sign) for fv, sign in faces(cell)])
                                        for cell in self._cells[k]])
        return self._incidence[k]

    def coboundary(self, k: int) -> tuple:
        """Per k-simplex id: ((parent_id, sign), ...) transposed incidence."""
        if k not in self._coboundary:
            cols: list[list] = [[] for _ in range(self.count(k))]
            for parent, row in enumerate(self.incidence(k + 1)):
                for face_id, sign in row:
                    cols[face_id].append((parent, sign))
            self._coboundary[k] = tuple(tuple(c) for c in cols)
        return self._coboundary[k]

    def face_sums(self, triples) -> dict:
        """{key: {face id: sum of weight * sign}} over (key, top id, weight)
        triples, summed from the top incidence rows in first-seen order;
        faces that sum to zero are kept."""
        incidence = self.incidence(self.ambient_dim)
        sums: dict = {}
        for key, i, w in triples:
            table = sums.get(key)
            if table is None:
                table = sums[key] = {}
            for f, sign in incidence[i]:
                table[f] = table.get(f, 0) + (w if sign > 0 else -w)
        return sums

    # -- chains ------------------------------------------------------------------

    def chain_vector(self, chain) -> list:
        """Coefficient vector over k-simplex ids; a term off this complex
        raises GridError, as does a dimension it has no simplices of."""
        k = chain.dim
        if k not in self._cells:
            raise GridError("no %d-simplices on this complex" % k)
        vec = [Fraction(0)] * self.count(k)
        for s, c in chain.terms.items():
            vec[self.index_of(k, s)] = c
        return vec

    def chain_from_ids(self, group, k: int, pairs) -> "_chains.PolyChain":
        """The k-chain sum of coeff * (stored k-simplex id) over (id, coeff)
        pairs, each coeff relative to the stored orientation.

        Repeated ids add up through the group and zeros are dropped, in the
        order `PolyChain.build` would give on the same cells; the terms are
        the stored simplices, so no vertex tuple is sorted or hashed."""
        by_id = _chains.summed(group, ((i, group.normalize(c)) for i, c in pairs))
        stored = self.simplices(k)
        return _chains.PolyChain(group, self.ambient_dim, k,
                                 {stored[i]: g for i, g in by_id.items()}, self)

    def chain_from_vector(self, group, k: int, vec) -> "_chains.PolyChain":
        return self.chain_from_ids(group, k, ((i, c) for i, c in enumerate(vec) if c))

    def top_pairs(self, group, ids, coeff) -> list:
        """(id, coeff) pairs giving the top simplices `ids` the coefficient
        coeff on their positive orientation."""
        g = group.normalize(coeff)
        neg = group.neg(g)
        return [(i, g if self._top_orient[i] > 0 else neg) for i in ids]

    def full_chain(self, group, coeff=1) -> "_chains.PolyChain":
        """Positively oriented sum of all top cells."""
        d = self.ambient_dim
        return self.chain_from_ids(group, d, self.top_pairs(group, range(self.count(d)), coeff))

    def cube_chain(self, group, cube, coeff=1) -> "_chains.PolyChain":
        """Positively oriented cell indicator: the d! tops of one cube."""
        d = self.ambient_dim
        return self.chain_from_ids(group, d, self.top_pairs(
            group, self.cells_of_cube(d)[tuple(cube)], coeff))

    # -- geometry ------------------------------------------------------------------

    def diameter(self) -> RadicalSum:
        return RadicalSum.sqrt_rational(self.ambient_dim)

    def bbox(self):
        return (Fraction(0),) * self.ambient_dim, (Fraction(1),) * self.ambient_dim

    def __repr__(self):
        return "GridComplex(d=%d, n=%d)" % (self.ambient_dim, self.resolution)


# Complexes kept by grid_complex; past this many the oldest is dropped.  A
# dropped complex stays valid for the chains that hold it, and a rebuilt one
# has equal simplices, since simplices compare by their vertices.
MAX_CACHED_GRIDS = 16
_CACHE: dict[tuple, GridComplex] = {}


def grid_complex(ambient_dim: int, resolution: int) -> GridComplex:
    key = (ambient_dim, resolution)
    if key not in _CACHE:
        cx = GridComplex(ambient_dim, resolution)
        if len(_CACHE) >= MAX_CACHED_GRIDS:
            del _CACHE[next(iter(_CACHE))]
        _CACHE[key] = cx
    return _CACHE[key]


def embed_on(target: GridComplex, chain) -> "_chains.PolyChain":
    """Re-express a grid-aligned chain exactly on a (finer) grid complex.

    Every term must be tiled exactly by target simplices; the tiling is
    verified by an exact volume identity per term.  Fails loudly otherwise.
    A tile's first vertex lies in the term's bounding box, so the candidate
    tiles are the target cells of the cubes that box's lattice points clip
    to, visited in ascending id.  A tile is kept when all its lattice
    points lie in the term; each point is tested once per term, against
    the box in integers and then exactly against the term's hull, and the
    answer is reused by every candidate tile that shares it.
    """
    if chain.ambient_dim != target.ambient_dim:
        raise GridError("ambient dimension mismatch")
    k = chain.dim
    group = chain.group
    fine = target.simplices(k)
    cells = target._cells[k]
    by_cube = target.cells_of_cube(k)
    n = target.resolution
    pairs = []
    for sigma, coeff in chain.terms.items():
        if sigma.is_degenerate():
            raise GridError("cannot re-express a zero-volume term")
        # the lattice coordinates in sigma's bounding box, per axis
        bounds = [(max(ceil(a * n), 0), min(floor(b * n), n)) for a, b in zip(*sigma.bbox())]
        spans = [range(min(first, n - 1), min(last, n - 1) + 1) if first <= last else ()
                 for first, last in bounds]
        candidates = sorted(i for cube in product(*spans) for i in by_cube[cube])
        base = sigma.lattice_edges()
        inside = {}  # lattice point -> whether it lies in sigma
        covered = RadicalSum()
        for i in candidates:
            for p in cells[i]:
                hit = inside.get(p)
                if hit is None:
                    hit = inside[p] = (
                        all([a <= c <= b for c, (a, b) in zip(p, bounds)])
                        and point_in_simplex(tuple([Fraction(c, n) for c in p]), sigma))
                if not hit:
                    break
            else:
                t = fine[i]
                # t lies in sigma's affine hull, so its edges are E_t = C E_sigma
                # and det(E_t E_sigma^T) = det(C) det(Gram(sigma)) has det(C)'s
                # sign, which positive multiples of the edges keep
                rel = det([[sum([a * b for a, b in zip(e, f)]) for f in base]
                           for e in t.lattice_edges()])
                if rel == 0:
                    raise GridError("degenerate tile")
                c = coeff if rel > 0 else group.neg(coeff)
                pairs.append((i, c))
                covered = covered + t.volume()
        if not (covered - sigma.volume()).is_zero():
            raise GridError("term is not exactly tiled by the target grid")
    return target.chain_from_ids(group, k, pairs)
