"""Structured backend: Kuhn triangulation of a cubical grid.

The unit box [0, 1]^d is cut into n^d cells; each cell is split
into d! simplices along vertex paths that append unit steps in every
coordinate order.  The resulting complex is simplicial, its simplices are
exactly the monotone vertex chains of the cell lattices, and refining the
grid by any integer ratio refines every simplex of the coarse grid.

All coordinates are Fractions; ids are positions in the vertex-sorted
simplex lists, so two complexes with equal parameters enumerate identically,
and sorting a complex's simplices by id orders them as their vertex tuples
do (`id_key`; complex-backed chains sort their terms this way).  Each
simplex of a complex is one stored object (`intern` returns it), so its
hash and volume are computed once however many chains use it.  Chains made
here are built from cell ids (`chain_from_ids`): (id, coeff) pairs become
terms keyed by the stored simplices, with no vertex tuple sorted, no new
Simplex and no `intern` lookup; `PolyChain.build` stays the constructor for
chains given by vertex tuples (files, free chains).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product

from . import chains as _chains
from .geometry import (Simplex, _hull_constraints, canonical, det, faces,
                       simplex_in_simplex)
from .radicals import RadicalSum


class GridError(ValueError):
    pass


def _perm_sign(perm) -> int:
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return -1 if inv % 2 else 1


class GridComplex:
    __slots__ = ("ambient_dim", "resolution", "_simplices", "_index",
                 "_top_orient", "_cube_tops", "_incidence", "_coboundary")

    def __init__(self, ambient_dim: int, resolution: int):
        if ambient_dim not in (1, 2, 3):
            raise GridError("ambient dimension must be 1, 2 or 3")
        if resolution < 1:
            raise GridError("resolution must be >= 1")
        self.ambient_dim = ambient_dim
        self.resolution = resolution

        d, n = ambient_dim, resolution
        step = Fraction(1, n)
        tops = []  # (simplex, orient, cube)
        for cube in product(range(n), repeat=d):
            corner = tuple(step * c for c in cube)
            for perm in permutations(range(d)):
                path = [corner]
                cur = list(corner)
                for axis in perm:
                    cur[axis] += step
                    path.append(tuple(cur))
                verts, s = canonical(tuple(path))
                tops.append((Simplex(verts), _perm_sign(perm) * s, cube))
        tops.sort(key=lambda t: t[0].vertices)

        self._simplices: dict[int, tuple] = {d: tuple(t[0] for t in tops)}
        self._top_orient = tuple(t[1] for t in tops)
        cube_tops: dict[tuple, list] = {}
        for i, t in enumerate(tops):
            cube_tops.setdefault(t[2], []).append(i)
        self._cube_tops = {c: tuple(ids) for c, ids in cube_tops.items()}

        for k in range(d - 1, -1, -1):
            seen = set()
            for s in self._simplices[k + 1]:
                # any vertex subset of a Kuhn simplex is again a face
                for sub in combinations(s.vertices, k + 1):
                    seen.add(sub)
            self._simplices[k] = tuple(Simplex(v) for v in sorted(seen))

        self._index = {k: {s: i for i, s in enumerate(v)}
                       for k, v in self._simplices.items()}
        self._incidence: dict[int, tuple] = {}
        self._coboundary: dict[int, tuple] = {}

    # -- enumeration ---------------------------------------------------------

    def count(self, k: int) -> int:
        return len(self._simplices[k])

    def simplices(self, k: int) -> tuple:
        return self._simplices[k]

    def simplex(self, k: int, i: int) -> Simplex:
        return self._simplices[k][i]

    def index_of(self, k: int, s: Simplex) -> int:
        try:
            return self._index[k][s]
        except KeyError:
            raise GridError("simplex not on this complex: %r" % (s,))

    def id_key(self, k: int):
        """Sort key giving a stored k-simplex its id, which orders simplices
        as their sorted vertex tuples do without comparing Fractions."""
        return self._index[k].__getitem__

    def intern(self, k: int, s: Simplex) -> Simplex:
        """The complex's own k-simplex object equal to s."""
        return self._simplices[k][self.index_of(k, s)]

    def contains(self, s: Simplex) -> bool:
        table = self._index.get(s.dim)
        return table is not None and s in table

    def cubes(self):
        return product(*(range(self.resolution),) * self.ambient_dim)

    def tops_of_cube(self, cube) -> tuple:
        return self._cube_tops[tuple(cube)]

    # -- incidence -------------------------------------------------------------

    def incidence(self, k: int) -> tuple:
        """Per k-simplex id: ((face_id, sign), ...) rows of the boundary map."""
        if k not in self._incidence:
            if not 1 <= k <= self.ambient_dim:
                raise GridError("incidence defined for 1 <= k <= d")
            rows = []
            for s in self._simplices[k]:
                row = tuple((self._index[k - 1][Simplex(fv)], sign)
                            for fv, sign in faces(s.vertices))
                rows.append(row)
            self._incidence[k] = tuple(rows)
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

    # -- chains ------------------------------------------------------------------

    def validate_chain(self, chain) -> None:
        if chain.ambient_dim != self.ambient_dim:
            raise GridError("ambient dimension mismatch")
        table = self._index.get(chain.dim)
        if table is None:
            raise GridError("no %d-simplices on this complex" % chain.dim)
        for s in chain.terms:
            if s not in table:
                raise GridError("chain term off the complex: %r" % (s,))

    def chain_vector(self, chain) -> list:
        """Coefficient vector over k-simplex ids (chain must live here)."""
        self.validate_chain(chain)
        vec = [Fraction(0)] * self.count(chain.dim)
        for s, c in chain.terms.items():
            vec[self._index[chain.dim][s]] = c
        return vec

    def chain_from_ids(self, group, k: int, pairs) -> "_chains.PolyChain":
        """The k-chain sum of coeff * (stored k-simplex id) over (id, coeff)
        pairs, each coeff relative to the stored orientation.

        Repeated ids add up through the group and zeros are dropped, in the
        order `PolyChain.build` would give on the same cells; the terms are
        the stored simplices, so no vertex tuple is sorted or hashed."""
        by_id: dict[int, Fraction] = {}
        for i, coeff in pairs:
            g = group.normalize(coeff)
            if i in by_id:
                g = group.add(by_id[i], g)
            if g:
                by_id[i] = g
            else:
                by_id.pop(i, None)
        stored = self._simplices[k]
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
        return self.chain_from_ids(group, self.ambient_dim,
                                   self.top_pairs(group, self._cube_tops[tuple(cube)], coeff))

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
    """
    if chain.ambient_dim != target.ambient_dim:
        raise GridError("ambient dimension mismatch")
    k = chain.dim
    group = chain.group
    if k == 0 or chain.complex is not None and chain.complex.resolution == target.resolution:
        # index_of raises for a term off the target lattice
        return target.chain_from_ids(group, k, [(target.index_of(k, s), c)
                                                for s, c in chain.terms.items()])
    fine = target.simplices(k)
    pairs = []
    for sigma, coeff in chain.terms.items():
        if sigma.is_degenerate():
            raise GridError("cannot re-express a zero-volume term")
        lo, hi = sigma.bbox()
        hull = _hull_constraints(sigma)
        base = sigma.edges()
        covered = RadicalSum()
        for i, t in enumerate(fine):
            tlo, thi = t.bbox()
            if any(a < b for a, b in zip(tlo, lo)) or any(a > b for a, b in zip(thi, hi)):
                continue
            if not simplex_in_simplex(t, sigma, hull):
                continue
            # t lies in sigma's affine hull, so its edges are E_t = C E_sigma
            # and det(E_t E_sigma^T) = det(C) det(Gram(sigma)) has det(C)'s sign
            rel = det([[sum(a * b for a, b in zip(e, f)) for f in base] for e in t.edges()])
            if rel == 0:
                raise GridError("degenerate tile")
            c = coeff if rel > 0 else group.neg(coeff)
            pairs.append((i, c))
            covered = covered + t.volume()
        if not (covered - sigma.volume()).is_zero():
            raise GridError("term is not exactly tiled by the target grid")
    return target.chain_from_ids(group, k, pairs)
