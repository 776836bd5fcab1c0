"""Exact geometry of rational simplices in R^d (d <= 3 at desk scale).

Vertices are tuples of Fractions.  Squared volumes are exact rationals
(Gram determinant over (k!)^2); real volumes are RadicalSums derived from
them.  Orientation is carried by vertex order; `canonical` folds the parity
of the sorting permutation into a sign so chains can store sorted tuples.

Tangency and overlap predicates are decided exactly with small rational
linear algebra (row reduction, vertex enumeration of intersection
polytopes); no floating point is involved.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial

from .radicals import RadicalSum

Point = tuple  # tuple[Fraction, ...]
Vertices = tuple  # tuple[Point, ...]


# ---------------------------------------------------------------------------
# small exact linear algebra (row vectors as lists of Fractions)


def mat_rank(rows) -> int:
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = Fraction(1) / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def solve_linear(a_rows, b):
    """One exact solution x of A x = b, or None if inconsistent.

    Returns (x, nullspace_basis).  Underdetermined systems return the
    particular solution with free variables set to zero.
    """
    rows = [list(r) + [bv] for r, bv in zip(a_rows, b)]
    ncols = len(a_rows[0]) if a_rows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b2 for a, b2 in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, len(rows)):
        if rows[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = rows[r][ncols]
    free = [c for c in range(ncols) if c not in pivots]
    null = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -rows[r][fc]
        null.append(vec)
    return x, null


def det(rows) -> Fraction:
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    out = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        out *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for i in range(col + 1, n):
            if m[i][col] != 0:
                f = m[i][col] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return out * sign


# ---------------------------------------------------------------------------
# simplices


class GeometryError(ValueError):
    pass


def as_point(coords) -> Point:
    if type(coords) is tuple and all(type(c) is Fraction for c in coords):
        return coords
    return tuple(Fraction(c) for c in coords)


def canonical(vertices) -> tuple[Vertices, int]:
    """Sort vertices lexicographically; return (sorted, parity sign).

    Sign is 0 when a vertex repeats (degenerate tuple, the zero chain).
    """
    verts = [as_point(v) for v in vertices]
    n = len(verts)
    if len(set(verts)) != n:
        return tuple(sorted(verts)), 0
    sign = 1
    for i in range(n):  # insertion sort, counting swaps
        j = i
        while j > 0 and verts[j - 1] > verts[j]:
            verts[j - 1], verts[j] = verts[j], verts[j - 1]
            sign = -sign
            j -= 1
    return tuple(verts), sign


class Simplex:
    """Oriented k-simplex: ordered rational vertices, orientation = order.

    Immutable: the vertices never change after construction, so the hash
    is computed once, and the squared volume, volume and bounding box are
    cached on first use.  Grid complexes hand out one shared object per
    cell (see GridComplex.intern), so those caches are filled once per
    cell in a process.
    """

    __slots__ = ("vertices", "_hash", "_sqvol", "_vol", "_bbox")

    def __init__(self, vertices):
        verts = tuple(as_point(v) for v in vertices)
        if not verts:
            raise GeometryError("empty vertex tuple")
        d = len(verts[0])
        if any(len(v) != d for v in verts):
            raise GeometryError("mixed ambient dimensions")
        if len(verts) > d + 1:
            raise GeometryError("more vertices than ambient dimension allows")
        self.vertices = verts
        self._hash = hash(verts)
        self._sqvol = None
        self._vol = None
        self._bbox = None

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    def edges(self):
        v0 = self.vertices[0]
        return [tuple(a - b for a, b in zip(v, v0)) for v in self.vertices[1:]]

    def sq_volume(self) -> Fraction:
        """Exact (H^k volume)^2 = det(Gram)/(k!)^2; the source of truth."""
        if self._sqvol is None:
            edges = self.edges()
            k = len(edges)
            if k == 0:
                self._sqvol = Fraction(1)
            else:
                gram = [[sum(a * b for a, b in zip(e1, e2)) for e2 in edges] for e1 in edges]
                self._sqvol = det(gram) / (factorial(k) ** 2)
        return self._sqvol

    def volume(self) -> RadicalSum:
        if self._vol is None:
            self._vol = RadicalSum.sqrt_rational(self.sq_volume())
        return self._vol

    def is_degenerate(self) -> bool:
        return self.sq_volume() == 0

    def bbox(self):
        if self._bbox is None:
            cols = tuple(zip(*self.vertices))
            self._bbox = tuple(map(min, cols)), tuple(map(max, cols))
        return self._bbox

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, Simplex) and self._hash == other._hash
                and self.vertices == other.vertices)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.vertices < other.vertices

    def __repr__(self):
        return "Simplex(%s)" % (tuple(tuple(map(str, v)) for v in self.vertices),)


def faces(vertices):
    """Codimension-one faces with alternating signs: [(face_i, (-1)^i)]."""
    out = []
    for i in range(len(vertices)):
        out.append((vertices[:i] + vertices[i + 1:], -1 if i % 2 else 1))
    return out


# ---------------------------------------------------------------------------
# affine maps


class AffineMap:
    """x -> A x + b with exact rational entries."""

    __slots__ = ("matrix", "shift")

    def __init__(self, matrix, shift):
        self.matrix = tuple(tuple(Fraction(x) for x in row) for row in matrix)
        self.shift = as_point(shift)

    @classmethod
    def identity(cls, d: int) -> "AffineMap":
        return cls([[1 if i == j else 0 for j in range(d)] for i in range(d)],
                   [0] * d)

    @classmethod
    def translation(cls, vec) -> "AffineMap":
        d = len(vec)
        return cls([[1 if i == j else 0 for j in range(d)] for i in range(d)], vec)

    @classmethod
    def homothety(cls, center, ratio) -> "AffineMap":
        # x -> center + ratio*(x - center)
        center = as_point(center)
        r = Fraction(ratio)
        d = len(center)
        m = [[r if i == j else Fraction(0) for j in range(d)] for i in range(d)]
        shift = tuple(c * (1 - r) for c in center)
        return cls(m, shift)

    def __call__(self, point) -> Point:
        p = as_point(point)
        return tuple(sum(a * x for a, x in zip(row, p)) + s
                     for row, s in zip(self.matrix, self.shift))

    def apply_vertices(self, vertices) -> Vertices:
        return tuple(self(v) for v in vertices)

    def __repr__(self):
        return "AffineMap(%r, %r)" % (self.matrix, self.shift)


# ---------------------------------------------------------------------------
# tangency and overlap predicates


def is_tangent(direction, simplex: Simplex) -> bool:
    """True iff the direction vector lies in the simplex's edge span.

    Every vector is tangent to a top-dimensional simplex; the zero vector is
    tangent to everything.
    """
    vec = [Fraction(c) for c in direction]
    if all(c == 0 for c in vec):
        return True
    edges = simplex.edges()
    if not edges:
        return False
    rows = [list(e) for e in edges]
    return mat_rank(rows + [vec]) == mat_rank(rows)


def _hull_constraints(s: Simplex):
    """Exact H-description of the simplex.

    Returns (equalities, inequalities) with equalities [(row, rhs)] meaning
    row . x = rhs (affine hull) and inequalities [(row, rhs)] meaning
    row . x >= rhs (barycentric nonnegativity extended off-hull via normal
    equations; exact on the hull, which is all the intersection code needs).
    """
    v0 = s.vertices[0]
    edges = s.edges()
    k = len(edges)
    d = s.ambient_dim
    eqs = []
    if k < d:
        # nullspace of the edge span: rows n with n.(x - v0) = 0
        sol = solve_linear([list(e) for e in edges] or [[Fraction(0)] * d], [Fraction(0)] * max(k, 1))
        _, null = sol
        for n in null:
            eqs.append((list(n), sum(a * b for a, b in zip(n, v0))))
    ineqs = []
    if k == 0:
        return eqs, ineqs
    gram = [[sum(a * b for a, b in zip(e1, e2)) for e2 in edges] for e1 in edges]
    # rows of Gram^{-1} E give barycentric coordinates t = G^{-1} E (x - v0)
    ident = [[Fraction(1 if i == j else 0) for j in range(k)] for i in range(k)]
    ginv_cols = []
    for col in range(k):
        sol = solve_linear(gram, [ident[r][col] for r in range(k)])
        if sol is None:
            raise GeometryError("degenerate simplex has no H-description")
        ginv_cols.append(sol[0])
    ginv = [[ginv_cols[c][r] for c in range(k)] for r in range(k)]
    bary_rows = []
    for i in range(k):
        row = [sum(ginv[i][j] * edges[j][c] for j in range(k)) for c in range(d)]
        bary_rows.append(row)
    # t_i(x) >= 0 and 1 - sum t_i(x) >= 0
    for row in bary_rows:
        rhs = sum(a * b for a, b in zip(row, v0))
        ineqs.append((row, rhs))
    total = [sum(-r[c] for r in bary_rows) for c in range(d)]
    rhs = sum(a * b for a, b in zip(total, v0)) - 1
    ineqs.append((total, rhs))
    return eqs, ineqs


def _bboxes_disjoint(s1: Simplex, s2: Simplex) -> bool:
    lo1, hi1 = s1.bbox()
    lo2, hi2 = s2.bbox()
    return any(h1 < l2 or h2 < l1 for l2, h1, l1, h2 in zip(lo2, hi1, lo1, hi2))


def overlap_dim(s1: Simplex, s2: Simplex) -> int:
    """Exact dimension of the convex intersection; -1 when disjoint."""
    if s1.ambient_dim != s2.ambient_dim:
        raise GeometryError("ambient dimensions differ")
    if _bboxes_disjoint(s1, s2):
        return -1
    d = s1.ambient_dim
    eqs1, in1 = _hull_constraints(s1)
    eqs2, in2 = _hull_constraints(s2)
    eqs = eqs1 + eqs2
    ineqs = in1 + in2
    if eqs:
        sol = solve_linear([e[0] for e in eqs], [e[1] for e in eqs])
        if sol is None:
            return -1
        u = d - mat_rank([e[0] for e in eqs])
    else:
        u = d
    # vertices of the intersection polytope: u active independent inequalities
    eq_rows = [e[0] for e in eqs]
    eq_rhs = [e[1] for e in eqs]
    points = set()
    for active in combinations(range(len(ineqs)), u):
        rows = eq_rows + [ineqs[i][0] for i in active]
        rhs = eq_rhs + [ineqs[i][1] for i in active]
        sol = solve_linear(rows, rhs)
        if sol is None:
            continue
        x, null = sol
        if null:  # rank-deficient choice, not a candidate vertex
            continue
        if all(sum(a * b for a, b in zip(row, x)) >= r for row, r in ineqs):
            points.add(tuple(x))
    if not points:
        return -1
    pts = sorted(points)
    base = pts[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in pts[1:]]
    return mat_rank(diffs) if diffs else 0


def overlap_dim_at_least(s1: Simplex, s2: Simplex, k: int) -> bool:
    """Cheap-first test for overlap_dim(s1, s2) >= k."""
    if k <= -1:
        return True
    if _bboxes_disjoint(s1, s2):
        return False
    eqs1, _ = _hull_constraints(s1)
    eqs2, _ = _hull_constraints(s2)
    eqs = eqs1 + eqs2
    if eqs:
        sol = solve_linear([e[0] for e in eqs], [e[1] for e in eqs])
        if sol is None:
            return False
        if s1.ambient_dim - mat_rank([e[0] for e in eqs]) < k:
            return False
    return overlap_dim(s1, s2) >= k


def point_in_simplex(point, s: Simplex, hull=None) -> bool:
    """Exact membership test (closed simplex).  `hull` is s's H-description
    from _hull_constraints, for callers that test many points."""
    p = as_point(point)
    eqs, ineqs = _hull_constraints(s) if hull is None else hull
    for row, rhs in eqs:
        if sum(a * b for a, b in zip(row, p)) != rhs:
            return False
    for row, rhs in ineqs:
        if sum(a * b for a, b in zip(row, p)) < rhs:
            return False
    return True


def simplex_in_simplex(inner: Simplex, outer: Simplex, hull=None) -> bool:
    if hull is None:
        hull = _hull_constraints(outer)
    return all(point_in_simplex(v, outer, hull) for v in inner.vertices)
