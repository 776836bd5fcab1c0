"""Exact geometry of rational simplices in R^d (d <= 3 at desk scale).

A simplex is stored on the integer lattice: its vertices as integer point
tuples `num` over one positive common denominator `den`, in lowest terms
(`lattice` makes the pair from Fraction vertices, `lowest_terms` divides
out a common factor), so hashing and equality compare integers only.  The
Fraction vertex tuple `Simplex.vertices` is a view built on first read,
for output and the predicates below.  Squared volumes are exact rationals,
the integer Gram determinant of the lattice edges over den^(2k) (k!)^2;
real volumes are RadicalSums derived from them.  Orientation is carried by
vertex order; `canonical` folds the parity of the sorting permutation into
a sign so chains can store sorted tuples, and sorts a simplex's integer
points as it would their Fractions.

Tangency and overlap predicates are decided exactly with small rational
linear algebra (row reduction, vertex enumeration of intersection
polytopes); no floating point is involved.  They read each simplex's
H-description from `Simplex.hull`, computed on first use and cached on
the simplex; tangency and the cheap overlap tests read only its
equalities (`Simplex.equalities`), which are computed and cached alone.
All of that linear algebra, and the basis solves of the LP certificate
(`simplex_lp.check_certificate`), use one
elimination kernel: `gauss_jordan`, of which `mat_rank` and
`solve_linear` are thin wrappers.  Its step, `pivot`, is also the step of
the exact LP tableau (`simplex_lp.solve_exact`).  `det` expands cofactors
in closed form up to 3x3 (Gram matrices of simplices in R^3 and below) and
calls `gauss_jordan` above that.

`AffineMap` is the scalar map x -> r*x + b with r > 0, the only kind the
approximation pipeline moves chains by; it holds r and b over one
denominator as well.  Such a map keeps the lexicographic order of
vertices, so `Simplex.moved` builds the image simplex directly in
integers, already canonical, and carries the squared volume
(times r^(2k)) and known affine-hull equalities over exactly instead of
recomputing them; the image's inequalities are derived if something reads
its hull.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from math import factorial, gcd, lcm

from .radicals import RadicalSum

Point = tuple  # tuple[Fraction, ...]
Vertices = tuple  # tuple[Point, ...]


# ---------------------------------------------------------------------------
# exact linear algebra: one elimination kernel (row vectors as lists)


def pivot(rows, r: int, col: int) -> list:
    """One exact pivot step in place: scale row r to a 1 in column col and
    clear column col from the other rows, touching only row r's nonzero
    columns, which are returned.  `gauss_jordan` and the LP tableau of
    `simplex_lp.solve_exact` share it.

    Entries may be ints or Fractions.  A pivot of 1 or -1 leaves the row
    unscaled or negated, so rows of ints stay ints; any other pivot
    divides, and only then do Fractions appear."""
    prow = rows[r]
    nz = [j for j, v in enumerate(prow) if v]
    pv = prow[col]
    if pv == -1:
        for j in nz:
            prow[j] = -prow[j]
    elif pv != 1:
        inv = Fraction(1) / pv
        for j in nz:
            prow[j] = prow[j] * inv
    for i, row in enumerate(rows):
        f = row[col]
        if f and i != r:
            for j in nz:
                row[j] = row[j] - prow[j] * f
    return nz


def gauss_jordan(rows, ncols=None):
    """Gauss-Jordan reduction over Q: the one elimination kernel behind
    mat_rank, solve_linear and det.

    `rows` is copied, never changed.  Pivots are taken in the leading
    `ncols` columns (all columns by default), which hold rationals; later
    columns are carried along as augmented columns and may hold any values
    forming a vector space over Q, such as RadicalSums.  Each column's pivot
    is its first nonzero entry at or below the current rank, and each step
    is one `pivot`.

    Returns (reduced, pivots, det): the reduced row echelon form (pivots 1,
    zero above and below them), the pivot column of each of its first
    len(pivots) rows, and the determinant of the leading block, which is 0
    when that block is singular or not square.
    """
    m = [list(r) for r in rows]
    if ncols is None:
        ncols = len(m[0]) if m else 0
    pivots = []
    determinant = Fraction(1)
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(m):
            break
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            determinant = -determinant
        determinant *= m[rank][col]
        pivot(m, rank, col)
        pivots.append(col)
    if len(pivots) != len(m) or len(m) != ncols:
        determinant = Fraction(0)
    return m, pivots, determinant


def mat_rank(rows) -> int:
    return len(gauss_jordan(rows)[1])


def solve_linear(a_rows, b):
    """One exact solution x of A x = b, or None if inconsistent.

    Returns (x, nullspace_basis).  Underdetermined systems return the
    particular solution with free variables set to zero.
    """
    ncols = len(a_rows[0]) if a_rows else 0
    rows, pivots, _ = gauss_jordan([list(r) + [bv] for r, bv in zip(a_rows, b)], ncols)
    rank = len(pivots)
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
    """Determinant of a square matrix: cofactors in closed form up to 3x3,
    the elimination kernel above that; 0 for a non-square matrix."""
    n = len(rows)
    if 1 <= n <= 3 and all(len(r) == n for r in rows):
        if n == 1:
            return rows[0][0]
        if n == 2:
            (a, b), (c, d) = rows
            return a * d - b * c
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return gauss_jordan(rows)[2]


# ---------------------------------------------------------------------------
# simplices


class GeometryError(ValueError):
    pass


def as_point(coords) -> Point:
    if type(coords) is tuple and all(type(c) is Fraction for c in coords):
        return coords
    return tuple(Fraction(c) for c in coords)


def lattice(verts) -> tuple[tuple, int]:
    """Fraction point tuples as (num, den): integer points over one positive
    common denominator, in lowest terms.

    den is the least common denominator of the coordinates, so no prime
    divides den and every entry: a coordinate whose denominator carries
    the prime's full power in den has a numerator it does not divide."""
    den = lcm(*[x.denominator for p in verts for x in p])
    if den == 1:
        return tuple([tuple([x.numerator for x in p]) for p in verts]), 1
    return tuple([tuple([x.numerator * (den // x.denominator) for x in p])
                  for p in verts]), den


def lowest_terms(points, den: int) -> tuple[tuple, int]:
    """Integer points over den, divided by the gcd of den and all their
    entries: the (num, den) that `Simplex` hashes and compares on."""
    g = gcd(den, *chain.from_iterable(points))
    if g == 1:
        return points, den
    return tuple([tuple([c // g for c in p]) for p in points]), den // g


def canonical(vertices) -> tuple[Vertices, int]:
    """Sort vertices lexicographically; return (sorted, parity sign).

    The points may be Fraction point tuples or the integer points of one
    (num, den) pair, which sort as their Fractions do since den > 0.  Sign
    is 0 when a vertex repeats (degenerate tuple, the zero chain).
    """
    verts = list(vertices)
    sign = 1
    for i in range(len(verts)):  # insertion sort, counting swaps
        j = i
        while j > 0 and verts[j - 1] > verts[j]:
            verts[j - 1], verts[j] = verts[j], verts[j - 1]
            sign = -sign
            j -= 1
    # sorted, a repeated vertex sits next to its copy
    if any(a == b for a, b in zip(verts, verts[1:])):
        sign = 0
    return tuple(verts), sign


class Simplex:
    """Oriented k-simplex: ordered rational vertices, orientation = order.

    Stored as `num`, the vertices as integer point tuples, over `den`, one
    positive common denominator, in lowest terms (`lowest_terms`): equal
    simplices have equal (num, den), so hashing and equality read only
    integers.  `vertices`, the tuple of Fraction points, is a view built
    on first read and kept, for output and the hull predicates.

    Immutable: the vertices never change after construction, so the hash
    is computed once, and the squared volume, volume, bounding box,
    affine-hull equalities (`equalities`) and H-description (`hull`) are
    cached on first use.  Grid complexes hand out one stored object per
    cell (`GridComplex.simplices`), so those caches are filled once per
    cell in a process.  `moved` hands the known volume and equalities on
    to the image under a map r*x + b with r > 0.
    """

    __slots__ = ("num", "den", "_verts", "_hash", "_sqvol", "_vol", "_bbox", "_eqs", "_hull")

    def __init__(self, vertices):
        verts = tuple(as_point(v) for v in vertices)
        if not verts:
            raise GeometryError("empty vertex tuple")
        d = len(verts[0])
        if any(len(v) != d for v in verts):
            raise GeometryError("mixed ambient dimensions")
        if len(verts) > d + 1:
            raise GeometryError("more vertices than ambient dimension allows")
        self._setup(*lattice(verts))
        self._verts = verts

    @classmethod
    def trusted(cls, num, den, sqvol=None, vol=None, eqs=None) -> "Simplex":
        """The simplex on integer points `num` over `den`, already a valid
        vertex tuple in lowest terms (a face of a simplex, a grid cell, an
        image under a map), with its squared volume, volume and equalities
        where already known; nothing is checked or recomputed."""
        s = cls.__new__(cls)
        s._setup(num, den, sqvol, vol, eqs)
        return s

    def _setup(self, num, den, sqvol=None, vol=None, eqs=None):
        self.num = num
        self.den = den
        self._verts = None
        self._hash = hash((num, den))
        self._sqvol = sqvol
        self._vol = vol
        self._bbox = None
        self._eqs = eqs
        self._hull = None

    @property
    def vertices(self) -> Vertices:
        """The Fraction vertex tuple, built from (num, den) on first read."""
        verts = self._verts
        if verts is None:
            den = self.den
            verts = self._verts = tuple([tuple([Fraction(c, den) for c in p])
                                         for p in self.num])
        return verts

    @property
    def dim(self) -> int:
        return len(self.num) - 1

    @property
    def ambient_dim(self) -> int:
        return len(self.num[0])

    def edges(self):
        v0 = self.vertices[0]
        return [tuple(a - b for a, b in zip(v, v0)) for v in self.vertices[1:]]

    def lattice_edges(self):
        """The edges from the first vertex times den, as integer tuples."""
        p0 = self.num[0]
        return [tuple([a - b for a, b in zip(p, p0)]) for p in self.num[1:]]

    def sq_volume(self) -> Fraction:
        """Exact (H^k volume)^2 = det(Gram)/(k!)^2; the source of truth.
        The Gram matrix is taken of the integer edges, so its determinant
        is an integer, divided once by den^(2k) (k!)^2."""
        if self._sqvol is None:
            edges = self.lattice_edges()
            k = len(edges)
            if k == 0:
                self._sqvol = Fraction(1)
            else:
                gram = [[sum([a * b for a, b in zip(e1, e2)]) for e2 in edges] for e1 in edges]
                self._sqvol = Fraction(det(gram), self.den ** (2 * k) * factorial(k) ** 2)
        return self._sqvol

    def volume(self) -> RadicalSum:
        if self._vol is None:
            self._vol = RadicalSum.sqrt_rational(self.sq_volume())
        return self._vol

    def is_degenerate(self) -> bool:
        return self.sq_volume() == 0

    def bbox(self):
        if self._bbox is None:
            cols = tuple(zip(*self.num))
            den = self.den
            self._bbox = (tuple([Fraction(min(c), den) for c in cols]),
                          tuple([Fraction(max(c), den) for c in cols]))
        return self._bbox

    def equalities(self):
        """The affine-hull equalities of `hull`, computed once, without the
        inequalities."""
        if self._eqs is None:
            self._eqs = _hull_equalities(self)
        return self._eqs

    def hull(self):
        """The exact H-description (equalities, inequalities), computed once
        on first read; see `_hull_equalities` and `_hull_inequalities`."""
        if self._hull is None:
            self._hull = (self.equalities(), _hull_inequalities(self))
        return self._hull

    def moved(self, f: "AffineMap") -> "Simplex":
        """The image under f: x -> r*x + b, which needs r > 0.

        With r = a/q and b = s/q over f's one denominator (`f.lattice`), a
        point p/den goes to (a*p + den*s) / (q*den), so the image is
        integer arithmetic and one gcd.  Such a map keeps the lexicographic
        order of the vertices, so the image is canonical with the same
        orientation.  Its squared volume is this one's times r^(2k), the
        same object when r == 1 (which also shares the volume), and its
        equalities are this one's carried over exactly: an equality
        n.x = c becomes n.y = r*c + n.b, which is what recomputing it on
        the image gives.  A volume is not scaled but derived again from the
        squared volume, so it prints as a recomputed one does.  What is not
        known here, and the barycentric inequalities (few images are ever
        asked for them), are left to compute."""
        a, s, q = f.lattice
        r, b = f.scale, f.shift
        den = self.den
        shift = [t * den for t in s]
        pts = tuple([tuple([a * x + t for x, t in zip(p, shift)]) for p in self.num])
        sqvol, vol, eqs = self._sqvol, self._vol, self._eqs
        scaled = a != q  # r != 1
        if scaled:
            vol = None
            if sqvol is not None:
                sqvol = sqvol * r ** (2 * len(pts) - 2)
        if eqs is not None:
            if scaled:
                eqs = [(n, r * c) for n, c in eqs]
            eqs = tuple([(n, c + _dot(n, b)) for n, c in eqs])
        return Simplex.trusted(*lowest_terms(pts, q * den), sqvol, vol, eqs)

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, Simplex) and self._hash == other._hash
                and self.den == other.den and self.num == other.num)

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
    """x -> r*x + b with exact rational r > 0 and b: the identity, homotheties,
    translations and their composites, the only maps the pipeline builds.

    `scale` and `shift` hold r and b as Fractions; `lattice` holds them as
    integers over one positive denominator q, (a, s, q) with r = a/q and
    b = s/q, which is what `Simplex.moved` computes with."""

    __slots__ = ("scale", "shift", "lattice")

    def __init__(self, scale, shift):
        self.scale = r = Fraction(scale)
        if r <= 0:
            raise GeometryError("affine map needs a positive scale, got %s" % r)
        self.shift = as_point(shift)
        (point,), q = lattice([(r,) + self.shift])
        self.lattice = (point[0], point[1:], q)

    @classmethod
    def identity(cls, d: int) -> "AffineMap":
        return cls(1, [0] * d)

    @classmethod
    def translation(cls, vec) -> "AffineMap":
        return cls(1, vec)

    @classmethod
    def homothety(cls, center, ratio) -> "AffineMap":
        # x -> center + ratio*(x - center)
        r = Fraction(ratio)
        return cls(r, tuple(c * (1 - r) for c in as_point(center)))

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """The map x -> self(inner(x))."""
        return AffineMap(self.scale * inner.scale, self(inner.shift))

    def __call__(self, point) -> Point:
        p = as_point(point)
        r = self.scale
        if r == 1:
            return tuple(x + s for x, s in zip(p, self.shift))
        return tuple(r * x + s for x, s in zip(p, self.shift))

    def __repr__(self):
        return "AffineMap(%r, %r)" % (self.scale, self.shift)


# ---------------------------------------------------------------------------
# tangency and overlap predicates


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def is_tangent(direction, simplex: Simplex) -> bool:
    """True iff the direction vector lies in the simplex's edge span.

    The hull's equality normals span the complement of the edge span, so
    the test is n.v == 0 for each of them: every vector is tangent to a
    top-dimensional simplex, and the zero vector to every simplex.  A
    degenerate simplex has no hull and raises GeometryError.
    """
    vec = [Fraction(c) for c in direction]
    return all(_dot(n, vec) == 0 for n, _ in simplex.equalities())


def _hull_equalities(s: Simplex):
    """The affine hull of the simplex as a tuple of (row, rhs) pairs, row a
    tuple, meaning row . x = rhs: the nullspace of the edge span through the
    first vertex, empty for a top-dimensional simplex.  A degenerate simplex
    has no H-description and raises GeometryError.  Callers read it through
    `Simplex.equalities`, which caches it."""
    edges = s.edges()
    k = len(edges)
    d = s.ambient_dim
    if k == d:
        if s.is_degenerate():
            raise GeometryError("degenerate simplex has no H-description")
        return ()
    # nullspace of the edge span: rows n with n.(x - v0) = 0
    _, null = solve_linear([list(e) for e in edges] or [[Fraction(0)] * d], [Fraction(0)] * max(k, 1))
    if len(null) != d - k:
        raise GeometryError("degenerate simplex has no H-description")
    v0 = s.vertices[0]
    return tuple([(tuple(n), _dot(n, v0)) for n in null])


def _hull_inequalities(s: Simplex):
    """The barycentric inequalities of a non-degenerate simplex, a tuple of
    (row, rhs) pairs meaning row . x >= rhs (barycentric nonnegativity
    extended off-hull via normal equations; exact on the hull, which is all
    the intersection code needs).  Callers read them through `Simplex.hull`,
    which checks degeneracy first and caches them."""
    v0 = s.vertices[0]
    edges = s.edges()
    k = len(edges)
    d = s.ambient_dim
    if k == 0:
        return ()
    gram = [[_dot(e1, e2) for e2 in edges] for e1 in edges]
    # rows of Gram^{-1} E give barycentric coordinates t = G^{-1} E (x - v0)
    reduced = gauss_jordan(
        [row + [Fraction(1 if i == j else 0) for j in range(k)] for i, row in enumerate(gram)], k)[0]
    ginv = [row[k:] for row in reduced]
    bary_rows = []
    for i in range(k):
        row = tuple(sum(ginv[i][j] * edges[j][c] for j in range(k)) for c in range(d))
        bary_rows.append(row)
    # t_i(x) >= 0 and 1 - sum t_i(x) >= 0
    ineqs = [(row, _dot(row, v0)) for row in bary_rows]
    total = tuple(sum(-r[c] for r in bary_rows) for c in range(d))
    ineqs.append((total, _dot(total, v0) - 1))
    return tuple(ineqs)


def _bboxes_disjoint(s1: Simplex, s2: Simplex) -> bool:
    lo1, hi1 = s1.bbox()
    lo2, hi2 = s2.bbox()
    return any(h1 < l2 or h2 < l1 for l2, h1, l1, h2 in zip(lo2, hi1, lo1, hi2))


def _equalities_rank(eqs, d: int):
    """Rank of the stacked equality rows, or None when the system is
    inconsistent; one elimination decides both."""
    rows, pivots, _ = gauss_jordan([list(row) + [rhs] for row, rhs in eqs], d)
    rank = len(pivots)
    if any(rows[i][d] for i in range(rank, len(rows))):
        return None
    return rank


def overlap_dim(s1: Simplex, s2: Simplex) -> int:
    """Exact dimension of the convex intersection; -1 when disjoint."""
    if s1.ambient_dim != s2.ambient_dim:
        raise GeometryError("ambient dimensions differ")
    if _bboxes_disjoint(s1, s2):
        return -1
    d = s1.ambient_dim
    eqs1, in1 = s1.hull()
    eqs2, in2 = s2.hull()
    eqs = eqs1 + eqs2
    ineqs = in1 + in2
    if eqs:
        rank = _equalities_rank(eqs, d)
        if rank is None:
            return -1
        u = d - rank
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
        if all(_dot(row, x) >= r for row, r in ineqs):
            points.add(tuple(x))
    if not points:
        return -1
    pts = sorted(points)
    base = pts[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in pts[1:]]
    return mat_rank(diffs) if diffs else 0


def overlap_dim_at_least(s1: Simplex, s2: Simplex, k: int) -> bool:
    """Cheap-first test for overlap_dim(s1, s2) >= k: bounding boxes, then
    the consistency and dimension of the two affine hulls' intersection."""
    if k <= -1:
        return True
    if _bboxes_disjoint(s1, s2):
        return False
    eqs = s1.equalities() + s2.equalities()
    if eqs:
        rank = _equalities_rank(eqs, s1.ambient_dim)
        if rank is None or s1.ambient_dim - rank < k:
            return False
    return overlap_dim(s1, s2) >= k


def point_in_simplex(point, s: Simplex) -> bool:
    """Exact membership test (closed simplex)."""
    p = as_point(point)
    eqs, ineqs = s.hull()
    for row, rhs in eqs:
        if _dot(row, p) != rhs:
            return False
    for row, rhs in ineqs:
        if _dot(row, p) < rhs:
            return False
    return True


def simplex_in_simplex(inner: Simplex, outer: Simplex) -> bool:
    return all(point_in_simplex(v, outer) for v in inner.vertices)
