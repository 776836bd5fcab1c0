"""Exact geometry of rational simplices in R^d (d <= 3 at desk scale).

A simplex is stored on the integer lattice: its vertices as integer point
tuples `num` over one positive common denominator `den`, in lowest terms
(`lattice` makes the pair from Fraction vertices, `lowest_terms` divides
out a common factor), so hashing and equality compare integers only.  The
Fraction vertex tuple `Simplex.vertices` is a view built on first read,
for output and for `Simplex.__lt__`; nothing below reads it.  Squared volumes are exact rationals,
the integer Gram determinant of the lattice edges over den^(2k) (k!)^2;
real volumes are RadicalSums derived from them.  Orientation is carried by
vertex order; `canonical` folds the parity of the sorting permutation into
a sign so chains can store sorted tuples, and sorts a simplex's integer
points as it would their Fractions.

Tangency and overlap predicates are decided exactly on integers, with no
floating point and no Fraction: each simplex's H-description
(`Simplex.hull`) holds integer rows about the points of `num`, equalities
n . p = e with primitive integer normals n and barycentric inequalities
m . p >= f, computed on first use and cached on the simplex.  Tangency and the cheap overlap tests read
only the equalities (`Simplex.equalities`), which are computed and cached
alone.  Two simplices' rows meet on the lattice of lcm(den1, den2),
bounding boxes compare cross-multiplied, and a point c/n is tested
against the rows as n . c * den == e * n.  Their eliminations (normals,
ranks, the vertices of an intersection polytope) are one fraction-free
kernel, `integer_rref`.  Rational linear algebra, the basis solves of
the LP certificate (`simplex_lp.check_certificate`), uses one
elimination kernel: `gauss_jordan`, of which `solve_linear` is a thin
wrapper.  Its step, `pivot`, is also the step of the exact LP tableau
(`simplex_lp.solve_exact`).  `det` expands cofactors in closed form up to
3x3 (Gram matrices of simplices in R^3 and below) and calls
`gauss_jordan` above that.

`AffineMap` is the scalar map x -> r*x + b with r > 0, the only kind the
approximation pipeline moves chains by; it holds r and b over one
denominator as well.  Such a map keeps the lexicographic order of
vertices, so `Simplex.moved` builds the image simplex directly in
integers, already canonical, and carries the squared volume
(times r^(2k)) and known affine-hull equalities over exactly instead of
recomputing them; the image's inequalities are derived if something reads
its hull.  A point, shift or direction of another length than the
ambient dimension raises GeometryError.
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
    """Gauss-Jordan reduction over Q: the elimination kernel behind
    solve_linear and det.

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
    on first read and kept, for output and ordering (`__lt__`); the
    volume and the hull predicates read only `num` and `den`.

    Immutable: the vertices never change after construction, so the hash
    is computed once, and the squared volume, volume, integer bounding
    box, affine-hull equalities (`equalities`) and H-description (`hull`,
    integer rows about the points of `num`) are cached on first use.  Grid complexes hand out one stored object per
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
        """The bounding box (lo, hi) as integer points over den."""
        if self._bbox is None:
            cols = tuple(zip(*self.num))
            self._bbox = (tuple(map(min, cols)), tuple(map(max, cols)))
        return self._bbox

    def equalities(self):
        """The affine-hull equalities of `hull`, (n, e) pairs meaning
        n . p = e for the points p of `num`, computed once, without the
        inequalities."""
        if self._eqs is None:
            self._eqs = _hull_equalities(self)
        return self._eqs

    def hull(self):
        """The exact H-description (equalities, inequalities) as integer
        rows about the points of `num`, computed once on first read; see
        `_hull_equalities` and `_hull_inequalities`."""
        if self._hull is None:
            self._hull = (self.equalities(), _hull_inequalities(self))
        return self._hull

    def moved(self, f: "AffineMap") -> "Simplex":
        """The image under f: x -> r*x + b, which needs r > 0.

        With r = a/q and b = s/q over f's one denominator (`f.lattice`), a
        point p/den goes to (a*p + den*s) / (q*den), so the image is
        integer arithmetic and one gcd g (`lowest_terms`).  Such a map
        keeps the lexicographic order of the vertices, so the image is
        canonical with the same orientation.  Its squared volume is this
        one's times r^(2k), the same object when r == 1 (which also shares
        the volume), and its equalities are this one's carried over in
        integers: the normals stay, and n . p = e becomes
        n . p' = (a*e + den * n.s) / g, which is what recomputing them on
        the image gives.  A volume is not scaled but derived again from the
        squared volume, so it prints as a recomputed one does.  What is not
        known here, and the barycentric inequalities (few images are ever
        asked for them), are left to compute.  A shift of another length
        than the ambient dimension raises GeometryError."""
        a, s, q = f.lattice
        if len(s) != len(self.num[0]):
            raise GeometryError("shift has %d coordinates in R^%d"
                                % (len(s), self.ambient_dim))
        den = self.den
        shift = [t * den for t in s]
        pts = tuple([tuple([a * x + t for x, t in zip(p, shift)]) for p in self.num])
        num, image_den = lowest_terms(pts, q * den)
        sqvol, vol, eqs = self._sqvol, self._vol, self._eqs
        if a != q:  # r != 1
            vol = None
            if sqvol is not None:
                sqvol = sqvol * f.scale ** (2 * len(pts) - 2)
        if eqs is not None:
            g = q * den // image_den
            eqs = tuple([(n, (a * e + _dot(n, shift)) // g) for n, e in eqs])
        return Simplex.trusted(num, image_den, sqvol, vol, eqs)

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
        if len(p) != len(self.shift):
            raise GeometryError("point has %d coordinates for a map of R^%d"
                                % (len(p), len(self.shift)))
        r = self.scale
        if r == 1:
            return tuple(x + s for x, s in zip(p, self.shift))
        return tuple(r * x + s for x, s in zip(p, self.shift))

    def __repr__(self):
        return "AffineMap(%r, %r)" % (self.scale, self.shift)


# ---------------------------------------------------------------------------
# tangency and overlap predicates, on integers


def _dot(u, v):
    return sum([a * b for a, b in zip(u, v)])


def integer_rref(rows, ncols: int):
    """Fraction-free Gauss-Jordan reduction of integer rows: the kernel of
    the hull predicates.

    `rows` is copied, never changed.  Pivots are taken in the leading
    `ncols` columns as `gauss_jordan` takes them (each column's first
    nonzero entry at or below the current rank); a step replaces every
    other row by pivot * row - entry * pivot row and divides it by the gcd
    of its entries, so the rows stay small primitive integer rows.  Later
    columns are carried along.

    Returns (reduced, pivots): rows that are the reduced row echelon form
    up to a nonzero integer factor per row (each pivot row zero in every
    other pivot column), and the pivot column of each of the first
    len(pivots) rows."""
    m = [list(r) for r in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(m):
            break
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        prow = m[rank]
        pv = prow[col]
        for i, row in enumerate(m):
            f = row[col]
            if f and i != rank:
                row = [pv * a - f * b for a, b in zip(row, prow)]
                g = gcd(*row)
                m[i] = [a // g for a in row] if g > 1 else row
        pivots.append(col)
    return m, pivots


def _primitive(vec) -> tuple:
    """The integer vector divided by the gcd of its entries, signed so that
    its last nonzero entry is positive."""
    g = gcd(*vec)
    if next(c for c in reversed(vec) if c) < 0:
        g = -g
    return tuple([c // g for c in vec])


def _normals(edges, d: int) -> list:
    """A basis of the integer vectors orthogonal to the edges, which must
    be independent: the nullspace basis of their reduced row echelon form
    (one vector per free column, positive there and zero on the other free
    columns), scaled to integers.  That form depends only on the edge
    span, so the basis does too; for k = d - 1 edges the one normal is
    their cross product up to a factor.  Dependent edges raise
    GeometryError."""
    k = len(edges)
    reduced, pivots = integer_rref(edges, d)
    if len(pivots) < k:
        raise GeometryError("degenerate simplex has no H-description")
    scale = lcm(*[abs(reduced[r][c]) for r, c in enumerate(pivots)])
    normals = []
    for free in range(d):
        if free in pivots:
            continue
        vec = [0] * d
        vec[free] = scale
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][free] * scale // reduced[r][c]
        normals.append(vec)
    return normals


def _hull_equalities(s: Simplex):
    """The affine hull of the simplex as a tuple of (n, e) pairs meaning
    n . p = e for the points p of `num` (x = p/den): n runs over the
    primitive integer normals of the edge span (`_normals`), and the
    tuple is empty for a top-dimensional simplex.  A degenerate simplex
    has no H-description and raises GeometryError.  Callers read it
    through `Simplex.equalities`, which caches it."""
    edges = s.lattice_edges()
    d = s.ambient_dim
    if len(edges) == d:
        if s.is_degenerate():
            raise GeometryError("degenerate simplex has no H-description")
        return ()
    p0 = s.num[0]
    return tuple([(n, _dot(n, p0)) for n in map(_primitive, _normals(edges, d))])


def _hull_inequalities(s: Simplex):
    """The barycentric inequalities of a non-degenerate simplex, a tuple of
    (m, f) pairs meaning m . p >= f for the points p of `num`
    (barycentric nonnegativity extended off-hull via normal equations;
    exact on the hull, which is all the intersection code needs).

    With E the integer edges and G = E E^T, the barycentric coordinates
    of p are t = G^{-1} E (p - p0).  One fraction-free reduction of [G | I]
    gives each row of G^{-1} as an integer row over its pivot, so a
    positive integer L makes L t integer rows T; t_i >= 0 is then
    T_i . p >= T_i . p0, and 1 - sum t_i >= 0 is
    -(sum T_i) . p >= -(sum T_i) . p0 - L.  Each pair is divided by the gcd
    of its entries.  Callers read them through `Simplex.hull`, which
    checks degeneracy first and caches them."""
    edges = s.lattice_edges()
    k = len(edges)
    if k == 0:
        return ()
    d = s.ambient_dim
    gram = [[_dot(e1, e2) for e2 in edges] for e1 in edges]
    reduced, _ = integer_rref([row + [int(i == j) for j in range(k)]
                               for i, row in enumerate(gram)], k)
    scale = lcm(*[abs(reduced[i][i]) for i in range(k)])
    columns = list(zip(*edges))
    rows = []
    for i in range(k):
        w = [c * scale // reduced[i][i] for c in reduced[i][k:]]
        rows.append([_dot(w, col) for col in columns])
    total = [-sum([r[c] for r in rows]) for c in range(d)]
    p0 = s.num[0]
    pairs = [(r, _dot(r, p0)) for r in rows]
    pairs.append((total, _dot(total, p0) - scale))
    out = []
    for row, rhs in pairs:
        g = gcd(rhs, *row)
        out.append((tuple([c // g for c in row]), rhs // g))
    return tuple(out)


def is_tangent(direction, simplex: Simplex) -> bool:
    """True iff the direction, an integer tuple, lies in the simplex's edge
    span.

    The hull's equality normals span the complement of the edge span, so
    the test is n . v == 0 for each of them: every vector is tangent to a
    top-dimensional simplex, and the zero vector to every simplex.  A
    direction of another length than the ambient dimension, or a
    degenerate simplex (which has no hull), raises GeometryError.
    """
    if len(direction) != len(simplex.num[0]):
        raise GeometryError("direction has %d coordinates in R^%d"
                            % (len(direction), simplex.ambient_dim))
    return all([_dot(n, direction) == 0 for n, _ in simplex.equalities()])


def _bboxes_disjoint(s1: Simplex, s2: Simplex) -> bool:
    """Whether the bounding boxes miss each other, compared on the integer
    boxes cross-multiplied by the other simplex's den."""
    (lo1, hi1), (lo2, hi2) = s1.bbox(), s2.bbox()
    d1, d2 = s1.den, s2.den
    if d1 == d2:
        return any([h1 < l2 or h2 < l1 for l2, h1, l1, h2 in zip(lo2, hi1, lo1, hi2)])
    return any([h1 * d2 < l2 * d1 or h2 * d1 < l1 * d2
                for l2, h1, l1, h2 in zip(lo2, hi1, lo1, hi2)])


def _common_lattice(s1: Simplex, s2: Simplex, rows1, rows2) -> tuple:
    """(row, rhs) constraints of s1 and of s2, each about its own `num`,
    restated about the points y = D x of the one lattice D = lcm(den1,
    den2): the rows stay, and each rhs is multiplied by D/den."""
    d1, d2 = s1.den, s2.den
    if d1 == d2:
        return rows1 + rows2
    g = gcd(d1, d2)
    m1, m2 = d2 // g, d1 // g
    return (tuple([(row, rhs * m1) for row, rhs in rows1])
            + tuple([(row, rhs * m2) for row, rhs in rows2]))


def _equalities_rank(eqs, d: int):
    """Rank of the stacked integer equality rows, or None when the system
    is inconsistent; one fraction-free elimination decides both."""
    rows, pivots = integer_rref([list(row) + [rhs] for row, rhs in eqs], d)
    rank = len(pivots)
    if any([rows[i][d] for i in range(rank, len(rows))]):
        return None
    return rank


def overlap_dim(s1: Simplex, s2: Simplex) -> int:
    """Exact dimension of the convex intersection; -1 when disjoint.

    The intersection polytope is given by both hulls' constraints on the
    common lattice (`_common_lattice`); each candidate vertex solves u
    active inequalities with the equalities by one fraction-free
    reduction and is kept, as an integer point over a positive integer w
    in lowest terms, when it meets every inequality.  The dimension is the
    rank of the rows (w, y) less one."""
    if s1.ambient_dim != s2.ambient_dim:
        raise GeometryError("ambient dimensions differ")
    if _bboxes_disjoint(s1, s2):
        return -1
    d = s1.ambient_dim
    eqs1, in1 = s1.hull()
    eqs2, in2 = s2.hull()
    eqs = _common_lattice(s1, s2, eqs1, eqs2)
    ineqs = _common_lattice(s1, s2, in1, in2)
    if eqs:
        rank = _equalities_rank(eqs, d)
        if rank is None:
            return -1
        u = d - rank
    else:
        u = d
    # vertices of the intersection polytope: u active independent inequalities
    eq_rows = [list(row) + [rhs] for row, rhs in eqs]
    points = set()
    for active in combinations(ineqs, u):
        rows, pivots = integer_rref(eq_rows + [list(row) + [rhs] for row, rhs in active], d)
        if len(pivots) < d or any([rows[i][d] for i in range(d, len(rows))]):
            continue  # inconsistent, or a rank-deficient choice
        # pivots are the columns 0..d-1 in order: y_c = rhs_c / pivot_c
        w = lcm(*[abs(rows[c][c]) for c in range(d)])
        y = [rows[c][d] * (w // rows[c][c]) for c in range(d)]
        if all([_dot(row, y) >= rhs * w for row, rhs in ineqs]):
            g = gcd(w, *y)
            points.add((w // g, *[c // g for c in y]))
    if not points:
        return -1
    return len(integer_rref(list(points), d + 1)[1]) - 1


def overlap_dim_at_least(s1: Simplex, s2: Simplex, k: int) -> bool:
    """Cheap-first test for overlap_dim(s1, s2) >= k: bounding boxes, then
    the consistency and dimension of the two affine hulls' intersection."""
    if k <= -1:
        return True
    d = s1.ambient_dim
    if d != s2.ambient_dim:
        raise GeometryError("ambient dimensions differ")
    if _bboxes_disjoint(s1, s2):
        return False
    eqs = _common_lattice(s1, s2, s1.equalities(), s2.equalities())
    if eqs:
        rank = _equalities_rank(eqs, d)
        if rank is None or d - rank < k:
            return False
    return overlap_dim(s1, s2) >= k


def point_in_simplex(point, s: Simplex, den: int = 1) -> bool:
    """Exact membership of the point point/den, an integer point over a
    positive den, in the closed simplex: the hull's integer rows are
    tested with each side multiplied by the other's den."""
    if len(point) != len(s.num[0]):
        raise GeometryError("point has %d coordinates in R^%d"
                            % (len(point), s.ambient_dim))
    eqs, ineqs = s.hull()
    sd = s.den
    for row, rhs in eqs:
        if _dot(row, point) * sd != rhs * den:
            return False
    for row, rhs in ineqs:
        if _dot(row, point) * sd < rhs * den:
            return False
    return True


def simplex_in_simplex(inner: Simplex, outer: Simplex) -> bool:
    return all(point_in_simplex(p, outer, inner.den) for p in inner.num)
