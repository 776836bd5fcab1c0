"""Polyhedral chains with coefficients in a normed abelian group.

A chain is a finite formal sum of oriented rational simplices.  Canonical
form: vertices sorted lexicographically, orientation parity folded into the
coefficient, zero coefficients and repeated-vertex tuples dropped.  Chain
equality is equality of canonical term maps.  Chains are immutable: every
operation returns a new chain, and nothing changes `terms` after
construction.  That is load-bearing, since a chain computes its mass and
its boundary once, on first use, and hands the same objects to every later
caller.

Zero-volume simplices with distinct vertices are kept as formal terms: they
carry no mass but their faces matter for exact boundary identities (prism
constructions rely on this).

The free backend ("soup") performs no geometric merging: simplices that
overlap without being identical coexist, so a soup mass is an upper bound
for the mass of the underlying current.  Chains tagged with a complex are
validated to be supported on it, and hold the complex's stored simplices
(`simplices(k)[index_of(k, s)]`) as their keys, so each grid cell's hash
and volume are computed once per process; their boundaries are read off
the complex's incidence table instead of being built from vertex tuples.
A free chain's boundary makes each face from the sorted integer points
of its parent (`Simplex.num`), which are sorted already, by dropping one
and dividing out the gcd with the denominator (`geometry.lowest_terms`),
without re-validating it; a pushforward by x -> r*x + b with r > 0 maps
each term's simplex with `Simplex.moved`, which carries its geometry
over; and a prism maps each term's integer points by both maps over one
common denominator, sorts each prism simplex's points as integers
(`geometry.canonical`) and reduces them once.  `PolyChain.build` sorts a
vertex tuple by the integer points of its `Simplex`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import geometry
from .geometry import AffineMap, Simplex, canonical, faces, lowest_terms
from .groups import REAL, Group
from .radicals import RadicalSum


class ChainError(ValueError):
    pass


def _rational_sum(values) -> Fraction:
    """Exact sum of Fractions, added as integers over their common
    denominator rather than pairwise."""
    den = lcm(*{q.denominator for q in values})
    return Fraction(sum(q.numerator * (den // q.denominator) for q in values), den)


def mass_from_totals(totals) -> RadicalSum:
    """sum total * volume over (volume, rational total) pairs: the weights
    are summed per radicand in first-seen order and each radicand is folded
    in once, so str() and float() are those of a term-by-term sum."""
    weights = {}
    for vol, total in totals:
        for rad, c in vol.terms.items():
            weights[rad] = weights.get(rad, 0) + c * total
    return RadicalSum.from_weights(weights)


def summed(group: Group, pairs) -> dict:
    """A chain's terms from (key, coeff) pairs, keyed by simplex or by id,
    in first-seen order: repeated keys add up through the group, and a
    total that reaches zero drops its key, which a later pair appends
    again."""
    terms: dict = {}
    for s, c in pairs:
        if s in terms:
            c = group.add(terms[s], c)
        if c:
            terms[s] = c
        else:
            terms.pop(s, None)
    return terms


class PolyChain:
    __slots__ = ("group", "ambient_dim", "dim", "terms", "complex", "_mass", "_boundary")

    def __init__(self, group: Group, ambient_dim: int, dim: int, terms, complex=None):
        # internal: terms must already be canonical {Simplex: coeff}, and
        # are never changed afterwards (mass and boundary are memoized)
        self.group = group
        self.ambient_dim = ambient_dim
        self.dim = dim
        self.terms = terms
        self.complex = complex
        self._mass = None
        self._boundary = None

    @classmethod
    def build(cls, group: Group, ambient_dim: int, dim: int, items, complex=None) -> "PolyChain":
        """Canonicalize (vertices, coeff) pairs into a chain."""
        if not 0 <= dim <= ambient_dim:
            raise ChainError("chain dimension %d out of range for R^%d" % (dim, ambient_dim))
        if complex is not None and complex.ambient_dim != ambient_dim:
            raise ChainError("chain in R^%d on a complex in R^%d"
                             % (ambient_dim, complex.ambient_dim))
        stored = complex.simplices(dim) if complex is not None else None

        def signed():
            for vertices, coeff in items:
                s = Simplex(vertices)
                num, sign = canonical(s.num)
                if sign == 0:
                    continue
                if len(num) != dim + 1:
                    raise ChainError("simplex with %d vertices in a %d-chain" % (len(num), dim))
                if len(num[0]) != ambient_dim:
                    raise ChainError("vertex dimension %d != ambient %d"
                                     % (len(num[0]), ambient_dim))
                g = group.normalize(coeff)
                if sign < 0:
                    g = group.neg(g)
                if num != s.num:
                    s = Simplex.trusted(num, s.den)
                if complex is not None:
                    s = stored[complex.index_of(dim, s)]
                yield s, g

        return cls(group, ambient_dim, dim, summed(group, signed()), complex)

    @classmethod
    def zero(cls, group: Group, ambient_dim: int, dim: int, complex=None) -> "PolyChain":
        return cls(group, ambient_dim, dim, {}, complex)

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _simplex_key(self):
        # a complex's ids follow its vertex-sorted simplex lists
        if self.complex is not None:
            return self.complex.id_key(self.dim)
        return lambda s: s.vertices

    def items_sorted(self):
        key = self._simplex_key()
        return sorted(self.terms.items(), key=lambda kv: key(kv[0]))

    def support(self):
        return sorted(self.terms, key=self._simplex_key())

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return (isinstance(other, PolyChain)
                and self.group == other.group
                and self.ambient_dim == other.ambient_dim
                and self.dim == other.dim
                and self.terms == other.terms)

    __hash__ = None

    def __repr__(self):
        return "PolyChain(%s, d=%d, k=%d, %d terms)" % (
            self.group.tag, self.ambient_dim, self.dim, len(self.terms))

    def _check_compatible(self, other: "PolyChain"):
        if self.group != other.group:
            raise ChainError("coefficient groups differ: %s vs %s" % (self.group.tag, other.group.tag))
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            raise ChainError("chain dimensions differ")
        if self.complex is not None and other.complex is not None \
                and self.complex.resolution != other.complex.resolution:
            raise ChainError("chains live on different complexes")

    def _merged_complex(self, other: "PolyChain"):
        if self.complex is not None and other.complex is not None:
            return self.complex
        return None

    # -- group operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PolyChain):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        g = self.group
        for s, c in other.terms.items():
            if s in terms:
                merged = g.add(terms[s], c)
                if merged:
                    terms[s] = merged
                else:
                    del terms[s]
            else:
                terms[s] = c
        return PolyChain(self.group, self.ambient_dim, self.dim, terms,
                         self._merged_complex(other))

    def __neg__(self):
        g = self.group
        return PolyChain(self.group, self.ambient_dim, self.dim,
                         {s: g.neg(c) for s, c in self.terms.items()}, self.complex)

    def __sub__(self, other):
        if not isinstance(other, PolyChain):
            return NotImplemented
        return self + (-other)

    def scale(self, s) -> "PolyChain":
        g = self.group
        terms = {}
        for simplex, c in self.terms.items():
            v = g.scale(c, s)
            if v:
                terms[simplex] = v
        return PolyChain(self.group, self.ambient_dim, self.dim, terms, self.complex)

    def as_real(self) -> "PolyChain":
        """The same chain with its real or integer coefficients read as
        reals; keys and complex are kept."""
        if self.group.tag not in ("real", "integer"):
            raise ChainError("%s coefficients do not read as reals" % self.group.tag)
        if self.group is REAL:
            return self
        return PolyChain(REAL, self.ambient_dim, self.dim,
                         {s: Fraction(c) for s, c in self.terms.items()}, self.complex)

    # -- boundary and mass ----------------------------------------------------

    def boundary(self) -> "PolyChain":
        """The boundary chain, built on the first call and kept."""
        if self._boundary is None:
            if self.dim == 0:
                raise ChainError("0-chains have no boundary")
            self._boundary = self._build_boundary()
        return self._boundary

    def _build_boundary(self) -> "PolyChain":
        k, g, cx = self.dim, self.group, self.complex
        if cx is None:
            face = Simplex.trusted  # faces of sorted tuples stay sorted

            def signed_faces(simplex):
                den = simplex.den
                return [(face(*lowest_terms(fv, den)), sign) for fv, sign in faces(simplex.num)]
        else:
            incidence, lower = cx.incidence(k), cx.simplices(k - 1)

            def signed_faces(simplex):
                return [(lower[f], sign) for f, sign in incidence[cx.index_of(k, simplex)]]
        terms = summed(g, ((s, coeff if sign > 0 else g.neg(coeff))
                            for simplex, coeff in self.terms.items()
                            for s, sign in signed_faces(simplex)))
        return PolyChain(self.group, self.ambient_dim, self.dim - 1, terms, self.complex)

    def mass_exact(self) -> RadicalSum:
        """The exact mass, computed on the first call and kept."""
        if self._mass is None:
            self._mass = self._measure()
        return self._mass

    def _measure(self) -> RadicalSum:
        # Sum the norms per volume object first: the cells of one grid shape
        # share one RadicalSum (Simplex.trusted), so a grid chain pays one
        # multiply per shape, not per term, in `mass_from_totals`.
        norm = self.group.norm
        groups: dict = {}  # id of a volume -> [the volume, its terms' norms...]
        for simplex, coeff in self.terms.items():
            n = norm(coeff)
            if n:
                vol = simplex.volume()
                group = groups.get(id(vol))
                if group is None:
                    groups[id(vol)] = [vol, n]
                else:
                    group.append(n)
        return mass_from_totals((group[0], group[1] if len(group) == 2
                                 else _rational_sum(group[1:]))
                                for group in groups.values())

    def mass(self) -> float:
        return float(self.mass_exact())

    # -- restriction -----------------------------------------------------------

    def restrict(self, keep) -> "PolyChain":
        """Sub-chain on a set of carrying Simplex objects (exact term filter)."""
        keep_set = set(keep)
        terms = {s: c for s, c in self.terms.items() if s in keep_set}
        return PolyChain(self.group, self.ambient_dim, self.dim, terms, self.complex)


# ---------------------------------------------------------------------------
# geometric chain operations (free backend)


def pushforward(chain: PolyChain, f: AffineMap) -> PolyChain:
    """Image chain under an affine map; output is soup.

    f's scale is positive, so the map is injective and keeps vertex order,
    and the terms map one to one, in order, through `Simplex.moved`."""
    return PolyChain(chain.group, chain.ambient_dim, chain.dim,
                     {s.moved(f): c for s, c in chain.terms.items()})


def prism(chain: PolyChain, from_map: AffineMap, to_map: AffineMap) -> PolyChain:
    """Affine chain homotopy between two maps: dim k -> k+1, soup output.

    Satisfies, canonically and over any coefficient group:

        boundary(prism(c)) = pushforward(c, to_map) - pushforward(c, from_map)
                             - prism(boundary(c))

    The terms are those, in the order, that `PolyChain.build` gives on the
    prism simplices' vertex tuples, computed on integer points.
    """
    g = chain.group
    a0, s0, q0 = from_map.lattice
    a1, s1, q1 = to_map.lattice
    q = lcm(q0, q1)
    m0, m1 = q // q0, q // q1

    def pieces():
        for s, coeff in chain.terms.items():
            # p/den goes to (a*p + den*s) / (q_map*den), both maps over q*den
            den = s.den
            b0 = [m0 * den * t for t in s0]
            b1 = [m1 * den * t for t in s1]
            lower = [tuple([m0 * a0 * x + t for x, t in zip(p, b0)]) for p in s.num]
            upper = [tuple([m1 * a1 * x + t for x, t in zip(p, b1)]) for p in s.num]
            for i in range(len(lower)):
                num, sign = canonical(lower[: i + 1] + upper[i:])
                if sign:
                    yield (Simplex.trusted(*lowest_terms(num, q * den)),
                           coeff if (i % 2 == 0) == (sign > 0) else g.neg(coeff))

    return PolyChain(g, chain.ambient_dim, chain.dim + 1, summed(g, pieces()))


# ---------------------------------------------------------------------------
# midpoint subdivision (free chains only)

def _reference_subdivision(k: int):
    """Children of the reference k-simplex as barycentric vertex tuples,
    oriented consistently with the parent."""
    if k == 0:
        return [((Fraction(1),),)]
    verts = {i: tuple(Fraction(1 if j == i else 0) for j in range(k + 1)) for i in range(k + 1)}

    def mid(i, j):
        return tuple((a + b) / 2 for a, b in zip(verts[i], verts[j]))

    children = []
    if k == 1:
        children = [(verts[0], mid(0, 1)), (mid(0, 1), verts[1])]
    elif k == 2:
        m01, m02, m12 = mid(0, 1), mid(0, 2), mid(1, 2)
        children = [
            (verts[0], m01, m02),
            (m01, verts[1], m12),
            (m02, m12, verts[2]),
            (m01, m12, m02),
        ]
    elif k == 3:
        m = {(i, j): mid(i, j) for i in range(4) for j in range(i + 1, 4)}
        children = [
            (verts[0], m[0, 1], m[0, 2], m[0, 3]),
            (m[0, 1], verts[1], m[1, 2], m[1, 3]),
            (m[0, 2], m[1, 2], verts[2], m[2, 3]),
            (m[0, 3], m[1, 3], m[2, 3], verts[3]),
            # octahedron split along the m01-m23 diagonal
            (m[0, 1], m[2, 3], m[0, 2], m[0, 3]),
            (m[0, 1], m[2, 3], m[0, 3], m[1, 3]),
            (m[0, 1], m[2, 3], m[1, 3], m[1, 2]),
            (m[0, 1], m[2, 3], m[1, 2], m[0, 2]),
        ]
    else:
        raise ChainError("midpoint subdivision implemented for k <= 3")

    # orient every child like the parent (positive in barycentric chart)
    fixed = []
    for child in children:
        # chart: drop the first barycentric coordinate
        pts = [p[1:] for p in child]
        rows = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
        d = geometry.det(rows)
        if d == 0:
            raise ChainError("degenerate subdivision cell")
        fixed.append(child if d > 0 else child[:-2] + (child[-1], child[-2]))
    return fixed


_SUBDIV_CACHE: dict[int, list] = {}


def subdivide(chain: PolyChain) -> PolyChain:
    """Midpoint refinement; free chains only (output is soup)."""
    if chain.complex is not None:
        raise ChainError("subdivide acts on free chains; drop the complex first")
    k = chain.dim
    if k not in _SUBDIV_CACHE:
        _SUBDIV_CACHE[k] = _reference_subdivision(k)
    pattern = _SUBDIV_CACHE[k]
    items = []
    for s, coeff in chain.terms.items():
        for child in pattern:
            child_verts = tuple(
                tuple(sum(w * v[i] for w, v in zip(bary, s.vertices))
                      for i in range(chain.ambient_dim))
                for bary in child)
            items.append((child_verts, coeff))
    return PolyChain.build(chain.group, chain.ambient_dim, k, items)
