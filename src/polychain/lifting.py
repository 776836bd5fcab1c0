"""Lifting circle-coefficient chains to real coefficients.

The projection map sends a real coefficient to its value mod 1; the
minimal-norm section sends a circle value c to c when c <= 1/2 and to
c - 1 otherwise.  Both are norm-compatible with constant 1, so the
coefficient-wise lift preserves mass exactly.  The work in this module is
controlling the boundary mass of lifts:

* threshold lifts of top-dimensional chains, with an exact piecewise-
  constant profile of boundary mass over the threshold window (1/4, 3/4)
  whose minimum and integral obey the 3x / 5x / (5/2)x bounds;
* loop cancellation for 1-chains whose boundary projects to zero,
  yielding integral chains without mass increase (bounded ratio 1);
* a codimension-one correction that fills the projected cycle inside the
  grid, lifts the fill at the best threshold, and subtracts its boundary
  (bounded ratio 6);
* the assembled flat lift with ratio at most (2 + 2D)(1 + epsilon).

All bounds are checked exactly (radical arithmetic) before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .approx import disjoint_representative
from .chains import PolyChain, mass_from_totals, numerators
from .groups import CIRCLE, REAL, section
from .radicals import RadicalSum


class LiftError(ValueError):
    pass


@dataclass
class LiftReport:
    route: str
    d_used: int
    guaranteed_ratio: float
    passes: int | None = None


@dataclass
class ThresholdProfile:
    """Boundary mass of the threshold lift as an exact step function of
    the threshold, over the open window (1/4, 3/4)."""
    breakpoints: tuple
    intervals: tuple  # (lo, hi, midpoint, boundary_mass)
    integral: RadicalSum
    minimum: tuple  # (midpoint, boundary_mass) of the first least interval


# ---------------------------------------------------------------------------
# projection and coefficient-wise section


def project_chain(chain: PolyChain) -> PolyChain:
    """Reduce real coefficients mod 1; commutes with the boundary and
    never increases mass."""
    if chain.group.tag not in ("real", "integer"):
        raise LiftError("projection expects real or integer coefficients")
    terms = {}
    for s, c in chain.terms.items():
        v = CIRCLE.normalize(c)
        if v:
            terms[s] = v
    return PolyChain(CIRCLE, chain.ambient_dim, chain.dim, terms, chain.complex)


def lift_coefficientwise(chain: PolyChain) -> PolyChain:
    """Minimal-norm section per coefficient; projects back exactly and
    preserves mass exactly."""
    if chain.group.tag != "circle":
        raise LiftError("lift expects circle coefficients")
    terms = {s: section(c) for s, c in chain.terms.items()}
    return PolyChain(REAL, chain.ambient_dim, chain.dim, terms, chain.complex)


# ---------------------------------------------------------------------------
# threshold lifts of top-dimensional chains


def _require_top(chain: PolyChain):
    if chain.group.tag != "circle":
        raise LiftError("threshold lift expects circle coefficients")
    if chain.complex is None or chain.dim != chain.ambient_dim:
        raise LiftError("threshold lift expects a top-dimensional grid chain")


def lift_top_threshold(chain: PolyChain, theta) -> PolyChain:
    """Lift coefficients by g -> g if g <= theta else g - 1.  Verifies
    exactly that mass(lift) <= 3 mass(chain)."""
    _require_top(chain)
    theta = Fraction(theta)
    if not Fraction(1, 4) < theta < Fraction(3, 4):
        raise LiftError("threshold must lie in (1/4, 3/4)")
    terms = {}
    for s, c in chain.terms.items():
        if c == theta:
            raise LiftError("threshold collides with a coefficient; "
                            "use an interval midpoint")
        terms[s] = c if c < theta else c - 1
    lifted = PolyChain(REAL, chain.ambient_dim, chain.dim, terms, chain.complex)
    if (lifted.mass_exact() - chain.mass_exact() * 3).sign() > 0:
        raise LiftError("mass bound 3x violated")
    return lifted


def threshold_profile(chain: PolyChain) -> ThresholdProfile:
    """Exact boundary-mass step function of the threshold lift.

    The lift changes only when the threshold crosses a coefficient, so
    the profile is constant between the distinct coefficients lying in
    (1/4, 3/4); each interval is labelled by its midpoint.

    One sweep computes it, in integers: every coefficient c is read as
    its numerator over D = lcm(4, the coefficients' denominators), so the
    window is (D/4, 3D/4).  Just above 1/4 a cell with c <= 1/4 keeps c and
    every other cell takes c - 1.  `GridComplex.face_sums` gives that
    lift's boundary numerators and, per break b, the step of D they take
    as the cells with c == b step up by 1.  The mass is one running integer
    total of |coef_f| per shared face volume; Fractions are made only for
    the reported breakpoints, midpoints and widths, and for each interval's
    totals, folded by `chains.mass_from_totals` as `PolyChain.mass_exact`
    folds them.
    """
    _require_top(chain)
    cx, d = chain.complex, chain.dim
    nums, coeff_den = numerators(chain.terms.values())
    den = lcm(4, coeff_den)
    scale = den // coeff_den
    lo, hi = den // 4, 3 * den // 4
    index_of = cx.index_of
    cells = [(index_of(d, s), m * scale) for s, m in zip(chain.terms, nums)]
    coef = cx.face_sums((0, i, c if c <= lo else c - den) for i, c in cells).get(0, {})
    rising = cx.face_sums((c, i, den) for i, c in cells if lo < c < hi)
    lower = cx.simplices(d - 1)
    totals: dict = {}  # id of a face volume -> [the volume, sum of |coef_f|]
    total_of = {}  # face id -> its volume's totals entry
    for f, g in coef.items():
        vol = lower[f].volume()
        entry = totals.get(id(vol))
        if entry is None:
            entry = totals[id(vol)] = [vol, 0]
        entry[1] += abs(g)
        total_of[f] = entry

    breaks = sorted(rising)
    points = [lo] + breaks + [hi]
    intervals = []
    integral = RadicalSum()
    best = None
    for a, b in zip(points, points[1:]):
        for f, step in rising.get(a, {}).items():
            old = coef[f]
            coef[f] = new = old + step
            total_of[f][1] += abs(new) - abs(old)
        mid = Fraction(a + b, 2 * den)
        mass = mass_from_totals(totals.values(), den)
        intervals.append((Fraction(a, den), Fraction(b, den), mid, mass))
        integral = integral + mass * Fraction(b - a, den)
        if best is None or (mass - best[1]).sign() < 0:
            best = (mid, mass)
    return ThresholdProfile(breakpoints=tuple([Fraction(b, den) for b in breaks]),
                            intervals=tuple(intervals), integral=integral, minimum=best)


def lift_top_optimal(chain: PolyChain):
    """Scan the threshold profile and lift at the best threshold.

    Returns (theta, lifted chain, profile).  Verifies exactly, besides
    lift_top_threshold's mass bound, that the profile integral is at most
    (5/2) mass(boundary), and that the chosen boundary mass is at most
    5 mass(boundary)."""
    profile = threshold_profile(chain)
    theta, boundary_mass = profile.minimum
    lifted = lift_top_threshold(chain, theta)
    b_mass = chain.boundary().mass_exact()
    if (profile.integral - b_mass * Fraction(5, 2)).sign() > 0:
        raise LiftError("profile integral bound (5/2)x violated")
    if (boundary_mass - b_mass * 5).sign() > 0:
        raise LiftError("boundary mass bound 5x violated")
    return theta, lifted, profile


# ---------------------------------------------------------------------------
# loop cancellation (bounded ratio 1 for 1-chains)


def _integral_boundary(chain: PolyChain) -> bool:
    return all(c.denominator == 1 for c in chain.boundary().terms.values())


def _find_cycle(frac_terms):
    """Deterministic cycle in the endpoint graph of the fractional edges.

    Every vertex of this graph has degree >= 2 (a degree-1 vertex would
    leave a fractional boundary multiplicity), so a walk from the least
    vertex, always to the least neighbour but the one it came from, closes
    a loop: [(v, None), (vertex, edge into it), ..., (v, closing edge)].
    The walk keys vertices by the edges' integer points over their common
    denominator, which compare as the Fraction points do."""
    den = lcm(*[s.den for s in frac_terms])
    adj: dict = {}
    for s in frac_terms:
        m = den // s.den
        a, b = [tuple([m * c for c in p]) for p in s.num]
        adj.setdefault(a, []).append((b, s))
        adj.setdefault(b, []).append((a, s))
    u, came_from = min(adj), None
    path = [(u, None)]
    at = {u: 0}  # vertex -> its position on the path
    while True:
        w, s = min(((w, s) for w, s in adj[u] if w != came_from),
                   key=lambda t: t[0], default=(None, None))
        if s is None:
            raise LiftError("fractional subgraph unexpectedly acyclic")
        if w in at:
            cycle = [(w, None)] + path[at[w] + 1:] + [(w, s)]
            return [(tuple([Fraction(c, den) for c in v]), e) for v, e in cycle]
        at[w] = len(path)
        path.append((w, s))
        u, came_from = w, u


def loop_cancel(chain: PolyChain):
    """Cancel fractional parts of a 1-chain along loops without raising
    mass.  Requires every boundary multiplicity to be an integer.

    Returns (integral chain, LiftReport); boundary and complex tag are
    unchanged and every pass strictly shrinks the fractional edge set."""
    if chain.group.tag not in ("real", "integer"):
        raise LiftError("loop cancellation expects real coefficients")
    if chain.dim != 1:
        raise LiftError("loop cancellation is a 1-chain operation")
    if not _integral_boundary(chain):
        raise LiftError("boundary multiplicities are not integers")
    current = chain
    passes = 0
    limit = len(chain.terms) + 1
    while True:
        frac = {s: c for s, c in current.terms.items() if c.denominator != 1}
        if not frac:
            break
        if passes >= limit:
            raise LiftError("loop cancellation failed to terminate")
        cycle = _find_cycle(frac)
        # each edge, with +1 where the walk runs along its vertex order
        edges = [(s, 1 if u == s.vertices[0] else -1)
                 for (u, _), (_, s) in zip(cycle, cycle[1:])]
        swing = RadicalSum()
        for s, direction in edges:
            swing = swing + s.volume() * (direction if frac[s] > 0 else -direction)
        # theta is the least shift along the walk that makes some edge's
        # coefficient an integer: down when the swing is >= 0, else up
        downs = [direction * frac[s] % 1 for s, direction in edges]
        theta = min(downs) if swing.sign() >= 0 else max(downs) - 1
        # the cycle's edges are distinct terms and theta != 0, so nothing
        # merges or drops
        delta = PolyChain(REAL, chain.ambient_dim, 1,
                          {s: theta * direction for s, direction in edges}, current.complex)
        updated = current - delta
        if (updated.mass_exact() - current.mass_exact()).sign() > 0:
            raise LiftError("loop subtraction increased mass")
        current = updated
        passes += 1
    # every pass checked that the mass did not grow, so the whole run did not
    if current.boundary() != chain.boundary():
        raise LiftError("loop cancellation changed the boundary")
    return current, LiftReport(route="loop", d_used=1, guaranteed_ratio=1.0, passes=passes)


# ---------------------------------------------------------------------------
# codimension-one correction via grid fill


def fill_boundary(cycle: PolyChain) -> PolyChain:
    """The unique top-dimensional grid chain whose boundary is the given
    codimension-one cycle (coefficients in the circle group).

    Starts at the cell of an outer face, whose value that face fixes,
    propagates cell values across faces (incidence rows to coboundary) as
    integer numerators over the cycle's common denominator, then verifies
    the boundary identity exactly."""
    if cycle.group.tag != "circle":
        raise LiftError("fill expects circle coefficients")
    complex = cycle.complex
    if complex is None:
        raise LiftError("fill needs a complex-backed cycle")
    d = complex.ambient_dim
    if cycle.dim != d - 1:
        raise LiftError("fill expects a codimension-one chain")
    z, den = numerators(complex.chain_vector(cycle))
    incidence, cob = complex.incidence(d), complex.coboundary(d - 1)
    pin = next((f for f, cofs in enumerate(cob) if len(cofs) == 1), None)
    if pin is None:
        raise LiftError("no outer face to pin the constant")
    # the frame outside the box is zero, so the outer face fixes its cell:
    # r*s_root = z
    root, r = cob[pin][0]
    values = [None] * complex.count(d)
    values[root] = r * z[pin]
    queue = [root]
    while queue:
        c1 = queue.pop()
        for face_id, r1 in incidence[c1]:
            for c2, r2 in cob[face_id]:
                if values[c2] is None:
                    # r1*s1 + r2*s2 = z  =>  s2 = r2*(z - r1*s1)
                    values[c2] = r2 * (z[face_id] - r1 * values[c1])
                    queue.append(c2)
    if any(v is None for v in values):
        raise LiftError("dual graph is not connected")
    fill = complex.chain_from_ids(CIRCLE, d, [(i, Fraction(v, den))
                                              for i, v in enumerate(values) if v % den])
    if fill.boundary() != cycle:
        raise LiftError("fill verification failed")
    return fill


def br_correct(chain: PolyChain, route: str = "auto"):
    """Make a real chain integral without changing its boundary.

    Requires the boundary to project to zero.  Routes: k = 1 goes through
    loop cancellation (ratio 1); k = d-1 fills the projected cycle on the
    grid, lifts the fill at the best threshold and subtracts its boundary
    (ratio 6).  Returns (corrected chain, ratio used)."""
    if chain.group.tag not in ("real", "integer"):
        raise LiftError("correction expects real coefficients")
    k, d = chain.dim, chain.ambient_dim
    if route == "auto":
        route = "loop" if k == 1 else ("fill" if k == d - 1 else "")
    if route == "loop":
        if k != 1:
            raise LiftError("loop route needs k = 1")
        corrected, _ = loop_cancel(chain)
        return corrected, 1
    if route == "fill":
        if k != d - 1:
            raise LiftError("fill route needs k = d - 1")
        projected = project_chain(chain)
        if not project_chain(chain.boundary()).is_zero():
            raise LiftError("boundary does not project to zero")
        if projected.is_zero():
            return chain, 6
        fill = fill_boundary(projected)
        _, lifted_fill, _ = lift_top_optimal(fill)
        corrected = chain - lifted_fill.boundary()
        if not project_chain(corrected).is_zero():
            raise LiftError("correction left fractional coefficients")
        if corrected.boundary() != chain.boundary():
            raise LiftError("correction changed the boundary")
        if (corrected.mass_exact() - chain.mass_exact() * 6).sign() > 0:
            raise LiftError("mass ratio 6 violated")
        return corrected, 6
    raise LiftError("unsupported dimension for bounded-ratio correction")


# ---------------------------------------------------------------------------
# assembled flat lift


def lift_flat(chain: PolyChain, epsilon=Fraction(1, 10)):
    """Lift a circle chain to a real chain that projects back exactly,
    with mass at most (2 + 2D)(1 + epsilon) times the input mass
    (D = 1 for curves, D = 6 in codimension one; extreme dimensions lift
    coefficient-wise at ratio 1)."""
    if chain.group.tag != "circle":
        raise LiftError("flat lift expects circle coefficients")
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise LiftError("epsilon must be positive")
    k, d = chain.dim, chain.ambient_dim
    in_mass = chain.mass_exact()

    if k == 0 or k == d:
        lifted = lift_coefficientwise(chain)
        if lifted.mass_exact() != in_mass:
            raise LiftError("coefficient-wise lift changed the mass")
        route, d_used, ratio = "coefficientwise", 0, Fraction(1)
    else:
        if k != 1 and k != d - 1:
            raise LiftError("flat lift supports k in {0, 1, d-1, d}")
        if chain.complex is None:
            raise LiftError("flat lift needs a complex-backed chain")

        # T = rest + cycle part: rest keeps the boundary, so the coefficientwise
        # lift of (T - rest) has integral boundary and can be made integral by
        # the bounded-ratio correction; subtracting that correction from the
        # coefficientwise lift of T keeps the projection exactly T.
        whole = lift_coefficientwise(chain)
        if chain.boundary().is_zero():
            defect = whole
        else:
            if k == 1:
                rest, _ = disjoint_representative(chain, epsilon)
            else:
                rest = chain
            defect = whole - lift_coefficientwise(rest)
        route = "loop" if k == 1 else "fill"
        corrected, d_used = br_correct(defect, route=route)
        lifted = whole - corrected
        ratio = (2 + 2 * d_used) * (1 + epsilon)
        if (lifted.mass_exact() - in_mass * ratio).sign() > 0:
            raise LiftError("flat lift mass bound violated")

    if project_chain(lifted) != chain:
        raise LiftError("flat lift failed to project back")
    return lifted, LiftReport(route=route, d_used=d_used, guaranteed_ratio=float(ratio))
