"""Finite-stage approximation pipeline: scaling homotopy, translation to
singular position, iterative disjoint representatives, cycle extension,
and telescoping of flat-Cauchy families.

Everything here returns exact chain identities plus explicit residual
budgets; nothing is silently approximate.  The only maps used are scalings
toward a point and translations (`geometry.AffineMap`).  Each stage moves
the chain by g = tau o f, a shrink f toward the box center followed by a
translation tau off the reference carriers (`singular_translate`), and
decomposes it as

    X = P + R + boundary(S)

with one straight-line prism from the identity to g, so the identity holds
canonically over any coefficient group:  P = g#X is the moved copy,
S = -prism(X) the swept (k+1)-chain, and R = -prism(boundary(X)) the
k-dimensional transport of boundary(X), whose mass is driven under the
stage budget by halving the displacement.  One prism to the composed map
costs no more than a prism to f followed by one to tau (Federer, GMT
4.1.9), and its remainder has about half the terms.

Shrinks and translations have positive scale, so `pushforward` moves each
term with `Simplex.moved`: the image keeps its squared volume (times
r^(2k)) and its known affine-hull equalities, and is never rebuilt.  The
shrunken copy's equalities, integer normals about its lattice points, are
computed once, when `_pick_direction` tests tangency against them with
each candidate direction scaled to integers, and every trial translation
in `singular_translate` carries them to the images its overlap tests
read.  Those tests compare integer bounding boxes and build the
barycentric inequalities only for a pair the equalities do not settle;
no Fraction is made in them.  The images that pass are the moved chain.
Each stage chain keeps its mass and boundary (`PolyChain` memoizes them),
so the stage loop and the final checks compute each once.  Directions
exist up to R^3 (`_directions`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .chains import ChainError, PolyChain, prism, pushforward
from .flatnorm import flat_norm, _replay_ok
from .geometry import AffineMap, is_tangent, overlap_dim_at_least
from .grid import check_grid, embed_on, grid_complex
from .radicals import RadicalSum


class ApproxError(Exception):
    pass


# The stage schedule of `disjoint_representative`: stage n may leave a
# remainder of mass epsilon / 2^(n+2) times the input mass, so the stages
# sum to epsilon/2.  The stages stop once the remainder is at most
# STOP_FRACTION of the input mass, and fail past MAX_STAGES.
MAX_STAGES = 40
STOP_FRACTION = Fraction(1, 1000)


@dataclass
class StageRecord:
    shrink_ratio: Fraction
    direction: tuple | None
    shift: Fraction
    piece: PolyChain
    remainder: PolyChain
    filling: PolyChain


@dataclass
class StageReport:
    stages: list = field(default_factory=list)
    epsilon_terminal: RadicalSum = field(default_factory=RadicalSum)


# ---------------------------------------------------------------------------
# scaling homotopy


def shrink_toward(chain: PolyChain, center, ratio) -> tuple[PolyChain, float]:
    """Homothety x -> center + ratio*(x - center) applied to a grid chain.

    Returns the image (a free chain; mass scales by ratio^k exactly) and
    the closed-form flat-distance bound
    2*(1-ratio)*diam(K)*(mass + boundary mass).
    """
    if chain.complex is None:
        raise ChainError("shrink needs a complex-backed chain")
    ratio = Fraction(ratio)
    if not 0 < ratio <= 1:
        raise ApproxError("shrink ratio must lie in (0, 1]")
    center = tuple(Fraction(x) for x in center)
    lo, hi = chain.complex.bbox()
    if not all(a < c < b for a, c, b in zip(lo, center, hi)):
        raise ApproxError("center must lie in the open box")
    diam = chain.complex.diameter()
    if ratio == 1:
        return chain, 0.0
    image = pushforward(chain, AffineMap.homothety(center, ratio))
    m = chain.mass_exact()
    if chain.dim >= 1:
        m = m + chain.boundary().mass_exact()
    bound = diam * m * (2 * (1 - ratio))
    return image, float(bound)


# ---------------------------------------------------------------------------
# translation to singular position


def _directions(d: int):
    """Deterministic rational unit vectors (exact norm 1) in R^d, d <= 3;
    a larger d raises ApproxError."""
    if d > 3:
        raise ApproxError("no translation directions in R^%d (d <= 3)" % d)
    if d == 1:
        yield (Fraction(1),)
        yield (Fraction(-1),)
        return
    axes = []
    for i in range(d):
        for s in (1, -1):
            axes.append(tuple(Fraction(s if j == i else 0) for j in range(d)))
    yield from axes
    if d == 2:
        for q in range(1, 40):
            for p in range(-q, q + 1):
                if gcd(abs(p), q) != 1:
                    continue
                den = p * p + q * q
                yield (Fraction(q * q - p * p, den), Fraction(2 * p * q, den))
    else:
        for q in range(1, 20):
            for a in range(-q, q + 1):
                for b in range(-q, q + 1):
                    if max(abs(a), abs(b)) != q or gcd(gcd(abs(a), abs(b)), q) != 1:
                        continue
                    den = q * q + a * a + b * b
                    yield (Fraction(2 * a * q, den), Fraction(2 * b * q, den),
                           Fraction(q * q - a * a - b * b, den))


_DIRECTION_CAP = 600


def _pick_direction(moving):
    """The first direction tangent to none of the simplices.  Tangency
    reads only the direction's span, so each candidate is tested as the
    integer multiple of it that clears its denominators."""
    d = moving[0].ambient_dim
    count = 0
    for v in _directions(d):
        count += 1
        if count > _DIRECTION_CAP:
            break
        scale = lcm(*[c.denominator for c in v])
        lattice_v = tuple([c.numerator * (scale // c.denominator) for c in v])
        if all(not is_tangent(lattice_v, s) for s in moving):
            return v
    raise ApproxError("no usable translation direction in the lattice")


def singular_translate(chain: PolyChain, carriers, t_max):
    """Translate the chain along a lattice direction tangent to none of its
    simplices, by t_max halved until every moved simplex meets every
    carrier simplex in dimension < k.  Mass is unchanged (translation is
    an isometry).  Each trial moves the chain once; the images tested are
    its terms.  Returns (moved chain, direction, shift), with direction
    None and the chain unmoved when there is nothing to separate."""
    k = chain.dim
    if k >= chain.ambient_dim:
        raise ApproxError("translation singularization needs k < d")
    t_max = Fraction(t_max)
    if t_max <= 0:
        raise ApproxError("translation budget must be positive")
    carriers = [s for s in carriers if not s.is_degenerate()]
    moving = [s for s in chain.terms if not s.is_degenerate()]
    if not carriers or not moving:
        return chain, None, Fraction(0)
    v = _pick_direction(moving)
    t = t_max
    for _ in range(64):
        # a translation keeps volumes, so the images of `moving` are the
        # moved chain's non-degenerate terms
        moved = pushforward(chain, AffineMap.translation(tuple(t * x for x in v)))
        images = [s for s in moved.terms if not s.is_degenerate()]
        if not any(overlap_dim_at_least(im, ref, k)
                   for im in images for ref in carriers):
            return moved, v, t
        t = t / 2
    raise ApproxError("could not certify singular position")


# ---------------------------------------------------------------------------
# iterative disjoint representative


def _box_center(complex):
    lo, hi = complex.bbox()
    return tuple((a + b) / 2 for a, b in zip(lo, hi))


def disjoint_representative(chain: PolyChain, epsilon=Fraction(1, 10)):
    """Rebuild the chain out of shrunken translated copies whose supports
    cross the original carriers only in dimension < k.

    Returns (R, report) with, exactly, boundary(R) = boundary(chain),
    mass(R) <= (1 + epsilon) * mass(chain) + e_N, and every stage piece
    certified singular against the original carriers; e_N is the measured
    mass of the final remainder (at most STOP_FRACTION * mass(chain)).
    epsilon sets the stage schedule described at MAX_STAGES.
    """
    # the schedule sums to epsilon/2, so no stage could meet a budget <= 0
    if epsilon <= 0:
        raise ApproxError("epsilon must be positive, got %s" % epsilon)
    if chain.complex is None:
        raise ChainError("disjoint representative needs a complex-backed chain")
    k, d = chain.dim, chain.ambient_dim
    if k >= d:
        raise ApproxError("disjoint representative needs k < d")
    total = chain.mass_exact()
    report = StageReport()
    if chain.is_zero():
        return chain, report

    center = _box_center(chain.complex)
    diameter = float(chain.complex.diameter())
    carriers = [s for s in chain.terms if not s.is_degenerate()]
    identity = AffineMap.identity(d)
    stop_mass = total * STOP_FRACTION

    x = chain
    pieces = []
    for n in range(MAX_STAGES):
        x_mass = x.mass_exact()
        if (x_mass - stop_mass).sign() <= 0:
            break
        stage_budget = total * (epsilon / 2 ** (n + 2))
        bx = x.boundary() if k >= 1 else None
        one_minus = Fraction(1, 2)
        if k >= 1 and not bx.is_zero():
            # transport mass is linear in the shrink gap; presize the gap
            # from a float overestimate so the exact check passes first try
            per_unit = float(bx.mass_exact()) * k * (diameter / 2 + 1 / 4)
            target = float(stage_budget) / (4 * per_unit)
            while one_minus > target and one_minus > Fraction(1, 2 ** 60):
                one_minus /= 2
        accepted = None
        for _ in range(48):
            lam = 1 - one_minus
            f = AffineMap.homothety(center, lam)
            y = pushforward(x, f)
            piece, direction, shift = singular_translate(
                y, carriers, one_minus / 4)
            g = f if direction is None else \
                AffineMap.translation(tuple(shift * c for c in direction)).compose(f)
            if k >= 1:
                transport = -prism(bx, identity, g)
            else:
                transport = PolyChain.zero(chain.group, d, 0)
            if (transport.mass_exact() - stage_budget).sign() <= 0:
                filling = -prism(x, identity, g)
                accepted = (lam, direction, shift, piece, transport, filling)
                break
            one_minus = one_minus / 2
        if accepted is None:
            raise ApproxError("stage %d budget could not be met" % n)
        lam, direction, shift, piece, transport, filling = accepted
        if (piece + transport + filling.boundary()) != x:
            raise ApproxError("stage identity failed to replay")
        report.stages.append(StageRecord(
            shrink_ratio=lam, direction=direction, shift=shift,
            piece=piece, remainder=transport, filling=filling))
        pieces.append(piece)
        x = transport
    else:
        raise ApproxError("stage budget exhausted before the remainder was small")

    r = x
    for p in pieces:
        r = r + p
    if k >= 1 and r.boundary() != chain.boundary():
        raise ApproxError("boundary of the representative failed to replay")
    report.epsilon_terminal = x.mass_exact()
    return r, report


def cycle_extension(chain: PolyChain, epsilon=Fraction(1, 10)):
    """Close a chain into an exact cycle by subtracting a disjoint
    representative of it.

    Returns (cycle, carriers, defect, report): boundary(cycle) = 0 exactly,
    mass(cycle) <= (2 + epsilon) * mass(chain) + report.epsilon_terminal
    (the final-remainder mass), and the part of the difference
    chain - cycle restricted to the carriers has mass defect, checked to be
    at most report.epsilon_terminal.
    """
    if chain.dim < 1:
        raise ApproxError("cycle extension needs k >= 1")
    rep, report = disjoint_representative(chain, Fraction(epsilon))
    cycle = chain - rep
    if not cycle.boundary().is_zero():
        raise ApproxError("extension is not a cycle")
    carriers = tuple(chain.support())
    held_back = (chain - cycle.restrict(carriers)).mass_exact()
    if (held_back - report.epsilon_terminal).sign() > 0:
        raise ApproxError("restriction defect exceeded the reported budget")
    return cycle, carriers, held_back, report


# ---------------------------------------------------------------------------
# telescoping a flat-Cauchy family


def telescope(chain_list, delta: float = 1e-6):
    """Decompose the last member of a flat-Cauchy family against the first.

    Requires flat_norm(P[h+1] - P[h]) <= (1 + delta) * 2^(-h-1) as
    measured by the LP.  Returns (R, S, partial_masses) with
    P[-1] = R + boundary(S) exactly; partial_masses lists the masses of
    the running normal approximants.
    """
    if not chain_list:
        raise ApproxError("empty family")
    first = chain_list[0]
    r = first
    s = None
    partials = [first.mass()]
    for h in range(len(chain_list) - 1):
        witness = flat_norm(chain_list[h + 1] - chain_list[h])
        if witness.value > (1 + delta) * 2.0 ** (-h - 1):
            raise ApproxError("flat-Cauchy decay hypothesis violated at step %d" % h)
        r = r + witness.residual
        s = witness.filling if s is None else s + witness.filling
        partials.append(r.mass())
    if s is None:
        s = PolyChain.zero(first.group, first.ambient_dim, first.dim + 1)
    if not _replay_ok(chain_list[-1], r, s):
        raise ApproxError("telescoped identity failed to replay")
    return r, s, partials


# ---------------------------------------------------------------------------
# aligned shrink measurement (LP cross-check of the homotopy bound)


def measured_shrink_distance(chain: PolyChain, ratio=Fraction(1, 2)):
    """Shrink toward the box center and measure the flat distance by LP on
    the common refinement grid.  Returns (lp_value, closed_form_bound).

    The center homothety with rational ratio p/q maps the grid onto the
    2*q*n refinement, so both chains embed exactly and the LP applies.
    """
    complex = chain.complex
    if complex is None:
        raise ChainError("measurement needs a complex-backed chain")
    ratio = Fraction(ratio)
    if not 0 < ratio < 1:
        raise ApproxError("ratio must lie in (0, 1)")
    fine_res = 2 * ratio.denominator * complex.resolution
    check_grid(complex.ambient_dim, fine_res, "shrink refinement")
    image, bound = shrink_toward(chain, _box_center(complex), ratio)
    fine = grid_complex(complex.ambient_dim, fine_res)
    a = embed_on(fine, chain)
    b = embed_on(fine, image)
    witness = flat_norm(a - b)
    return witness.value, bound
