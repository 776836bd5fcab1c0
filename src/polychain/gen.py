"""Seeded instance generators.

Everything is driven by random.Random(seed) so a given seed reproduces the
same instance byte for byte.  Generators return canonical chains on unit-box
grid complexes; coefficient pools are kept small so masses and bounds stay
legible in reports.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .chains import PolyChain
from .coarea import GridFunction
from .grid import check_grid, grid_complex
from .groups import CIRCLE, INTEGER, REAL


class GenError(ValueError):
    pass


def _rng(seed) -> Random:
    return seed if isinstance(seed, Random) else Random(seed)


def random_coeff(rng: Random, group) -> Fraction:
    """A nonzero coefficient from a small pool fitting the group."""
    tag = group.tag
    if tag == "integer":
        return rng.choice((1, 2, 3, -1, -2, -3))
    if tag.startswith("mod:"):
        p = int(tag[4:])
        return Fraction(rng.randrange(1, p))
    if tag == "circle":
        den = rng.randrange(2, 9)
        return Fraction(rng.randrange(1, den), den)
    num = rng.choice((1, 2, 3, 5, -1, -2, -3, -5))
    return Fraction(num, rng.randrange(1, 5))


def random_chain(seed, d: int, n: int, k: int, group=REAL, terms: int = 6) -> PolyChain:
    """Random k-chain: distinct grid simplices with nonzero coefficients."""
    rng = _rng(seed)
    complex = grid_complex(d, n)
    if not 0 <= k <= d:
        raise GenError("chains need 0 <= k <= d")
    if terms < 0:
        raise GenError("chains need terms >= 0")
    total = complex.count(k)
    ids = rng.sample(range(total), min(terms, total))
    return complex.chain_from_ids(group, k, [(i, random_coeff(rng, group)) for i in ids])


def random_cycle(seed, d: int, n: int, k: int, group=REAL, terms: int = 4) -> PolyChain:
    """Random k-cycle: the boundary of a random (k+1)-chain, retried until
    nonzero."""
    if not 0 <= k < d:
        raise GenError("cycles need 0 <= k < d")
    rng = _rng(seed)
    for _ in range(32):
        cycle = random_chain(rng, d, n, k + 1, group, terms).boundary()
        if not cycle.is_zero():
            return cycle
    raise GenError("could not generate a nonzero %d-cycle" % k)


def random_integral_boundary_chain(seed, d: int, n: int, k: int,
                                   terms: int = 5) -> PolyChain:
    """Real k-chain whose boundary is integral but whose own coefficients
    are generally fractional: an integer k-chain plus the boundary of a
    random real (k+1)-chain."""
    if not 1 <= k < d:
        raise GenError("integral-boundary chains need 1 <= k < d")
    rng = _rng(seed)
    base = random_chain(rng, d, n, k, INTEGER, terms).as_real()
    for _ in range(32):
        wiggle = random_chain(rng, d, n, k + 1, REAL, terms).boundary()
        out = base + wiggle
        if not out.is_zero() and any(c.denominator > 1 for c in out.terms.values()):
            return out
    raise GenError("could not generate a fractional chain with integral boundary")


# Share of the cubes a random circle top covers, on average.
CIRCLE_TOP_DENSITY = 0.7


def random_circle_top(seed, d: int, n: int) -> PolyChain:
    """Circle-coefficient top chain: a random subset of cells, one circle
    coefficient per cell."""
    rng = _rng(seed)
    complex = grid_complex(d, n)
    cells = complex.cells_of_cube(d)
    pairs = []
    for cube in complex.cubes():
        if rng.random() >= CIRCLE_TOP_DENSITY:
            continue
        pairs += complex.top_pairs(CIRCLE, cells[cube], random_coeff(rng, CIRCLE))
    chain = complex.chain_from_ids(CIRCLE, d, pairs)
    if chain.is_zero():
        return random_circle_top(rng, d, n)
    return chain


def random_circle_chain(seed, d: int, n: int, k: int, terms: int = 5,
                        cycle: bool = False) -> PolyChain:
    if cycle:
        return random_cycle(seed, d, n, k, CIRCLE, terms)
    return random_chain(seed, d, n, k, CIRCLE, terms)


def random_grid_function(seed, d: int, n: int, rational: bool = True) -> GridFunction:
    """Random piecewise-constant function; values mix small integers with
    small rationals (and always include some zero cells)."""
    check_grid(d, n)  # before n ** d, which a large d makes unbounded
    rng = _rng(seed)
    pool = [Fraction(v) for v in (-3, -2, -1, 0, 0, 1, 2, 3)]
    if rational:
        pool += [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 4),
                 Fraction(-5, 3), Fraction(7, 4)]
    values = [rng.choice(pool) for _ in range(n ** d)]
    return GridFunction.build(d, n, values)
