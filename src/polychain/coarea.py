"""Exact coarea decomposition for piecewise-constant grid functions.

A grid function assigns one rational value per cell of the unit-box grid,
with an implicit zero frame outside.  Its boundary chain carries the jump
of the function across every face; slicing the function at its distinct
values (plus zero) decomposes that boundary into multiplicity-one level
boundaries R_t, constant on each threshold interval, with

    sum over slices of width * R_t  =  boundary chain of u   (exact), and
    sum over slices of width * mass(R_t)  =  mass of the boundary chain.

The mass identity has zero gap because each face's indicator jump has
constant sign along the threshold axis, so no cancellation is possible.
Super-level sets are used above zero and complements below zero, keeping
every slice region finite despite the infinite zero frame.

`level_slices` makes all slices in one sweep over the thresholds: it keeps
one integer coefficient per face for the boundary of the current region,
and between two slices it steps only the faces of the cells whose value is
the threshold crossed, never rebuilding a region or its boundary.
`verify_coarea` builds the slices once and returns them with its check, so
`decompose-levels --out` writes the very chains it verified; its checks
(the jump chain, every slice's mass, the term-by-term identity) do not use
the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .chains import PolyChain
from .grid import GridError, check_grid, grid_complex
from .groups import INTEGER, REAL

_ONE, _MINUS_ONE = Fraction(1), Fraction(-1)


@dataclass(frozen=True)
class GridFunction:
    """Piecewise-constant function on the n^d unit-box grid: one rational
    per cell, row-major, zero outside."""
    ambient_dim: int
    resolution: int
    values: tuple

    @classmethod
    def build(cls, ambient_dim: int, resolution: int, values) -> "GridFunction":
        check_grid(ambient_dim, resolution)
        vals = tuple(v if type(v) is Fraction else Fraction(v) for v in values)
        if len(vals) != resolution ** ambient_dim:
            raise GridError("expected %d cell values, got %d"
                            % (resolution ** ambient_dim, len(vals)))
        return cls(ambient_dim, resolution, vals)

    @property
    def complex(self):
        return grid_complex(self.ambient_dim, self.resolution)

    def to_chain(self, group=REAL) -> PolyChain:
        """The function as a top-dimensional chain: each cell contributes
        its value on the cell's positively oriented simplices."""
        complex = self.complex
        cells = complex.cells_of_cube(self.ambient_dim)
        pairs = []
        # cubes() enumerates the cells in the row-major order of values
        for cube, v in zip(complex.cubes(), self.values):
            if v:
                pairs += complex.top_pairs(group, cells[cube], v)
        return complex.chain_from_ids(group, self.ambient_dim, pairs)


def function_boundary(u: GridFunction, group=REAL) -> PolyChain:
    """Jump chain of the function: interior faces carry the oriented value
    difference, outer faces the adjacent cell value; interior diagonal
    faces cancel exactly."""
    return u.to_chain(group).boundary()


@dataclass
class LevelSlice:
    """One threshold interval (t_low, t_high] and the level boundary R_t,
    constant over the interval, with coefficients in {-1, 0, 1}."""
    t_low: Fraction
    t_high: Fraction
    chain: PolyChain

    @property
    def width(self) -> Fraction:
        return self.t_high - self.t_low


def level_slices(u: GridFunction) -> list:
    """Slice at the distinct values of u together with zero.

    Intervals above zero use super-level regions {u >= t_high}; intervals
    below zero use the negated boundary of sub-level regions {u <= t_low},
    which represents the same level boundary with a finite region.

    One sweep makes every slice.  The boundary of the cells with one value
    is summed once by `GridComplex.face_sums`, as integer face coefficients
    (each top cell weighted by its orientation, +1 or -1).
    Below zero the region starts empty and, walking up, takes in the cells
    with value t_low before each slice; from zero up it starts as {u > 0}
    and gives up the cells with value t_high after each slice.  Each slice
    is read off the face coefficients of the current region."""
    cx, d = u.complex, u.ambient_dim
    lower, cells = cx.simplices(d - 1), cx.cells_of_cube(d)
    # value -> {face id: coefficient} of the boundary of the cells with that value
    steps = cx.face_sums((v, i, int(orient))
                         for cube, v in zip(cx.cubes(), u.values) if v
                         for i, orient in cx.top_pairs(INTEGER, cells[cube], 1))

    coef: dict[int, int] = {}  # boundary of the current region, zeros dropped

    def shift(step, by):
        for f, c in step.items():
            c = coef.get(f, 0) + by * c
            if c:
                coef[f] = c
            else:
                coef.pop(f, None)

    def level_boundary(sign):
        terms = {}
        for f, c in coef.items():
            if c == sign:
                terms[lower[f]] = _ONE
            elif c == -sign:
                terms[lower[f]] = _MINUS_ONE
            else:
                raise GridError("level boundary is not multiplicity-one")
        return PolyChain(INTEGER, d, d - 1, terms, cx)

    thresholds = sorted(set(steps) | {Fraction(0)})
    zero = thresholds.index(0)
    slices = []
    for lo, hi in zip(thresholds[:zero], thresholds[1:zero + 1]):
        shift(steps[lo], 1)
        slices.append(LevelSlice(lo, hi, level_boundary(-1)))
    coef.clear()
    for v, step in steps.items():
        if v > 0:
            shift(step, 1)
    for lo, hi in zip(thresholds[zero:], thresholds[zero + 1:]):
        slices.append(LevelSlice(lo, hi, level_boundary(1)))
        shift(steps[hi], -1)
    return slices


@dataclass
class CoareaReport:
    boundary_mass: Fraction
    slice_mass: Fraction
    gap: Fraction
    chain_identity: bool
    slices: list  # the LevelSlices the check was made on

    @property
    def slice_count(self) -> int:
        return len(self.slices)


def verify_coarea(u: GridFunction) -> CoareaReport:
    """Exact two-sided check of the decomposition.

    Both masses are rational (every slice face lies on a cell facet), the
    gap is exactly zero, and the weighted slice sum reproduces the jump
    chain term by term.  The slices checked are returned on the report, so
    a caller that writes them out does not slice u again."""
    boundary = function_boundary(u)
    slices = level_slices(u)
    lhs = boundary.mass_exact().as_rational()
    rhs = Fraction(0)
    # the weighted slice sum, term by term, summed as integers over the
    # widths' common denominator (slice coefficients are integers)
    den = lcm(*(sl.width.denominator for sl in slices))
    combined: dict = {}
    for sl in slices:
        width = sl.width
        rhs += width * sl.chain.mass_exact().as_rational()
        w = width.numerator * (den // width.denominator)
        for s, c in sl.chain.terms.items():
            combined[s] = combined.get(s, 0) + c.numerator * w
    identity = {s: Fraction(c, den) for s, c in combined.items() if c} == boundary.terms
    return CoareaReport(boundary_mass=lhs, slice_mass=rhs, gap=lhs - rhs,
                        chain_identity=identity, slices=slices)
