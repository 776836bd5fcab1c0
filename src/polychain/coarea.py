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

`verify_coarea` builds the slices once and returns them with its check, so
`decompose-levels --out` writes the very chains it verified.  Region and
slice chains are built from cell ids (`GridComplex.chain_from_ids`), not
from vertex tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chains import PolyChain
from .grid import GridError, grid_complex
from .groups import INTEGER, REAL


@dataclass(frozen=True)
class GridFunction:
    """Piecewise-constant function on the n^d unit-box grid: one rational
    per cell, row-major, zero outside."""
    ambient_dim: int
    resolution: int
    values: tuple

    @classmethod
    def build(cls, ambient_dim: int, resolution: int, values) -> "GridFunction":
        vals = tuple(Fraction(v) for v in values)
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
        pairs = []
        # cubes() enumerates the cells in the row-major order of values
        for cube, v in zip(complex.cubes(), self.values):
            if v:
                pairs += complex.top_pairs(group, complex.tops_of_cube(cube), v)
        return complex.chain_from_ids(group, self.ambient_dim, pairs)

    def indicator(self, predicate) -> "GridFunction":
        return GridFunction(self.ambient_dim, self.resolution,
                            tuple(Fraction(1 if predicate(v) else 0)
                                  for v in self.values))


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
    which represents the same level boundary with a finite region."""
    thresholds = sorted(set(u.values) | {Fraction(0)})
    slices = []
    for lo, hi in zip(thresholds, thresholds[1:]):
        if lo >= 0:
            region = u.indicator(lambda v, t=hi: v >= t)
            chain = function_boundary(region, INTEGER)
        else:
            region = u.indicator(lambda v, t=lo: v <= t)
            chain = -function_boundary(region, INTEGER)
        if any(c not in (-1, 1) for c in chain.terms.values()):
            raise GridError("level boundary is not multiplicity-one")
        slices.append(LevelSlice(t_low=lo, t_high=hi, chain=chain))
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
    combined: dict = {}  # the weighted slice sum, term by term
    for sl in slices:
        width = sl.width
        rhs += width * sl.chain.mass_exact().as_rational()
        for s, c in sl.chain.terms.items():
            combined[s] = combined.get(s, 0) + c * width
    identity = {s: c for s, c in combined.items() if c} == boundary.terms
    return CoareaReport(boundary_mass=lhs, slice_mass=rhs, gap=lhs - rhs,
                        chain_identity=identity, slices=slices)
