"""Level-set slicing of grid functions: exact mass and chain identities."""

from fractions import Fraction

import pytest

from polychain.coarea import (GridFunction, function_boundary, level_slices,
                              verify_coarea)
from polychain.gen import random_grid_function
from polychain.grid import GridError
from polychain.chains import PolyChain
from polychain.groups import INTEGER, REAL

F = Fraction


def checkerboard():
    # ones on the (0,0) and (1,1) cells, zeros elsewhere
    return GridFunction.build(2, 2, (1, 0, 0, 1))


def test_build_validates_cell_count():
    with pytest.raises(GridError):
        GridFunction.build(2, 2, (1, 2, 3))


def test_cell_indexing_is_row_major_first_axis_slowest():
    u = GridFunction.build(2, 2, (10, 11, 12, 13))
    cx = u.complex
    cells = {(0, 0): 10, (0, 1): 11, (1, 0): 12, (1, 1): 13}
    expected = sum((cx.cube_chain(REAL, cube, v) for cube, v in cells.items()),
                   PolyChain.zero(REAL, 2, 2, complex=cx))
    assert u.to_chain() == expected


def test_checkerboard_boundary_mass():
    u = checkerboard()
    bdry = function_boundary(u)
    # two diagonal cells touch only at the center point: two full
    # perimeters of 1/2-cells
    assert bdry.mass_exact().as_rational() == 4
    assert bdry.boundary().is_zero()


def test_checkerboard_single_slice():
    u = checkerboard()
    slices = level_slices(u)
    assert len(slices) == 1
    sl = slices[0]
    assert (sl.t_low, sl.t_high) == (0, 1)
    assert sl.chain.mass_exact().as_rational() == 4
    report = verify_coarea(u)
    assert report.gap == 0
    assert report.boundary_mass == 4
    assert report.chain_identity


def test_constant_function_slices_to_the_box_boundary():
    u = GridFunction.build(2, 1, (F(3, 2),))
    report = verify_coarea(u)
    assert report.boundary_mass == 6  # 3/2 times the unit perimeter
    assert report.slice_count == 1
    assert report.gap == 0
    sl = level_slices(u)[0]
    assert sl.width == F(3, 2)
    assert sl.chain.mass_exact().as_rational() == 4


def test_zero_function_has_no_slices():
    u = GridFunction.build(2, 2, (0,) * 4)
    assert level_slices(u) == []
    report = verify_coarea(u)
    assert report.gap == 0 and report.chain_identity


def test_negative_values_slice_below_zero():
    u = GridFunction.build(1, 2, (-1, 2))
    report = verify_coarea(u)
    # jumps 1, 3, 2 at the three cell interfaces
    assert report.boundary_mass == 6
    assert report.slice_count == 2
    assert report.gap == 0 and report.chain_identity
    lows = [(sl.t_low, sl.t_high) for sl in level_slices(u)]
    assert lows == [(-1, 0), (0, 2)]


def test_all_negative_function():
    u = GridFunction.build(2, 1, (-2,))
    report = verify_coarea(u)
    assert report.boundary_mass == 8
    assert report.gap == 0 and report.chain_identity
    sl = level_slices(u)[0]
    assert (sl.t_low, sl.t_high) == (-2, 0)


def test_slices_are_unit_multiplicity_cycles():
    for seed in range(6):
        u = random_grid_function(seed, 2, 3)
        for sl in level_slices(u):
            assert sl.chain.group is INTEGER
            assert all(c in (-1, 1) for c in sl.chain.terms.values())
            assert sl.chain.boundary().is_zero()
            assert sl.t_low < sl.t_high


def test_identity_holds_on_seeded_functions():
    for d, n, seeds in ((2, 3, range(6)), (3, 2, range(4)), (1, 4, range(3))):
        for seed in seeds:
            u = random_grid_function(seed, d, n)
            report = verify_coarea(u)
            assert report.gap == 0
            assert report.chain_identity
            assert report.slice_mass == report.boundary_mass


def test_integer_valued_functions_slice_at_unit_steps():
    u = GridFunction.build(2, 2, (0, 1, 2, 3))
    slices = level_slices(u)
    assert [sl.width for sl in slices] == [1, 1, 1]
    report = verify_coarea(u)
    assert report.gap == 0 and report.chain_identity


def test_identity_fails_when_a_slice_is_altered(monkeypatch):
    from polychain import coarea

    u = random_grid_function(2, 2, 3)
    slices = level_slices(u)
    assert len(slices) > 1 and verify_coarea(u).chain_identity
    # a wider slice, one slice dropped, one slice's chain negated
    wider = [coarea.LevelSlice(slices[0].t_low - 1, slices[0].t_high, slices[0].chain)]
    negated = [coarea.LevelSlice(slices[0].t_low, slices[0].t_high, -slices[0].chain)]
    for altered in (wider + slices[1:], slices[1:], negated + slices[1:]):
        monkeypatch.setattr(coarea, "level_slices", lambda v, s=altered: s)
        assert not verify_coarea(u).chain_identity
    # the middle cell's loop, once each way, on a constant function: its
    # faces cancel to zero terms, which a chain does not hold
    flat = GridFunction.build(2, 3, [1] * 9)
    loop = flat.complex.cube_chain(INTEGER, (1, 1)).boundary()
    assert not set(loop.terms) & set(function_boundary(flat).terms)
    pair = [coarea.LevelSlice(F(0), F(1), loop), coarea.LevelSlice(F(0), F(1), -loop)]
    monkeypatch.setattr(coarea, "level_slices", lambda v: level_slices(v) + pair)
    report = verify_coarea(flat)
    assert report.chain_identity and report.gap != 0


def brute_force_slices(u):
    # reference: per threshold, the region's indicator function as a top
    # chain and its full boundary, as slicing was first written
    def region(keep):
        return GridFunction(u.ambient_dim, u.resolution,
                            tuple(F(1 if keep(v) else 0) for v in u.values))
    thresholds = sorted(set(u.values) | {F(0)})
    slices = []
    for lo, hi in zip(thresholds, thresholds[1:]):
        if lo >= 0:
            chain = function_boundary(region(lambda v: v >= hi), INTEGER)
        else:
            chain = -function_boundary(region(lambda v: v <= lo), INTEGER)
        slices.append((lo, hi, chain))
    return slices


def sweep_slices(u):
    return [(sl.t_low, sl.t_high, sl.chain) for sl in level_slices(u)]


def test_sweep_matches_the_per_threshold_construction():
    functions = [random_grid_function(seed, d, n, rational)
                 for d, n in ((1, 5), (2, 3), (2, 6), (3, 2), (3, 3))
                 for seed in range(3) for rational in (True, False)]
    functions += [GridFunction.build(2, 3, [-2, -1, F(-1, 2)] * 3),  # all negative
                  GridFunction.build(2, 3, [0] * 9),
                  GridFunction.build(3, 2, [F(5, 3)] * 8),  # constant
                  GridFunction.build(2, 1, [-4]),
                  GridFunction.build(2, 3, [-3, 2, 0, F(1, 2), -1, 2, F(-1, 2), 0, 3])]
    for u in functions:
        got, expect = sweep_slices(u), brute_force_slices(u)
        assert got == expect, u
        for _, _, chain in got:
            assert chain.group is INTEGER and chain.complex is u.complex
            assert set(chain.terms.values()) <= {1, -1}
    kinds = [(min(u.values) < 0, max(u.values) > 0) for u in functions]
    assert (True, False) in kinds and (False, True) in kinds and (True, True) in kinds
    assert sweep_slices(GridFunction.build(2, 3, [0] * 9)) == []
