"""Shrink homotopy, singular translation, disjoint rebuild, telescoping."""

import math
from fractions import Fraction

import pytest

from polychain import approx, geometry
from polychain.approx import (ApproxError, cycle_extension, disjoint_representative,
                              measured_shrink_distance, shrink_toward,
                              singular_translate, telescope)
from polychain.chainfile import MAX_GRID_SIMPLICES, InputLimitError, save_chain
from polychain.chains import ChainError, PolyChain, pushforward
from polychain.cli import main
from polychain.gen import random_chain, random_cycle
from polychain.geometry import AffineMap, overlap_dim_at_least
from polychain.grid import grid_complex
from polychain.groups import REAL

F = Fraction
CENTER = (F(1, 2), F(1, 2))


def bottom_edge():
    cx = grid_complex(2, 1)
    verts = ((F(0), F(0)), (F(1), F(0)))
    return PolyChain.build(REAL, 2, 1, [(verts, F(1))], complex=cx)


def test_shrink_scales_mass_by_ratio_power_k():
    cx = grid_complex(2, 2)
    area = cx.full_chain(REAL)
    for lam in (F(1, 2), F(2, 3), F(9, 10)):
        image, _ = shrink_toward(area, CENTER, lam)
        assert (image.mass_exact() - area.mass_exact() * lam ** 2).is_zero()
        loop = area.boundary()
        img_loop, _ = shrink_toward(loop, CENTER, lam)
        assert (img_loop.mass_exact() - loop.mass_exact() * lam).is_zero()
        # the homothety commutes with the boundary
        assert image.boundary() == img_loop


def test_shrink_with_ratio_one_is_free():
    ch = bottom_edge()
    image, bound = shrink_toward(ch, CENTER, F(1))
    assert image == ch
    assert bound == 0.0


def test_unit_edge_half_shrink_bound_is_three_root_two():
    # frozen: 2 * (1/2) * sqrt(2) * (mass 1 + boundary mass 2)
    ch = bottom_edge()
    _, bound = shrink_toward(ch, CENTER, F(1, 2))
    assert abs(bound - 3 * math.sqrt(2)) < 1e-12


def test_shrink_validates_inputs():
    ch = bottom_edge()
    with pytest.raises(ApproxError):
        shrink_toward(ch, CENTER, F(0))
    with pytest.raises(ApproxError):
        shrink_toward(ch, CENTER, F(3, 2))
    with pytest.raises(ApproxError):
        shrink_toward(ch, (F(2), F(2)), F(1, 2))  # center outside the box
    free = PolyChain.build(REAL, 2, 1, [(((F(0), F(0)), (F(1), F(0))), F(1))])
    with pytest.raises(ChainError):
        shrink_toward(free, CENTER, F(1, 2))


def test_singular_translate_clears_overlaps():
    ch = random_chain(11, 2, 2, 1, terms=5)
    carriers = list(ch.terms)
    moved, direction, shift = singular_translate(ch, carriers, F(1, 8))
    assert 0 < shift <= F(1, 8)
    assert moved == pushforward(ch, AffineMap.translation([shift * c for c in direction]))
    assert (moved.mass_exact() - ch.mass_exact()).is_zero()
    for s in moved.terms:
        if s.is_degenerate():
            continue
        for ref in carriers:
            assert not overlap_dim_at_least(s, ref, 1)


def test_singular_translate_builds_no_hull_inequalities(monkeypatch):
    # only the equalities are read: tangency against the chain's own
    # simplices, then pairs of segments that are parallel (no common
    # point) or not (a common point at most), which the equalities settle
    built = []
    inequalities = geometry._hull_inequalities
    monkeypatch.setattr(geometry, "_hull_inequalities",
                        lambda s: built.append(s) or inequalities(s))
    square = [((F(0), F(0)), (F(1), F(0))), ((F(1), F(0)), (F(1), F(1))),
              ((F(0), F(1)), (F(1), F(1))), ((F(0), F(0)), (F(0), F(1)))]
    loop = PolyChain.build(REAL, 2, 1, [(v, F(1, i + 1)) for i, v in enumerate(square)])
    skew = random_chain(4, 3, 2, 1, terms=6)
    for fresh in (loop, PolyChain.build(REAL, 3, 1, [(s.vertices, c)
                                                    for s, c in skew.terms.items()])):
        moved, direction, _ = singular_translate(fresh, list(fresh.terms), F(1, 8))
        assert direction is not None
        assert all(s._hull is None for s in list(fresh.terms) + list(moved.terms))
    assert built == []


def test_singular_translate_needs_positive_budget_and_low_dim():
    ch = random_chain(3, 2, 2, 1, terms=4)
    with pytest.raises(ApproxError):
        singular_translate(ch, list(ch.terms), F(0))
    top = grid_complex(2, 1).full_chain(REAL)
    with pytest.raises(ApproxError):
        singular_translate(top, list(top.terms), F(1, 4))


def test_disjoint_representative_contract():
    eps = F(1, 10)
    for seed in (0, 7):
        ch = random_chain(seed, 2, 2, 1, terms=5)
        rep, report = disjoint_representative(ch, eps)
        assert rep.boundary() == ch.boundary()
        m = ch.mass_exact()
        bound = m * (1 + eps) + report.epsilon_terminal
        assert (bound - rep.mass_exact()).sign() >= 0
        assert (report.epsilon_terminal - m * F(1, 1000)).sign() <= 0
        assert len(report.stages) >= 1


def test_disjoint_representative_stage_pieces_avoid_carriers():
    ch = random_chain(5, 2, 2, 1, terms=4)
    _, report = disjoint_representative(ch)
    carriers = [s for s in ch.terms if not s.is_degenerate()]
    for record in report.stages:
        for s in record.piece.terms:
            if s.is_degenerate():
                continue
            for ref in carriers:
                assert not overlap_dim_at_least(s, ref, 1)


def stage_inputs(chain, report):
    """The chain each stage decomposed: the input, then each remainder."""
    return [chain] + [record.remainder for record in report.stages[:-1]]


def test_stage_remainder_is_one_prism_over_the_boundary():
    # the remainder is -prism(boundary(x_n), id, g): k terms per boundary
    # term, where two prisms (to f, then to tau) would give up to twice that
    for d, k, seeds in ((2, 1, (0, 3, 7)), (3, 1, (1, 2))):
        for seed in seeds:
            ch = random_chain(seed, d, 2, k, terms=5)
            _, report = disjoint_representative(ch)
            assert len(report.stages) >= 2
            for x, record in zip(stage_inputs(ch, report), report.stages):
                assert len(record.remainder) <= k * len(x.boundary())


def test_stage_piece_is_the_image_under_the_composed_map():
    for d, seed in ((2, 5), (3, 2)):
        ch = random_chain(seed, d, 2, 1, terms=4)
        lo, hi = ch.complex.bbox()
        center = tuple((a + b) / 2 for a, b in zip(lo, hi))
        _, report = disjoint_representative(ch)
        for x, record in zip(stage_inputs(ch, report), report.stages):
            g = AffineMap.homothety(center, record.shrink_ratio)
            if record.direction is not None:
                shift = tuple(record.shift * c for c in record.direction)
                g = AffineMap.translation(shift).compose(g)
            assert record.piece == pushforward(x, g)
            # and the stage identity replays with the stored chains
            assert record.piece + record.remainder + record.filling.boundary() == x


def test_seeded_approximation_reports_pass_every_bound(tmp_path, capsys):
    for seed in (1, 4):
        src = tmp_path / ("chain%d.json" % seed)
        save_chain(random_chain(seed, 2, 2, 1, terms=5), str(src))
        for command, names in (("cycle-extend", {"boundary_zero", "mass_within_bound",
                                                 "defect_within_terminal"}),
                               ("disjoint-rep", {"mass_within_bound",
                                                 "boundary_preserved"})):
            assert main([command, str(src)]) == 0
            out = capsys.readouterr().out
            verdicts = dict(line.split(" = ") for line in out.splitlines()
                            if line.endswith((" = PASS", " = FAIL")))
            assert verdicts.pop("VERDICT") == "PASS"
            assert set(verdicts) == names
            assert set(verdicts.values()) == {"PASS"}


def test_disjoint_representative_of_a_cycle_is_one_stage():
    ch = random_cycle(2, 2, 2, 1)
    assert ch.boundary().is_zero()
    rep, report = disjoint_representative(ch)
    assert rep.boundary().is_zero()
    assert report.epsilon_terminal.is_zero()


def test_disjoint_representative_edge_cases(monkeypatch):
    zero = PolyChain.zero(REAL, 2, 1, complex=grid_complex(2, 2))
    rep, report = disjoint_representative(zero)
    assert rep.is_zero() and not report.stages
    top = grid_complex(2, 1).full_chain(REAL)
    with pytest.raises(ApproxError):
        disjoint_representative(top)
    monkeypatch.setattr(approx, "MAX_STAGES", 1)
    with pytest.raises(ApproxError):
        ch = random_chain(1, 2, 2, 1, terms=4)
        disjoint_representative(ch)


def test_cycle_extension_contract():
    eps = F(1, 10)
    for seed in (4, 9):
        ch = random_chain(seed, 2, 2, 1, terms=5)
        cycle, carriers, defect, report = cycle_extension(ch, eps)
        assert cycle.boundary().is_zero()
        m = ch.mass_exact()
        bound = m * (2 + eps) + defect
        assert (bound - cycle.mass_exact()).sign() >= 0
        assert (defect - report.epsilon_terminal).sign() <= 0
        # on its own carriers the cycle reproduces the input up to the defect
        gap = (ch - cycle.restrict(carriers)).mass_exact()
        assert (gap - defect).sign() <= 0


def test_cycle_extension_rejects_points():
    ch = random_chain(0, 2, 2, 0, terms=3)
    with pytest.raises(ApproxError):
        cycle_extension(ch)


def test_telescope_reassembles_the_limit():
    cx = grid_complex(2, 1)
    loop = cx.full_chain(REAL).boundary()
    family = [loop.scale(1 - F(1, 2 ** h)) for h in range(5)]
    r, s, partials = telescope(family)
    replay = r + s.boundary() if not s.is_zero() else r
    assert replay == family[-1]
    assert len(partials) == len(family)
    assert partials[0] == 0.0


def test_telescope_rejects_slow_families():
    cx = grid_complex(2, 1)
    loop = cx.full_chain(REAL).boundary()
    zero = PolyChain.zero(REAL, 2, 1, complex=cx)
    with pytest.raises(ApproxError):
        telescope([zero, loop])  # flat distance 1 > 1/2
    with pytest.raises(ApproxError):
        telescope([])


def test_measured_shrink_distance_respects_the_bound():
    cx = grid_complex(2, 1)
    loop = cx.full_chain(REAL).boundary()
    lp, bound = measured_shrink_distance(loop, F(1, 2))
    assert lp <= bound + 1e-9
    edge = bottom_edge()
    lp2, bound2 = measured_shrink_distance(edge, F(1, 2))
    assert lp2 <= bound2 + 1e-9
    assert lp2 > 0


def test_measured_shrink_distance_refuses_an_oversized_refinement(monkeypatch):
    # ratio 1/40 on n = 2 asks for the n = 160 refinement of R^3: 24,576,000
    # top simplices, refused before anything builds it
    built = []
    monkeypatch.setattr(approx, "grid_complex", lambda *args: built.append(args))
    chain = random_chain(1, 3, 2, 2)
    assert 160 ** 3 * 6 > MAX_GRID_SIMPLICES
    with pytest.raises(InputLimitError, match=r"shrink refinement: n=160 in R\^3"):
        measured_shrink_distance(chain, F(1, 40))
    assert built == []


def test_translation_directions_stop_at_three_dimensions():
    # four unit-axis segments in R^4: no direction of R^4 is listed, so the
    # translation refuses instead of moving by a 3-vector
    axes = [tuple(F(int(i == j)) for j in range(4)) for i in range(4)]
    chain = PolyChain.build(REAL, 4, 1, [(((F(0),) * 4, a), F(1)) for a in axes])
    with pytest.raises(ApproxError, match="R\\^4"):
        singular_translate(chain, list(chain.terms), F(1, 8))
    with pytest.raises(ApproxError):
        next(approx._directions(4))
    for d in (1, 2, 3):
        assert all(len(v) == d and sum(c * c for c in v) == 1
                   for v in list(approx._directions(d))[:50])


def test_stage_decisions_are_those_of_the_fraction_predicates(monkeypatch):
    # the integer predicates against the Fraction ones they replaced
    from test_geometry import ref_is_tangent, ref_overlap_dim_at_least

    def run_all():
        out = []
        for d, seeds in ((2, range(20)), (3, range(10))):
            for seed in seeds:
                ch = random_chain(seed, d, 2, 1 + seed % (d - 1), terms=4)
                rep, rep_report = disjoint_representative(ch)
                cycle, _, defect, report = cycle_extension(ch)
                out.append((rep, rep_report.stages, rep_report.epsilon_terminal,
                            cycle, defect, report.stages))
        return out

    integer = run_all()
    calls = []

    def counted(f):
        return lambda *args: calls.append(f) or f(*args)
    monkeypatch.setattr(approx, "is_tangent", counted(ref_is_tangent))
    monkeypatch.setattr(approx, "overlap_dim_at_least", counted(ref_overlap_dim_at_least))
    fraction = run_all()
    assert {ref_is_tangent, ref_overlap_dim_at_least} <= set(calls)
    for got, expected in zip(integer, fraction):
        assert [(r.shrink_ratio, r.direction, r.shift) for r in got[1]] == \
            [(r.shrink_ratio, r.direction, r.shift) for r in expected[1]]
        assert got == expected
