"""Circle-to-real lifting: thresholds, loop cancellation, grid fill."""

from fractions import Fraction
from random import Random

import pytest

from polychain import lifting
from polychain.chains import PolyChain
from polychain.gen import (random_chain, random_circle_chain, random_circle_top,
                           random_integral_boundary_chain)
from polychain.radicals import RadicalSum
from polychain.grid import grid_complex
from polychain.groups import CIRCLE, REAL
from polychain.lifting import (LiftError, br_correct, fill_boundary,
                               lift_coefficientwise, lift_flat,
                               lift_top_optimal, lift_top_threshold,
                               loop_cancel, project_chain, threshold_profile)

F = Fraction


def two_cell_chain():
    # side-by-side 1/2 cells with coefficients 3/10 and 7/10
    cx = grid_complex(2, 2)
    return (cx.cube_chain(CIRCLE, (0, 0), F(3, 10))
            + cx.cube_chain(CIRCLE, (1, 0), F(7, 10)))


def test_projection_shrinks_and_commutes_with_boundary():
    for seed in range(5):
        ch = random_chain(seed, 2, 2, 1, terms=5)
        pi = project_chain(ch)
        assert (ch.mass_exact() - pi.mass_exact()).sign() >= 0
        assert pi.boundary() == project_chain(ch.boundary())


def test_coefficientwise_lift_round_trips():
    for seed in range(5):
        ch = random_circle_chain(seed, 2, 2, 1)
        lifted = lift_coefficientwise(ch)
        assert lifted.group is REAL
        assert project_chain(lifted) == ch
        assert (lifted.mass_exact() - ch.mass_exact()).is_zero()


def test_threshold_semantics_and_window():
    ch = two_cell_chain()
    low = lift_top_threshold(ch, F(1, 2))
    vals = sorted(low.terms.values())
    assert vals[0] == F(-3, 10) and vals[-1] == F(3, 10)
    with pytest.raises(LiftError):
        lift_top_threshold(ch, F(1, 4))
    with pytest.raises(LiftError):
        lift_top_threshold(ch, F(3, 4))
    with pytest.raises(LiftError):
        lift_top_threshold(ch, F(3, 10))  # collides with a coefficient


def test_two_cell_profile_matches_hand_computation():
    # canonical storage gives the two triangles of a cell coefficients c
    # and 1-c, so only the middle window lifts each cell uniformly; the
    # outer windows expose both cell diagonals (jump 1, length sqrt(2)/2)
    # and cost 2 + sqrt(2), while the middle window costs 3 outer
    # half-faces per cell plus the shared-face gap: 9/20 + 9/20 + 6/20
    profile = threshold_profile(two_cell_chain())
    assert profile.breakpoints == (F(3, 10), F(7, 10))
    diag = RadicalSum.from_rational(2) + RadicalSum.sqrt_rational(2)
    masses = [m for _, _, _, m in profile.intervals]
    assert (masses[0] - diag).is_zero()
    assert masses[1].as_rational() == F(6, 5)
    assert (masses[2] - diag).is_zero()
    theta, best = profile.minimum
    assert theta == F(1, 2)
    assert best.as_rational() == F(6, 5)
    # (2+sqrt(2))/20 + (6/5)(2/5) + (2+sqrt(2))/20
    expect = (RadicalSum.from_rational(F(17, 25))
              + RadicalSum.sqrt_rational(2) * F(1, 10))
    assert (profile.integral - expect).is_zero()


def test_profile_tie_prefers_the_smaller_threshold():
    cx = grid_complex(2, 2)
    ch = cx.cube_chain(CIRCLE, (0, 0), F(1, 2))
    profile = threshold_profile(ch)
    assert profile.breakpoints == (F(1, 2),)
    theta, _ = profile.minimum
    assert theta == F(3, 8)  # both intervals tie at mass 1


def brute_force_profile(chain):
    """The profile with every interval lifted, bounded and measured afresh
    at its midpoint: the oracle for threshold_profile's sweep."""
    lo, hi = F(1, 4), F(3, 4)
    breaks = sorted({c for c in chain.terms.values() if lo < c < hi})
    points = [lo] + breaks + [hi]
    intervals = []
    integral = RadicalSum()
    best = None
    for a, b in zip(points, points[1:]):
        mid = (a + b) / 2
        mass = lift_top_threshold(chain, mid).boundary().mass_exact()
        intervals.append((a, b, mid, mass))
        integral = integral + mass * (b - a)
        if best is None or (mass - best[1]).sign() < 0:
            best = (mid, mass)
    return tuple(breaks), intervals, integral, best


def assert_profile_matches_brute_force(chain):
    profile = threshold_profile(chain)
    breaks, intervals, integral, best = brute_force_profile(chain)
    assert profile.breakpoints == breaks
    assert len(profile.intervals) == len(intervals)
    for (a, b, mid, mass), expect in zip(profile.intervals, intervals):
        assert (a, b, mid) == expect[:3]
        assert mass.terms == expect[3].terms and str(mass) == str(expect[3])
    assert profile.integral.terms == integral.terms
    assert str(profile.integral) == str(integral)
    assert profile.minimum[0] == best[0] and str(profile.minimum[1]) == str(best[1])


def test_profile_sweep_matches_per_interval_lifts_on_seeded_chains():
    for d, n in ((1, 6), (2, 3), (2, 5), (3, 2)):
        for seed in range(12):
            assert_profile_matches_brute_force(random_circle_top(seed, d, n))


def test_profile_sweep_matches_per_interval_lifts_on_window_edges():
    # coefficients exactly at 1/4, 1/2 and 3/4, repeated values, and none
    cx = grid_complex(2, 3)
    cells = [(0, 0), (1, 0), (2, 1), (1, 1), (0, 2), (2, 2)]
    values = [F(1, 4), F(1, 2), F(3, 4), F(1, 2), F(1, 4), F(3, 4)]
    edges = PolyChain.zero(CIRCLE, 2, 2, cx)
    for cube, v in zip(cells, values):
        edges = edges + cx.cube_chain(CIRCLE, cube, v)
    assert threshold_profile(edges).breakpoints == (F(1, 2),)
    for ch in (edges, two_cell_chain(), cx.full_chain(CIRCLE, F(1, 3)),
               PolyChain.zero(CIRCLE, 2, 2, cx), PolyChain.zero(CIRCLE, 1, 1, grid_complex(1, 4)),
               grid_complex(3, 1).full_chain(CIRCLE, F(1, 2))):
        assert_profile_matches_brute_force(ch)
    empty = threshold_profile(PolyChain.zero(CIRCLE, 2, 2, cx))
    assert empty.breakpoints == () and empty.integral.is_zero()
    assert [iv[:3] for iv in empty.intervals] == [(F(1, 4), F(3, 4), F(1, 2))]


def test_profile_sweep_matches_per_interval_lifts_on_coprime_denominators():
    # the sweep's common denominator is lcm(4, ...): sevenths and elevenths
    # share no factor with 4, and values exactly at 1/4 and 3/4 sit on the
    # window's edges, where every threshold keeps 1/4 and lifts 3/4 to -1/4
    sevenths, elevenths = [F(k, 7) for k in range(1, 7)], [F(k, 11) for k in range(1, 11)]
    pools = (sevenths, elevenths, sevenths + [F(1, 4), F(3, 4)],
             [F(1, 4), F(3, 4), F(3, 11), F(5, 11), F(8, 11), F(2, 7)])
    for d, n in ((1, 6), (2, 3), (3, 2)):
        cx = grid_complex(d, n)
        tops = cx.count(d)
        for seed, pool in enumerate(pools):
            rng = Random(seed)
            ids = rng.sample(range(tops), max(1, 2 * tops // 3))
            chain = cx.chain_from_ids(CIRCLE, d, [(i, rng.choice(pool)) for i in ids])
            assert_profile_matches_brute_force(chain)
        edges = cx.chain_from_ids(CIRCLE, d, [(i, (F(1, 4), F(3, 4))[i % 2]) for i in range(tops)])
        assert threshold_profile(edges).breakpoints == ()
        assert_profile_matches_brute_force(edges)


def test_optimal_lift_verifies_its_bounds():
    ch = two_cell_chain()
    theta, lifted, profile = lift_top_optimal(ch)
    assert theta == F(1, 2)
    assert project_chain(lifted) == ch
    assert lifted.boundary().mass_exact().as_rational() == F(6, 5)
    b = ch.boundary().mass_exact()
    assert (profile.integral - b * F(5, 2)).sign() <= 0

    for seed in range(5):
        top = random_circle_top(seed, 2, 2)
        if top.is_zero():
            continue
        theta, lifted, _ = lift_top_optimal(top)
        assert project_chain(lifted) == top
        assert (lifted.mass_exact() - top.mass_exact() * 3).sign() <= 0
        assert (lifted.boundary().mass_exact()
                - top.boundary().mass_exact() * 5).sign() <= 0


@pytest.mark.xfail(strict=True, raises=LiftError,
                   reason="the threshold is applied to each stored coefficient, not to the "
                          "value on the positive orientation, which Kuhn parity alternates")
def test_optimal_lift_of_a_constant_top_chain_meets_the_profile_bound():
    # the constant 9/20 on every positively oriented cell: its lift at any
    # threshold should be the constant 9/20 or -11/20, but the cells stored
    # with negative orientation hold 11/20, so off (9/20, 11/20) the lift
    # jumps across every diagonal and the profile integral (5.64) passes
    # (5/2) mass(boundary) = 4.5
    chain = grid_complex(2, 4).full_chain(CIRCLE, F(9, 20))
    lift_top_optimal(chain)


def test_loop_cancel_zeroes_a_half_loop():
    cx = grid_complex(2, 1)
    loop = cx.full_chain(REAL).boundary().scale(F(1, 2))
    out, report = loop_cancel(loop)
    assert out.is_zero()
    assert report.passes == 1


def test_loop_cancel_contract_on_seeded_chains():
    for seed in range(6):
        ch = random_integral_boundary_chain(seed, 2, 2, 1)
        out, report = loop_cancel(ch)
        assert all(c.denominator == 1 for c in out.terms.values())
        assert out.boundary() == ch.boundary()
        assert (out.mass_exact() - ch.mass_exact()).sign() <= 0
        assert report.passes <= len(ch.terms) + 1


def test_loop_cancel_computes_each_mass_and_boundary_once(monkeypatch):
    # counts the computations, not the calls the chain's memo answers
    measure, build_boundary = PolyChain._measure, PolyChain._build_boundary
    for seed in range(6):
        ch = random_integral_boundary_chain(seed, 2, 3, 1)
        calls = {"mass": 0, "boundary": 0}

        def counting_mass(self):
            calls["mass"] += 1
            return measure(self)

        def counting_boundary(self):
            calls["boundary"] += 1
            return build_boundary(self)

        with monkeypatch.context() as m:
            m.setattr(PolyChain, "_measure", counting_mass)
            m.setattr(PolyChain, "_build_boundary", counting_boundary)
            out, report = loop_cancel(ch)
        assert out.boundary() == ch.boundary() and report.passes >= 1
        # the input's mass, then one per pass; the input's boundary, then the output's
        assert calls == {"mass": report.passes + 1, "boundary": 2}


def _dfs_cycle(frac_terms):
    """The depth-first search that `lifting._find_cycle` replaced, kept as
    its reference: the least vertex's first back edge closes the loop."""
    adj: dict = {}
    for s in frac_terms:
        a, b = s.vertices
        adj.setdefault(a, []).append((b, s))
        adj.setdefault(b, []).append((a, s))
    for v in adj:
        adj[v].sort(key=lambda t: t[0])
    root = min(adj)
    path = [(root, None)]
    in_path = {root: 0}
    iters = [iter(adj[root])]
    visited = {root}
    while iters:
        advanced = False
        for w, s in iters[-1]:
            if len(path) >= 2 and w == path[-2][0]:
                continue
            if w in in_path:
                start = in_path[w]
                cycle = [(path[i][0], path[i][1]) for i in range(start + 1, len(path))]
                return [(w, None)] + cycle + [(w, s)]
            if w not in visited:
                visited.add(w)
                in_path[w] = len(path)
                path.append((w, s))
                iters.append(iter(adj[w]))
                advanced = True
                break
        if not advanced:
            vtx, _ = path.pop()
            del in_path[vtx]
            iters.pop()
    raise LiftError("fractional subgraph unexpectedly acyclic")


CYCLE_GRIDS = ((2, 2), (2, 3), (2, 5), (3, 1), (3, 2))


def test_cycle_walk_matches_the_depth_first_search():
    for d, n in CYCLE_GRIDS:
        for seed in range(60):
            ch = random_integral_boundary_chain(seed, d, n, 1)
            frac = {s: c for s, c in ch.terms.items() if c.denominator != 1}
            assert lifting._find_cycle(frac) == _dfs_cycle(frac), (d, n, seed)


def test_cycle_walk_matches_the_search_on_every_loop_cancel_pass(monkeypatch):
    walk = lifting._find_cycle
    passes = []

    def checked(frac):
        cycle = walk(frac)
        assert cycle == _dfs_cycle(frac)
        passes.append(len(cycle))
        return cycle
    monkeypatch.setattr(lifting, "_find_cycle", checked)
    for d, n in CYCLE_GRIDS:
        for seed in range(8):
            loop_cancel(random_integral_boundary_chain(seed, d, n, 1, terms=8))
    assert len(passes) > 40


def test_cycle_walk_refuses_a_dangling_edge():
    verts = ((F(0), F(0)), (F(1), F(0)))
    dangling = PolyChain.build(REAL, 2, 1, [(verts, F(1, 3))])
    with pytest.raises(LiftError, match="unexpectedly acyclic"):
        lifting._find_cycle(dangling.terms)


def test_loop_cancel_rejects_bad_inputs():
    cx = grid_complex(2, 1)
    verts = ((F(0), F(0)), (F(1), F(0)))
    dangling = PolyChain.build(REAL, 2, 1, [(verts, F(1, 3))], complex=cx)
    with pytest.raises(LiftError):
        loop_cancel(dangling)  # fractional boundary multiplicities
    with pytest.raises(LiftError):
        loop_cancel(cx.full_chain(REAL))  # not a 1-chain


def test_fill_recovers_a_cell_indicator():
    for d, n, cube in ((2, 2, (0, 1)), (3, 1, (0, 0, 0))):
        cx = grid_complex(d, n)
        cell = cx.cube_chain(CIRCLE, cube, F(1, 3))
        fill = fill_boundary(cell.boundary())
        assert fill == cell


def test_fill_of_zero_cycle_is_zero():
    cx = grid_complex(2, 2)
    zero = PolyChain.zero(CIRCLE, 2, 1, complex=cx)
    assert fill_boundary(zero).is_zero()


def test_fill_round_trips_random_tops():
    for d, n in ((1, 6), (2, 3), (3, 2)):
        for seed in range(4):
            top = random_circle_top(seed, d, n)
            assert fill_boundary(top.boundary()) == top, (d, n, seed)


def test_fill_rejects_bad_inputs():
    cx = grid_complex(2, 2)
    with pytest.raises(LiftError):
        fill_boundary(cx.full_chain(CIRCLE, F(1, 3)))  # top, not codim 1
    with pytest.raises(LiftError):
        fill_boundary(cx.full_chain(REAL).boundary())  # real coefficients


def test_br_correct_loop_route():
    for seed in range(4):
        ch = random_integral_boundary_chain(seed, 2, 2, 1)
        out, ratio = br_correct(ch)
        assert ratio == 1
        assert all(c.denominator == 1 for c in out.terms.values())
        assert out.boundary() == ch.boundary()
        assert (out.mass_exact() - ch.mass_exact()).sign() <= 0


def test_br_correct_fill_route():
    for seed in range(4):
        ch = random_integral_boundary_chain(seed, 3, 1, 2)
        out, ratio = br_correct(ch, route="fill")
        assert ratio == 6
        assert all(c.denominator == 1 for c in out.terms.values())
        assert out.boundary() == ch.boundary()
        assert (out.mass_exact() - ch.mass_exact() * 6).sign() <= 0


def test_br_correct_fill_route_builds_the_input_boundary_once(monkeypatch):
    # counts the boundaries built, not the calls the chain's memo answers
    build_boundary = PolyChain._build_boundary
    for d, n in ((3, 1), (2, 3)):
        for seed in range(3):
            ch = random_integral_boundary_chain(seed, d, n, d - 1)
            calls = []

            def counting_boundary(self):
                calls.append(self)
                return build_boundary(self)

            with monkeypatch.context() as m:
                m.setattr(PolyChain, "_build_boundary", counting_boundary)
                out, _ = br_correct(ch, route="fill")
            assert out.boundary() == ch.boundary() and out != ch
            # the input's, the fill's (checked by fill_boundary, then bounded
            # in lift_top_optimal), the lifted fill's, the output's
            assert len(calls) == 4
            assert sum(c is ch for c in calls) == 1


def test_br_correct_middle_dimensions_unsupported():
    ch = random_chain(0, 3, 1, 1, terms=4)
    with pytest.raises(LiftError):
        br_correct(ch, route="fill")  # k = 1 but d - 1 = 2


def test_lift_flat_curves():
    for seed in range(4):
        ch = random_circle_chain(seed, 2, 2, 1)
        lifted, report = lift_flat(ch, F(1, 10))
        assert project_chain(lifted) == ch
        bound = ch.mass_exact() * F(44, 10)  # 4 * (1 + 1/10)
        assert (lifted.mass_exact() - bound).sign() <= 0
        assert report.d_used == 1


def test_lift_flat_codimension_one():
    for seed in range(3):
        ch = random_circle_chain(seed, 3, 1, 2)
        lifted, report = lift_flat(ch, F(1, 10))
        assert project_chain(lifted) == ch
        bound = ch.mass_exact() * F(154, 10)  # 14 * (1 + 1/10)
        assert (lifted.mass_exact() - bound).sign() <= 0
        assert report.d_used == 6


def test_lift_flat_cycles():
    ch = random_circle_chain(3, 2, 2, 1, cycle=True)
    assert ch.boundary().is_zero()
    lifted, _ = lift_flat(ch)
    assert project_chain(lifted) == ch
    assert lifted.boundary().is_zero()


def test_lift_flat_extreme_dimensions_are_isometric():
    pts = random_circle_chain(1, 2, 2, 0)
    lifted, report = lift_flat(pts)
    assert report.route == "coefficientwise"
    assert (lifted.mass_exact() - pts.mass_exact()).is_zero()
    top = random_circle_top(2, 2, 2)
    lifted_top, report_top = lift_flat(top)
    assert (lifted_top.mass_exact() - top.mass_exact()).is_zero()
    assert project_chain(lifted_top) == top


def test_lift_flat_validates_inputs():
    with pytest.raises(LiftError):
        lift_flat(random_chain(0, 2, 2, 1))  # real, not circle
    with pytest.raises(LiftError):
        lift_flat(random_circle_chain(0, 2, 2, 1), epsilon=0)
    free = PolyChain.build(CIRCLE, 2, 1,
                           [(((F(0), F(0)), (F(1), F(0))), F(1, 3))])
    with pytest.raises(LiftError):
        lift_flat(free)  # needs a complex to rebuild against
