"""Flat norm LP: frozen values, witness replay, dual-route agreement."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from polychain.chainfile import InputLimitError
from polychain.chains import ChainError, PolyChain
from polychain.flatnorm import _flat_program, flat_norm, flat_norm_oracle
from polychain.gen import random_chain
from polychain.geometry import det, solve_linear
from polychain.grid import embed_on, grid_complex
from polychain.groups import CIRCLE, INTEGER, REAL
from polychain.radicals import RadicalSum
import polychain
from polychain import chainfile, simplex_lp

F = Fraction


def unit_square_loop():
    cx = grid_complex(2, 1)
    return cx.full_chain(REAL).boundary()


def test_square_loop_fills_to_area_one():
    # perimeter 4 versus area 1: the filling wins outright
    loop = unit_square_loop()
    w = flat_norm(loop)
    assert abs(w.value - 1) < 1e-7
    assert w.residual.is_zero()
    assert abs(float(w.filling.mass_exact()) - 1) < 1e-12

    exact = flat_norm_oracle(loop)
    assert exact.value_exact.as_rational() == 1
    assert exact.residual.is_zero()


def test_lone_diagonal_keeps_its_radical_mass():
    # filling the hypotenuse costs 1/2 area + 2 residual legs = 5/2 > sqrt(2)
    cx = grid_complex(2, 1)
    diag = None
    for s in cx.simplices(1):
        spans = [len({v[i] for v in s.vertices}) for i in range(2)]
        if spans == [2, 2]:
            diag = s
    assert diag is not None
    ch = PolyChain.build(REAL, 2, 1, [(diag.vertices, F(1))], complex=cx)
    w = flat_norm_oracle(ch)
    assert (w.value_exact - RadicalSum.sqrt_rational(2)).is_zero()
    assert w.filling.is_zero()


def test_opposite_charges_transport_along_an_edge():
    # two unit charges half a cell apart: move one, cost = edge length
    cx = grid_complex(2, 2)
    a = ((F(0), F(0)),)
    b = ((F(1, 2), F(0)),)
    ch = PolyChain.build(REAL, 2, 0, [(a, F(1)), (b, F(-1))], complex=cx)
    w = flat_norm_oracle(ch)
    assert w.value_exact.as_rational() == F(1, 2)
    assert w.residual.is_zero()
    assert w.filling.mass_exact().as_rational() == F(1, 2)


def test_lone_charge_cannot_be_cancelled():
    cx = grid_complex(2, 1)
    ch = PolyChain.build(REAL, 2, 0, [(((F(0), F(0)),), F(1))], complex=cx)
    w = flat_norm_oracle(ch)
    assert w.value_exact.as_rational() == 1


def test_top_dimension_has_no_filling():
    cx = grid_complex(2, 2)
    ch = cx.cube_chain(REAL, (1, 0), F(3, 4))
    w = flat_norm(ch)
    assert w.filling.is_zero()
    assert abs(w.value - 3 / 16) < 1e-9
    exact = flat_norm_oracle(ch)
    assert exact.value_exact.as_rational() == F(3, 16)


def test_zero_chain_has_zero_norm():
    cx = grid_complex(2, 1)
    ch = PolyChain.zero(REAL, 2, 1, complex=cx)
    w = flat_norm_oracle(ch)
    assert w.value_exact.is_zero()
    assert w.residual.is_zero() and w.filling.is_zero()


def test_witness_replays_exactly():
    for seed in range(6):
        ch = random_chain(seed, 2, 2, 1, terms=5)
        for w in (flat_norm(ch), flat_norm_oracle(ch)):
            replay = w.residual + w.filling.boundary()
            assert replay == ch


def test_routes_agree_on_seeded_chains():
    for d, n, k, seeds in ((2, 2, 1, range(8)), (3, 1, 1, range(4)),
                           (3, 1, 2, range(4)), (2, 2, 0, range(4))):
        for seed in seeds:
            ch = random_chain(seed, d, n, k, terms=5)
            lp = flat_norm(ch)
            oracle = flat_norm_oracle(ch)
            assert abs(lp.value - float(oracle.value_exact)) < 1e-7
            # float route never reports below the exact optimum
            assert lp.value >= float(oracle.value_exact) - 1e-9


def test_norm_never_exceeds_mass():
    for d, n, k, seeds in ((2, 2, 1, range(8)), (3, 1, 1, range(3)), (3, 1, 2, range(3))):
        for seed in seeds:
            ch = random_chain(seed, d, n, k, terms=6)
            w = flat_norm_oracle(ch)
            assert (ch.mass_exact() - w.value_exact).sign() >= 0


def test_refinement_never_increases_the_norm():
    fine = grid_complex(2, 4)
    for seed in range(3):
        ch = random_chain(seed, 2, 2, 1, terms=5)
        coarse = flat_norm_oracle(ch).value_exact
        refined = flat_norm_oracle(embed_on(fine, ch)).value_exact
        assert (refined - coarse).sign() <= 0


def test_triangle_inequality():
    for d, n, k in ((2, 2, 1), (3, 1, 1), (3, 1, 2)):
        for seed in range(3):
            a = random_chain(2 * seed, d, n, k, terms=4)
            b = random_chain(2 * seed + 1, d, n, k, terms=4)
            both = flat_norm_oracle(a + b).value_exact
            apart = flat_norm_oracle(a).value_exact + flat_norm_oracle(b).value_exact
            assert (both - apart).sign() <= 0


def test_norm_is_invariant_under_grid_symmetries():
    # the Kuhn grid of the unit box is mapped onto itself by every
    # coordinate permutation and by the central reflection x -> 1 - x
    for d, n, k in ((2, 2, 1), (3, 1, 1)):
        maps = [lambda v, p=p: tuple(v[i] for i in p)
                for p in list(permutations(range(d)))[1:]]
        maps.append(lambda v: tuple(1 - x for x in v))
        for seed in range(3):
            ch = random_chain(seed, d, n, k, terms=5)
            value = flat_norm_oracle(ch).value_exact
            for f in maps:
                items = [(tuple(map(f, s.vertices)), c) for s, c in ch.terms.items()]
                image = PolyChain.build(ch.group, d, k, items, complex=ch.complex)
                assert image != ch
                assert flat_norm_oracle(image).value_exact == value


def test_integer_chains_allowed_circle_rejected():
    cx = grid_complex(2, 1)
    ints = cx.full_chain(INTEGER).boundary()
    assert flat_norm_oracle(ints).value_exact.as_rational() == 1
    circ = cx.full_chain(CIRCLE, F(1, 3))
    with pytest.raises(ChainError):
        flat_norm(circ)


def test_complex_free_chain_rejected():
    ch = PolyChain.build(REAL, 2, 1, [(((F(0), F(0)), (F(1), F(0))), F(1))])
    with pytest.raises(ChainError):
        flat_norm(ch)


def test_flat_distance_of_equal_chains_is_zero():
    cx = grid_complex(2, 2)
    a = cx.full_chain(REAL)
    parts = None
    for cube in cx.cubes():
        piece = cx.cube_chain(REAL, cube)
        parts = piece if parts is None else parts + piece
    w = flat_norm_oracle(a - parts)
    assert w.value_exact.is_zero()


def test_flat_distance_between_nearby_loops():
    # concentric loops: the annulus between them is the cheapest filling
    cx = grid_complex(2, 2)
    outer = cx.full_chain(REAL).boundary()
    inner = None
    for cube in cx.cubes():
        piece = cx.cube_chain(REAL, cube)
        inner = piece if inner is None else inner + piece
    w = flat_norm_oracle(outer - inner.boundary())
    assert w.value_exact.is_zero()  # same loop, two build routes

    one_cell = cx.cube_chain(REAL, (0, 0)).boundary()
    w2 = flat_norm_oracle(outer - one_cell)
    # fill the L-shaped difference: three cells of area 1/4
    assert w2.value_exact.as_rational() == F(3, 4)


def test_certificate_referee_rejects_a_wrong_basis():
    loop = unit_square_loop()
    cx = loop.complex
    nr = cx.count(1)
    nq = cx.count(2)
    a_rows = [[F(0)] * (2 * nr + 2 * nq) for _ in range(nr)]
    p = cx.chain_vector(loop)
    signs = [1 if v >= 0 else -1 for v in p]
    for i in range(nr):
        a_rows[i][i] = F(signs[i])
        a_rows[i][nr + i] = F(-signs[i])
    for j, row in enumerate(cx.incidence(2)):
        for face, sign in row:
            v = F(signs[face] * sign)
            a_rows[face][2 * nr + j] = v
            a_rows[face][2 * nr + nq + j] = -v
    b = [abs(F(v)) for v in p]
    vol1 = [s.volume() for s in cx.simplices(1)]
    vol2 = [s.volume() for s in cx.simplices(2)]
    c = vol1 + vol1 + list(vol2) + list(vol2)
    starting = [i if p[i] >= 0 else nr + i for i in range(nr)]
    _, _, final = simplex_lp.solve_exact(a_rows, b, c, starting)
    assert simplex_lp.check_certificate(a_rows, b, c, final)
    # the all-slack starting basis keeps the full perimeter: not optimal
    assert not simplex_lp.check_certificate(a_rows, b, c, starting)


def cost_of(c, x):
    return sum((cj * xj for cj, xj in zip(c, x) if xj), RadicalSum())


def feasible_bases(a_rows, b, c):
    """(basis, basic solution, objective) of every feasible basis of
    min c.x, A x = b, x >= 0, enumerated in exact arithmetic."""
    m, n = len(a_rows), len(a_rows[0])
    out = []
    for basis in combinations(range(n), m):
        bmat = [[row[j] for j in basis] for row in a_rows]
        if det(bmat) == 0:
            continue
        xb = solve_linear(bmat, b)[0]
        if all(v >= 0 for v in xb):
            x = [F(0)] * n
            for j, v in zip(basis, xb):
                x[j] = v
            out.append((list(basis), x, cost_of(c, x)))
    return out


def hand_made_program(rng, costs):
    """A = [I | N] with N drawn from 0, +-1, 2, 3 and -2, a positive
    rational b, and positive costs drawn from `costs` (so the program is
    bounded); the slacks 0..m-1 are the identity starting basis."""
    m, extra = 3, 4
    a_rows = [[F(int(i == r)) for i in range(m)] + [F(rng.choice((0, 0, 1, -1, 2, 3, -2)))
                                                 for _ in range(extra)]
              for r in range(m)]
    b = [F(rng.randint(1, 12), rng.randint(1, 5)) for _ in range(m)]
    return a_rows, b, [rng.choice(costs) for _ in range(m + extra)]


def check_against_brute_force(a_rows, b, c):
    """solve_exact reaches the least objective of any feasible basis, and
    check_certificate accepts its basis and rejects every worse one.
    Returns the final basis matrix's determinant and the number of worse
    feasible bases."""
    x, obj, final = simplex_lp.solve_exact(a_rows, b, c, range(len(a_rows)))
    assert all(v >= 0 for v in x)
    assert [sum(a * v for a, v in zip(row, x)) for row in a_rows] == b
    assert obj == cost_of(c, x)
    feasible = feasible_bases(a_rows, b, c)
    assert obj == min(value for _, _, value in feasible)
    assert simplex_lp.check_certificate(a_rows, b, c, final)
    worse = [basis for basis, _, value in feasible if value > obj]
    for basis in worse:
        assert not simplex_lp.check_certificate(a_rows, b, c, basis)
    return det([[row[j] for j in final] for row in a_rows]), len(worse)


def test_exact_route_pivots_through_fractions_to_the_brute_force_optimum():
    # the flat programs measured pivot only on +-1, so these hand-made
    # programs are what takes solve_exact and its certificate through
    # Fraction entries
    root2, root3 = RadicalSum.sqrt_rational(2), RadicalSum.sqrt_rational(3)
    costs = (F(1, 2), F(3), F(7, 4), root2, root3 / 2, root2 + F(1, 3),
             root3 - root2 / 2)
    rng = random.Random(7)
    dets, worse = [], 0
    for _ in range(40):
        d, w = check_against_brute_force(*hand_made_program(rng, costs))
        dets.append(abs(d))
        worse += w
    # some final bases are not unimodular: a pivot other than +-1 was taken
    assert sum(d > 1 for d in dets) >= 5 and worse >= 40


def test_exact_route_folds_radicands_that_depend_across_columns():
    root2, root3 = RadicalSum.sqrt_rational(2), RadicalSum.sqrt_rational(3)
    root20402 = RadicalSum.sqrt_rational(20402)   # 101*sqrt(2), kept as key 20402
    assert list(root20402.terms) == [20402]
    three = F(1, 2) + root2 / 3 + root3 / 5       # radicands 1, 2 and 3
    costs = (root2, root20402 / 101, root20402 / 100, three, root3 + 1, F(2, 3))
    rng = random.Random(11)
    for _ in range(30):
        check_against_brute_force(*hand_made_program(rng, costs))
    # two equal columns priced sqrt(2) and sqrt(20402)/101: once one is
    # basic the other's reduced cost is exactly zero, which only folding
    # the radicands into one key decides
    a_rows = [[F(1), F(0), F(1), F(1)], [F(0), F(1), F(2), F(2)]]
    b = [F(5, 2), F(5)]
    c = [F(3), F(4), root2, root20402 / 101]
    x, obj, final = simplex_lp.solve_exact(a_rows, b, c, [0, 1])
    assert obj == cost_of(c, x) == root2 * F(5, 2)
    assert simplex_lp.check_certificate(a_rows, b, c, final)
    assert check_against_brute_force(a_rows, b, c)[1] > 0


def test_routes_agree_on_larger_grids():
    for d, n, k in ((2, 3, 1), (2, 4, 1), (3, 2, 2)):
        for seed in range(5):
            ch = random_chain(seed, d, n, k, terms=5)
            lp = flat_norm(ch)
            oracle = flat_norm_oracle(ch)
            assert abs(lp.value - float(oracle.value_exact)) < 1e-7
            for w in (lp, oracle):
                assert w.residual + w.filling.boundary() == ch


def test_solve_float_reports_unbounded_and_infeasible_programs():
    # min -x1 s.t. x0 - x1 = 1: x1 can grow without limit
    with pytest.raises(simplex_lp.Unbounded):
        simplex_lp.solve_float(np.array([[1.0, -1.0]]), [1.0], [0.0, -1.0])
    # x0 + x1 = -1 has no nonnegative solution
    with pytest.raises(simplex_lp.LPError) as info:
        simplex_lp.solve_float(np.array([[1.0, 1.0]]), [-1.0], [1.0, 1.0])
    assert not isinstance(info.value, simplex_lp.Unbounded)


def test_solve_float_matches_linprog_highs_ds_bit_for_bit():
    # solve_float calls scipy's private HiGHS binding with linprog's
    # "highs-ds" options; a scipy that moves the binding or changes those
    # options fails here
    from scipy.optimize import linprog
    from scipy.sparse import csr_array

    for d, n, k in ((2, 10, 1), (2, 2, 1), (3, 1, 1), (3, 1, 2), (2, 6, 0), (2, 5, 2),
                    (3, 2, 1), (3, 3, 1)):
        for seed in (1, 2, 3):
            prog = _flat_program(random_chain(seed, d, n, k))
            a = np.zeros((prog.nr, len(prog.c)))
            a[prog.rows, prog.cols] = prog.vals
            b = np.array([float(v) for v in prog.b])
            c = np.array([float(v) for v in prog.c])
            x, obj = simplex_lp.solve_float(a, b, c)
            ref = linprog(c, A_eq=csr_array(a), b_eq=b, bounds=(0, None), method="highs-ds")
            assert ref.status == 0
            assert x.dtype == ref.x.dtype and x.tobytes() == ref.x.tobytes()
            assert type(obj) is float and obj.hex() == float(ref.fun).hex()


def test_float_route_limit_counts_the_dense_program_entries(monkeypatch):
    # rows x (2 rows + 2 (k+1)-cells) on the (2, 2) grid: 16 x (32 + 16)
    # for a 1-chain, and 8 x 16 for a 2-chain, which has no (k+1)-cells
    for k, entries in ((1, 16 * 48), (2, 8 * 16)):
        chain = random_chain(1, 2, 2, k)
        monkeypatch.setattr(chainfile, "MAX_FLOAT_LP_ENTRIES", entries)
        assert flat_norm(chain).value > 0
        monkeypatch.setattr(chainfile, "MAX_FLOAT_LP_ENTRIES", entries - 1)
        with pytest.raises(InputLimitError, match="MAX_FLOAT_LP_ENTRIES = %d" % (entries - 1)):
            flat_norm(chain)


def test_import_does_not_load_the_lp_solver():
    # scipy.optimize takes far longer to import than most commands run
    src = os.path.dirname(os.path.dirname(polychain.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, polychain; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_commands_without_an_lp_load_neither_numpy_nor_scipy(tmp_path):
    path = str(tmp_path / "top.json")
    src = os.path.dirname(os.path.dirname(polychain.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "\n".join([
        "import contextlib, io, sys",
        "import polychain.cli as cli",
        "from polychain import REAL, chainfile, flat_norm, gen, grid_complex",
        "chainfile.save_chain(gen.random_circle_top(3, 2, 3), %r)" % path,
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert cli.main(['lift', %r]) == 0" % path,
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))",
        "w = flat_norm(grid_complex(2, 1).full_chain(REAL).boundary())",
        "print(w.value, 'numpy' in sys.modules)",  # the unit square fills with area 1
    ])
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.split("\n")[:2] == ["[]", "1.0 True"]
