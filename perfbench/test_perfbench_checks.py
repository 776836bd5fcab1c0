"""The benchmark's reference checks accept real outputs and reject tampered ones."""

import dataclasses
import json
import os
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import checks  # noqa: E402
import refcheck as ref  # noqa: E402
import workloads  # noqa: E402
from polychain.chains import PolyChain  # noqa: E402

F = Fraction


def with_coeff(chain, change):
    """The chain with its first term's coefficient changed by `change`."""
    terms = dict(chain.terms)
    s = min(terms, key=lambda t: t.vertices)
    terms[s] = terms[s] + change
    return PolyChain(chain.group, chain.ambient_dim, chain.dim, terms, chain.complex)


def run_job(name, index, tmp_path):
    w = workloads.WORKLOADS[name](str(tmp_path))
    inp = w.inputs(3, index)
    return w, inp, w.run(inp)


# -- references -------------------------------------------------------------


def test_boundary_signs_and_nilpotence():
    tri = ((F(0), F(0)), (F(0), F(1)), (F(1), F(1)))
    b = ref.boundary({tri: F(2)})
    assert b == {tri[1:]: 2, (tri[0], tri[2]): -2, tri[:2]: 2}
    assert ref.boundary(b) == {}
    assert ref.canon([tri[1], tri[0], tri[2]]) == (tri, -1)


def test_volume_from_gram_determinant():
    assert ref.volume(((F(0), F(0)), (F(1), F(1)))) == ref.mpmath.sqrt(2)
    assert ref.volume(((F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0)),
                       (F(0), F(0), F(1)))) == ref.mpmath.mpf(1) / 6
    assert ref.parse_radical("-1/2*sqrt(2) + 3") == {2: F(-1, 2), 1: F(3)}


def test_flat_norm_of_the_unit_square_perimeter():
    perimeter = ref.boundary({t: F(o) for _, t, o in ref.kuhn_tops(2, 1)})
    assert ref.mass(perimeter) == 4
    assert ref.flat_norm_lp(perimeter, 2, 1) == pytest.approx(1, abs=1e-12)


def test_total_variation_and_mod1():
    # one cell of value 1 in a 2x2 grid: perimeter 4 * (1/2)
    assert ref.total_variation([F(1), F(0), F(0), F(0)], 2, 2) == 2
    top = ref.grid_function_chain([F(1), F(0), F(0), F(0)], 2, 2)
    assert ref.mass(ref.boundary(top)) == 2
    assert ref.mod1({"a": F(-1, 3), "b": F(2)}) == {"a": F(2, 3)}


# -- workload checks ---------------------------------------------------------


def test_flat_lp_checks(tmp_path):
    w, inp, out = run_job("flat-lp", 0, tmp_path)
    assert checks.check_flat_lp(inp, out) == []
    big, small, exact = out
    tampered = dataclasses.replace(big, residual=with_coeff(big.residual, F(1, 7)))
    assert "big.replay" in checks.check_flat_lp(inp, (tampered, small, exact))
    no_replay = dataclasses.replace(exact, filling=with_coeff(exact.filling, F(1)))
    assert "small.exact.replay" in checks.check_flat_lp(inp, (big, small, no_replay))
    # a triangle off the support added to the filling, and its boundary
    # taken from the residual, keeps the replay but adds to the mass
    cx = big.filling.complex
    used = {v for s in big.residual.terms for v in s.vertices}
    used |= {v for s in big.filling.terms for v in s.vertices}
    tri = next(t for t in cx.simplices(2) if not used & set(t.vertices))
    extra = PolyChain.build(big.filling.group, 2, 2, [(tri.vertices, 1)], complex=cx)
    heavy = dataclasses.replace(big, residual=big.residual - extra.boundary(),
                                filling=big.filling + extra)
    assert checks.check_flat_lp(inp, (heavy, small, exact)) == ["big.mass_within_value"]


def test_flat_lp_fine_denominator_fault(tmp_path):
    w, inp, out = run_job("flat-lp", 4, tmp_path)
    assert inp["fault"]
    assert set(checks.check_flat_lp(inp, out)) == w.expected_failures(inp)


def test_lift_coarea_checks(tmp_path):
    w, inp, out = run_job("lift-coarea", 0, tmp_path)
    assert checks.check_lift_coarea(inp, out) == []
    path = inp["commands"]["loops"][-1]
    with open(path) as fp:
        doc = json.load(fp)
    first = doc["simplices"][0]
    first["coeff"] = str(Fraction(first["coeff"]) + 1)
    with open(path, "w") as fp:
        json.dump(doc, fp)
    assert "loops.boundary" in checks.check_lift_coarea(inp, out)


def test_approx_checks(tmp_path):
    w, inp, out = run_job("approx", 0, tmp_path)
    assert checks.check_approx(inp, out) == []
    (cycle, *rest), lift, (lp_value, bound) = out
    assert "cycle.closed" in checks.check_approx(
        inp, ((with_coeff(cycle, F(1, 3)), *rest), lift, (lp_value, bound)))
    assert checks.check_approx(inp, ((cycle, *rest), lift, (lp_value + 1e-3, bound))) \
        == ["shrink.lp_value"]
