"""Per-workload output checks against the references in refcheck.

Each check returns the names of the properties a job's outputs broke; an
empty list means the job is correct.  Program outputs are read as data
(chain terms, report lines, written files); no polychain routine is called.
"""

from __future__ import annotations

import json
from fractions import Fraction

import refcheck as ref
from workloads import EPSILON, SHRINK_RATIO


def plain(chain):
    """A polychain chain's terms as a refcheck chain."""
    return {s.vertices: Fraction(c) for s, c in chain.terms.items()}


def parse_report(text):
    lines = (line.partition(" = ") for line in text.splitlines())
    return {key: value for key, _, value in lines}


def read_grid_function(path):
    with open(path) as fp:
        tokens = fp.read().split()
    return int(tokens[0]), int(tokens[1]), [Fraction(t) for t in tokens[2:]]


class Verdict:
    def __init__(self):
        self.broken = []

    def need(self, ok, name):
        if not ok:
            self.broken.append(name)


def _radical(report, key):
    return ref.radical_value(ref.parse_radical(report[key]))


def check_lift_coarea(inp, out):
    v = Verdict()
    reports = {}
    for key, (code, text) in out.items():
        reports[key] = parse_report(text)
        v.need(code == 0 and reports[key].get("VERDICT") == "PASS", key + ".verdict")
    cmd = inp["commands"]

    # lift: threshold rule, projection, masses and the ratios 3 and 5
    rep = reports["lift"]
    top = ref.read_chain_file(cmd["lift"][1])
    lifted = ref.read_chain_file(cmd["lift"][3])
    theta = Fraction(rep["theta"])
    v.need(Fraction(1, 4) < theta < Fraction(3, 4)
           and lifted == {s: c if c < theta else c - 1 for s, c in top.items()},
           "lift.threshold_rule")
    v.need(ref.mod1(lifted) == ref.mod1(top), "lift.projection")
    m_in, m_out = ref.mass(top, ref.circle_norm), ref.mass(lifted)
    b_in = ref.mass(ref.boundary(top, modulus=1), ref.circle_norm)
    b_out = ref.mass(ref.boundary(lifted))
    v.need(ref.close(m_in, _radical(rep, "input_mass_exact"))
           and ref.close(m_out, _radical(rep, "lifted_mass_exact"))
           and ref.close(b_out, _radical(rep, "boundary_mass_exact")), "lift.masses")
    v.need(ref.at_most(m_out, 3 * m_in), "lift.mass_ratio_3")
    v.need(ref.at_most(b_out, 5 * b_in), "lift.boundary_ratio_5")

    # decompose-levels: both masses equal the total variation, and the
    # width-weighted slices sum to the function's boundary chain
    rep = reports["levels"]
    d, n, values = read_grid_function(cmd["levels"][1])
    tv = ref.total_variation(values, d, n)
    v.need(Fraction(rep["boundary_mass"]) == tv == Fraction(rep["slice_mass"]),
           "levels.total_variation")
    with open(cmd["levels"][3]) as fp:
        slices = json.load(fp)["slices"]
    levels = sorted(set(values) | {Fraction(0)})
    v.need([(Fraction(sl["t_low"]), Fraction(sl["t_high"])) for sl in slices]
           == list(zip(levels, levels[1:])), "levels.thresholds")
    total = {}
    for sl in slices:
        chain = ref.document_chain(sl["chain"])
        v.need(set(chain.values()) <= {1, -1} and not ref.boundary(chain), "levels.unit_cycles")
        total = ref.add(total, chain, Fraction(sl["t_high"]) - Fraction(sl["t_low"]))
    v.need(total == ref.boundary(ref.grid_function_chain(values, d, n)), "levels.chain_identity")

    # br-correct (fill route) and cancel-loops: integral output, same
    # boundary, mass within ratio 6 and 1
    for key, ratio in (("fill", 6), ("loops", 1)):
        rep = reports[key]
        before = ref.read_chain_file(cmd[key][1])
        after = ref.read_chain_file(cmd[key][-1])
        v.need(all(c.denominator == 1 for c in after.values()), key + ".integral")
        v.need(ref.boundary(after) == ref.boundary(before), key + ".boundary")
        m_in, m_out = ref.mass(before), ref.mass(after)
        v.need(ref.close(m_in, _radical(rep, "input_mass_exact"))
               and ref.close(m_out, _radical(rep, "output_mass_exact")), key + ".masses")
        v.need(ref.at_most(m_out, ratio * m_in), key + ".mass_ratio")
    return v.broken


def _check_witness(v, tag, chain, grid, w, exact):
    """Replay, optimality against HiGHS, and mass against the value."""
    d, n = grid
    residual, filling = plain(w.residual), plain(w.filling)
    v.need(ref.add(residual, ref.boundary(filling)) == chain, tag + ".replay")
    v.need(ref.on_grid(residual, d, n) and ref.on_grid(filling, d, n), tag + ".on_grid")
    optimum = ref.flat_norm_lp(chain, d, n)
    v.need(abs(w.value - optimum) <= ref.LP_TOL, tag + ".value")
    m = ref.mass(residual) + ref.mass(filling)
    if exact:
        v.need(ref.close(m, ref.radical_value(w.value_exact.terms)), tag + ".mass_equals_value")
    else:
        v.need(m <= w.value + ref.LP_TOL, tag + ".mass_within_value")


def check_flat_lp(inp, out):
    v = Verdict()
    big, small_float, small_exact = out
    _check_witness(v, "big", plain(inp["big"]), inp["big_grid"], big, exact=False)
    small = plain(inp["small"])
    _check_witness(v, "small.float", small, inp["small_grid"], small_float, exact=False)
    _check_witness(v, "small.exact", small, inp["small_grid"], small_exact, exact=True)
    return v.broken


def check_approx(inp, out):
    v = Verdict()
    (cycle, _, defect, stages), (lifted, _), (lp_value, bound) = out

    # cycle_extension: a cycle within (2 + eps) mass(chain) + e_N, and the
    # part of chain - cycle on the chain's carriers weighs the defect
    chain, cyc = plain(inp["chain"]), plain(cycle)
    m = ref.mass(chain)
    terminal = ref.radical_value(stages.epsilon_terminal.terms)
    held = ref.radical_value(defect.terms)
    v.need(not ref.boundary(cyc), "cycle.closed")
    v.need(ref.at_most(ref.mass(cyc), (2 + ref.mpf(EPSILON))
                       * m + terminal), "cycle.mass_bound")
    on_carriers = {s: c - cyc.get(s, 0) for s, c in chain.items()}
    v.need(ref.close(ref.mass(on_carriers), held) and ref.at_most(held, terminal)
           and ref.at_most(terminal, m / 1000), "cycle.defect")

    # lift_flat: projects back exactly, mass within 4(1 + eps)
    circle, lift = plain(inp["circle"]), plain(lifted)
    v.need(ref.mod1(lift) == ref.mod1(circle), "lift_flat.projection")
    v.need(ref.at_most(ref.mass(lift), ref.mass(circle, ref.circle_norm)
                       * 4 * (1 + ref.mpf(EPSILON))),
           "lift_flat.mass_ratio")

    # measured_shrink_distance: the closed-form bound, and the LP value
    # against HiGHS on the common refinement
    shrink = plain(inp["shrink"])
    expected = ref.shrink_bound(shrink, SHRINK_RATIO, 2)
    v.need(abs(bound - expected) <= 1e-12 * max(1, expected), "shrink.bound")
    fine = 2 * SHRINK_RATIO.denominator * 2
    centre = (Fraction(1, 2), Fraction(1, 2))
    diff = ref.add(ref.refine_segments(shrink, fine),
                   ref.refine_segments(ref.homothety(shrink, centre, SHRINK_RATIO), fine), -1)
    v.need(abs(lp_value - ref.flat_norm_lp(diff, 2, fine)) <= ref.LP_TOL, "shrink.lp_value")
    v.need(lp_value <= bound + 1e-9, "shrink.within_bound")
    return v.broken


CHECKS = {"lift-coarea": check_lift_coarea, "flat-lp": check_flat_lp, "approx": check_approx}
