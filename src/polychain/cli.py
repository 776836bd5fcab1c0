"""Batch command-line front end.

Subcommands operate on chain files (JSON, exact rationals) and grid-function
files (text), print a key = value report ending in a VERDICT line, and can
write result chains back out.  Exit codes: 0 success, 1 I/O or parse error,
2 validation failure (a named precondition of some module was violated, an
input exceeded a named size limit, exact arithmetic or memory ran out, or
the command line itself was malformed).  Every randomized command takes a
--seed and is fully deterministic given it.

A bound that the library routine on a command's path already checks, and
raises on if it fails, is recorded as checked (`rep.bound(name, True)`,
with a comment naming the routine), not recomputed here; only the bounds
no library routine checks are evaluated in this module.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .approx import (ApproxBudget, ApproxError, cycle_extension,
                     disjoint_representative)
from .chainfile import (ChainFileError, InputLimitError, emit_chain,
                        load_chain, load_grid_function, chain_to_document,
                        check_grid_size, group_from_tag, parse_chain,
                        parse_rational, save_chain, save_grid_function)
from .chains import ChainError
from .coarea import verify_coarea
from .flatnorm import CertificateError, flat_norm, flat_norm_oracle
from .gen import (GenError, random_chain, random_circle_top, random_cycle,
                  random_grid_function, random_integral_boundary_chain)
from .geometry import GeometryError
from .grid import GridError
from .groups import CIRCLE, GroupError, REAL
from .lifting import (LiftError, br_correct, lift_flat, lift_top_optimal,
                      lift_top_threshold, loop_cancel, project_chain)
from .report import Report
from .simplex_lp import LPError

_MODULE_OF = (
    (ChainFileError, "cli"),
    (InputLimitError, "chainfile"),
    (GenError, "gen"),
    (GroupError, "groups"),
    (GeometryError, "geometry"),
    (GridError, "grid"),
    (ChainError, "chains"),
    (LPError, "flatnorm"),
    (CertificateError, "flatnorm"),
    (ApproxError, "approx"),
    (LiftError, "lifting"),
)


def _module_of(exc) -> str:
    for klass, name in _MODULE_OF:
        if isinstance(exc, klass):
            return name
    return "core"


def _parse_grid(text: str):
    try:
        d, n = (int(p) for p in text.split(","))
    except ValueError:
        raise ChainFileError("--grid expects 'd,n', got %r" % text) from None
    return d, n


def _fraction_arg(text: str, flag: str) -> Fraction:
    try:
        return parse_rational(text, flag)
    except ChainFileError:
        raise ChainFileError("%s expects a rational like 1/10 or 0.1, got %r"
                             % (flag, text)) from None


def _chain_summary(rep: Report, prefix: str, chain):
    """Report the chain's term count and mass; returns the exact mass."""
    mass = chain.mass_exact()
    rep.add(prefix + "_terms", len(chain))
    rep.add(prefix + "_mass_exact", mass)
    rep.add(prefix + "_mass", float(mass))
    return mass


# -- command handlers ---------------------------------------------------------


def _cmd_mass(args) -> Report:
    chain = load_chain(args.file)
    rep = Report()
    rep.add("ambient_dim", chain.ambient_dim)
    rep.add("dim", chain.dim)
    rep.add("group", chain.group.tag)
    rep.add("terms", len(chain))
    mass = chain.mass_exact()
    rep.add("mass_exact", mass)
    rep.add("mass", float(mass))
    return rep


def _cmd_boundary(args) -> Report:
    chain = load_chain(args.file)
    out = chain.boundary()
    rep = Report()
    _chain_summary(rep, "input", chain)
    _chain_summary(rep, "boundary", out)
    rep.bound("boundary_of_boundary_zero",
              out.dim == 0 or out.boundary().is_zero())
    if args.out:
        save_chain(out, args.out)
        rep.add("out", args.out)
    return rep


def _cmd_flatnorm(args) -> Report:
    chain = load_chain(args.file)
    # the exact route runs first so that its size limit refuses the input
    # before the float route does any work
    oracle = flat_norm_oracle(chain) if args.exact else None
    witness = flat_norm(chain)
    rep = Report()
    _chain_summary(rep, "input", chain)
    rep.add("value", witness.value)
    rep.add("residual_mass", witness.residual.mass())
    rep.add("filling_mass", witness.filling.mass())
    rep.bound("witness_replay_exact", True)  # verified inside flat_norm
    if args.exact:
        rep.add("value_exact", oracle.value_exact)
        gap = abs(witness.value - float(oracle.value_exact))
        rep.add("route_gap", gap)
        rep.bound("routes_agree", gap <= args.tolerance)
        witness = oracle
    if args.out:
        save_chain(witness.residual, args.out + ".residual.json")
        save_chain(witness.filling, args.out + ".filling.json")
        rep.add("out_residual", args.out + ".residual.json")
        rep.add("out_filling", args.out + ".filling.json")
    return rep


def _cmd_project(args) -> Report:
    chain = load_chain(args.file)
    out = project_chain(chain)
    rep = Report()
    in_mass = _chain_summary(rep, "input", chain)
    out_mass = _chain_summary(rep, "projected", out)
    rep.bound("mass_nonincreasing", (out_mass - in_mass).sign() <= 0)
    if chain.dim > 0:
        rep.bound("boundary_commutes",
                  project_chain(chain.boundary()) == out.boundary())
    if args.out:
        save_chain(out, args.out)
        rep.add("out", args.out)
    return rep


def _cmd_lift(args) -> Report:
    chain = load_chain(args.file)
    if args.k is not None and chain.dim != args.k:
        raise LiftError("lift: --k %d but the chain has dimension %d"
                        % (args.k, chain.dim))
    if chain.group is not CIRCLE:
        raise LiftError("lift: input must have circle coefficients, got %s"
                        % chain.group.tag)
    rep = Report()
    in_mass = _chain_summary(rep, "input", chain)
    if chain.dim == chain.ambient_dim:
        if args.theta is not None:
            theta = _fraction_arg(args.theta, "--theta")
            lifted = lift_top_threshold(chain, theta)
        else:
            theta, lifted, profile = lift_top_optimal(chain)
            rep.add("profile_integral", profile.integral)
        rep.add("route", "top-threshold")
        rep.add("theta", theta)
        out_mass = _chain_summary(rep, "lifted", lifted)
        if args.theta is not None:
            rep.bound("mass_ratio_le_3", (out_mass - in_mass * 3).sign() <= 0)
            rep.add("boundary_mass_exact", lifted.boundary().mass_exact())
        else:
            # lift_top_optimal checked all three bounds; the profile's
            # minimum is the boundary mass of this lift
            rep.bound("mass_ratio_le_3", True)
            rep.add("boundary_mass_exact", profile.minimum[1])
            rep.bound("boundary_ratio_le_5", True)
            rep.bound("profile_integral_le_5_2", True)
        rep.bound("projection_recovers_input", project_chain(lifted) == chain)
    else:
        epsilon = _fraction_arg(args.epsilon, "--epsilon")
        lifted, lift_rep = lift_flat(chain, epsilon)
        rep.add("route", lift_rep.route)
        rep.add("d_used", lift_rep.d_used)
        rep.add("guaranteed_ratio", lift_rep.guaranteed_ratio)
        _chain_summary(rep, "lifted", lifted)
        # lift_flat checked the mass ratio and the projection
        rep.bound("mass_within_ratio", True)
        rep.bound("projection_recovers_input", True)
    if args.out:
        save_chain(lifted, args.out)
        rep.add("out", args.out)
    return rep


def _cmd_cancel_loops(args) -> Report:
    chain = load_chain(args.file)
    out, lift_rep = loop_cancel(chain)
    rep = Report()
    _chain_summary(rep, "input", chain)
    _chain_summary(rep, "output", out)
    rep.add("passes", lift_rep.passes)
    # loop_cancel checked all four bounds
    for name in ("all_integral", "boundary_unchanged", "mass_nonincreasing",
                 "pass_count_le_terms"):
        rep.bound(name, True)
    if args.out:
        save_chain(out, args.out)
        rep.add("out", args.out)
    return rep


def _cmd_br_correct(args) -> Report:
    chain = load_chain(args.file)
    out, d_used = br_correct(chain, route=args.route)
    rep = Report()
    _chain_summary(rep, "input", chain)
    _chain_summary(rep, "output", out)
    rep.add("d_used", d_used)
    # br_correct checked all three bounds
    for name in ("projection_zero", "boundary_unchanged", "mass_ratio_le_d"):
        rep.bound(name, True)
    if args.out:
        save_chain(out, args.out)
        rep.add("out", args.out)
    return rep


def _cmd_cycle_extend(args) -> Report:
    chain = load_chain(args.file)
    epsilon = _fraction_arg(args.epsilon, "--epsilon")
    cycle, carriers, defect, stage_rep = cycle_extension(chain, epsilon)
    rep = Report()
    in_mass = _chain_summary(rep, "input", chain)
    out_mass = _chain_summary(rep, "cycle", cycle)
    rep.add("stages", len(stage_rep.stages))
    rep.add("epsilon_terminal", float(stage_rep.epsilon_terminal))
    rep.add("carrier_simplices", len(carriers))
    rep.add("restriction_defect", float(defect))
    rep.bound("boundary_zero", True)  # checked by cycle_extension
    bound = in_mass * (2 + epsilon) + stage_rep.epsilon_terminal
    rep.bound("mass_within_bound", (out_mass - bound).sign() <= 0)
    rep.bound("defect_within_terminal", True)  # checked by cycle_extension
    if args.out:
        save_chain(cycle, args.out)
        rep.add("out", args.out)
    return rep


def _cmd_disjoint_rep(args) -> Report:
    chain = load_chain(args.file)
    epsilon = _fraction_arg(args.epsilon, "--epsilon")
    out, stage_rep = disjoint_representative(chain, ApproxBudget(epsilon=epsilon))
    rep = Report()
    in_mass = _chain_summary(rep, "input", chain)
    out_mass = _chain_summary(rep, "representative", out)
    rep.add("stages", len(stage_rep.stages))
    rep.add("epsilon_terminal", float(stage_rep.epsilon_terminal))
    bound = in_mass * (1 + epsilon) + stage_rep.epsilon_terminal
    rep.bound("mass_within_bound", (out_mass - bound).sign() <= 0)
    rep.bound("boundary_preserved", True)  # checked by disjoint_representative
    if args.out:
        save_chain(out, args.out)
        rep.add("out", args.out)
    return rep


def _cmd_decompose_levels(args) -> Report:
    u = load_grid_function(args.file)
    result = verify_coarea(u)
    rep = Report()
    rep.add("ambient_dim", u.ambient_dim)
    rep.add("resolution", u.resolution)
    rep.add("slices", result.slice_count)
    rep.add("boundary_mass", result.boundary_mass)
    rep.add("slice_mass", result.slice_mass)
    rep.add("gap", result.gap)
    rep.bound("gap_zero", result.gap == 0)
    rep.bound("chain_identity", result.chain_identity)
    if args.out:
        doc = {"slices": [{"t_low": str(sl.t_low),
                           "t_high": str(sl.t_high),
                           "chain": chain_to_document(sl.chain)}
                          for sl in result.slices]}
        with open(args.out, "w") as fp:
            fp.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        rep.add("out", args.out)
    return rep


def _cmd_validate(args) -> Report:
    chain = load_chain(args.file)
    rep = Report()
    rep.add("ambient_dim", chain.ambient_dim)
    rep.add("dim", chain.dim)
    rep.add("group", chain.group.tag)
    rep.add("complex", "kuhn:%d" % chain.complex.resolution
            if chain.complex is not None else "none")
    _chain_summary(rep, "chain", chain)
    rep.bound("round_trip_exact", parse_chain(emit_chain(chain)) == chain)
    return rep


def _cmd_gen(args) -> Report:
    d, n = _parse_grid(args.grid)
    check_grid_size(d, n, "--grid")
    group = group_from_tag(args.group)
    rep = Report()
    rep.add("kind", args.kind)
    rep.add("grid", "%d,%d" % (d, n))
    rep.add("seed", args.seed)
    if args.kind == "function":
        u = random_grid_function(args.seed, d, n)
        save_grid_function(u, args.out)
        rep.add("cells", len(u.values))
        rep.add("out", args.out)
        return rep
    if args.kind == "chain":
        chain = random_chain(args.seed, d, n, args.dim, group, args.terms)
    elif args.kind == "cycle":
        chain = random_cycle(args.seed, d, n, args.dim, group, args.terms)
    elif args.kind == "top":
        chain = random_circle_top(args.seed, d, n)
    elif args.kind == "loop-defect":
        chain = random_integral_boundary_chain(args.seed, d, n, 1, args.terms)
    elif args.kind == "codim-defect":
        chain = random_integral_boundary_chain(args.seed, d, n, d - 1, args.terms)
    else:
        raise ChainFileError("gen: unknown kind %r" % args.kind)
    save_chain(chain, args.out)
    _chain_summary(rep, "chain", chain)
    rep.add("out", args.out)
    return rep


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polychain",
        description="Exact polyhedral chains: mass, boundary, flat norm, "
                    "coefficient lifting, coarea slicing.")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, handler, help_text, chain_input=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if chain_input:
            p.add_argument("file", help="input file")
            p.add_argument("--report", help="also write the report here")
        return p

    cmd("mass", _cmd_mass, "exact and decimal mass of a chain")

    p = cmd("boundary", _cmd_boundary, "boundary chain")
    p.add_argument("--out", help="write the boundary chain here")

    p = cmd("flatnorm", _cmd_flatnorm, "flat norm with witness decomposition")
    p.add_argument("--exact", action="store_true",
                   help="also run the exact-rational route and compare")
    p.add_argument("--tolerance", type=float, default=1e-7,
                   help="route agreement tolerance (default 1e-7)")
    p.add_argument("--out", help="witness file prefix")

    p = cmd("project", _cmd_project, "apply the circle-coefficient projection")
    p.add_argument("--out", help="write the projected chain here")

    p = cmd("lift", _cmd_lift, "lift circle coefficients to real ones")
    p.add_argument("--k", type=int, help="assert the chain dimension")
    p.add_argument("--theta", help="fixed threshold in (1/4, 3/4)")
    p.add_argument("--epsilon", default="1/10", help="stage budget (default 1/10)")
    p.add_argument("--out", help="write the lifted chain here")

    p = cmd("cancel-loops", _cmd_cancel_loops,
            "cancel fractional loops in a 1-chain with integral boundary")
    p.add_argument("--out", help="write the integral chain here")

    p = cmd("br-correct", _cmd_br_correct,
            "boundary-preserving correction to zero circle projection")
    p.add_argument("--route", choices=("auto", "loop", "fill"), default="auto")
    p.add_argument("--out", help="write the corrected chain here")

    p = cmd("cycle-extend", _cmd_cycle_extend,
            "extend a chain to a cycle of controlled mass")
    p.add_argument("--epsilon", default="1/10", help="stage budget (default 1/10)")
    p.add_argument("--out", help="write the cycle here")

    p = cmd("disjoint-rep", _cmd_disjoint_rep,
            "flat-close representative with stagewise disjoint support")
    p.add_argument("--epsilon", default="1/10", help="stage budget (default 1/10)")
    p.add_argument("--out", help="write the representative here")

    p = cmd("decompose-levels", _cmd_decompose_levels,
            "coarea slicing of a grid-function file")
    p.add_argument("--out", help="write the slice chains here (JSON)")

    cmd("validate", _cmd_validate, "parse, canonicalize and round-trip a chain file")

    p = cmd("gen", _cmd_gen, "generate a seeded random instance", chain_input=False)
    p.add_argument("kind",
                   choices=("chain", "cycle", "top", "loop-defect",
                            "codim-defect", "function"))
    p.add_argument("--grid", required=True, help="d,n")
    p.add_argument("--group", default="real",
                   help="real | integer | mod:p | circle (default real)")
    p.add_argument("--dim", type=int, default=1, help="chain dimension")
    p.add_argument("--terms", type=int, default=6, help="target term count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output file")
    p.add_argument("--report", help="also write the report here")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        rep = args.handler(args)
    except (ChainFileError, OSError) as exc:
        print("error [cli]: %s" % exc, file=sys.stderr)
        return 1
    except (GroupError, GeometryError, GridError, ChainError, LPError,
            CertificateError, ApproxError, LiftError, GenError,
            ValueError, ArithmeticError, MemoryError) as exc:
        print("error [%s]: %s" % (_module_of(exc), str(exc) or type(exc).__name__),
              file=sys.stderr)
        return 2
    rep.write(sys.stdout, getattr(args, "report", None))
    return 0 if rep.passed else 2
