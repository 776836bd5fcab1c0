"""Batch command-line front end.

Subcommands operate on chain files (JSON, exact rationals) and grid-function
files (text), print a key = value report ending in a VERDICT line, and can
write result chains back out.  Exit codes: 0 success, 1 I/O or parse error,
2 validation failure (a named precondition of some module was violated, an
input exceeded a named size limit, exact arithmetic or memory ran out, or
the command line itself was malformed).  Every randomized command takes a
--seed and is fully deterministic given it.

Each command is one handler, `_cmd_<name>(args, loaded, rep)`, that adds
its lines to the report `rep` and returns the chain `--out` should hold,
or None.  `main` does the rest: it loads the input (a grid function for
`decompose-levels`, nothing for `gen`, a chain otherwise), writes a
returned chain to `--out`, maps the exceptions of `_ERRORS` to an exit
code and an `error [module]` line, and prints the report.  `flatnorm`,
`decompose-levels` and `gen function` write their other outputs
themselves (witness, slice and grid-function files).

A bound that the library routine on a command's path already checks, and
raises on if it fails, is recorded as checked (`rep.bound(name, True)`,
with a comment naming the routine), not recomputed here; only the bounds
no library routine checks are evaluated in this module.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from .approx import ApproxError, cycle_extension, disjoint_representative
from .chainfile import (ChainFileError, InputLimitError, emit_chain,
                        group_from_tag, load_chain, load_grid_function,
                        parse_chain, parse_rational, save_chain,
                        save_grid_function, save_slices)
from .chains import ChainError
from .coarea import verify_coarea
from .flatnorm import CertificateError, flat_norm, flat_norm_oracle
from .gen import (GenError, random_chain, random_circle_top, random_cycle,
                  random_grid_function, random_integral_boundary_chain)
from .geometry import GeometryError
from .grid import GridError, check_grid
from .groups import CIRCLE, GroupError
from .lifting import (LiftError, br_correct, lift_flat, lift_top_optimal,
                      lift_top_threshold, loop_cancel, project_chain)
from .report import Report
from .simplex_lp import LPError

# (exception class, exit code, module tag) in matching order: the first
# entry an exception is an instance of decides; anything else propagates
_ERRORS = (
    (ChainFileError, 1, "cli"),
    (OSError, 1, "cli"),
    (InputLimitError, 2, "chainfile"),
    (GenError, 2, "gen"),
    (GroupError, 2, "groups"),
    (GeometryError, 2, "geometry"),
    (GridError, 2, "grid"),
    (ChainError, 2, "chains"),
    (LPError, 2, "flatnorm"),
    (CertificateError, 2, "flatnorm"),
    (ApproxError, 2, "approx"),
    (LiftError, 2, "lifting"),
    (ValueError, 2, "core"),
    (ArithmeticError, 2, "core"),
    (MemoryError, 2, "core"),
)
_CAUGHT = tuple(klass for klass, _, _ in _ERRORS)


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
    """Report the chain's term count and mass."""
    mass = chain.mass_exact()
    rep.add(prefix + "_terms", len(chain))
    rep.add(prefix + "_mass_exact", mass)
    rep.add(prefix + "_mass", float(mass))


# -- command handlers ---------------------------------------------------------


def _cmd_mass(args, chain, rep):
    rep.add("ambient_dim", chain.ambient_dim)
    rep.add("dim", chain.dim)
    rep.add("group", chain.group.tag)
    rep.add("terms", len(chain))
    mass = chain.mass_exact()
    rep.add("mass_exact", mass)
    rep.add("mass", float(mass))


def _cmd_boundary(args, chain, rep):
    out = chain.boundary()
    _chain_summary(rep, "input", chain)
    _chain_summary(rep, "boundary", out)
    rep.bound("boundary_of_boundary_zero",
              out.dim == 0 or out.boundary().is_zero())
    return out


def _cmd_flatnorm(args, chain, rep):
    # the exact route runs first so that its size limit refuses the input
    # before the float route does any work
    oracle = flat_norm_oracle(chain) if args.exact else None
    witness = flat_norm(chain)
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


def _cmd_project(args, chain, rep):
    out = project_chain(chain)
    _chain_summary(rep, "input", chain)
    _chain_summary(rep, "projected", out)
    rep.bound("mass_nonincreasing", (out.mass_exact() - chain.mass_exact()).sign() <= 0)
    if chain.dim > 0:
        rep.bound("boundary_commutes",
                  project_chain(chain.boundary()) == out.boundary())
    return out


def _cmd_lift(args, chain, rep):
    if args.k is not None and chain.dim != args.k:
        raise LiftError("lift: --k %d but the chain has dimension %d"
                        % (args.k, chain.dim))
    if chain.group is not CIRCLE:
        raise LiftError("lift: input must have circle coefficients, got %s"
                        % chain.group.tag)
    _chain_summary(rep, "input", chain)
    if chain.dim == chain.ambient_dim:
        if args.theta is not None:
            theta = _fraction_arg(args.theta, "--theta")
            lifted = lift_top_threshold(chain, theta)
        else:
            theta, lifted, profile = lift_top_optimal(chain)
            rep.add("profile_integral", profile.integral)
        rep.add("route", "top-threshold")
        rep.add("theta", theta)
        _chain_summary(rep, "lifted", lifted)
        rep.bound("mass_ratio_le_3", True)  # checked by lift_top_threshold
        if args.theta is not None:
            rep.add("boundary_mass_exact", lifted.boundary().mass_exact())
        else:
            # lift_top_optimal checked the other two bounds; the profile's
            # minimum is the boundary mass of this lift
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
    return lifted


def _cmd_cancel_loops(args, chain, rep):
    out, lift_rep = loop_cancel(chain)
    _chain_summary(rep, "input", chain)
    _chain_summary(rep, "output", out)
    rep.add("passes", lift_rep.passes)
    # loop_cancel checked all four bounds
    for name in ("all_integral", "boundary_unchanged", "mass_nonincreasing",
                 "pass_count_le_terms"):
        rep.bound(name, True)
    return out


def _cmd_br_correct(args, chain, rep):
    out, d_used = br_correct(chain, route=args.route)
    _chain_summary(rep, "input", chain)
    _chain_summary(rep, "output", out)
    rep.add("d_used", d_used)
    # br_correct checked all three bounds
    for name in ("projection_zero", "boundary_unchanged", "mass_ratio_le_d"):
        rep.bound(name, True)
    return out


def _cmd_cycle_extend(args, chain, rep):
    epsilon = _fraction_arg(args.epsilon, "--epsilon")
    cycle, carriers, defect, stage_rep = cycle_extension(chain, epsilon)
    _chain_summary(rep, "input", chain)
    _chain_summary(rep, "cycle", cycle)
    rep.add("stages", len(stage_rep.stages))
    rep.add("epsilon_terminal", float(stage_rep.epsilon_terminal))
    rep.add("carrier_simplices", len(carriers))
    rep.add("restriction_defect", float(defect))
    rep.bound("boundary_zero", True)  # checked by cycle_extension
    bound = chain.mass_exact() * (2 + epsilon) + stage_rep.epsilon_terminal
    rep.bound("mass_within_bound", (cycle.mass_exact() - bound).sign() <= 0)
    rep.bound("defect_within_terminal", True)  # checked by cycle_extension
    return cycle


def _cmd_disjoint_rep(args, chain, rep):
    epsilon = _fraction_arg(args.epsilon, "--epsilon")
    out, stage_rep = disjoint_representative(chain, epsilon)
    _chain_summary(rep, "input", chain)
    _chain_summary(rep, "representative", out)
    rep.add("stages", len(stage_rep.stages))
    rep.add("epsilon_terminal", float(stage_rep.epsilon_terminal))
    bound = chain.mass_exact() * (1 + epsilon) + stage_rep.epsilon_terminal
    rep.bound("mass_within_bound", (out.mass_exact() - bound).sign() <= 0)
    rep.bound("boundary_preserved", True)  # checked by disjoint_representative
    return out


def _cmd_decompose_levels(args, u, rep):
    result = verify_coarea(u)
    rep.add("ambient_dim", u.ambient_dim)
    rep.add("resolution", u.resolution)
    rep.add("slices", result.slice_count)
    rep.add("boundary_mass", result.boundary_mass)
    rep.add("slice_mass", result.slice_mass)
    rep.add("gap", result.gap)
    rep.bound("gap_zero", result.gap == 0)
    rep.bound("chain_identity", result.chain_identity)
    if args.out:
        save_slices(result.slices, args.out)
        rep.add("out", args.out)


def _cmd_validate(args, chain, rep):
    rep.add("ambient_dim", chain.ambient_dim)
    rep.add("dim", chain.dim)
    rep.add("group", chain.group.tag)
    rep.add("complex", "kuhn:%d" % chain.complex.resolution
            if chain.complex is not None else "none")
    _chain_summary(rep, "chain", chain)
    rep.bound("round_trip_exact", parse_chain(emit_chain(chain)) == chain)


def _cmd_gen(args, _, rep):
    d, n = _parse_grid(args.grid)
    check_grid(d, n, "--grid")
    group = group_from_tag(args.group)
    rep.add("kind", args.kind)
    rep.add("grid", "%d,%d" % (d, n))
    rep.add("seed", args.seed)
    if args.kind == "function":
        u = random_grid_function(args.seed, d, n)
        save_grid_function(u, args.out)
        rep.add("cells", len(u.values))
        rep.add("out", args.out)
        return None
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
    _chain_summary(rep, "chain", chain)
    return chain


# -- parser -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polychain",
        description="Exact polyhedral chains: mass, boundary, flat norm, "
                    "coefficient lifting, coarea slicing.")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, help_text, out_help=None, chain_input=True):
        p = sub.add_parser(name, help=help_text)
        if chain_input:
            p.add_argument("file", help="input file")
        p.add_argument("--report", help="also write the report here")
        if out_help:
            # a command without an input file exists for its output
            p.add_argument("--out", required=not chain_input, help=out_help)
        return p

    cmd("mass", "exact and decimal mass of a chain")
    cmd("boundary", "boundary chain", "write the boundary chain here")

    p = cmd("flatnorm", "flat norm with witness decomposition", "witness file prefix")
    p.add_argument("--exact", action="store_true",
                   help="also run the exact-rational route and compare")
    p.add_argument("--tolerance", type=float, default=1e-7,
                   help="route agreement tolerance (default 1e-7)")

    cmd("project", "apply the circle-coefficient projection",
        "write the projected chain here")

    p = cmd("lift", "lift circle coefficients to real ones", "write the lifted chain here")
    p.add_argument("--k", type=int, help="assert the chain dimension")
    p.add_argument("--theta", help="fixed threshold in (1/4, 3/4)")
    p.add_argument("--epsilon", default="1/10", help="stage budget (default 1/10)")

    cmd("cancel-loops", "cancel fractional loops in a 1-chain with integral boundary",
        "write the integral chain here")

    p = cmd("br-correct", "boundary-preserving correction to zero circle projection",
            "write the corrected chain here")
    p.add_argument("--route", choices=("auto", "loop", "fill"), default="auto")

    p = cmd("cycle-extend", "extend a chain to a cycle of controlled mass",
            "write the cycle here")
    p.add_argument("--epsilon", default="1/10", help="stage budget (default 1/10)")

    p = cmd("disjoint-rep", "flat-close representative with stagewise disjoint support",
            "write the representative here")
    p.add_argument("--epsilon", default="1/10", help="stage budget (default 1/10)")

    cmd("decompose-levels", "coarea slicing of a grid-function file",
        "write the slice chains here (JSON)")
    cmd("validate", "parse, canonicalize and round-trip a chain file")

    p = cmd("gen", "generate a seeded random instance", "output file", chain_input=False)
    p.add_argument("kind",
                   choices=("chain", "cycle", "top", "loop-defect",
                            "codim-defect", "function"))
    p.add_argument("--grid", required=True, help="d,n")
    p.add_argument("--group", default="real",
                   help="real | integer | mod:p | circle (default real)")
    p.add_argument("--dim", type=int, default=1, help="chain dimension")
    p.add_argument("--terms", type=int, default=6, help="target term count")
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # resolved at dispatch, so a handler patched into this module is the one run
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    rep = Report()
    try:
        if args.command == "gen":
            loaded = None
        elif args.command == "decompose-levels":
            loaded = load_grid_function(args.file)
        else:
            loaded = load_chain(args.file)
        out = handler(args, loaded, rep)
        if out is not None and args.out:
            save_chain(out, args.out)
            rep.add("out", args.out)
        rep.write(sys.stdout, args.report)
    except _CAUGHT as exc:
        code, module = next((code, module) for klass, code, module in _ERRORS
                            if isinstance(exc, klass))
        print("error [%s]: %s" % (module, str(exc) or type(exc).__name__),
              file=sys.stderr)
        return code
    return 0 if rep.passed else 2
