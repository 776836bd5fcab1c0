"""Flat norm of grid chains via linear programming, with witnesses.

For a k-chain P on a grid complex the flat norm is

    min  mass(R) + mass(Q)   over decompositions  P = R + boundary(Q)

with R a k-chain and Q a (k+1)-chain on the same complex.  In equality
form the program is

    min  sum vol_k |r| + sum vol_{k+1} |q|   s.t.   r + B q = p

split into nonnegative parts, where B is the signed incidence matrix.
One assembly, ``_flat_program``, builds its nonzero entries; the
sign-adjusted slack columns of r give the exact route a starting identity
basis, so it never needs a phase-1.  One witness assembly, ``_witness``,
turns a route's filling coefficients q into R = P - boundary(Q) and
replays the identity exactly.

Two deliberately independent routes:

* ``flat_norm``: HiGHS dual simplex (`simplex_lp.solve_float`, one direct
  call) on the dense float program, whose size chainfile.MAX_FLOAT_LP_ENTRIES
  bounds; the filling is snapped to rationals of denominator at most
  SNAP_DENOMINATOR and the residual recomputed exactly, so the returned
  witness satisfies R + boundary(Q) = P as an exact chain identity.
* ``flat_norm_oracle``: exact simplex with the exact volume objective, on
  an integer tableau (`simplex_lp.solve_exact`), plus a from-scratch
  optimality certificate on the raw data.

Coefficients must be real (integers are taken as reals); witnesses are
real chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import chainfile, simplex_lp
from .chains import ChainError, PolyChain
from .groups import REAL
from .radicals import RadicalSum


# The float route's filling coefficients are snapped to the nearest
# rationals with at most this denominator.
SNAP_DENOMINATOR = 10 ** 6


class CertificateError(Exception):
    """The exact route produced a basis its own referee rejects."""


@dataclass
class FlatWitness:
    value: float
    value_exact: RadicalSum | None
    residual: PolyChain
    filling: PolyChain


def _require_real(chain: PolyChain):
    if chain.complex is None:
        raise ChainError("flat norm needs a complex-backed chain")
    if chain.group.tag not in ("real", "integer"):
        raise ChainError("flat norm is defined for real or integer coefficients")


class _FlatProgram(NamedTuple):
    """The equality-form flat-norm program of a k-chain, shared by both routes.

    Columns are r+, r-, q+, q- in that order, each row is multiplied by the
    sign of its entry of p, and `basis` lists the slack columns that then
    form an identity."""
    nr: int
    nq: int
    p: list
    inc: tuple
    rows: list      # (rows[i], cols[i], vals[i]): the nonzero entries of A
    cols: list
    vals: list
    b: list         # |p|
    c: list         # exact simplex volumes
    basis: list


def _flat_program(chain: PolyChain) -> _FlatProgram:
    complex = chain.complex
    k = chain.dim
    nr = complex.count(k)
    nq = complex.count(k + 1) if k < complex.ambient_dim else 0
    inc = complex.incidence(k + 1) if nq else ()
    # one pass over the chain's terms: a row where p is zero keeps sign 1,
    # b = 0 and its r+ slack in the basis
    zero = Fraction(0)
    p, b = [zero] * nr, [zero] * nr
    signs, basis = [1] * nr, list(range(nr))
    for s, v in chain.terms.items():
        i = complex.index_of(k, s)
        p[i] = v
        b[i] = abs(v)
        if v < 0:
            signs[i] = -1
            basis[i] = nr + i
    rows, cols, vals = [], [], []
    for i, s in enumerate(signs):
        rows += (i, i)
        cols += (i, nr + i)
        vals += (s, -s)
    for j, row in enumerate(inc):
        for face, sign in row:
            v = signs[face] * sign
            rows += (face, face)
            cols += (2 * nr + j, 2 * nr + nq + j)
            vals += (v, -v)
    vol_r = [s.volume() for s in complex.simplices(k)]
    vol_q = [s.volume() for s in complex.simplices(k + 1)] if nq else []
    return _FlatProgram(nr=nr, nq=nq, p=p, inc=inc, rows=rows, cols=cols, vals=vals,
                        b=b, c=vol_r + vol_r + vol_q + vol_q, basis=basis)


def _witness(chain: PolyChain, prog: _FlatProgram, q_vec) -> tuple[PolyChain, PolyChain]:
    """The witness (R, Q) of filling coefficients q_vec: r = p - B q, both
    made real chains, and R + boundary(Q) = P replayed exactly."""
    r_vec = list(prog.p)
    for j, qj in enumerate(q_vec):
        if qj:
            for face, sign in prog.inc[j]:
                r_vec[face] -= sign * qj
    complex, k = chain.complex, chain.dim
    residual = complex.chain_from_vector(REAL, k, r_vec)
    if prog.nq:
        filling = complex.chain_from_vector(REAL, k + 1, q_vec)
    else:
        filling = PolyChain.zero(REAL, chain.ambient_dim, k + 1)
    if not _replay_ok(chain, residual, filling):
        raise ChainError("flat norm witness failed to replay")
    return residual, filling


def _replay_ok(chain: PolyChain, residual: PolyChain, filling: PolyChain) -> bool:
    total = residual + filling.boundary() if not filling.is_zero() else residual
    return total.terms == chain.as_real().terms


def flat_norm(chain: PolyChain) -> FlatWitness:
    """Float-route flat norm with an exactly replaying witness.

    Programs whose dense matrix would pass chainfile.MAX_FLOAT_LP_ENTRIES
    entries are refused with InputLimitError before any of the program is
    built.  Each distinct volume object is converted to float once: the
    cells of one grid shape share one.

    numpy is imported here, as scipy is in simplex_lp.solve_float, so only
    a float LP pays for loading it."""
    import numpy as np

    _require_real(chain)
    complex, k = chain.complex, chain.dim
    rows = complex.count(k)
    cols = 2 * rows + (2 * complex.count(k + 1) if k < complex.ambient_dim else 0)
    if rows * cols > chainfile.MAX_FLOAT_LP_ENTRIES:
        raise chainfile.InputLimitError(
            "float flat norm: %d LP rows x %d columns = %d entries exceed "
            "MAX_FLOAT_LP_ENTRIES = %d"
            % (rows, cols, rows * cols, chainfile.MAX_FLOAT_LP_ENTRIES))
    prog = _flat_program(chain)
    nr, nq = prog.nr, prog.nq

    a = np.zeros((nr, len(prog.c)))
    a[prog.rows, prog.cols] = prog.vals
    distinct = {id(v): v for v in prog.c}
    as_float = {key: float(v) for key, v in distinct.items()}
    x, obj = simplex_lp.solve_float(a, np.array([float(v) for v in prog.b]),
                                    np.array([as_float[id(v)] for v in prog.c]))

    # a column difference of exactly 0.0 stays 0, with no Fraction built
    q_vec = [Fraction(v).limit_denominator(SNAP_DENOMINATOR) if v else 0
             for v in (x[2 * nr:2 * nr + nq] - x[2 * nr + nq:]).tolist()]
    residual, filling = _witness(chain, prog, q_vec)
    return FlatWitness(value=obj, value_exact=None, residual=residual, filling=filling)


def flat_norm_oracle(chain: PolyChain) -> FlatWitness:
    """Exact-route flat norm: integer tableau (the program's entries are
    +-1), one cost row per volume radicand, and an independent optimality
    certificate recomputed from the raw data.

    Programs past chainfile.MAX_EXACT_LP_ROWS rows are refused with
    InputLimitError before any of the program is built."""
    _require_real(chain)
    rows = chain.complex.count(chain.dim)
    if rows > chainfile.MAX_EXACT_LP_ROWS:
        raise chainfile.InputLimitError(
            "exact flat norm: %d LP rows exceed MAX_EXACT_LP_ROWS = %d"
            % (rows, chainfile.MAX_EXACT_LP_ROWS))
    prog = _flat_program(chain)
    nr, nq, b, c = prog.nr, prog.nq, prog.b, prog.c

    a_rows = [[0] * len(c) for _ in range(nr)]
    for i, j, v in zip(prog.rows, prog.cols, prog.vals):
        a_rows[i][j] = v

    x, obj, final_basis = simplex_lp.solve_exact(a_rows, b, c, prog.basis)
    if not simplex_lp.check_certificate(a_rows, b, c, final_basis):
        raise CertificateError("exact flat norm basis failed its optimality certificate")

    q_vec = [x[2 * nr + j] - x[2 * nr + nq + j] for j in range(nq)]
    residual, filling = _witness(chain, prog, q_vec)
    return FlatWitness(value=float(obj), value_exact=obj, residual=residual, filling=filling)

