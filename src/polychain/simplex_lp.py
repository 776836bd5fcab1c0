"""Simplex solvers for equality-form linear programs.

    minimize c . x   subject to   A x = b,  x >= 0

Two independent routes:

* ``solve_float``: HiGHS's dual simplex (Huangfu & Hall, Math. Prog. Comp.
  10, 2018), one direct call through scipy's binding of it, on the
  column-wise nonzeros of A.
* ``solve_exact``: exact tableau with Bland's rule, so degeneracy and
  optimality tests are exact.  Callers supply a starting basis whose
  columns form an identity in A and a nonnegative right-hand side, so no
  phase-1 is ever needed (the flat-norm programs always have one: split
  slack columns indexed by the sign of b).  The tableau holds Python ints
  wherever the data allow: b is scaled to integers by the least common
  multiple of its denominators, the ratio test is cross-multiplied, and
  the costs, which may be RadicalSums, become one integer row per radicand
  (`radicals.integer_rows`) appended below the constraint rows.  Each
  tableau step is `geometry.pivot`, the step `gauss_jordan` takes too,
  which touches only the pivot row's nonzero columns, cost rows included;
  a pivot of +-1 keeps ints, and any other pivot brings in Fractions
  where they are needed (on the flat-norm programs measured, every pivot
  was +-1).  Each column's reduced-cost sign is cached and recomputed
  only after a pivot touches the column.

``check_certificate`` re-derives optimality of a basis from the raw data
(basic solution feasible, all reduced costs nonnegative) without reusing
any solver state; it is the referee between the two routes.  Its primal
basis solve goes through ``geometry.solve_linear``; its dual solve is one
``geometry.gauss_jordan`` over the transposed basis matrix with one
integer cost column per radicand, and the reduced costs are taken per
radicand, in ints when the dual vector is integral.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .geometry import gauss_jordan, pivot, solve_linear
from .radicals import RadicalSum, integer_rows


class LPError(Exception):
    pass


class Unbounded(LPError):
    pass


class PivotLimit(LPError):
    pass


_MAX_PIVOTS = 200000


def solve_float(a, b, c):
    """Returns (x, objective) for min c.x, a x = b, x >= 0, where `a` is a
    dense 2-D array.

    One call to HiGHS through scipy's private binding
    `scipy.optimize._highspy._core`, with the options scipy's
    `linprog(method="highs-ds")` passes: presolve on, the simplex solver,
    the dual strategy and no output.  So x and the objective are bit for
    bit those of that `linprog` call (tests/test_flatnorm.py pins it),
    without its input cleaning, option checks and duals.  HiGHS's
    column-wise matrix is built from the nonzeros of `a`, with no dense
    copy.  Only the primal solution and the objective are read back.

    numpy and scipy are imported here, not at module level: importing them
    costs far more than a small solve, and most callers never solve an LP,
    so `import polychain` and every command but `flatnorm` load neither.
    """
    import numpy as np
    from scipy.optimize._highspy import _core as highs

    a = np.asarray(a, dtype=float)
    m, n = a.shape
    # row-major nonzero positions, then a stable sort by column: each
    # column's entries in row order, as HiGHS's kColwise format wants them
    flat = np.flatnonzero(a)
    cols = flat % n
    flat = flat[np.argsort(cols, kind="stable")]
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n), out=start[1:])
    b = np.asarray(b, dtype=float).tolist()

    # HighsLp copies every field but the costs element by element, which
    # is fastest from Python lists
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = m
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = start.tolist()
    lp.a_matrix_.index_ = (flat // n).tolist()
    lp.a_matrix_.value_ = a.ravel()[flat].tolist()
    lp.col_cost_ = np.asarray(c, dtype=float)
    lp.col_lower_ = [0.0] * n
    lp.col_upper_ = [highs.kHighsInf] * n
    lp.row_lower_ = lp.row_upper_ = b

    options = highs.HighsOptions()
    options.presolve = "on"
    options.solver = "simplex"
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.output_flag = options.log_to_console = False
    solver = highs._Highs()
    solver.passOptions(options)
    solver.passModel(lp)
    solver.run()
    status = solver.getModelStatus()
    if status == highs.HighsModelStatus.kUnbounded:
        raise Unbounded("objective unbounded below")
    if status != highs.HighsModelStatus.kOptimal:
        raise LPError("HiGHS model status: " + solver.modelStatusToString(status))
    return np.array(solver.getSolution().col_value), solver.getInfo().objective_function_value


def _sign(keys, column) -> int:
    """Sign of sum_k column[k] * sqrt(keys[k]): the coefficients' common
    sign when they agree, else RadicalSum.sign's refinement."""
    pos = neg = False
    for v in column:
        if v > 0:
            pos = True
        elif v < 0:
            neg = True
    if pos and neg:
        return RadicalSum({key: v for key, v in zip(keys, column) if v}).sign()
    return 1 if pos else -1 if neg else 0


def solve_exact(a_rows, b, c, basis):
    """Exact route: a_rows and b carry ints or Fractions; c entries may be
    rationals or RadicalSums.  Returns (x, objective, basis) with x a list
    of Fractions and the objective a RadicalSum.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    for v in b:
        if v < 0:
            raise LPError("negative right-hand side; basis is not feasible")
    basis = list(basis)
    scale = lcm(*(v.denominator for v in b))
    t = [list(row) + [rhs.numerator * (scale // rhs.denominator)]
         for row, rhs in zip(a_rows, b)]
    keys, cost, _ = integer_rows(c)
    cost = [row + [0] for row in cost]
    t += cost
    # price out the starting basis, an identity in A: only the cost rows move
    for i, bi in enumerate(basis):
        pivot(t, i, bi)
    # cached reduced-cost signs; the last entry, the RHS column's, is unread
    signs = [None] * (n + 1)

    for _ in range(_MAX_PIVOTS):
        entering = -1
        for j in range(n):
            s = signs[j]
            if s is None:
                s = signs[j] = _sign(keys, [row[j] for row in cost])
            if s < 0:
                entering = j
                break
        if entering < 0:
            break
        best, best_a = -1, 0
        for i in range(m):
            aij = t[i][entering]
            # Bland's ratio test, t[i][n] / aij against the best row's,
            # cross-multiplied; ties go to the smaller basic column
            if aij > 0 and (best < 0 or (d := t[i][n] * best_a - t[best][n] * aij) < 0
                            or (d == 0 and basis[i] < basis[best])):
                best, best_a = i, aij
        if best < 0:
            raise Unbounded("objective unbounded below")
        for j in pivot(t, best, entering):
            signs[j] = None
        basis[best] = entering
    else:
        raise PivotLimit("pivot limit reached")

    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = Fraction(t[i][n], scale)
    obj = RadicalSum()
    for j, v in enumerate(x):
        if v:
            obj = obj + c[j] * v
    return x, obj, basis


def check_certificate(a_rows, b, c, basis) -> bool:
    """Independent exact optimality proof for a basis of min c.x, Ax=b, x>=0.

    Recomputes everything from the raw data: solves for the basic solution
    (must be feasible) and the dual vector, then checks every reduced cost.
    """
    m = len(a_rows)
    basis = list(basis)
    if len(basis) != m or len(set(basis)) != m:
        return False
    bmat = [[a_rows[i][j] for j in basis] for i in range(m)]
    primal = solve_linear(bmat, b)
    # a singular basis matrix, or an infeasible basic solution
    if primal is None or primal[1] or any(v < 0 for v in primal[0]):
        return False
    # B^T y = c_B with one augmented column per radicand of the costs
    keys, reduced, _ = integer_rows(c)
    dual = gauss_jordan([[row[j] for row in bmat] + [cost[bj] for cost in reduced]
                         for j, bj in enumerate(basis)], m)[0]
    for i, row in enumerate(a_rows):
        y = [(k, v) for k, v in enumerate(dual[i][m:]) if v]
        for j, aij in enumerate(row):
            if aij:
                for k, v in y:
                    reduced[k][j] -= v * aij
    return all(_sign(keys, column) >= 0 for column in zip(*reduced))
