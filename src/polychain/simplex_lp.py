"""Simplex solvers for equality-form linear programs.

    minimize c . x   subject to   A x = b,  x >= 0

Two independent routes:

* ``solve_float``: HiGHS's dual simplex (Huangfu & Hall, Math. Prog. Comp.
  10, 2018), one direct call through scipy's binding of it, on the
  column-wise nonzeros of A.
* ``solve_exact``: Fraction tableau with an ordered-field objective row
  (entries may be RadicalSum), so degeneracy and optimality tests are exact.
  Callers supply a starting basis whose columns form an identity in A and a
  nonnegative right-hand side, so no phase-1 is ever needed (the flat-norm
  programs always have one: split slack columns indexed by the sign of b).
  Bland's rule picks the pivots.  Each tableau step is `geometry.pivot`,
  the step `gauss_jordan` takes too, which touches only the pivot row's
  nonzero columns; the objective row is updated beside it.

``check_certificate`` re-derives optimality of a basis from the raw data
(basic solution feasible, all reduced costs nonnegative) without reusing
any solver state; it is the referee between the two routes.  Its primal
and dual basis solves go through ``geometry.solve_linear``.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import pivot, solve_linear
from .radicals import RadicalSum


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


def _rad(v) -> RadicalSum:
    return v if isinstance(v, RadicalSum) else RadicalSum.from_rational(v)


def solve_exact(a_rows, b, c, basis):
    """Exact route: a_rows/b carry Fractions; c entries may be Fractions or
    RadicalSums.  Returns (x, objective, basis) with x a list of Fractions
    and the objective a RadicalSum.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    for v in b:
        if v < 0:
            raise LPError("negative right-hand side; basis is not feasible")
    basis = list(basis)
    t = [[v if type(v) is Fraction else Fraction(v) for v in row] + [Fraction(rhs)]
         for row, rhs in zip(a_rows, b)]
    c = [_rad(v) for v in c]
    z = list(c)
    for i, bi in enumerate(basis):
        cb = c[bi]
        if not cb.is_zero():
            row = t[i]
            for j in range(n):
                if row[j]:
                    z[j] = z[j] - cb * row[j]

    for _ in range(_MAX_PIVOTS):
        entering = -1
        for j in range(n):
            if z[j].sign() < 0:
                entering = j
                break
        if entering < 0:
            break
        best = -1
        best_ratio = None
        for i in range(m):
            aij = t[i][entering]
            if aij > 0:
                ratio = t[i][n] / aij
                if best < 0 or ratio < best_ratio or (
                        ratio == best_ratio and basis[i] < basis[best]):
                    best, best_ratio = i, ratio
        if best < 0:
            raise Unbounded("objective unbounded below")
        # the tableau step is geometry.pivot; the objective row, which holds
        # RadicalSums, follows at the pivot row's nonzero columns
        nz = pivot(t, best, entering)
        prow = t[best]
        ze = z[entering]
        if not ze.is_zero():
            for j in (nz[:-1] if prow[n] else nz):
                z[j] = z[j] - ze * prow[j]
        basis[best] = entering
    else:
        raise PivotLimit("pivot limit reached")

    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = t[i][n]
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
    n = len(a_rows[0]) if m else 0
    basis = list(basis)
    if len(basis) != m or len(set(basis)) != m:
        return False
    c = [_rad(v) for v in c]
    bmat = [[a_rows[i][j] for j in basis] for i in range(m)]
    primal = solve_linear(bmat, [Fraction(v) for v in b])
    # a singular basis matrix, or an infeasible basic solution
    if primal is None or primal[1] or any(v < 0 for v in primal[0]):
        return False
    bt = [[bmat[i][j] for i in range(m)] for j in range(m)]
    y = solve_linear(bt, [c[j] for j in basis])[0]
    for j in range(n):
        reduced = c[j]
        for i in range(m):
            aij = a_rows[i][j]
            if aij:
                reduced = reduced - y[i] * aij
        if reduced.sign() < 0:
            return False
    return True
