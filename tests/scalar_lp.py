"""One-program two-phase simplex, kept as a test oracle.

This is the one-tableau form of ``bspower.lp.solve_batch``: the same
preprocessing (fixed variables substituted, shift to nonnegative variables,
upper-bound rows, row equilibration), a tableau with explicit artificial
columns, Dantzig pricing with a switch to Bland's rule after prolonged
stalling, the lowest-basis-index tie-break in the ratio test, and the rank-1
update restricted to rows with a nonzero pivot-column entry. The batched
solver must reproduce its solution, objective, iteration count, status and
Bland flag bit for bit, program by program.

The stall counter counts only pivots that do not improve the objective;
``best`` starts at the objective of the starting basis.
"""

from dataclasses import dataclass

import numpy as np

from bspower.lp import _STALL_EPS, FEAS_TOL, PIVOT_TOL, LinearProgram, LpSolution


@dataclass
class Prepared:
    status: str | None        # early verdict, or None to continue
    free: np.ndarray          # original indices of free variables
    fixed: np.ndarray
    fixed_values: np.ndarray
    lo: np.ndarray            # lower bounds of free variables (the shift)
    c: np.ndarray             # costs of free variables
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray          # includes rows for finite upper bounds
    b_ub: np.ndarray
    n_upper_rows: int = 0

    def assemble(self, x_shift: np.ndarray, lp: LinearProgram) -> np.ndarray:
        x = np.empty(lp.n_vars)
        x[self.fixed] = self.fixed_values
        x[self.free] = self.lo + x_shift
        return x


def prepare(lp: LinearProgram) -> Prepared:
    fixed_mask = lp.lower == lp.upper
    fixed = np.nonzero(fixed_mask)[0]
    free = np.nonzero(~fixed_mask)[0]
    fixed_values = lp.lower[fixed]

    b_eq = lp.b_eq - lp.a_eq[:, fixed] @ fixed_values
    b_ub = lp.b_ub - lp.a_ub[:, fixed] @ fixed_values
    a_eq = lp.a_eq[:, free]
    a_ub = lp.a_ub[:, free]

    if free.size == 0:
        ok = _rows_feasible(a_eq, b_eq, equality=True) and \
             _rows_feasible(a_ub, b_ub, equality=False)
        status = "optimal" if ok else "infeasible"
        return Prepared(status, free, fixed, fixed_values,
                        np.zeros(0), np.zeros(0), a_eq, b_eq, a_ub, b_ub)

    lo = lp.lower[free]
    b_eq = b_eq - a_eq @ lo
    b_ub = b_ub - a_ub @ lo
    up = lp.upper[free] - lo

    finite = np.nonzero(np.isfinite(up))[0]
    if finite.size:
        rows = np.zeros((finite.size, free.size))
        rows[np.arange(finite.size), finite] = 1.0
        a_ub = np.vstack([a_ub, rows])
        b_ub = np.concatenate([b_ub, up[finite]])

    return Prepared(None, free, fixed, fixed_values, lo, lp.c[free],
                    a_eq, b_eq, a_ub, b_ub, n_upper_rows=finite.size)


def _rows_feasible(a, b, equality):
    if b.size == 0:
        return True
    scale = np.maximum(np.abs(a).max(axis=1, initial=0.0), 1.0)
    r = b / scale
    return bool(np.all(np.abs(r) <= FEAS_TOL)) if equality else bool(np.all(r >= -FEAS_TOL))


def equilibrate(a, b, equality):
    """Scale rows to unit max-abs; drop zero rows, detecting inconsistency.

    Returns (a, b, ok); ok False means a zero row was unsatisfiable.
    """
    if b.size == 0:
        return a, b, True
    scale = np.abs(a).max(axis=1, initial=0.0)
    zero = scale <= 0.0
    if zero.any():
        bz = b[zero]
        bad = np.any(np.abs(bz) > FEAS_TOL) if equality else np.any(bz < -FEAS_TOL)
        if bad:
            return a, b, False
        a, b, scale = a[~zero], b[~zero], scale[~zero]
    if b.size == 0:
        return a, b, True
    return a / scale[:, None], b / scale, True


def scalar_solve(lp: LinearProgram) -> LpSolution:
    """Two-phase simplex on one tableau; returns optimal, infeasible or unbounded."""
    prep = prepare(lp)
    if prep.status == "infeasible":
        return LpSolution("infeasible")
    if prep.status == "optimal":
        x = prep.assemble(np.zeros(0), lp)
        return LpSolution("optimal", x, float(lp.c @ x))

    a_eq, b_eq, ok_eq = equilibrate(prep.a_eq, prep.b_eq, equality=True)
    a_ub, b_ub, ok_ub = equilibrate(prep.a_ub, prep.b_ub, equality=False)
    if not (ok_eq and ok_ub):
        return LpSolution("infeasible")

    n = prep.c.size
    m_eq, m_ub = b_eq.size, b_ub.size
    m = m_eq + m_ub
    n_core = n + m_ub

    body = np.zeros((m, n_core))
    body[:m_eq, :n] = a_eq
    body[m_eq:, :n] = a_ub
    body[m_eq + np.arange(m_ub), n + np.arange(m_ub)] = 1.0
    rhs = np.concatenate([b_eq, b_ub])
    flip = rhs < 0
    body[flip] *= -1.0
    rhs[flip] = -rhs[flip]

    # slacks of unflipped inequality rows form part of the initial basis;
    # every other row gets an artificial variable
    slack_basic = np.zeros(m, dtype=bool)
    slack_basic[m_eq:] = ~flip[m_eq:]
    art_rows = np.nonzero(~slack_basic)[0]
    n_art = art_rows.size

    tableau = np.zeros((m, n_core + n_art + 1))
    tableau[:, :n_core] = body
    tableau[art_rows, n_core + np.arange(n_art)] = 1.0
    tableau[:, -1] = rhs

    basis = np.empty(m, dtype=int)
    srows = np.nonzero(slack_basic)[0]
    basis[srows] = n + (srows - m_eq)
    basis[art_rows] = n_core + np.arange(n_art)

    iterations = 0
    bland = False
    if n_art:
        cost1 = np.zeros(n_core + n_art)
        cost1[n_core:] = 1.0
        status1, it1, bland = _run_simplex(tableau, basis, cost1, n_core)
        iterations += it1
        if status1 != "optimal":
            raise RuntimeError("phase 1 terminated abnormally: " + status1)
        if float(cost1[basis] @ tableau[:, -1]) > FEAS_TOL:
            return LpSolution("infeasible", iterations=iterations, bland=bland)
        tableau, basis = _drop_artificials(tableau, basis, n_core)
        m = tableau.shape[0]

    cost2 = np.zeros(n_core)
    cost2[:n] = prep.c
    status2, it2, bland2 = _run_simplex(tableau, basis, cost2, n_core)
    iterations += it2
    bland = bland or bland2
    if status2 == "unbounded":
        return LpSolution("unbounded", iterations=iterations, bland=bland)

    x_shift = np.zeros(n)
    for r in range(m):
        if basis[r] < n:
            x_shift[basis[r]] = tableau[r, -1]
    x = prep.assemble(np.maximum(x_shift, 0.0), lp)
    return LpSolution("optimal", x, float(lp.c @ x), iterations, bland)


def _pivot(tableau, basis, r, j):
    """Make column j basic in row r, in place.

    Only rows with a nonzero entry in column j get the rank-1 update; the
    others would subtract 0 * pivot row, so skipping them changes nothing.
    """
    piv_row = tableau[r] / tableau[r, j]
    rows = tableau[:, j].nonzero()[0]
    rows = rows[rows != r]
    tableau[rows] -= tableau[rows, j, None] * piv_row
    tableau[r] = piv_row
    tableau[:, j] = 0.0
    tableau[r, j] = 1.0
    basis[r] = j


def _run_simplex(tableau, basis, cost, n_price):
    """Iterate pivots in place; returns (status, iterations, bland)."""
    m = tableau.shape[0]
    if m == 0:
        return ("optimal" if np.all(cost[:n_price] >= -PIVOT_TOL) else "unbounded"), 0, False
    max_stall = 2 * (m + n_price)
    cap = 10_000 + 200 * (m + n_price)
    bland = False
    stall = 0
    best = float(cost[basis] @ tableau[:, -1])
    iterations = 0
    while True:
        z = cost[:n_price] - cost[basis] @ tableau[:, :n_price]
        if bland:
            neg = np.nonzero(z < -PIVOT_TOL)[0]
            if neg.size == 0:
                return "optimal", iterations, bland
            j = int(neg[0])
        else:
            j = int(np.argmin(z))
            if z[j] >= -PIVOT_TOL:
                return "optimal", iterations, bland
        col = tableau[:, j]
        pos = col > PIVOT_TOL
        if not pos.any():
            return "unbounded", iterations, bland
        ratios = np.full(m, np.inf)
        ratios[pos] = tableau[pos, -1] / col[pos]
        rmin = ratios.min()
        ties = np.nonzero(ratios <= rmin + 1e-12 * (1.0 + abs(rmin)))[0]
        r = int(ties[np.argmin(basis[ties])])

        _pivot(tableau, basis, r, j)
        iterations += 1

        obj = float(cost[basis] @ tableau[:, -1])
        if obj < best - _STALL_EPS * max(1.0, abs(best)):
            best, stall = obj, 0
        else:
            stall += 1
            if stall > max_stall:
                bland = True
        if iterations > cap:
            raise RuntimeError("simplex iteration cap exceeded")


def _drop_artificials(tableau, basis, n_core):
    """Pivot basic artificials out after phase 1; drop redundant rows."""
    drop = []
    for r in range(tableau.shape[0]):
        if basis[r] < n_core:
            continue
        row = np.abs(tableau[r, :n_core])
        j = int(np.argmax(row > PIVOT_TOL)) if np.any(row > PIVOT_TOL) else -1
        if j < 0:
            drop.append(r)
            continue
        _pivot(tableau, basis, r, j)
    keep = np.setdiff1d(np.arange(tableau.shape[0]), drop)
    tableau = np.hstack([tableau[keep][:, :n_core], tableau[keep][:, -1:]])
    return tableau, basis[keep]
