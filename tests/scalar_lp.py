"""One-program two-phase bounded-variable simplex, kept as a test oracle.

This is the one-tableau form of ``bspower.lp.solve_batch`` and takes the
same input, equality rows plus bounds: the same preprocessing (fixed
variables substituted, shift to 0 <= x <= u, row equilibration); a
tableau with the reduced-cost row as its last row and no artificial
columns; the same crash basis of columns that appear in one row only;
Dantzig pricing with a switch to Bland's rule after prolonged
stalling; and the same three-way ratio test: a basic variable falling to
0, a basic variable rising to its upper bound (its row is complemented,
then pivoted on) or a bound flip of the entering variable (its column is
complemented, no pivot). Ties go to the bound flip, then to the lowest
basis index. A redundant row left after phase 1 is set to exactly 0 and
keeps its artificial basic, as in the batch. The rank-1 update is
restricted to rows with a nonzero pivot-column entry. It returns
solve_batch's record for a batch of one, and the batched solver must
reproduce its solution, objective, iteration count, status and Bland flag
bit for bit, program by program.

The stall counter counts only steps that do not improve the objective,
read from the rhs entry of the reduced-cost row; ``best`` starts at the
objective of the starting basis.
"""

from dataclasses import dataclass

import numpy as np

from bspower.lp import _STALL_EPS, FEAS_TOL, PIVOT_TOL, LinearProgram, LpResult


@dataclass
class Prepared:
    status: str | None        # early verdict, or None to continue
    free: np.ndarray          # original indices of free variables
    fixed: np.ndarray
    fixed_values: np.ndarray
    lo: np.ndarray            # lower bounds of free variables (the shift)
    up: np.ndarray            # shifted upper bounds of free variables, may be inf
    c: np.ndarray             # costs of free variables
    a_eq: np.ndarray
    b_eq: np.ndarray

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
    a_eq = lp.a_eq[:, free]

    if free.size == 0:
        # every row is zero, so equilibration's zero-row test is the verdict
        status = "optimal" if equilibrate(a_eq, b_eq)[2] else "infeasible"
        return Prepared(status, free, fixed, fixed_values, np.zeros(0), np.zeros(0),
                        np.zeros(0), a_eq, b_eq)

    lo = lp.lower[free]
    b_eq = b_eq - a_eq @ lo
    return Prepared(None, free, fixed, fixed_values, lo, lp.upper[free] - lo, lp.c[free],
                    a_eq, b_eq)


def equilibrate(a, b):
    """Scale rows to unit max-abs; drop zero rows, detecting inconsistency.

    Returns (a, b, ok); ok False means a zero row has a nonzero rhs.
    """
    if b.size == 0:
        return a, b, True
    scale = np.abs(a).max(axis=1, initial=0.0)
    zero = scale <= 0.0
    if zero.any():
        if np.any(np.abs(b[zero]) > FEAS_TOL):
            return a, b, False
        a, b, scale = a[~zero], b[~zero], scale[~zero]
    if b.size == 0:
        return a, b, True
    return a / scale[:, None], b / scale, True


def record(lp: LinearProgram, status: str, x=None, iterations=0, bland=False) -> LpResult:
    """solve_batch's record of lp alone; x is given only when optimal."""
    x = np.full(lp.n_vars, np.nan) if x is None else x
    return LpResult(np.array([status]), x[None], np.array([lp.c @ x]),
                    np.array([iterations]), np.array([bland]))


def scalar_solve(lp: LinearProgram) -> LpResult:
    """Two-phase simplex on one tableau; returns optimal, infeasible or unbounded."""
    prep = prepare(lp)
    if prep.status == "infeasible":
        return record(lp, "infeasible")
    if prep.status == "optimal":
        x = prep.assemble(np.zeros(0), lp)
        return record(lp, "optimal", x)

    a_eq, b_eq, ok = equilibrate(prep.a_eq, prep.b_eq)
    if not ok:
        return record(lp, "infeasible")

    n = prep.c.size
    m = b_eq.size

    # rows, then the reduced-cost row
    tableau = np.zeros((m + 1, n + 1))
    tableau[:m, :n] = a_eq
    tableau[:m, -1] = b_eq
    flip = np.append(tableau[:m, -1] < 0, False)
    tableau[flip] *= -1.0

    # crash basis: a row starts with the lowest-index column that is nonzero
    # in no other row, positive in this one and without an upper bound, its
    # row divided by that entry. Every other row starts with an artificial
    # variable, which is never priced and so needs no column: it only has
    # basis index n + row
    up = np.concatenate([prep.up, np.full(m, np.inf)])
    lone = (np.count_nonzero(tableau[:m, :n], axis=0) == 1) & (up[:n] == np.inf)
    basis = np.arange(m) + n
    for r in range(m):
        candidates = np.nonzero(lone & (tableau[r, :n] > 0.0))[0]
        if candidates.size:
            basis[r] = candidates[0]
            tableau[r] /= tableau[r, candidates[0]]
    complemented = np.zeros(n, dtype=bool)

    iterations = 0
    bland = False
    if np.any(basis >= n):
        cost1 = np.zeros(n + m)
        cost1[n:] = 1.0
        _price(tableau, basis, cost1, complemented, up)
        status1, it1, bland = _run_simplex(tableau, basis, complemented, up)
        iterations += it1
        if status1 != "optimal":
            raise RuntimeError("phase 1 terminated abnormally: " + status1)
        if -tableau[-1, -1] > FEAS_TOL:
            return record(lp, "infeasible", iterations=iterations, bland=bland)
        _drop_artificials(tableau, basis)

    cost2 = np.zeros(n + m)
    cost2[:n] = prep.c
    _price(tableau, basis, cost2, complemented, up)
    status2, it2, bland2 = _run_simplex(tableau, basis, complemented, up)
    iterations += it2
    bland = bland or bland2
    if status2 == "unbounded":
        return record(lp, "unbounded", iterations=iterations, bland=bland)

    x_shift = np.zeros(n)
    for r in range(basis.size):
        if basis[r] < n:
            x_shift[basis[r]] = tableau[r, -1]
    x_shift = np.where(complemented, prep.up - x_shift, x_shift)
    x = prep.assemble(np.maximum(x_shift, 0.0), lp)
    return record(lp, "optimal", x, iterations, bland)


def _price(tableau, basis, cost, complemented, up):
    """Write the reduced costs of cost in the current basis into the last row.

    cost has an entry for every basis index. A complemented variable
    x = u - x' costs -c and adds c u to the objective; the last row's rhs
    entry is minus the objective.
    """
    n = complemented.size
    cost = cost.copy()
    shift = (cost[:n] * np.where(complemented, up[:n], 0.0)).sum()
    cost[:n] = np.where(complemented, -cost[:n], cost[:n])
    tableau[-1, :-1] = cost[:tableau.shape[1] - 1]
    tableau[-1, -1] = -shift
    tableau[-1] -= cost[basis] @ tableau[:-1]


def _pivot(tableau, basis, r, j):
    """Make column j basic in row r, in place.

    Only rows with a nonzero entry in column j get the rank-1 update; the
    others would subtract 0 * pivot row, so skipping them changes nothing.
    The update leaves exact zeros in column j, and the pivot row's entry is
    tableau[r, j] / tableau[r, j] = 1.
    """
    piv_row = tableau[r] / tableau[r, j]
    rows = tableau[:, j].nonzero()[0]
    rows = rows[rows != r]
    tableau[rows] -= tableau[rows, j, None] * piv_row
    tableau[r] = piv_row
    basis[r] = j


def _run_simplex(tableau, basis, complemented, up):
    """Iterate pivots and bound flips in place; returns (status, iterations, bland).

    The last tableau row holds the reduced costs and the last column the
    rhs; complemented is updated in place, and up holds the upper bound of
    every basis index.
    """
    m, n = tableau.shape[0] - 1, tableau.shape[1] - 1
    max_stall = 2 * (m + n)
    cap = 10_000 + 200 * (m + n)
    bland = False
    stall = 0
    best = -tableau[m, -1]
    iterations = 0
    while True:
        z = tableau[m, :n]
        if bland:
            neg = np.nonzero(z < -PIVOT_TOL)[0]
            if neg.size == 0:
                return "optimal", iterations, bland
            j = int(neg[0])
        else:
            j = int(np.argmin(z))
            if z[j] >= -PIVOT_TOL:
                return "optimal", iterations, bland
        # a basic variable falls to 0 (entry > 0) or rises to its upper
        # bound (entry < 0); (beta - bound) / entry covers both
        col = tableau[:m, j]
        ratios = np.full(m, np.inf)
        for i in np.nonzero(np.abs(col) > PIVOT_TOL)[0]:
            bound = 0.0 if col[i] > 0.0 else up[basis[i]]
            ratios[i] = (tableau[i, -1] - bound) / col[i]
        rmin = ratios.min(initial=np.inf)
        if min(rmin, up[j]) == np.inf:
            return "unbounded", iterations, bland
        reach = rmin + 1e-12 * (1.0 + abs(rmin))
        if up[j] <= reach:
            # bound flip: x_j = u_j - x_j'
            tableau[:, -1] -= up[j] * tableau[:, j]
            tableau[:, j] = -tableau[:, j]
            complemented[j] = not complemented[j]
        else:
            ties = np.nonzero(ratios <= reach)[0]
            r = int(ties[np.argmin(basis[ties])])
            if tableau[r, j] < 0.0:
                # the leaving variable ends at its upper bound: complement it
                b = basis[r]
                tableau[r] *= -1.0
                tableau[r, b] = 1.0
                tableau[r, -1] += up[b]
                complemented[b] = not complemented[b]
            _pivot(tableau, basis, r, j)
        iterations += 1

        obj = -tableau[m, -1]
        if obj < best - _STALL_EPS * max(1.0, abs(best)):
            best, stall = obj, 0
        else:
            stall += 1
            if stall > max_stall:
                bland = True
        if iterations > cap:
            raise RuntimeError("simplex iteration cap exceeded")


def _drop_artificials(tableau, basis):
    """Pivot basic artificials out after phase 1, in place; a redundant row
    is set to exactly 0, rhs included, and keeps its artificial basic."""
    n = tableau.shape[1] - 1
    for r in np.nonzero(basis >= n)[0]:
        row = np.abs(tableau[r, :n])
        if np.any(row > PIVOT_TOL):
            _pivot(tableau, basis, r, int(np.argmax(row > PIVOT_TOL)))
        else:
            tableau[r] = 0.0
