"""One-program two-phase bounded-variable simplex, kept as a test oracle.

This is the one-tableau form of ``bspower.lp.solve_batch``: the same
preprocessing (fixed variables substituted, shift to 0 <= x <= u, row
equilibration); a tableau with the reduced-cost row as its last row and no
artificial columns; the same crash basis of columns that appear in one row
only; Dantzig pricing with a switch to Bland's rule after prolonged
stalling; and the same three-way ratio test: a basic variable falling to
0, a basic variable rising to its upper bound (its row is complemented,
then pivoted on) or a bound flip of the entering variable (its column is
complemented, no pivot). Ties go to the bound flip, then to the lowest
basis index. The rank-1 update is restricted to rows with a nonzero
pivot-column entry. The batched solver must reproduce its solution,
objective, iteration count, status and Bland flag bit for bit, program by
program.

The stall counter counts only steps that do not improve the objective,
read from the rhs entry of the reduced-cost row; ``best`` starts at the
objective of the starting basis.
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
    up: np.ndarray            # shifted upper bounds of free variables, may be inf
    c: np.ndarray             # costs of free variables
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray

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
        return Prepared(status, free, fixed, fixed_values, np.zeros(0), np.zeros(0),
                        np.zeros(0), a_eq, b_eq, a_ub, b_ub)

    lo = lp.lower[free]
    b_eq = b_eq - a_eq @ lo
    b_ub = b_ub - a_ub @ lo
    return Prepared(None, free, fixed, fixed_values, lo, lp.upper[free] - lo, lp.c[free],
                    a_eq, b_eq, a_ub, b_ub)


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

    # rows, then the reduced-cost row
    tableau = np.zeros((m + 1, n_core + 1))
    tableau[:m_eq, :n] = a_eq
    tableau[m_eq:m, :n] = a_ub
    tableau[m_eq + np.arange(m_ub), n + np.arange(m_ub)] = 1.0
    tableau[:m, -1] = np.concatenate([b_eq, b_ub])
    flip = np.append(tableau[:m, -1] < 0, False)
    tableau[flip] *= -1.0

    # crash basis: a row starts with the lowest-index column that is nonzero
    # in no other row, positive in this one and without an upper bound, its
    # row divided by that entry. Every other row starts with an artificial
    # variable, which is never priced and so needs no column: it only has
    # basis index n_core + row
    up = np.concatenate([prep.up, np.full(m_ub + m, np.inf)])
    lone = (np.count_nonzero(tableau[:m, :n_core], axis=0) == 1) & (up[:n_core] == np.inf)
    basis = np.arange(m) + n_core
    for r in range(m):
        candidates = np.nonzero(lone & (tableau[r, :n_core] > 0.0))[0]
        if candidates.size:
            basis[r] = candidates[0]
            tableau[r] /= tableau[r, candidates[0]]
    complemented = np.zeros(n, dtype=bool)

    iterations = 0
    bland = False
    if np.any(basis >= n_core):
        cost1 = np.zeros(n_core + m)
        cost1[n_core:] = 1.0
        _price(tableau, basis, cost1, complemented, up)
        status1, it1, bland = _run_simplex(tableau, basis, complemented, up, n_core)
        iterations += it1
        if status1 != "optimal":
            raise RuntimeError("phase 1 terminated abnormally: " + status1)
        if -tableau[-1, -1] > FEAS_TOL:
            return LpSolution("infeasible", iterations=iterations, bland=bland)
        tableau, basis = _drop_artificials(tableau, basis, n_core)

    cost2 = np.zeros(n_core + m)
    cost2[:n] = prep.c
    _price(tableau, basis, cost2, complemented, up)
    status2, it2, bland2 = _run_simplex(tableau, basis, complemented, up, n_core)
    iterations += it2
    bland = bland or bland2
    if status2 == "unbounded":
        return LpSolution("unbounded", iterations=iterations, bland=bland)

    x_shift = np.zeros(n)
    for r in range(basis.size):
        if basis[r] < n:
            x_shift[basis[r]] = tableau[r, -1]
    x_shift = np.where(complemented, prep.up - x_shift, x_shift)
    x = prep.assemble(np.maximum(x_shift, 0.0), lp)
    return LpSolution("optimal", x, float(lp.c @ x), iterations, bland)


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


def _run_simplex(tableau, basis, complemented, up, n_price):
    """Iterate pivots and bound flips in place; returns (status, iterations, bland).

    The last tableau row holds the reduced costs; complemented is updated
    in place, and up holds the upper bound of every basis index.
    """
    m = tableau.shape[0] - 1
    max_stall = 2 * (m + n_price)
    cap = 10_000 + 200 * (m + n_price)
    bland = False
    stall = 0
    best = -tableau[m, -1]
    iterations = 0
    while True:
        z = tableau[m, :n_price]
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


def _drop_artificials(tableau, basis, n_core):
    """Pivot basic artificials out after phase 1; drop redundant rows."""
    m = basis.size
    drop = []
    for r in range(m):
        if basis[r] < n_core:
            continue
        row = np.abs(tableau[r, :n_core])
        j = int(np.argmax(row > PIVOT_TOL)) if np.any(row > PIVOT_TOL) else -1
        if j < 0:
            drop.append(r)
            continue
        _pivot(tableau, basis, r, j)
    keep = np.setdiff1d(np.arange(m + 1), drop)
    return tableau[keep], basis[keep[:-1]]
