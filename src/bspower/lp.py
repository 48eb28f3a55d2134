"""Dense linear programming with a two-phase bounded-variable simplex.

No policy is solved with it: bspower.stochastic solves every program the
package plans by its storage recursion. The tests solve
build_deterministic_equivalent with this module to check that recursion,
and LinearProgram is the type that function returns.

Problem form:

    minimize    c @ x
    subject to  a_eq @ x == b_eq
                lower <= x <= upper

Lower bounds must be finite; upper bounds may be +inf. Internally the
problem is shifted to 0 <= x <= u, fixed variables (lower == upper) are
substituted out, rows are equilibrated by their max-abs coefficient, and a
phase-1/phase-2 tableau simplex runs with Dantzig pricing and lowest-index
tie-breaking. Bland's rule takes over once the program has made too many
steps in a row that do not improve its objective, so termination is
guaranteed. Every step is fully deterministic.

Finite upper bounds are handled in the ratio test (the upper-bounding
technique: Dantzig 1955; Chvatal, Linear Programming, ch. 8). A nonbasic
variable at its upper bound is complemented, x = u - x', so every nonbasic
variable sits at 0. The ratio test takes the shortest of three steps: a
basic variable falling to 0; a basic variable rising to its upper bound,
whose row is then complemented and pivoted on; and the entering variable
reaching its own bound, a bound flip that complements its column without a
pivot. Ties go to the bound flip, then to the lowest basis index. The
reduced-cost row is row m of the tableau, with minus the objective in its
rhs entry, and pivots and flips update it like any other row; it is
priced from scratch only at the start of each phase. A pivot's rank-1
update touches only the rows with a nonzero pivot-column entry.

The starting basis is a crash basis (Bixby, "Implementing the simplex
method: the initial basis", 1992): a row (sign-flipped to a nonnegative
rhs) starts with the lowest-index column that is nonzero in no other row,
positive in this one and without an upper bound, scaled to 1, so that its
value rhs / entry is feasible. Only rows without one get an artificial
variable, and a program without artificials skips phase 1. Artificial
variables are not stored: they are never priced or ratio-tested, so a row
whose artificial is basic only carries the basis index n + row, after the
n free variables. After phase 1 each basic artificial is pivoted out; a
row without an entry above PIVOT_TOL is redundant and is set to exactly
0, its artificial basic at level 0. A program whose tableau holds inf or
NaN in its rhs column or reduced-cost row when it stops (an overflow)
gets the status numerical, since no verdict read from it holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-7   # absolute feasibility tolerance on equilibrated rows
PIVOT_TOL = 1e-9  # reduced-cost / pivot-element threshold

_STALL_EPS = 1e-12


@dataclass
class LinearProgram:
    c: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        self.c = np.atleast_1d(np.asarray(self.c, dtype=float))
        n = self.c.size
        self.a_eq, self.b_eq = _normalize_rows(self.a_eq, self.b_eq, n)
        self.lower = _normalize_bound(self.lower, n, 0.0)
        self.upper = _normalize_bound(self.upper, n, np.inf)
        if not np.all(np.isfinite(self.lower)):
            raise ValueError("lower bounds must be finite")
        if np.any(self.lower > self.upper):
            bad = int(np.argmax(self.lower > self.upper))
            raise ValueError(f"variable {bad}: lower bound exceeds upper bound")

    @property
    def n_vars(self) -> int:
        return self.c.size


@dataclass
class LpResult:
    """The result of one program; x and objective are NaN unless it is optimal."""

    status: str       # "optimal" | "infeasible" | "unbounded" | "numerical"
    x: np.ndarray     # (n_vars,)
    objective: float  # c @ x
    iterations: int   # pivots plus bound flips, both phases
    bland: bool       # Bland's rule switched on in phase 1 or 2


def _normalize_rows(a, b, n):
    if a is None and b is None:
        return np.zeros((0, n)), np.zeros(0)
    if a is None or b is None:
        raise ValueError("a_eq and b_eq must be given together")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != (b.size, n):
        raise ValueError(f"a_eq shape {a.shape} incompatible with "
                         f"{b.size} rhs entries and {n} variables")
    return a, b


def _normalize_bound(v, n, default):
    if v is None:
        return np.full(n, default)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.size != n:
        raise ValueError(f"bound vector length {v.size} != {n} variables")
    return v.copy()


def _prepare(lp: LinearProgram):
    """Substitute fixed variables, shift to 0 <= x <= up and equilibrate.

    Rows are scaled to unit max-abs and zero rows dropped. Returns (free,
    body, rhs, up, ok): the free variables' indices, the scaled rows over
    them and their rhs, the free variables' shifted upper bounds, and ok,
    False when a zero row has a nonzero rhs (with every variable fixed,
    every row is zero and ok is the verdict).
    """
    fixed = lp.lower == lp.upper
    free = np.nonzero(~fixed)[0]
    lo = lp.lower[free]
    body = lp.a_eq[:, free]
    rhs = lp.b_eq - lp.a_eq[:, fixed] @ lp.lower[fixed] - body @ lo
    scale = np.abs(body).max(axis=1, initial=0.0)
    keep = scale > 0.0
    ok = not (np.abs(rhs[~keep]) > FEAS_TOL).any()
    return (free, body[keep] / scale[keep, None], rhs[keep] / scale[keep],
            lp.upper[free] - lo, ok)


def solve(lp: LinearProgram) -> LpResult:
    """Two-phase simplex; returns status optimal, infeasible, unbounded or numerical."""
    free, body, rhs, up, ok = _prepare(lp)
    status, iterations, bland = "infeasible", 0, False
    x = lp.lower.copy()
    if ok and not free.size:
        status = "optimal"
    elif ok:
        status, values, iterations, bland = _two_phase(body, rhs, lp.c[free], up)
        if status == "optimal":
            x[free] += np.maximum(values, 0.0)
    if status != "optimal":
        x[:] = np.nan
    return LpResult(status, x, float(lp.c @ x), iterations, bland)


def _two_phase(body, rhs, c, up):
    """Run both phases on the prepared rows body @ x == rhs, 0 <= x <= up.

    Returns (status, values of the free variables, iterations, bland); the
    values are None unless the program is optimal.
    """
    m, n = body.shape
    tableau = np.empty((m + 1, n + 1))
    tableau[:m, :n] = body
    tableau[:m, -1] = rhs
    tableau[:m][rhs < 0] *= -1.0
    # the upper bound of every basis index; the artificials' is inf
    up = np.concatenate([up, np.full(m, np.inf)])

    # crash basis; a crashed row is divided by its entry in the starting column
    lone = (np.count_nonzero(body, axis=0) == 1) & (up[:n] == np.inf)
    candidates = lone & (tableau[:m, :n] > 0.0)
    basis = np.where(candidates.any(axis=1), candidates.argmax(axis=1), np.arange(m) + n)
    crashed = np.nonzero(basis < n)[0]
    tableau[crashed] /= tableau[crashed, basis[crashed], None]
    complemented = np.zeros(n, dtype=bool)

    iterations, bland = 0, False
    if crashed.size < m:
        # phase 1 minimises the sum of artificials
        cost = np.zeros(n + m)
        cost[n:] = 1.0
        _price(tableau, basis, cost, complemented, up)
        unbounded, iterations, bland = _run_simplex(tableau, basis, complemented, up)
        if unbounded:
            raise RuntimeError("phase 1 terminated abnormally: unbounded")
        if -tableau[m, -1] > FEAS_TOL:
            finite = np.isfinite(tableau[:m, -1]).all()
            return ("infeasible" if finite else "numerical"), None, iterations, bland
        _drop_artificials(tableau, basis)

    cost = np.zeros(n + m)
    cost[:n] = c
    _price(tableau, basis, cost, complemented, up)
    unbounded, more, bland2 = _run_simplex(tableau, basis, complemented, up)
    iterations, bland = iterations + more, bland or bland2
    if not (np.isfinite(tableau[:m, -1]).all() and np.isfinite(tableau[m]).all()):
        return "numerical", None, iterations, bland
    if unbounded:
        return "unbounded", None, iterations, bland
    values = np.zeros(n)
    basic = basis < n
    values[basis[basic]] = tableau[:m, -1][basic]
    return "optimal", np.where(complemented, up[:n] - values, values), iterations, bland


def _price(tableau, basis, cost, complemented, up):
    """Write the reduced costs of cost in the current basis into row m.

    cost and up have an entry for every basis index. A complemented
    variable x = u - x' costs -c and adds c u to the objective; the rhs
    entry of row m is minus the objective. cost is overwritten: its
    complemented entries change sign.
    """
    n = complemented.size
    shift = (cost[:n] * np.where(complemented, up[:n], 0.0)).sum()
    cost[:n] = np.where(complemented, -cost[:n], cost[:n])
    tableau[-1, :-1] = cost[:n]
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
    rows = np.nonzero(tableau[:, j])[0]
    rows = rows[rows != r]
    tableau[rows] -= tableau[rows, j, None] * piv_row
    tableau[r] = piv_row
    basis[r] = j


def _run_simplex(tableau, basis, complemented, up):
    """Step until optimal or unbounded, in place; returns (unbounded, iterations, bland).

    tableau (m + 1, n + 1) carries the reduced-cost row as row m and the
    rhs as column n; complemented (n,) is updated in place, and up holds
    the upper bound of every basis index. Dantzig's rule prices until more
    than 2 (m + n) steps in a row fail to improve the objective, then
    Bland's rule. A step is a pivot or a bound flip.
    """
    m, n = tableau.shape[0] - 1, tableau.shape[1] - 1
    max_stall = 2 * (m + n)
    cap = 10_000 + 200 * (m + n)
    bland = False
    stall = iterations = 0
    best = tableau[m, -1]  # minus the best objective so far
    # upper bound of each row's basic variable; the reduced-cost row's is
    # inf, so its ratio (rhs - inf) / entry is inf for an entering column,
    # whose entry there is negative
    row_up = np.append(up[basis], np.inf)
    while True:
        z = tableau[m, :n]
        j = int(np.argmax(z < -PIVOT_TOL) if bland else np.argmin(z))
        if z[j] >= -PIVOT_TOL:
            return False, iterations, bland

        # ratio test: a basic variable falls to 0 (entry > 0) or rises to its
        # upper bound (entry < 0); (beta - bound) / entry covers both
        col = tableau[:, j]
        bound = np.where(col > 0.0, 0.0, row_up)
        ratios = np.divide(tableau[:, -1] - bound, col, out=np.full(m + 1, np.inf),
                           where=np.abs(col) > PIVOT_TOL)
        rmin = ratios.min()
        if np.minimum(rmin, up[j]) == np.inf:
            return True, iterations, bland

        reach = rmin + 1e-12 * (1.0 + np.abs(rmin))
        if up[j] <= reach:
            # the entering variable reaches its own bound first, a bound
            # flip: x_j = u_j - x_j', the column changes sign and the rhs moves
            tableau[:, -1] -= up[j] * col
            tableau[:, j] = -col
            complemented[j] ^= True
        else:
            # of the rows tied with the minimum ratio, the lowest basis index
            # leaves; n + m is above every basis index
            r = int(np.where(ratios[:m] <= reach, basis, n + m).argmin())
            if col[r] < 0.0:
                # the leaving variable ends at its bound: x_b = u_b - x_b', so
                # its row changes sign and its rhs becomes u_b - beta
                b = basis[r]
                tableau[r] *= -1.0
                tableau[r, b] = 1.0
                tableau[r, -1] += up[b]
                complemented[b] ^= True
            _pivot(tableau, basis, r, j)
            row_up[r] = up[j]
        iterations += 1
        if iterations > cap:
            raise RuntimeError("simplex iteration cap exceeded")

        # a step improves when the objective falls below best -
        # _STALL_EPS * max(1, |best|)
        if tableau[m, -1] > best + _STALL_EPS * np.maximum(1.0, np.abs(best)):
            best, stall = tableau[m, -1], 0
        else:
            stall += 1
            bland = bland or stall > max_stall


def _drop_artificials(tableau, basis):
    """Pivot basic artificials out after phase 1, row by row in order.

    A redundant row, every entry of it below PIVOT_TOL, is set to exactly 0,
    rhs included, and keeps its artificial basic (Chvatal, ch. 8): no pivot
    updates a zero row, the ratio test never picks it and the artificial
    costs 0 in phase 2.
    """
    n = tableau.shape[1] - 1
    for r in np.nonzero(basis >= n)[0]:
        big = np.abs(tableau[r, :n]) > PIVOT_TOL
        if big.any():
            _pivot(tableau, basis, r, int(big.argmax()))
        else:
            tableau[r] = 0.0
