"""Dense linear programming with a lockstep batched two-phase simplex.

Problem form:

    minimize    c @ x
    subject to  a_eq @ x == b_eq
                a_ub @ x <= b_ub
                lower <= x <= upper

Lower bounds must be finite; upper bounds may be +inf. Internally the
problem is shifted to nonnegative variables, fixed variables (lower ==
upper) are substituted out, finite upper bounds become inequality rows,
rows are equilibrated by their max-abs coefficient, and a phase-1/phase-2
tableau simplex runs with Dantzig pricing and lowest-index tie-breaking.
Bland's rule takes over once a program has made too many pivots in a row
that do not improve its objective, so termination is guaranteed. Pivoting
is fully deterministic.

solve_batch solves a batch of programs that share a_eq, a_ub, b_ub and the
bounds and differ only in c and b_eq, such as the same-size scenario groups
of a stochastic program. Preprocessing runs once on the shared matrices;
the tableaux are stacked as (programs, rows, cols) and pivot in lockstep.
Each program keeps its own pricing rule, ratio test, stall counter,
iteration cap and verdict, so it takes exactly the pivots it would take
alone and its result is the same bit for bit. Programs that finish are
masked out and stay in the stack. A pivot's rank-1 update touches only the
(program, row) pairs with a nonzero pivot-column entry. Artificial
variables are not stored: they are never priced or ratio-tested, so a row
whose artificial is basic only carries the basis index n_core + row. One
stack holds at most _BATCH_BYTES of tableau (or a single program that is
larger); a larger batch runs as several stacks of equal size. solve(lp) is
the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-7   # absolute feasibility tolerance on equilibrated rows
PIVOT_TOL = 1e-9  # reduced-cost / pivot-element threshold

_STALL_EPS = 1e-12
# Tableau bytes per lockstep stack. A bigger stack shares each round among
# more programs but raises peak memory: on the 80-scenario storage sweep
# (45 x 93 tableaux, shared 2-vCPU host) one 80-program stack raised peak
# RSS by ~3.4 MB (+8%), and 1 MiB stacks of 26-27 programs by ~0.7 MB.
_BATCH_BYTES = 1 << 20
_NO_BASIS = np.iinfo(np.intp).max  # above every basis index in a tie-break


@dataclass
class LinearProgram:
    c: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        self.c = np.atleast_1d(np.asarray(self.c, dtype=float))
        n = self.c.size
        self.a_eq, self.b_eq = _normalize_rows(self.a_eq, self.b_eq, n, "eq")
        self.a_ub, self.b_ub = _normalize_rows(self.a_ub, self.b_ub, n, "ub")
        self.lower = _normalize_bound(self.lower, n, 0.0)
        self.upper = _normalize_bound(self.upper, n, np.inf)
        if not np.all(np.isfinite(self.lower)):
            raise ValueError("lower bounds must be finite")
        if np.any(self.lower > self.upper):
            bad = int(np.argmax(self.lower > self.upper))
            raise ValueError(f"variable {bad}: lower bound exceeds upper bound")
        if not self.labels:
            self.labels = tuple(f"x{i}" for i in range(n))
        self.labels = tuple(self.labels)
        if len(self.labels) != n:
            raise ValueError(f"{len(self.labels)} labels for {n} variables")
        if len(set(self.labels)) != n:
            raise ValueError("variable labels must be unique")

    @property
    def n_vars(self) -> int:
        return self.c.size


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective_value: float | None = None
    iterations: int = 0
    bland: bool = False  # Bland's rule switched on in phase 1 or phase 2


def _normalize_rows(a, b, n, kind):
    if a is None and b is None:
        return np.zeros((0, n)), np.zeros(0)
    if a is None or b is None:
        raise ValueError(f"a_{kind} and b_{kind} must be given together")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != (b.size, n):
        raise ValueError(f"a_{kind} shape {a.shape} incompatible with "
                         f"{b.size} rhs entries and {n} variables")
    return a, b


def _normalize_bound(v, n, default):
    if v is None:
        return np.full(n, default)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.size == 1 and n != 1:
        return np.full(n, float(v[0]))
    if v.size != n:
        raise ValueError(f"bound vector length {v.size} != {n} variables")
    return v.copy()


# ---------------------------------------------------------------------------
# Shared preprocessing: fix, shift, upper rows
# ---------------------------------------------------------------------------

@dataclass
class _Prepared:
    free: np.ndarray          # original indices of free variables
    fixed: np.ndarray
    fixed_values: np.ndarray
    lo: np.ndarray            # lower bounds of free variables (the shift)
    a_eq: np.ndarray
    b_eq: np.ndarray          # (programs, rows)
    a_ub: np.ndarray          # includes rows for finite upper bounds
    b_ub: np.ndarray          # shared by all programs

    def assemble(self, x_shift: np.ndarray, n_vars: int) -> np.ndarray:
        """Full solutions (programs, n_vars) from shifted free-variable values."""
        x = np.empty((x_shift.shape[0], n_vars))
        x[:, self.fixed] = self.fixed_values
        x[:, self.free] = self.lo + x_shift
        return x


def _prepare(lp: LinearProgram, b_eq: np.ndarray) -> _Prepared:
    """Substitute fixed variables, shift to x >= 0 and add upper-bound rows.

    The shifts of the stacked b_eq are vectors shared by every program,
    subtracted elementwise.
    """
    fixed_mask = lp.lower == lp.upper
    fixed = np.nonzero(fixed_mask)[0]
    free = np.nonzero(~fixed_mask)[0]
    fixed_values = lp.lower[fixed]
    lo = lp.lower[free]

    b_eq = b_eq - lp.a_eq[:, fixed] @ fixed_values
    b_ub = lp.b_ub - lp.a_ub[:, fixed] @ fixed_values
    a_eq = lp.a_eq[:, free]
    a_ub = lp.a_ub[:, free]
    if free.size:
        b_eq = b_eq - a_eq @ lo
        b_ub = b_ub - a_ub @ lo
        up = lp.upper[free] - lo
        finite = np.nonzero(np.isfinite(up))[0]
        rows = np.zeros((finite.size, free.size))
        rows[np.arange(finite.size), finite] = 1.0
        a_ub = np.vstack([a_ub, rows])
        b_ub = np.concatenate([b_ub, up[finite]])
    return _Prepared(free, fixed, fixed_values, lo, a_eq, b_eq, a_ub, b_ub)


def _rows_feasible(a, b, equality):
    """Per program of the stacked b: do the rows hold with every variable fixed?"""
    scale = np.maximum(np.abs(a).max(axis=1, initial=0.0), 1.0)
    r = b / scale
    return np.all(np.abs(r) <= FEAS_TOL, axis=1) if equality else np.all(r >= -FEAS_TOL, axis=1)


def _equilibrate(a, b, equality):
    """Scale rows to unit max-abs; drop zero rows.

    a is shared and b is stacked (programs, rows). Returns (a, b, ok); ok
    is False for the programs whose zero row is unsatisfiable.
    """
    scale = np.abs(a).max(axis=1, initial=0.0)
    zero = scale <= 0.0
    bz = b[:, zero]
    bad = np.abs(bz) > FEAS_TOL if equality else bz < -FEAS_TOL
    keep = ~zero
    return a[keep] / scale[keep, None], b[:, keep] / scale[keep], ~bad.any(axis=1)


# ---------------------------------------------------------------------------
# Lockstep two-phase simplex
# ---------------------------------------------------------------------------

def solve(lp: LinearProgram) -> LpSolution:
    """Two-phase simplex; returns status optimal, infeasible, or unbounded."""
    return solve_batch(lp, lp.c[None], lp.b_eq[None])[0]


def solve_batch(lp: LinearProgram, c, b_eq) -> list[LpSolution]:
    """Solve one program per row of c and b_eq, all in lockstep.

    Row k of c (programs, n_vars) and b_eq (programs, eq rows) replaces
    lp.c and lp.b_eq for program k; every program shares lp's a_eq, a_ub,
    b_ub and bounds. Each returned solution equals, bit for bit, the one
    the program would get if solved alone.
    """
    c = np.ascontiguousarray(c, dtype=float)
    b_eq = np.asarray(b_eq, dtype=float)
    K = c.shape[0] if c.ndim == 2 else -1
    if c.shape != (K, lp.n_vars) or b_eq.shape != (K, lp.b_eq.size):
        raise ValueError(f"c {c.shape} and b_eq {b_eq.shape} must stack "
                         f"{lp.n_vars} costs and {lp.b_eq.size} rhs entries per program")
    prep = _prepare(lp, b_eq)
    n = prep.free.size
    solutions = [LpSolution("infeasible") for _ in range(K)]
    if n == 0:
        ok = (_rows_feasible(prep.a_eq, prep.b_eq, equality=True)
              & _rows_feasible(prep.a_ub, prep.b_ub[None], equality=False))
        x = prep.assemble(np.zeros((K, 0)), lp.n_vars)
        for k in np.nonzero(ok)[0]:
            solutions[k] = LpSolution("optimal", x[k], float(c[k] @ x[k]))
        return solutions

    a_eq, b_eq, ok_eq = _equilibrate(prep.a_eq, prep.b_eq, equality=True)
    a_ub, b_ub, ok_ub = _equilibrate(prep.a_ub, prep.b_ub[None], equality=False)
    m_eq, m_ub = a_eq.shape[0], a_ub.shape[0]
    m, n_core = m_eq + m_ub, n + m_ub
    body = np.zeros((m, n_core))
    body[:m_eq, :n] = a_eq
    body[m_eq:, :n] = a_ub
    body[m_eq + np.arange(m_ub), n + np.arange(m_ub)] = 1.0
    rhs = np.empty((K, m))
    rhs[:, :m_eq] = b_eq
    rhs[:, m_eq:] = b_ub

    programs = np.nonzero(ok_eq & ok_ub)[0]
    per_stack = max(1, _BATCH_BYTES // (8 * max(m, 1) * (n_core + 1)))
    stacks = -(-programs.size // per_stack)
    for stack in np.array_split(programs, stacks) if stacks else ():
        status, x_shift, iterations, bland = _solve_stack(
            body, rhs[stack], m_eq, c[stack][:, prep.free])
        x = prep.assemble(np.maximum(x_shift, 0.0), lp.n_vars)
        for i, k in enumerate(stack):
            solutions[k] = LpSolution(str(status[i]), iterations=int(iterations[i]),
                                      bland=bool(bland[i]))
            if status[i] == "optimal":
                solutions[k].x = x[i]
                solutions[k].objective_value = float(c[k] @ x[i])
    return solutions


def _solve_stack(body, rhs, m_eq, c):
    """Run both phases on one stack of programs that share the row body.

    rhs (programs, rows) and c (programs, free vars) are per program.
    Returns per-program status, basic values of the free variables,
    iterations and whether Bland's rule switched on.
    """
    K, m = rhs.shape
    n = c.shape[1]
    n_core = body.shape[1]
    tableau = np.empty((K, m, n_core + 1))
    tableau[:, :, :n_core] = body
    tableau[:, :, -1] = rhs
    flip = rhs < 0
    tableau[flip] *= -1.0

    # slacks of unflipped inequality rows start basic; every other row
    # starts with its artificial, which has basis index n_core + row
    row = np.arange(m)
    slack = np.zeros((K, m), dtype=bool)
    slack[:, m_eq:] = ~flip[:, m_eq:]
    basis = np.where(slack, row + (n - m_eq), row + n_core)

    # phase 1 minimises the sum of artificials; programs without any skip it
    cost = np.zeros(n_core + m)
    cost[n_core:] = 1.0
    cost = np.broadcast_to(cost, (K, n_core + m))
    unbounded, iterations, bland = _run_simplex(tableau, basis, cost, n_core,
                                                ~slack.all(axis=1))
    if unbounded.any():
        raise RuntimeError("phase 1 terminated abnormally: unbounded")
    infeasible = _objective(cost, basis, tableau) > FEAS_TOL
    redundant = _drop_artificials(tableau, basis, n_core, ~infeasible)

    # phase 2; a program with a redundant row finishes on its own stack
    # without that row, as a one-program solve would
    cost = np.zeros((K, n_core + m))
    cost[:, :n] = c
    peel = redundant.any(axis=1) & ~infeasible
    unbounded, it2, bland2 = _run_simplex(tableau, basis, cost, n_core, ~infeasible & ~peel)
    x = _basic_values(tableau, basis, n)
    for k in np.nonzero(peel)[0]:
        keep = ~redundant[k]
        sub, sub_basis = tableau[k][keep][None], basis[k][keep][None]
        ray, its, switched = _run_simplex(sub, sub_basis, cost[k:k + 1], n_core, np.ones(1, bool))
        unbounded[k], it2[k], bland2[k] = ray[0], its[0], switched[0]
        x[k] = _basic_values(sub, sub_basis, n)[0]
    status = np.where(infeasible, "infeasible", np.where(unbounded, "unbounded", "optimal"))
    return status, x, iterations + it2, bland | bland2


def _objective(cost, basis, tableau):
    """cost[basis] @ rhs per program, one dot product each as a lone solve does."""
    basic_cost = cost[np.arange(basis.shape[0])[:, None], basis]
    return (basic_cost[:, None, :] @ tableau[:, :, -1:])[:, 0, 0]


def _pivot(tableau, basis, k, r, j, col):
    """Make column j[i] basic in row r[i] of program k[i], in place.

    col[i] is a copy of that column, tableau[k[i], :, j[i]]. Only the
    (program, row) pairs with a nonzero pivot-column entry get the rank-1
    update; the others would subtract 0 * pivot row, so skipping them
    changes nothing. The tableau must be C-contiguous so that the flat row
    view writes through.
    """
    K, m, width = tableau.shape
    flat = tableau.reshape(K * m, width)
    pivot_rows = k * m + r
    at = np.arange(k.size)
    piv_row = flat[pivot_rows] / col[at, r][:, None]
    col[at, r] = 0.0
    p, i = np.nonzero(col)
    # a lone program's pivot row broadcasts; a copy per updated row only costs time
    flat[k[p] * m + i] -= col[p, i][:, None] * (piv_row[p] if k.size > 1 else piv_row)
    flat[pivot_rows] = piv_row
    tableau[k, :, j] = 0.0
    flat[pivot_rows, j] = 1.0
    basis[k, r] = j


def _run_simplex(tableau, basis, cost, n_price, running):
    """Pivot the running programs of a stack in lockstep until each stops.

    Returns per-program (unbounded, iterations, bland). A program prices
    with Dantzig's rule until more than 2 (m + n_price) pivots in a row
    fail to improve its objective, then with Bland's rule. All running
    programs pivot once per round, so one round counter serves as every
    running program's iteration count.
    """
    K, m, _ = tableau.shape
    running = running.copy()
    unbounded = np.zeros(K, dtype=bool)
    iterations = np.zeros(K, dtype=int)
    bland = np.zeros(K, dtype=bool)
    stall = np.zeros(K, dtype=int)
    max_stall = 2 * (m + n_price)
    cap = 10_000 + 200 * (m + n_price)
    program = np.arange(K)[:, None]
    best = _objective(cost, basis, tableau)
    rounds = 0
    act = np.nonzero(running)[0]
    while act.size:
        # reduced costs over the whole stack; only the running rows are read
        basic_cost = cost[program, basis]
        z = (cost[:, :n_price] - (basic_cost[:, None, :] @ tableau[:, :, :n_price])[:, 0])[act]
        j = z.argmin(axis=1)
        if bland[act].any():
            j = np.where(bland[act], (z < -PIVOT_TOL).argmax(axis=1), j)
        col = tableau[act, :, j]
        pos = col > PIVOT_TOL
        optimal = z[np.arange(act.size), j] >= -PIVOT_TOL
        ray = ~optimal & ~pos.any(axis=1)
        stop = optimal | ray
        if stop.any():
            unbounded[act[ray]] = True
            running[act[stop]] = False
            iterations[act[stop]] = rounds
            act, j, col, pos = act[~stop], j[~stop], col[~stop], pos[~stop]
            if not act.size:
                break
        ratios = np.divide(tableau[act, :, -1], col, out=np.full(col.shape, np.inf), where=pos)
        rmin = ratios.min(axis=1, keepdims=True)
        ties = ratios <= rmin + 1e-12 * (1.0 + np.abs(rmin))
        r = np.where(ties, basis[act], _NO_BASIS).argmin(axis=1)

        _pivot(tableau, basis, act, r, j, col)
        rounds += 1
        if rounds > cap:
            raise RuntimeError("simplex iteration cap exceeded")

        # programs that did not pivot keep their objective, so they never
        # count as improved, and only running programs add a stall
        obj = _objective(cost, basis, tableau)
        improved = obj < best - _STALL_EPS * np.maximum(1.0, np.abs(best))
        best = np.where(improved, obj, best)
        stall = np.where(improved, 0, stall + running)
        bland |= stall > max_stall
    return unbounded, iterations, bland


def _drop_artificials(tableau, basis, n_core, feasible):
    """Pivot basic artificials out after phase 1, row by row in order.

    Returns the (program, row) mask of redundant rows, whose artificial
    stays basic because every core entry of the row is below PIVOT_TOL.
    """
    redundant = np.zeros(basis.shape, dtype=bool)
    artificial = (basis >= n_core) & feasible[:, None]
    for r in np.nonzero(artificial.any(axis=0))[0]:
        k = np.nonzero(artificial[:, r])[0]
        big = np.abs(tableau[k, r, :n_core]) > PIVOT_TOL
        has = big.any(axis=1)
        redundant[k[~has], r] = True
        k, j = k[has], big[has].argmax(axis=1)
        _pivot(tableau, basis, k, np.full(k.size, r), j, tableau[k, :, j])
    return redundant


def _basic_values(tableau, basis, n):
    """Values of the n free variables in each program's basis (others 0)."""
    x = np.zeros((basis.shape[0], n))
    k, r = np.nonzero(basis < n)
    x[k, basis[k, r]] = tableau[k, r, -1]
    return x
