"""Dense linear programming with a lockstep batched bounded-variable simplex.

Problem form:

    minimize    c @ x
    subject to  a_eq @ x == b_eq
                lower <= x <= upper

Lower bounds must be finite; upper bounds may be +inf. Internally the
problem is shifted to 0 <= x <= u, fixed variables (lower == upper) are
substituted out, rows are equilibrated by their max-abs coefficient, and a
phase-1/phase-2 tableau simplex runs with Dantzig pricing and lowest-index
tie-breaking. Bland's rule takes over once a program has made too many
steps in a row that do not improve its objective, so termination is
guaranteed. Every step is fully deterministic.

Finite upper bounds are handled in the ratio test (the upper-bounding
technique: Dantzig 1955; Chvatal, Linear Programming, ch. 8). A nonbasic
variable at its upper bound is complemented, x = u - x', so every nonbasic
variable sits at 0, and each program records which of its variables are
complemented. The ratio test takes the shortest of three steps: a basic
variable falling to 0; a basic variable rising to its upper bound, whose
row is then complemented and pivoted on; and the entering variable
reaching its own bound, a bound flip that complements its column without a
pivot. The reduced-cost row is row m of each tableau, with minus the
objective in its rhs entry, and pivots and flips update it like any other
row; it is priced from scratch only at the start of each phase.

The starting basis is a crash basis (Bixby, "Implementing the simplex
method: the initial basis", 1992): a row (sign-flipped to a nonnegative
rhs) starts with the lowest-index column that is nonzero in no other row,
positive in this one and without an upper bound, scaled to 1, so that its
value rhs / entry is feasible. Only rows without one get an artificial
variable, and a program without artificials skips phase 1. In the
per-scenario storage program the purchase or the excess of each period
is such a column, so phase 1 never runs. After phase 1 each basic
artificial is pivoted out; a row without an entry above PIVOT_TOL is
redundant and is set to exactly 0, its artificial basic at level 0, so
every program runs phase 2 in its stack.

solve_batch solves a batch of programs that share a_eq and the lower
bounds, given as arrays, with row tables of costs, rhs and upper bounds
and one (cost, rhs, bound) index triple per program; every bound row
must fix the same variables. Every triple is solved, a repeated one
too: callers that make repeated programs share them before the call.
Preprocessing runs once on the shared matrix and the tables, in one copy
of the matrix's free columns; the tableaux are stacked as (programs,
rows + 1, cols) and step in lockstep. Each program keeps its own upper
bounds, pricing rule, ratio test, stall counter, iteration cap and
verdict, so it takes exactly the steps it would take alone and its
result is the same bit for bit.
Programs that finish are masked out and stay in the stack. A pivot's
rank-1 update touches only the (program, row) pairs with a nonzero
pivot-column entry. Artificial variables are not stored: they are never
priced or ratio-tested, so a row whose artificial is basic only carries
the basis index n + row, after the n free variables. One stack holds at
most _BATCH_BYTES of tableau (or a single program that is larger); a
larger batch runs as several stacks of equal size, each prepared, solved
and written into the result before the next is built. A program whose
final reduced-cost row or rhs column holds inf or NaN (an overflow) gets
the status numerical. The results come back as one LpResult record of
arrays with one entry per program, x and the objective NaN where a
program is not optimal; solve(lp) is the batch of one LinearProgram.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-7   # absolute feasibility tolerance on equilibrated rows
PIVOT_TOL = 1e-9  # reduced-cost / pivot-element threshold

_STALL_EPS = 1e-12
# Tableau bytes per lockstep stack. A bigger stack shares each round among
# more programs but raises peak memory: a stack's working set peaks at
# about 1.7 times its tableau, during the rank-1 update of a pivot
# (tracemalloc, 75-76 storage programs of 24 x 71: 1.6 MiB for 0.98 MiB of
# tableau). 1 MiB holds 76 such programs, so the 1280 programs of the
# 80-scenario, 16-cell storage sweep run as 17 stacks.
_BATCH_BYTES = 1 << 20
_NO_BASIS = np.iinfo(np.intp).max  # above every basis index in a tie-break


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
    """The results of a batch of programs, entry (or row) k for program k.

    x and objective are NaN where a program is not optimal.
    """

    status: np.ndarray      # (programs,) "optimal" | "infeasible" | "unbounded" | "numerical"
    x: np.ndarray           # (programs, n_vars)
    objective: np.ndarray   # (programs,) c @ x
    iterations: np.ndarray  # (programs,) pivots plus bound flips, both phases
    bland: np.ndarray       # (programs,) Bland's rule switched on in phase 1 or 2


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


# ---------------------------------------------------------------------------
# Shared preprocessing: fix, shift and equilibrate
# ---------------------------------------------------------------------------

def _prepare(a_eq: np.ndarray, lower: np.ndarray, b_eq: np.ndarray, upper: np.ndarray):
    """Substitute fixed variables, shift to 0 <= x <= up and equilibrate.

    a_eq and lower are shared; b_eq and upper are row tables. Every bound
    row must fix the same variables (upper == lower), so the shifts are
    vectors shared by every rhs row, subtracted elementwise. Rows are
    scaled to unit max-abs and zero rows dropped. Returns (free, body, rhs, ok, up): the free
    variables' indices, the shared scaled rows, the rhs table, ok per rhs
    row (False where a zero row has a nonzero rhs; with every variable
    fixed, every row is zero and ok is the verdict) and, per bound row,
    the upper bound of every basis index, inf for the artificials.
    """
    if np.any(lower > upper):
        k, bad = np.argwhere(lower > upper)[0]
        raise ValueError(f"bound row {k}, variable {bad}: lower bound exceeds upper bound")
    fixed_rows = lower == upper
    if np.any(fixed_rows != fixed_rows[:1]):
        raise ValueError("every bound row must fix the same variables")
    fixed = fixed_rows.any(axis=0)
    free = np.nonzero(~fixed)[0]
    lo = lower[free]

    # a fancy index copies, so dividing body in place leaves a_eq as it was
    body = a_eq[:, free]
    rhs = b_eq - a_eq[:, fixed] @ lower[fixed]
    if free.size:
        rhs = rhs - body @ lo
    scale = np.abs(body).max(axis=1, initial=0.0)
    zero = scale <= 0.0
    keep = ~zero
    ok = ~(np.abs(rhs[:, zero]) > FEAS_TOL).any(axis=1)
    if zero.any():
        body = body[keep]
    body /= scale[keep, None]
    up = np.full((len(upper), free.size + body.shape[0]), np.inf)
    up[:, :free.size] = upper[:, free] - lo
    return free, body, rhs[:, keep] / scale[keep], ok, up


# ---------------------------------------------------------------------------
# Lockstep two-phase bounded-variable simplex
# ---------------------------------------------------------------------------

def solve(lp: LinearProgram) -> LpResult:
    """Two-phase simplex; returns status optimal, infeasible, unbounded or numerical."""
    return solve_batch(lp.a_eq, lp.lower, lp.c[None], lp.b_eq[None], lp.upper[None], [(0, 0, 0)])


def solve_batch(a_eq, lower, c, b_eq, upper, rows) -> LpResult:
    """Solve one program per index triple, all in lockstep.

    Every program shares the constraint matrix a_eq (eq rows, n_vars) and
    the lower bounds lower (n_vars), which must be finite. c (cost rows,
    n_vars), b_eq (rhs rows, eq rows) and upper (bound rows, n_vars) are
    row tables, and row k of rows (programs, 3) names program k's cost, rhs
    and bound rows; every bound row must fix the same variables. Every
    triple is solved, and entry k of the result equals, bit for bit, what
    program k would get if solved alone.
    """
    a_eq = np.asarray(a_eq, dtype=float)
    lower = np.asarray(lower, dtype=float)
    c = np.asarray(c, dtype=float)
    b_eq = np.asarray(b_eq, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if not (a_eq.ndim == 2 and lower.ndim == 1 and a_eq.shape[1] == lower.size):
        raise ValueError(f"a_eq {a_eq.shape} needs one column per lower bound ({lower.size})")
    if not np.isfinite(lower).all():
        raise ValueError("lower bounds must be finite")
    n_vars, n_rows = lower.size, len(a_eq)
    if not (c.ndim == b_eq.ndim == upper.ndim == 2 and c.shape[1] == upper.shape[1] == n_vars
            and b_eq.shape[1] == n_rows):
        raise ValueError(f"c {c.shape}, b_eq {b_eq.shape} and upper {upper.shape} must stack "
                         f"{n_vars} costs, {n_rows} rhs entries and {n_vars} bounds per row")
    rows = np.asarray(rows, dtype=np.intp)
    if rows.ndim != 2 or rows.shape[1] != 3 or not (
            (rows >= 0) & (rows < [len(c), len(b_eq), len(upper)])).all():
        raise ValueError("rows must hold one (cost, rhs, bound) row triple per program")
    free, body, rhs, ok, up = _prepare(a_eq, lower, b_eq, upper)
    n = free.size
    m = body.shape[0]
    crash = _crash(body, up) if n else None

    K = len(rows)
    # a zero row with a nonzero rhs is infeasible before any stack runs
    consistent = ok[rows[:, 1]]
    status = np.where(consistent, "optimal", "infeasible")
    x = np.full((K, n_vars), np.nan)
    objective = np.full(K, np.nan)
    iterations = np.zeros(K, dtype=int)
    bland = np.zeros(K, dtype=bool)

    programs = np.nonzero(consistent)[0]
    per_stack = max(1, _BATCH_BYTES // (8 * (m + 1) * (n + 1)))
    stacks = -(-programs.size // per_stack)
    for stack in np.array_split(programs, stacks) if stacks else ():
        cost, rhs_row, bound = rows[stack].T
        c_stack = c[cost]
        # every variable sits at its lower bound, the shift, plus its value;
        # with every variable fixed, consistent is the verdict and no simplex runs
        x_stack = np.tile(lower, (stack.size, 1))
        if n:
            status[stack], values, iterations[stack], bland[stack] = _solve_stack(
                body, rhs[rhs_row], c_stack[:, free], up[bound], crash[bound])
            x_stack[:, free] += np.maximum(values, 0.0)
        x_stack[status[stack] != "optimal"] = np.nan
        x[stack] = x_stack
        # one dot product per program, the call a lone solve makes
        objective[stack] = (c_stack[:, None] @ x_stack[:, :, None])[:, 0, 0]
    return LpResult(status, x, objective, iterations, bland)


def _crash(body, up):
    """Crash-basis columns of each bound row in up (bound rows, basis indices).

    A row starts with the lowest-index column that is nonzero in no other
    row, positive in this one after the sign flip and without an upper
    bound, so its starting value rhs / entry is feasible. Every other row
    starts with its artificial, which has basis index n + row. Returns
    (bound rows, 2, rows): each row's start when its rhs is nonnegative,
    then when it is negative and the row is flipped.
    """
    m, n = body.shape
    lone = (np.count_nonzero(body, axis=0) == 1) & (up[:, :n] == np.inf)
    crash = np.empty((len(up), 2, m), dtype=np.intp)
    for flipped, sign in enumerate((1.0, -1.0)):
        candidates = lone[:, None, :] & (sign * body > 0.0)
        crash[:, flipped] = np.where(candidates.any(axis=2), candidates.argmax(axis=2),
                                     np.arange(m) + n)
    return crash


def _solve_stack(body, rhs, c, up, crash):
    """Run both phases on one stack of programs that share the row body.

    rhs (programs, rows), c (programs, free vars), up (programs, basis
    indices), the upper bound of every basis index, and crash (programs,
    2, rows), the _crash columns, are per program. Returns per-program
    status, values of the free variables, iterations and whether Bland's
    rule switched on.
    """
    K, m = rhs.shape
    n = c.shape[1]
    tableau = np.empty((K, m + 1, n + 1))
    tableau[:, :m, :n] = body
    tableau[:, :m, -1] = rhs
    flip = rhs < 0
    tableau[:, :m][flip] *= -1.0

    # a crashed row is divided by its entry in the starting column, unless
    # that entry is 1 already
    basis = np.where(flip, crash[:, 1], crash[:, 0])
    crashed = basis < n
    entry = np.take_along_axis(tableau[:, :m], np.where(crashed, basis, 0)[:, :, None],
                               axis=2)[:, :, 0]
    k, r = np.nonzero(crashed & (entry != 1.0))
    tableau[k, r] /= entry[k, r][:, None]
    complemented = np.zeros((K, n), dtype=bool)

    # phase 1 minimises the sum of artificials; programs without any skip
    # it. Their phase-1 reduced costs are all 0, so a stack without
    # artificials writes that row instead of pricing it
    artificial = ~crashed.all(axis=1)
    if artificial.any():
        cost = np.zeros((K, n + m))
        cost[:, n:] = 1.0
        _price(tableau, basis, cost, complemented, up)
    else:
        tableau[:, m] = 0.0
    unbounded, iterations, bland = _run_simplex(tableau, basis, complemented, up, artificial)
    if unbounded.any():
        raise RuntimeError("phase 1 terminated abnormally: unbounded")
    infeasible = -tableau[:, m, -1] > FEAS_TOL
    _drop_artificials(tableau, basis, ~infeasible)

    cost = np.zeros((K, n + m))
    cost[:, :n] = c
    _price(tableau, basis, cost, complemented, up)
    unbounded, it2, bland2 = _run_simplex(tableau, basis, complemented, up, ~infeasible)
    x = _values(tableau, basis, complemented, up)
    # no verdict read from an overflowed tableau holds; an infeasible
    # program's reduced-cost row was priced for phase 2 but is never read
    finite = np.isfinite(tableau[:, :m, -1]).all(axis=1) & (
        np.isfinite(tableau[:, m]).all(axis=1) | infeasible)
    status = np.where(infeasible, "infeasible", np.where(unbounded, "unbounded", "optimal"))
    status[~finite] = "numerical"
    return status, x, iterations + it2, bland | bland2


def _price(tableau, basis, cost, complemented, up):
    """Write the reduced costs of cost in the current basis into row m.

    cost and up (programs, n + m) have an entry for every basis index. A
    complemented variable x = u - x' costs -c and adds c u to the
    objective; the rhs entry of row m is minus the objective. Each
    program's basic costs meet its rows in one vector-matrix product, the
    call a lone solve makes. cost is overwritten: its complemented entries
    change sign.
    """
    K, _, width = tableau.shape
    n = complemented.shape[1]
    shift = (cost[:, :n] * np.where(complemented, up[:, :n], 0.0)).sum(axis=1)
    cost[:, :n] = np.where(complemented, -cost[:, :n], cost[:, :n])
    basic_cost = cost[np.arange(K)[:, None], basis]
    tableau[:, -1, :-1] = cost[:, :width - 1]
    tableau[:, -1, -1] = -shift
    tableau[:, -1] -= (basic_cost[:, None, :] @ tableau[:, :-1])[:, 0]


def _pivot(tableau, basis, k, r, j, col):
    """Make column j[i] basic in row r[i] of program k[i], in place.

    col[i] is a copy of that column, tableau[k[i], :, j[i]]. Only the
    (program, row) pairs with a nonzero pivot-column entry get the rank-1
    update; the others would subtract 0 * pivot row, so skipping them
    changes nothing. The update leaves exact zeros in column j, and the
    pivot row's entry is col / col = 1. The tableau must be C-contiguous so
    that the flat row view writes through.
    """
    K, m, width = tableau.shape
    flat = tableau.reshape(K * m, width)
    pivot_rows = k * m + r
    at = np.arange(k.size)
    piv_row = flat.take(pivot_rows, axis=0)
    piv_row /= col[at, r][:, None]
    col[at, r] = 0.0
    p, i = np.nonzero(col)
    # the pivot row is taken once per updated row and scaled in place, so
    # the update holds one copy of them
    update = piv_row.take(p, axis=0)
    update *= col[p, i][:, None]
    flat[k[p] * m + i] -= update
    flat[pivot_rows] = piv_row
    basis[k, r] = j


def _run_simplex(tableau, basis, complemented, up, running):
    """Step the running programs of a stack in lockstep until each stops.

    tableau (programs, m + 1, n + 1) carries the reduced-cost row as row m
    and the rhs as column n; complemented (programs, n) is updated in
    place, and up (programs, m + n) holds each program's upper bound of
    every basis index. Returns per-program (unbounded, iterations, bland).
    A program prices with Dantzig's rule until more than 2 (m + n) steps
    in a row fail to improve its objective, then with Bland's rule. All
    running programs take one step (a pivot or a bound flip) per round, so
    one round counter serves as every running program's iteration count,
    and a running program's stall is the number of rounds since its last
    improvement.
    """
    K, rows, width = tableau.shape
    m, n = rows - 1, width - 1
    flat = tableau.reshape(K * rows, width)
    running = running.copy()
    unbounded = np.zeros(K, dtype=bool)
    iterations = np.zeros(K, dtype=int)
    bland = np.zeros(K, dtype=bool)
    last = np.zeros(K, dtype=int)  # round of each program's last improvement
    max_stall = 2 * (m + n)
    cap = 10_000 + 200 * (m + n)
    bar = _improvement_bar(tableau[:, m, -1])
    # upper bound of each row's basic variable; the reduced-cost row's is
    # inf, so its ratio (rhs - inf) / entry is inf for an entering column,
    # whose entry there is negative
    row_up = np.full((K, rows), np.inf)
    row_up[:, :m] = np.take_along_axis(up, basis, axis=1)
    rounds = 0
    act = np.nonzero(running)[0]
    while act.size:
        z = tableau[act, m, :n]
        j = z.argmin(axis=1)
        if bland.any():
            j = np.where(bland[act], (z < -PIVOT_TOL).argmax(axis=1), j)

        # ratio test: a basic variable falls to 0 (entry > 0) or rises to its
        # upper bound (entry < 0); (beta - bound) / entry covers both
        col = tableau[act, :, j]
        optimal = col[:, m] >= -PIVOT_TOL
        bound = np.where(col > 0.0, 0.0, row_up[act])
        ratios = np.divide(tableau[act, :, -1] - bound, col, out=np.full(col.shape, np.inf),
                           where=np.abs(col) > PIVOT_TOL)
        rmin = ratios.min(axis=1)
        uj = up[act, j]
        stop = optimal | (np.minimum(rmin, uj) == np.inf)
        if stop.any():
            unbounded[act[stop & ~optimal]] = True
            running[act[stop]] = False
            iterations[act[stop]] = rounds
            go = ~stop
            act, j, col, ratios, rmin, uj = (act[go], j[go], col[go], ratios[go], rmin[go], uj[go])
            if not act.size:
                break

        # the entering variable reaching its own bound first is a bound flip
        step = act
        reach = rmin + 1e-12 * (1.0 + np.abs(rmin))
        flip = uj <= reach
        if flip.any():
            # x_j = u_j - x_j': the column changes sign and the rhs moves
            f, jf, cf = step[flip], j[flip], col[flip]
            tableau[f, :, -1] -= uj[flip][:, None] * cf
            tableau[f, :, jf] = -cf
            complemented[f, jf] ^= True
            go = ~flip
            step, j, col, ratios, reach = step[go], j[go], col[go], ratios[go], reach[go]
        if step.size:
            # of the rows tied with the minimum ratio, the lowest basis index leaves
            ties = ratios[:, :m] <= reach[:, None]
            r = np.where(ties, basis[step], _NO_BASIS).argmin(axis=1)
            rising = col[np.arange(step.size), r] < 0.0
            if rising.any():
                # the leaving variable ends at its bound: x_b = u_b - x_b', so
                # its row changes sign and its rhs becomes u_b - beta
                p, rp = step[rising], r[rising]
                b = basis[p, rp]
                flat[p * rows + rp] *= -1.0
                flat[p * rows + rp, b] = 1.0
                flat[p * rows + rp, -1] += up[p, b]
                complemented[p, b] ^= True
                col[rising, rp] *= -1.0
            _pivot(tableau, basis, step, r, j, col)
            row_up[step, r] = up[step, j]
        rounds += 1
        if rounds > cap:
            raise RuntimeError("simplex iteration cap exceeded")

        # programs that did not step keep their objective, so they never
        # count as improved, and only running programs stall
        rhs = tableau[:, m, -1]
        improved = rhs > bar
        if improved.any():
            last[improved] = rounds
            np.putmask(bar, improved, _improvement_bar(rhs))
        if rounds > max_stall:
            bland |= running & (rounds - last > max_stall)
    return unbounded, iterations, bland


def _improvement_bar(rhs):
    """The rhs entry a program must exceed for its next step to improve.

    The objective is -rhs, and a step improves when the new objective falls
    below best - _STALL_EPS * max(1, |best|); negated, that is this bar.
    """
    return rhs + _STALL_EPS * np.maximum(1.0, np.abs(rhs))


def _drop_artificials(tableau, basis, feasible):
    """Pivot basic artificials out after phase 1, row by row in order.

    A redundant row, every entry of it below PIVOT_TOL, is set to exactly 0,
    rhs included, and keeps its artificial basic (Chvatal, ch. 8): no pivot
    updates a zero row, the ratio test never picks it and the artificial
    costs 0 in phase 2, so the program finishes in its stack.
    """
    n = tableau.shape[2] - 1
    artificial = (basis >= n) & feasible[:, None]
    for r in np.nonzero(artificial.any(axis=0))[0]:
        k = np.nonzero(artificial[:, r])[0]
        big = np.abs(tableau[k, r, :n]) > PIVOT_TOL
        has = big.any(axis=1)
        tableau[k[~has], r] = 0.0
        k, j = k[has], big[has].argmax(axis=1)
        _pivot(tableau, basis, k, np.full(k.size, r), j, tableau[k, :, j])


def _values(tableau, basis, complemented, up):
    """Values of the free variables: basic ones from the rhs, others 0,
    then u - x' for the complemented ones."""
    n = complemented.shape[1]
    x = np.zeros(complemented.shape)
    k, r = np.nonzero(basis < n)
    x[k, basis[k, r]] = tableau[k, r, -1]
    return np.where(complemented, up[:, :n] - x, x)
