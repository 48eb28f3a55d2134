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
is such a column, so phase 1 never runs.

solve_batch solves a batch of programs that share a_eq and the bounds and
differ only in c and b_eq, such as the same-size scenario groups of a
stochastic program. Preprocessing runs once on the shared matrices; the
tableaux are stacked as (programs, rows + 1, cols) and step in lockstep.
Each program keeps its own pricing rule, ratio test, stall counter,
iteration cap and verdict, so it takes exactly the steps it would take
alone and its result is the same bit for bit. Programs that finish
are masked out and stay in the stack. A pivot's rank-1 update touches only
the (program, row) pairs with a nonzero pivot-column entry. Artificial
variables are not stored: they are never priced or ratio-tested, so a row
whose artificial is basic only carries the basis index n + row, after the
n free variables. One stack holds at most _BATCH_BYTES of tableau (or a
single program that is larger); a larger batch runs as several stacks of
equal size. The results come back as one LpResult record of arrays with
one entry per program, x and the objective NaN where a program is not
optimal; solve(lp) is the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-7   # absolute feasibility tolerance on equilibrated rows
PIVOT_TOL = 1e-9  # reduced-cost / pivot-element threshold

_STALL_EPS = 1e-12
# Tableau bytes per lockstep stack. A bigger stack shares each round among
# more programs but raises peak memory: on the 80-scenario storage sweep
# (then 45 x 93 tableaux, shared 2-vCPU host) one 80-program stack raised
# peak RSS by ~3.4 MB (+8%), and 1 MiB stacks of 26-27 programs by ~0.7 MB.
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

    status: np.ndarray      # (programs,) "optimal" | "infeasible" | "unbounded"
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
# Shared preprocessing: fix and shift
# ---------------------------------------------------------------------------

@dataclass
class _Prepared:
    free: np.ndarray          # original indices of free variables
    fixed: np.ndarray
    fixed_values: np.ndarray
    lo: np.ndarray            # lower bounds of free variables (the shift)
    up: np.ndarray            # shifted upper bounds of free variables, may be inf
    a_eq: np.ndarray
    b_eq: np.ndarray          # (programs, rows)

    def assemble(self, x_shift: np.ndarray, n_vars: int) -> np.ndarray:
        """Full solutions (programs, n_vars) from shifted free-variable values."""
        x = np.empty((x_shift.shape[0], n_vars))
        x[:, self.fixed] = self.fixed_values
        x[:, self.free] = self.lo + x_shift
        return x


def _prepare(lp: LinearProgram, b_eq: np.ndarray) -> _Prepared:
    """Substitute fixed variables and shift to 0 <= x <= up.

    The shifts of the stacked b_eq are vectors shared by every program,
    subtracted elementwise.
    """
    fixed_mask = lp.lower == lp.upper
    fixed = np.nonzero(fixed_mask)[0]
    free = np.nonzero(~fixed_mask)[0]
    fixed_values = lp.lower[fixed]
    lo = lp.lower[free]

    b_eq = b_eq - lp.a_eq[:, fixed] @ fixed_values
    a_eq = lp.a_eq[:, free]
    if free.size:
        b_eq = b_eq - a_eq @ lo
    return _Prepared(free, fixed, fixed_values, lo, lp.upper[free] - lo, a_eq, b_eq)


def _equilibrate(a, b):
    """Scale rows to unit max-abs; drop zero rows.

    a is shared and b is stacked (programs, rows). Returns (a, b, ok); ok
    is False for the programs whose zero row has a nonzero rhs. With every
    variable fixed, every row is zero, so ok is the programs' verdict.
    """
    scale = np.abs(a).max(axis=1, initial=0.0)
    zero = scale <= 0.0
    keep = ~zero
    ok = ~(np.abs(b[:, zero]) > FEAS_TOL).any(axis=1)
    return a[keep] / scale[keep, None], b[:, keep] / scale[keep], ok


# ---------------------------------------------------------------------------
# Lockstep two-phase bounded-variable simplex
# ---------------------------------------------------------------------------

def solve(lp: LinearProgram) -> LpResult:
    """Two-phase simplex; returns status optimal, infeasible, or unbounded."""
    return solve_batch(lp, lp.c[None], lp.b_eq[None])


def solve_batch(lp: LinearProgram, c, b_eq) -> LpResult:
    """Solve one program per row of c and b_eq, all in lockstep.

    Row k of c (programs, n_vars) and b_eq (programs, eq rows) replaces
    lp.c and lp.b_eq for program k; every program shares lp's a_eq and
    bounds. Entry k of the result equals, bit for bit, what the program
    would get if solved alone.
    """
    c = np.ascontiguousarray(c, dtype=float)
    b_eq = np.asarray(b_eq, dtype=float)
    K = c.shape[0] if c.ndim == 2 else -1
    if c.shape != (K, lp.n_vars) or b_eq.shape != (K, lp.b_eq.size):
        raise ValueError(f"c {c.shape} and b_eq {b_eq.shape} must stack "
                         f"{lp.n_vars} costs and {lp.b_eq.size} rhs entries per program")
    prep = _prepare(lp, b_eq)
    n = prep.free.size
    body, rhs, ok = _equilibrate(prep.a_eq, prep.b_eq)
    # with every variable fixed, ok is the verdict and no stack runs
    status = np.where(ok, "optimal", "infeasible")
    x_shift = np.zeros((K, n))
    iterations = np.zeros(K, dtype=int)
    bland = np.zeros(K, dtype=bool)

    m = body.shape[0]
    # upper bound per basis index: free variables, then artificials
    up = np.concatenate([prep.up, np.full(m, np.inf)])
    programs = np.nonzero(ok)[0]
    per_stack = max(1, _BATCH_BYTES // (8 * (m + 1) * (n + 1)))
    stacks = -(-programs.size // per_stack) if n else 0
    for stack in np.array_split(programs, stacks) if stacks else ():
        status[stack], x_shift[stack], iterations[stack], bland[stack] = _solve_stack(
            body, rhs[stack], c[stack][:, prep.free], up)
    x = prep.assemble(np.maximum(x_shift, 0.0), lp.n_vars)
    x[status != "optimal"] = np.nan
    # one dot product per program, the call a lone solve makes
    objective = (c[:, None] @ x[:, :, None])[:, 0, 0]
    return LpResult(status, x, objective, iterations, bland)


def _solve_stack(body, rhs, c, up):
    """Run both phases on one stack of programs that share the row body.

    rhs (programs, rows) and c (programs, free vars) are per program; up
    holds the upper bound of every basis index. Returns per-program status,
    values of the free variables, iterations and whether Bland's rule
    switched on.
    """
    K, m = rhs.shape
    n = c.shape[1]
    tableau = np.empty((K, m + 1, n + 1))
    tableau[:, :m, :n] = body
    tableau[:, :m, -1] = rhs
    flip = rhs < 0
    tableau[:, :m][flip] *= -1.0

    # crash basis: a row starts with the lowest-index column that is nonzero
    # in no other row, positive in this one after the sign flip and without
    # an upper bound, so its starting value rhs / entry is feasible. Every
    # other row starts with its artificial, which has basis index n + row.
    basis = np.tile(np.arange(m) + n, (K, 1))
    lone = (np.count_nonzero(body, axis=0) == 1) & (up[:n] == np.inf)
    for sign, flipped in ((1.0, False), (-1.0, True)):
        candidates = lone & (sign * body > 0.0)
        crash = candidates.any(axis=1) & (flip == flipped)
        basis = np.where(crash, candidates.argmax(axis=1), basis)
    k, r = np.nonzero(basis < n)
    tableau[k, r] /= tableau[k, r, basis[k, r]][:, None]
    complemented = np.zeros((K, n), dtype=bool)

    # phase 1 minimises the sum of artificials; programs without any skip it
    cost = np.zeros((K, n + m))
    cost[:, n:] = 1.0
    _price(tableau, basis, cost, complemented, up)
    unbounded, iterations, bland = _run_simplex(tableau, basis, complemented, up,
                                                (basis >= n).any(axis=1))
    if unbounded.any():
        raise RuntimeError("phase 1 terminated abnormally: unbounded")
    infeasible = -tableau[:, m, -1] > FEAS_TOL
    redundant = _drop_artificials(tableau, basis, ~infeasible)

    # phase 2; a program with a redundant row finishes on its own stack
    # without that row, as a one-program solve would
    cost = np.zeros((K, n + m))
    cost[:, :n] = c
    _price(tableau, basis, cost, complemented, up)
    peel = redundant.any(axis=1) & ~infeasible
    unbounded, it2, bland2 = _run_simplex(tableau, basis, complemented, up,
                                          ~infeasible & ~peel)
    x = _values(tableau, basis, complemented, up)
    for k in np.nonzero(peel)[0]:
        keep = np.append(~redundant[k], True)
        sub, sub_basis = tableau[k][keep][None], basis[k][~redundant[k]][None]
        sub_complemented = complemented[k:k + 1].copy()
        _price(sub, sub_basis, cost[k:k + 1], sub_complemented, up)
        ray, its, switched = _run_simplex(sub, sub_basis, sub_complemented, up,
                                          np.ones(1, bool))
        unbounded[k], it2[k], bland2[k] = ray[0], its[0], switched[0]
        x[k] = _values(sub, sub_basis, sub_complemented, up)[0]
    status = np.where(infeasible, "infeasible", np.where(unbounded, "unbounded", "optimal"))
    return status, x, iterations + it2, bland | bland2


def _price(tableau, basis, cost, complemented, up):
    """Write the reduced costs of cost in the current basis into row m.

    cost (programs, n + m) has an entry for every basis index. A
    complemented variable x = u - x' costs -c and adds c u to the
    objective; the rhs entry of row m is minus the objective. Each
    program's basic costs meet its rows in one vector-matrix product, the
    call a lone solve makes.
    """
    K, _, width = tableau.shape
    n = complemented.shape[1]
    cost = cost.copy()
    shift = (cost[:, :n] * np.where(complemented, up[:n], 0.0)).sum(axis=1)
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
    # a lone program's pivot row broadcasts; a copy per updated row only costs time
    flat[k[p] * m + i] -= col[p, i][:, None] * (piv_row.take(p, axis=0) if k.size > 1 else piv_row)
    flat[pivot_rows] = piv_row
    basis[k, r] = j


def _run_simplex(tableau, basis, complemented, up, running):
    """Step the running programs of a stack in lockstep until each stops.

    tableau (programs, m + 1, n + 1) carries the reduced-cost row as row m
    and the rhs as column n; complemented (programs, n) is updated in
    place, and up holds the upper bound of every basis index. Returns
    per-program (unbounded, iterations, bland). A program prices with
    Dantzig's rule until more than 2 (m + n) steps in a row fail to
    improve its objective, then with Bland's rule. All running programs
    take one step (a pivot or a bound flip) per round, so one round
    counter serves as every running program's iteration count, and a
    running program's stall is the number of rounds since its last
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
    row_up[:, :m] = up[basis]
    rounds = 0
    act = np.nonzero(running)[0]
    while act.size:
        at = np.arange(act.size)
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
        r = ratios.argmin(axis=1)
        rmin = ratios[at, r]
        uj = up[j]
        stop = optimal | (np.minimum(rmin, uj) == np.inf)
        if stop.any():
            unbounded[act[stop & ~optimal]] = True
            running[act[stop]] = False
            iterations[act[stop]] = rounds
            go = ~stop
            act, j, col, ratios, r, rmin, uj = (act[go], j[go], col[go], ratios[go], r[go],
                                                rmin[go], uj[go])
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
            step, j, col, ratios, r, reach = step[go], j[go], col[go], ratios[go], r[go], reach[go]
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
                flat[p * rows + rp, -1] += up[b]
                complemented[p, b] ^= True
                col[rising, rp] *= -1.0
            _pivot(tableau, basis, step, r, j, col)
            row_up[step, r] = up[j]
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

    Returns the (program, row) mask of redundant rows, whose artificial
    stays basic because every entry of the row is below PIVOT_TOL.
    """
    n = tableau.shape[2] - 1
    redundant = np.zeros(basis.shape, dtype=bool)
    artificial = (basis >= n) & feasible[:, None]
    for r in np.nonzero(artificial.any(axis=0))[0]:
        k = np.nonzero(artificial[:, r])[0]
        big = np.abs(tableau[k, r, :n]) > PIVOT_TOL
        has = big.any(axis=1)
        redundant[k[~has], r] = True
        k, j = k[has], big[has].argmax(axis=1)
        _pivot(tableau, basis, k, np.full(k.size, r), j, tableau[k, :, j])
    return redundant


def _values(tableau, basis, complemented, up):
    """Values of the free variables: basic ones from the rhs, others 0,
    then u - x' for the complemented ones."""
    n = complemented.shape[1]
    x = np.zeros(complemented.shape)
    k, r = np.nonzero(basis < n)
    x[k, basis[k, r]] = tableau[k, r, -1]
    return np.where(complemented, up[:n] - x, x)
