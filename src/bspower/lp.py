"""Dense linear programming with a two-phase simplex solver.

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
Bland's rule takes over after prolonged stalling so termination is
guaranteed. Pivoting is fully deterministic.

brute_force_solve enumerates basic solutions (all active-set choices)
directly and serves as a test oracle; exponential time, small instances
only. Unboundedness is detected there by enumerating vertices of the
normalized recession cone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np

FEAS_TOL = 1e-7   # absolute feasibility tolerance on equilibrated rows
PIVOT_TOL = 1e-9  # reduced-cost / pivot-element threshold

_STALL_EPS = 1e-12
_MAX_BRUTE_COMBOS = 5_000_000


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


def _prepare(lp: LinearProgram) -> _Prepared:
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
        return _Prepared(status, free, fixed, fixed_values,
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

    return _Prepared(None, free, fixed, fixed_values, lo, lp.c[free],
                     a_eq, b_eq, a_ub, b_ub, n_upper_rows=finite.size)


def _rows_feasible(a, b, equality):
    if b.size == 0:
        return True
    scale = np.maximum(np.abs(a).max(axis=1, initial=0.0), 1.0)
    r = b / scale
    return bool(np.all(np.abs(r) <= FEAS_TOL)) if equality else bool(np.all(r >= -FEAS_TOL))


def _equilibrate(a, b, equality):
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


# ---------------------------------------------------------------------------
# Two-phase simplex
# ---------------------------------------------------------------------------

def solve(lp: LinearProgram) -> LpSolution:
    """Two-phase simplex; returns status optimal, infeasible, or unbounded."""
    prep = _prepare(lp)
    if prep.status == "infeasible":
        return LpSolution("infeasible")
    if prep.status == "optimal":
        x = prep.assemble(np.zeros(0), lp)
        return LpSolution("optimal", x, float(lp.c @ x))

    a_eq, b_eq, ok_eq = _equilibrate(prep.a_eq, prep.b_eq, equality=True)
    a_ub, b_ub, ok_ub = _equilibrate(prep.a_ub, prep.b_ub, equality=False)
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
    if n_art:
        cost1 = np.zeros(n_core + n_art)
        cost1[n_core:] = 1.0
        status1, it1 = _run_simplex(tableau, basis, cost1, n_core)
        iterations += it1
        if status1 != "optimal":
            raise RuntimeError("phase 1 terminated abnormally: " + status1)
        if float(cost1[basis] @ tableau[:, -1]) > FEAS_TOL:
            return LpSolution("infeasible", iterations=iterations)
        tableau, basis = _drop_artificials(tableau, basis, n_core)
        m = tableau.shape[0]

    cost2 = np.zeros(n_core)
    cost2[:n] = prep.c
    status2, it2 = _run_simplex(tableau, basis, cost2, n_core)
    iterations += it2
    if status2 == "unbounded":
        return LpSolution("unbounded", iterations=iterations)

    x_shift = np.zeros(n)
    for r in range(m):
        if basis[r] < n:
            x_shift[basis[r]] = tableau[r, -1]
    x = prep.assemble(np.maximum(x_shift, 0.0), lp)
    return LpSolution("optimal", x, float(lp.c @ x), iterations)


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
    """Iterate pivots in place; returns ("optimal" | "unbounded", iterations)."""
    m = tableau.shape[0]
    if m == 0:
        return ("optimal" if np.all(cost[:n_price] >= -PIVOT_TOL) else "unbounded"), 0
    max_stall = 2 * (m + n_price)
    cap = 10_000 + 200 * (m + n_price)
    bland = False
    stall = 0
    best = np.inf
    iterations = 0
    while True:
        z = cost[:n_price] - cost[basis] @ tableau[:, :n_price]
        if bland:
            neg = np.nonzero(z < -PIVOT_TOL)[0]
            if neg.size == 0:
                return "optimal", iterations
            j = int(neg[0])
        else:
            j = int(np.argmin(z))
            if z[j] >= -PIVOT_TOL:
                return "optimal", iterations
        col = tableau[:, j]
        pos = col > PIVOT_TOL
        if not pos.any():
            return "unbounded", iterations
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


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def brute_force_solve(lp: LinearProgram, max_vars: int = 12) -> LpSolution:
    """Enumerate all basic solutions; test oracle for solve.

    Exponential in problem size; rejects instances with more than max_vars
    variables. Unboundedness is decided by enumerating vertices of the
    normalized recession cone.
    """
    if lp.n_vars > max_vars:
        raise ValueError(f"{lp.n_vars} variables exceeds brute-force limit {max_vars}")
    prep = _prepare(lp)
    if prep.status == "infeasible":
        return LpSolution("infeasible")
    if prep.status == "optimal":
        x = prep.assemble(np.zeros(0), lp)
        return LpSolution("optimal", x, float(lp.c @ x))

    a_eq, b_eq, ok_eq = _equilibrate(prep.a_eq, prep.b_eq, equality=True)
    a_ub, b_ub, ok_ub = _equilibrate(prep.a_ub, prep.b_ub, equality=False)
    if not (ok_eq and ok_ub):
        return LpSolution("infeasible")

    n = prep.c.size
    red_a, red_b, consistent = _row_reduce(a_eq, b_eq)
    if not consistent:
        return LpSolution("infeasible")

    pool = np.vstack([a_ub, -np.eye(n)])
    pool_rhs = np.concatenate([b_ub, np.zeros(n)])

    def feasible_mask(points):
        ok = np.ones(points.shape[0], dtype=bool)
        if b_eq.size:
            ok &= np.all(np.abs(points @ a_eq.T - b_eq) <= FEAS_TOL, axis=1)
        if b_ub.size:
            ok &= np.all(points @ a_ub.T - b_ub <= FEAS_TOL, axis=1)
        ok &= np.all(points >= -FEAS_TOL, axis=1)
        return ok

    found, best_obj, best_x = _best_vertex(red_a, red_b, pool, pool_rhs,
                                           prep.c, feasible_mask)
    if not found:
        return LpSolution("infeasible")

    if np.any(prep.c < 0) and prep.n_upper_rows < n:
        if _has_descent_ray(red_a, pool, a_eq, a_ub, prep.c):
            return LpSolution("unbounded")

    x = prep.assemble(np.maximum(best_x, 0.0), lp)
    return LpSolution("optimal", x, float(lp.c @ x))


def _best_vertex(red_a, red_b, pool, pool_rhs, c, feasible_mask):
    """Minimum objective over basic solutions; eq rows always active."""
    n = pool.shape[1]
    r = red_a.shape[0]
    k = n - r
    if k < 0:
        return False, None, None
    total = comb(pool.shape[0], k)
    if total > _MAX_BRUTE_COMBOS:
        raise ValueError(f"{total} active-set combinations exceed brute-force budget")

    best_obj = np.inf
    best_x = None
    found = False
    for combos in _chunks(itertools.combinations(range(pool.shape[0]), k), 32768):
        idx = np.array(combos, dtype=int).reshape(len(combos), k)
        mats = np.empty((len(combos), n, n))
        mats[:, :r, :] = red_a
        mats[:, r:, :] = pool[idx]
        rhs = np.empty((len(combos), n))
        rhs[:, :r] = red_b
        rhs[:, r:] = pool_rhs[idx]

        scale = np.abs(mats).max(axis=2)
        good = np.nonzero(np.all(scale > 0.0, axis=1))[0]
        if good.size == 0:
            continue
        mats = mats[good] / scale[good][:, :, None]
        rhs = rhs[good] / scale[good]
        keep = np.abs(np.linalg.det(mats)) > 1e-9
        if not keep.any():
            continue
        try:
            points = np.linalg.solve(mats[keep], rhs[keep][:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            points = _solve_each(mats[keep], rhs[keep])
        points = points[np.all(np.isfinite(points), axis=1)]
        if points.size == 0:
            continue
        ok = feasible_mask(points)
        if not ok.any():
            continue
        objs = points[ok] @ c
        j = int(np.argmin(objs))
        if objs[j] < best_obj - 1e-15:
            best_obj = float(objs[j])
            best_x = points[ok][j]
        found = True
    return found, best_obj, best_x


def _has_descent_ray(red_a, pool, a_eq, a_ub, c):
    """Vertex-enumerate the normalized recession cone and test c improvement.

    Cone: a_eq d = 0, a_ub d <= 0, d >= 0, sum(d) = 1. Any unbounded ray of
    the shifted problem normalizes into this set.
    """
    n = pool.shape[1]
    eq_rows = np.vstack([red_a, np.ones((1, n))])
    eq_rhs = np.concatenate([np.zeros(red_a.shape[0]), [1.0]])
    red2_a, red2_b, consistent = _row_reduce(eq_rows, eq_rhs)
    if not consistent:
        return False

    def ray_mask(points):
        ok = np.ones(points.shape[0], dtype=bool)
        if a_eq.shape[0]:
            ok &= np.all(np.abs(points @ a_eq.T) <= FEAS_TOL, axis=1)
        if a_ub.shape[0]:
            ok &= np.all(points @ a_ub.T <= 1e-9, axis=1)
        ok &= np.all(points >= -1e-9, axis=1)
        ok &= np.abs(points.sum(axis=1) - 1.0) <= FEAS_TOL
        return ok

    found, best_obj, _ = _best_vertex(red2_a, red2_b, pool, np.zeros(pool.shape[0]),
                                      c, ray_mask)
    return found and best_obj < -1e-9


def _solve_each(mats, rhs):
    out = np.full_like(rhs, np.nan)
    for i in range(mats.shape[0]):
        try:
            out[i] = np.linalg.solve(mats[i], rhs[i])
        except np.linalg.LinAlgError:
            pass
    return out


def _chunks(iterable, size):
    it = iter(iterable)
    while True:
        block = list(itertools.islice(it, size))
        if not block:
            return
        yield block


def _row_reduce(a, b, tol=1e-9):
    """Gaussian elimination with partial pivoting.

    Returns (reduced rows, reduced rhs, consistent); zero rows with nonzero
    rhs mark an inconsistent system.
    """
    a = a.astype(float).copy()
    b = b.astype(float).copy()
    m, n = a.shape
    rank = 0
    for col in range(n):
        if rank >= m:
            break
        piv = rank + int(np.argmax(np.abs(a[rank:, col])))
        if abs(a[piv, col]) <= tol:
            continue
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
            b[[rank, piv]] = b[[piv, rank]]
        factors = a[rank + 1:, col] / a[rank, col]
        a[rank + 1:] -= np.outer(factors, a[rank])
        b[rank + 1:] -= factors * b[rank]
        a[rank + 1:, col] = 0.0
        rank += 1
    consistent = bool(np.all(np.abs(b[rank:]) <= FEAS_TOL))
    return a[:rank], b[:rank], consistent


# ---------------------------------------------------------------------------
# Text export
# ---------------------------------------------------------------------------

def lp_text(lp: LinearProgram, name: str = "problem") -> str:
    """Render the program in LP text format for external cross-checking."""
    lines = [f"\\ {name}", "Minimize", " obj: " + _terms(lp.c, lp.labels)]
    lines.append("Subject To")
    for i in range(lp.b_eq.size):
        lines.append(f" eq{i}: " + _terms(lp.a_eq[i], lp.labels) + f" = {lp.b_eq[i]:.12g}")
    for i in range(lp.b_ub.size):
        lines.append(f" ub{i}: " + _terms(lp.a_ub[i], lp.labels) + f" <= {lp.b_ub[i]:.12g}")
    lines.append("Bounds")
    for j, label in enumerate(lp.labels):
        lo, up = lp.lower[j], lp.upper[j]
        if np.isfinite(up):
            lines.append(f" {lo:.12g} <= {label} <= {up:.12g}")
        else:
            lines.append(f" {label} >= {lo:.12g}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _terms(coeffs, labels):
    parts = []
    for v, label in zip(coeffs, labels):
        if v == 0:
            continue
        sign = "-" if v < 0 else ("+" if parts else "")
        parts.append(f"{sign} {abs(v):.12g} {label}" if parts or sign == "-"
                     else f"{abs(v):.12g} {label}")
    if not parts:
        return f"0 {labels[0]}"
    return " ".join(parts)
