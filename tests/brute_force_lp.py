"""Brute-force LP oracle: enumerate every basic solution.

Exponential in problem size, so small instances only. Besides the
solver's equality rows and bounds, brute_force_solve takes inequality rows
a_ub @ x <= b_ub as an input of its own, so it stays independent of the
solver and never enumerates slack variables; with_slacks writes the same
program in the solver's equality form. It takes bspower.lp's fix, shift
and equilibration of the equality rows, applies the fix and shift to the
inequality rows too, and writes every finite upper bound as an explicit
inequality row, where the solver handles bounds in the ratio test; then
it minimises over all active-set choices. Unboundedness is decided by
enumerating the vertices of the normalized recession cone.
"""

import itertools
from math import comb

import numpy as np

from bspower.lp import FEAS_TOL, LinearProgram, LpResult, _prepare

_MAX_BRUTE_COMBOS = 5_000_000


def with_slacks(lp: LinearProgram, a_ub, b_ub) -> LinearProgram:
    """lp with the rows a_ub @ x <= b_ub added as equalities: one slack
    column per row, after lp's columns, with cost 0 and bounds [0, inf)."""
    a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
    m = a_ub.shape[0]
    a_eq = np.block([[lp.a_eq, np.zeros((lp.b_eq.size, m))], [a_ub, np.eye(m)]])
    return LinearProgram(c=np.append(lp.c, np.zeros(m)), a_eq=a_eq,
                         b_eq=np.append(lp.b_eq, b_ub),
                         lower=np.append(lp.lower, np.zeros(m)),
                         upper=np.append(lp.upper, np.full(m, np.inf)))


def _equilibrate_ub(a, b):
    """Scale rows a @ x <= b to unit max-abs; drop zero rows.

    Returns (a, b, ok); ok False means a zero row has a negative rhs.
    """
    scale = np.abs(a).max(axis=1, initial=0.0)
    keep = scale > 0.0
    ok = not np.any(b[~keep] < -FEAS_TOL)
    return a[keep] / scale[keep, None], b[keep] / scale[keep], ok


def _result(lp: LinearProgram, status: str, x=None) -> LpResult:
    """lp.solve's record of a verdict; x is given only when optimal."""
    x = np.full(lp.n_vars, np.nan) if x is None else x
    return LpResult(status, x, float(lp.c @ x), 0, False)


def brute_force_solve(lp: LinearProgram, a_ub=None, b_ub=None,
                      max_vars: int = 12) -> LpResult:
    """Enumerate all basic solutions of lp with the extra rows a_ub @ x <= b_ub;
    test oracle for solve.

    Exponential in problem size; rejects instances with more than max_vars
    variables. Unboundedness is decided by enumerating vertices of the
    normalized recession cone.
    """
    if lp.n_vars > max_vars:
        raise ValueError(f"{lp.n_vars} variables exceeds brute-force limit {max_vars}")
    free, a_eq, b_eq, up, ok = _prepare(lp)
    if a_ub is None:
        a_ub, b_ub = np.zeros((0, lp.n_vars)), np.zeros(0)
    a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
    b_ub = np.asarray(b_ub, dtype=float) - a_ub @ lp.lower
    a_ub = a_ub[:, free]
    if not ok:
        return _result(lp, "infeasible")
    if not free.size:
        if np.all(b_ub >= -FEAS_TOL):
            return _result(lp, "optimal", lp.lower.copy())
        return _result(lp, "infeasible")

    # one row x <= u per finite upper bound
    finite = np.nonzero(np.isfinite(up))[0]
    bound_rows = np.zeros((finite.size, up.size))
    bound_rows[np.arange(finite.size), finite] = 1.0
    a_ub, b_ub, ok_ub = _equilibrate_ub(np.vstack([a_ub, bound_rows]),
                                        np.concatenate([b_ub, up[finite]]))
    if not ok_ub:
        return _result(lp, "infeasible")

    n = free.size
    c = lp.c[free]
    red_a, red_b, consistent = _row_reduce(a_eq, b_eq)
    if not consistent:
        return _result(lp, "infeasible")

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

    found, best_obj, best_x = _best_vertex(red_a, red_b, pool, pool_rhs, c, feasible_mask)
    if not found:
        return _result(lp, "infeasible")

    if np.any(c < 0) and finite.size < n:
        if _has_descent_ray(red_a, pool, a_eq, a_ub, c):
            return _result(lp, "unbounded")

    x = lp.lower.copy()
    x[free] += np.maximum(best_x, 0.0)
    return _result(lp, "optimal", x)


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
