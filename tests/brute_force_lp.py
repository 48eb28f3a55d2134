"""Brute-force LP oracle: enumerate every basic solution.

Exponential in problem size, so small instances only. brute_force_solve
takes the scalar oracle's fix and shift but writes every finite upper
bound as an explicit inequality row, where the solvers handle bounds in
the ratio test; it shares the row equilibration and then minimises over
all active-set choices. Unboundedness is decided by enumerating the
vertices of the normalized recession cone.
"""

import itertools
from dataclasses import replace
from math import comb

import numpy as np

from bspower.lp import FEAS_TOL, LinearProgram, LpSolution
from scalar_lp import Prepared, equilibrate
from scalar_lp import prepare as scalar_prepare

_MAX_BRUTE_COMBOS = 5_000_000


def prepare(lp: LinearProgram) -> tuple[Prepared, int]:
    """The scalar oracle's fix and shift, then one row x <= u per finite
    upper bound. Returns the prepared program and the number of such rows.
    """
    prep = scalar_prepare(lp)
    if prep.status is not None:
        return prep, 0
    finite = np.nonzero(np.isfinite(prep.up))[0]
    rows = np.zeros((finite.size, prep.up.size))
    rows[np.arange(finite.size), finite] = 1.0
    return replace(prep, a_ub=np.vstack([prep.a_ub, rows]),
                   b_ub=np.concatenate([prep.b_ub, prep.up[finite]])), finite.size


def brute_force_solve(lp: LinearProgram, max_vars: int = 12) -> LpSolution:
    """Enumerate all basic solutions; test oracle for solve.

    Exponential in problem size; rejects instances with more than max_vars
    variables. Unboundedness is decided by enumerating vertices of the
    normalized recession cone.
    """
    if lp.n_vars > max_vars:
        raise ValueError(f"{lp.n_vars} variables exceeds brute-force limit {max_vars}")
    prep, n_upper_rows = prepare(lp)
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

    if np.any(prep.c < 0) and n_upper_rows < n:
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
