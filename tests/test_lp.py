"""Two-phase simplex solver checked against hand-computed optima and
brute-force vertex enumeration."""

import numpy as np
import pytest

import bspower.lp as lp_mod
from bspower.calibration import default_calibration
from bspower.lp import FEAS_TOL, LinearProgram, _price, _run_simplex, solve
from bspower.scenarios import CompositeScenario, ScenarioSpace
from bspower.stochastic import build_deterministic_equivalent
from bspower.units import Horizon
from brute_force_lp import brute_force_solve, with_slacks


def _assert_feasible(lp, x, a_ub, b_ub, tol=1e-6):
    assert np.all(x >= lp.lower - tol)
    assert np.all(x <= lp.upper + tol)
    if lp.b_eq.size:
        np.testing.assert_allclose(lp.a_eq @ x, lp.b_eq, atol=tol)
    if b_ub.size:
        assert np.all(a_ub @ x <= b_ub + tol)


# ---------------------------------------------------------------------------
# hand-checkable programs; an inequality row a @ x <= b is posed to the
# solver through with_slacks, as a @ x + s == b with a slack s >= 0 that
# comes after the program's own columns
# ---------------------------------------------------------------------------

def test_single_variable_floor():
    # min x subject to x >= 3, expressed as -x <= -3
    sol = solve(with_slacks(LinearProgram(c=[1.0]), [[-1.0]], [-3.0]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    np.testing.assert_allclose(sol.x[:1], [3.0], atol=1e-9)


def test_two_variable_vertex():
    # steeper reward on x pulls the optimum to the (1, 0) corner
    sol = solve(with_slacks(LinearProgram(c=[-1.0, -0.5]), [[1.0, 1.0]], [1.0]))
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x[:2], [1.0, 0.0], atol=1e-9)
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)


def test_equality_with_bounds():
    # min 2a + b  s.t. a + b = 4, a <= 1.5  ->  a = 0, b = 4
    lp = LinearProgram(c=[2.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[4.0],
                       upper=[1.5, np.inf])
    sol = solve(lp)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [0.0, 4.0], atol=1e-9)
    assert sol.objective == pytest.approx(4.0, abs=1e-9)


def test_infeasible_sign_conflict():
    # x <= -1 contradicts x >= 0
    lp = LinearProgram(c=[1.0])
    assert solve(with_slacks(lp, [[1.0]], [-1.0])).status == "infeasible"
    assert brute_force_solve(lp, [[1.0]], [-1.0]).status == "infeasible"


def test_zero_row_inconsistency():
    lp = LinearProgram(c=[1.0, 1.0], a_eq=[[0.0, 0.0]], b_eq=[1.0])
    assert solve(lp).status == "infeasible"
    assert brute_force_solve(lp).status == "infeasible"


def test_unbounded_direction():
    lp = LinearProgram(c=[-1.0, 0.0])
    assert solve(with_slacks(lp, [[0.0, 1.0]], [5.0])).status == "unbounded"
    assert brute_force_solve(lp, [[0.0, 1.0]], [5.0]).status == "unbounded"


def test_upper_bound_caps_unbounded_direction():
    lp = LinearProgram(c=[-1.0], upper=[10.0])
    sol = solve(lp)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [10.0], atol=1e-9)


def test_fixed_variables_are_presolved():
    # first variable pinned to 2 by equal bounds
    lp = LinearProgram(c=[5.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[3.0],
                       lower=[2.0, 0.0], upper=[2.0, np.inf])
    sol = solve(lp)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [2.0, 1.0], atol=1e-9)
    assert sol.objective == pytest.approx(11.0, abs=1e-9)


def test_fixed_variables_can_make_rows_infeasible():
    lp = LinearProgram(c=[1.0], a_eq=[[1.0]], b_eq=[7.0],
                       lower=[2.0], upper=[2.0])
    assert solve(lp).status == "infeasible"
    assert brute_force_solve(lp).status == "infeasible"


def test_degenerate_ties_still_terminate():
    # many redundant rows through one vertex; Bland's rule guards cycling
    lp = with_slacks(
        LinearProgram(c=[-1.0, -1.0]),
        [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 2.0], [1.0, 1.0]],
        [1.0, 1.0, 2.0, 4.0, 2.0])
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-2.0, abs=1e-9)


# ---------------------------------------------------------------------------
# randomized oracle equivalence
# ---------------------------------------------------------------------------

def random_lp(rng):
    """Small random LP mixing feasible, infeasible, and unbounded shapes.

    Returns (lp, a_ub, b_ub): the program's equality rows and bounds, and
    its inequality rows a_ub @ x <= b_ub.
    """
    n = int(rng.integers(1, 9))
    m_eq = int(rng.integers(0, min(3, n) + 1))
    m_ub = int(rng.integers(0, 8 - m_eq + 1))
    if rng.random() < 0.5:
        a_eq = rng.integers(-3, 4, size=(m_eq, n)).astype(float)
        a_ub = rng.integers(-3, 4, size=(m_ub, n)).astype(float)
    else:
        a_eq = rng.uniform(-3, 3, size=(m_eq, n))
        a_ub = rng.uniform(-3, 3, size=(m_ub, n))
    c = rng.uniform(-5, 5, size=n)
    c[rng.random(n) < 0.2] = 0.0
    lower = np.zeros(n)
    if rng.random() < 0.3:
        lower = rng.uniform(0, 1, size=n)
    upper = np.full(n, np.inf)
    finite = rng.random(n) < 0.5
    upper[finite] = lower[finite] + rng.uniform(0.5, 6.0, size=int(finite.sum()))
    if rng.random() < 0.1:
        j = int(rng.integers(n))
        upper[j] = lower[j]  # pinned variable
    if rng.random() < 0.7:
        # right-hand sides built from a known feasible point
        span = np.where(np.isfinite(upper), upper - lower, 3.0)
        x0 = lower + rng.uniform(0, 1, size=n) * span
        b_eq = a_eq @ x0
        b_ub = a_ub @ x0 + rng.uniform(0, 3, size=m_ub)
    else:
        b_eq = rng.uniform(-4, 4, size=m_eq)
        b_ub = rng.uniform(-4, 4, size=m_ub)
    lp = LinearProgram(c=c, a_eq=a_eq if m_eq else None, b_eq=b_eq if m_eq else None,
                       lower=lower, upper=upper)
    return lp, a_ub, b_ub


def test_simplex_agrees_with_vertex_enumeration():
    rng = np.random.default_rng(20240817)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for k in range(150):
        lp, a_ub, b_ub = random_lp(rng)
        got = solve(with_slacks(lp, a_ub, b_ub))
        want = brute_force_solve(lp, a_ub, b_ub)
        assert got.status == want.status, f"case {k}: {got.status} != {want.status}"
        statuses[got.status] += 1
        if got.status == "optimal":
            assert got.objective == pytest.approx(
                want.objective, abs=1e-8), f"case {k}"
            _assert_feasible(lp, got.x[:lp.n_vars], a_ub, b_ub)
    # the generator must actually exercise all three outcomes
    assert min(statuses.values()) > 0, statuses


def test_solver_is_deterministic():
    rng = np.random.default_rng(99)
    lp = with_slacks(*random_lp(rng))
    inputs = [lp.c.copy(), lp.a_eq.copy(), lp.b_eq.copy(), lp.lower.copy(), lp.upper.copy()]
    first = solve(lp)
    second = solve(lp)
    assert first.status == second.status
    np.testing.assert_array_equal(first.x, second.x)
    assert first.iterations == second.iterations
    # the solve works on copies: the program is left as it was
    for now, then in zip((lp.c, lp.a_eq, lp.b_eq, lp.lower, lp.upper), inputs):
        np.testing.assert_array_equal(now, then)


def test_objective_scaling():
    lp = with_slacks(LinearProgram(c=[-1.0, -0.5]), [[1.0, 1.0]], [1.0])
    scaled = with_slacks(LinearProgram(c=[-7.0, -3.5]), [[1.0, 1.0]], [1.0])
    assert solve(scaled).objective == pytest.approx(
        7.0 * solve(lp).objective, rel=1e-12)


def test_optimum_never_beaten_by_known_feasible_points():
    rng = np.random.default_rng(5150)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 5))
        a_ub = rng.uniform(-2, 2, size=(m, n))
        x0 = rng.uniform(0, 2, size=n)
        lp = LinearProgram(c=rng.uniform(-3, 3, size=n), upper=np.full(n, 10.0))
        sol = solve(with_slacks(lp, a_ub, a_ub @ x0 + rng.uniform(0.1, 2, size=m)))
        assert sol.status == "optimal"
        assert sol.objective <= lp.c @ x0 + 1e-7
        checked += 1
    assert checked == 60


# ---------------------------------------------------------------------------
# construction and export
# ---------------------------------------------------------------------------

def test_program_validation():
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=None)
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0, 1.0], a_eq=[[1.0]], b_eq=[1.0])
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0], lower=[-np.inf])
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0], lower=[2.0], upper=[1.0])
    # one bound for several variables is not broadcast
    with pytest.raises(ValueError, match="bound vector length"):
        LinearProgram(c=[1.0, 1.0], upper=[5.0])
    with pytest.raises(ValueError, match="bound vector length"):
        LinearProgram(c=[1.0, 1.0], lower=1.0)


def test_brute_force_rejects_large_programs():
    lp = LinearProgram(c=np.ones(13))
    with pytest.raises(ValueError, match="brute-force"):
        brute_force_solve(lp)


def test_feasibility_tolerance_is_tight():
    assert FEAS_TOL <= 1e-6


# ---------------------------------------------------------------------------
# one solver rule per program
# ---------------------------------------------------------------------------

def with_cost(lp, c, b_eq=None):
    """lp with another cost row and, if given, another rhs."""
    return LinearProgram(c=c, a_eq=lp.a_eq, b_eq=lp.b_eq if b_eq is None else b_eq,
                         lower=lp.lower, upper=lp.upper)


def assert_matches_brute_force(lp):
    """lp.solve and the brute-force oracle agree on lp's status and optimum;
    returns the status."""
    got, want = solve(lp), brute_force_solve(lp)
    assert got.status == want.status
    if got.status == "optimal":
        assert got.objective == pytest.approx(want.objective, abs=1e-9)
    else:
        assert np.isnan(got.x).all() and np.isnan(got.objective)
    return got.status


def test_mixed_verdicts_match_brute_force():
    # the equality rows are one row twice: consistent right-hand sides leave
    # a redundant row after phase 1, inconsistent ones are infeasible, and a
    # negative cost on x2 (free upwards) is unbounded
    lp = LinearProgram(c=[1.0, 2.0, 0.0], a_eq=[[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]],
                       b_eq=[1.0, 2.0], upper=[4.0, np.inf, np.inf])
    c = [[1.0, 2.0, 0.0], [1.0, 2.0, 0.0], [1.0, 2.0, -1.0],
         [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [2.0, 1.0, 0.5]]
    b_eq = [[1.0, 2.0], [1.0, 3.0], [1.0, 2.0], [2.0, 4.0], [0.0, 0.0], [-1.0, -2.0]]
    statuses = [assert_matches_brute_force(with_slacks(with_cost(lp, ck, bk), [[1.0, 0.0, -1.0]],
                                                       [3.0]))
                for ck, bk in zip(c, b_eq)]
    assert statuses == ["optimal", "infeasible", "unbounded", "optimal", "optimal", "infeasible"]


def test_a_redundant_row_is_zeroed_and_kept_through_phase_2(monkeypatch):
    # both rows need an artificial; after phase 1 the second is redundant,
    # set to exactly 0 with its artificial basic, and phase 2 runs over it
    lp = with_slacks(LinearProgram(c=[2.0, 1.0, 0.5], a_eq=[[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]],
                                   b_eq=[-1.0, -2.0], upper=[4.0, np.inf, np.inf]),
                     [[1.0, 0.0, -1.0]], [3.0])
    dropped = []
    drop = lp_mod._drop_artificials

    def recording_drop(tableau, basis):
        drop(tableau, basis)
        dropped.append((tableau.copy(), basis.copy()))

    monkeypatch.setattr(lp_mod, "_drop_artificials", recording_drop)
    feasible = with_cost(lp, [1.0, 2.0, 0.0, 0.0], [1.0, 2.0, 3.0])
    assert assert_matches_brute_force(feasible) == "optimal"
    (tableau, basis), = dropped
    zero = ~tableau[:-1].any(axis=1)
    assert zero.sum() == 1 and basis[zero][0] >= tableau.shape[1] - 1
    assert assert_matches_brute_force(with_cost(feasible, [1.0, 2.0, -1.0, 0.0])) == "unbounded"
    assert assert_matches_brute_force(with_cost(feasible, [-1.0, 1.0, 0.0, 0.0],
                                                [2.0, 4.0, 3.0])) == "optimal"
    assert assert_matches_brute_force(lp) == "infeasible"


def test_all_fixed_programs_take_the_zero_row_verdict():
    # every variable is fixed, so every row is zero once they are
    # substituted, and its rhs decides; no simplex step is taken
    lp = LinearProgram(c=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[3.0],
                       lower=[1.0, 2.0], upper=[1.0, 2.0])
    for c, b_eq, status in (([1.0, 1.0], [3.0], "optimal"), ([2.0, -1.0], [3.0], "optimal"),
                            ([1.0, 1.0], [4.0], "infeasible")):
        program = with_cost(lp, c, b_eq)
        assert assert_matches_brute_force(program) == status
        assert solve(program).iterations == 0
    np.testing.assert_array_equal(solve(lp).x, [1.0, 2.0])
    assert solve(with_cost(lp, [2.0, -1.0])).objective == 0.0


def test_bounds_only_programs():
    # no rows at all: every step is a bound flip or the unbounded verdict
    lp = LinearProgram(c=[-1.0, 2.0, -3.0], lower=[1.0, 0.0, 0.0],
                       upper=[10.0, np.inf, 4.0])
    sol = solve(lp)
    assert sol.status == "optimal"
    np.testing.assert_array_equal(sol.x, [10.0, 0.0, 4.0])
    assert sol.objective == -22.0 and sol.iterations == 2
    ray = LinearProgram(c=[-1.0, -1.0], upper=[5.0, np.inf])
    assert assert_matches_brute_force(ray) == "unbounded"

    statuses = [assert_matches_brute_force(with_cost(lp, c))
                for c in ([-1.0, 2.0, -3.0], [1.0, 1.0, 1.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0])]
    assert statuses == ["optimal", "optimal", "unbounded", "optimal"]
    fixed_and_free = LinearProgram(c=[1.0, -1.0], lower=[2.0, 0.0], upper=[2.0, 3.0])
    for c in ([1.0, -1.0], [1.0, 1.0]):
        assert assert_matches_brute_force(with_cost(fixed_and_free, c)) == "optimal"


def test_bound_flips_and_leaving_at_an_upper_bound(monkeypatch):
    # x1 - x2 = 0, x2 + x3 <= 10, x1 <= 2, x3 <= 3. Raising x3 hits its own
    # bound before the row: a bound flip, no pivot. Raising x2 drags the
    # basic x1 up to its bound: x1 leaves at its upper bound
    lp = LinearProgram(c=[0.0, 0.0, 0.0], a_eq=[[1.0, -1.0, 0.0]], b_eq=[0.0],
                       upper=[2.0, np.inf, 3.0])
    pivots = []
    pivot = lp_mod._pivot

    def counting_pivot(tableau, basis, r, j):
        pivots[-1] += 1
        pivot(tableau, basis, r, j)

    monkeypatch.setattr(lp_mod, "_pivot", counting_pivot)
    programs = [with_slacks(with_cost(lp, c), [[0.0, 1.0, 1.0]], [10.0])
                for c in ([0.0, 0.0, -1.0], [0.0, -1.0, 0.0])]
    results = []
    for program in programs:
        pivots.append(0)
        results.append(solve(program))
    np.testing.assert_array_equal(results[0].x[:3], [0.0, 0.0, 3.0])
    np.testing.assert_array_equal(results[1].x[:3], [2.0, 2.0, 0.0])
    # one phase-1 pivot each; then a flip for the first and a pivot for the second
    assert [r.iterations for r in results] == [2, 2]
    assert pivots == [1, 2]
    assert [assert_matches_brute_force(program) for program in programs] == ["optimal"] * 2


def test_bound_flip_wins_a_tie_with_a_row():
    # x1 reaches its bound 2 exactly when the first row's slack reaches 0:
    # the flip ends it in one step, a pivot would leave x1 basic at its
    # bound and take a second, degenerate step
    lp = with_slacks(LinearProgram(c=[0.0, -3.0], upper=[1.0, 2.0]),
                     [[-1.0, 1.0], [2.0, 1.0]], [2.0, 3.0])
    sol = solve(lp)
    assert (sol.status, sol.iterations) == ("optimal", 1)
    np.testing.assert_array_equal(sol.x[:2], [0.0, 2.0])
    assert assert_matches_brute_force(lp) == "optimal"


def test_upper_bounds_stay_out_of_the_rows():
    lp = LinearProgram(c=[1.0, 1.0, 1.0], a_eq=[[1.0, 1.0, 1.0]], b_eq=[2.0],
                       lower=[0.0, 1.0, 0.0], upper=[4.0, 3.0, np.inf])
    free, body, rhs, up, ok = lp_mod._prepare(lp)
    assert body.shape == (1, 3) and free.tolist() == [0, 1, 2] and ok
    np.testing.assert_array_equal(rhs, [1.0])
    np.testing.assert_array_equal(up, [4.0, 2.0, np.inf])


def test_crash_basis_starts_from_columns_of_one_row():
    # x0 appears only in row 0 and y only in row 1, which is negated to a
    # nonnegative rhs; they start basic, no artificial is needed, and that
    # start is already optimal
    a_eq = [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, -1.0, -1.0]]
    lp = LinearProgram(c=[1.0, 1.0, 3.0, 1.0], a_eq=a_eq, b_eq=[3.0, -1.0])
    sol = solve(lp)
    assert (sol.status, sol.iterations) == ("optimal", 0)
    np.testing.assert_array_equal(sol.x, [3.0, 0.0, 0.0, 1.0])
    # with an upper bound on y, row 1 has no such column: phase 1 pivots
    bounded = LinearProgram(c=lp.c, a_eq=a_eq, b_eq=lp.b_eq, upper=[np.inf] * 3 + [5.0])
    sol = solve(bounded)
    assert sol.status == "optimal" and sol.iterations > 0
    np.testing.assert_array_equal(sol.x, [3.0, 0.0, 0.0, 1.0])
    # x1 = 1 + x2 + y grows without end unless y is bounded
    for program, statuses in ((lp, ["optimal", "optimal", "unbounded"]),
                              (bounded, ["optimal", "optimal", "optimal"])):
        assert [assert_matches_brute_force(with_cost(program, c, b_eq)) for c, b_eq in (
            ([1.0, 1.0, 3.0, 1.0], [3.0, -1.0]), ([1.0, 1.0, 1.0, 1.0], [3.0, 2.0]),
            ([0.0, -1.0, 0.0, 0.0], [1.0, 1.0]))] == statuses


def test_an_overflowed_tableau_is_numerical_not_optimal():
    # every input is finite, but buying 1e300 Wh at 1e305 cents/Wh
    # overflows the pricing of phase 2, and no verdict read from that
    # tableau holds
    space = ScenarioSpace((CompositeScenario("p|r|c", 1.0, np.array([1e308, 1e307]),
                                             np.zeros(2), np.array([1e300, 1e300])),))
    program, _ = build_deterministic_equivalent(Horizon(T=2), default_calibration().storage,
                                                space)
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve(program)
    assert sol.status == "numerical"
    assert np.isnan(sol.x).all() and np.isnan(sol.objective)


# ---------------------------------------------------------------------------
# the simplex core: stall counting and Bland's rule
# ---------------------------------------------------------------------------

def klee_minty(n):
    """Slack-basis tableau of the Klee-Minty cube (Chvatal's form).

    Dantzig's rule visits all 2**n vertices, and every pivot improves the
    objective.
    """
    a = np.zeros((n, n))
    for i in range(n):
        a[i, :i] = 2.0 * 10.0 ** (i - np.arange(i))
        a[i, i] = 1.0
    b = 100.0 ** np.arange(n)
    cost = np.concatenate([-10.0 ** (n - 1 - np.arange(n)), np.zeros(n)])
    return np.hstack([a, np.eye(n), b[:, None]]), n + np.arange(n), cost


def chvatal_cycle():
    """Slack-basis tableau of Chvatal's degenerate example.

    Dantzig's rule with the lowest-index tie-break cycles on it for ever.
    """
    a = np.array([[0.5, -5.5, -2.5, 9.0], [0.5, -1.5, -0.5, 1.0], [1.0, 0.0, 0.0, 0.0]])
    b = np.array([0.0, 0.0, 1.0])
    cost = np.array([-10.0, 57.0, 9.0, 24.0, 0.0, 0.0, 0.0])
    return np.hstack([a, np.eye(3), b[:, None]]), np.arange(4, 7), cost


def run_core(tableau, basis, cost):
    """The core on tableau with the reduced-cost row of cost in its basis
    appended, every variable uncomplemented and unbounded; returns
    (unbounded, iterations, bland) and the final tableau."""
    tableau = np.vstack([tableau, np.zeros(tableau.shape[1])])
    up = np.full(cost.size, np.inf)
    complemented = np.zeros(tableau.shape[1] - 1, bool)
    _price(tableau, basis, cost.copy(), complemented, up)
    return _run_simplex(tableau, basis, complemented, up), tableau


def test_stall_counter_counts_only_pivots_that_do_not_improve():
    # 255 improving pivots, far above 2 (m + n) = 48: Dantzig's rule must
    # stay in charge all the way
    tableau, basis, cost = klee_minty(8)
    assert tableau.shape == (8, 17)  # m = 8 rows, n = 16 columns and the rhs
    assert run_core(tableau, basis, cost)[0] == (False, 2**8 - 1, False)

    # a degenerate cycle improves nothing, so Bland's rule takes over
    # after 2 (3 + 7) + 1 pivots and ends it
    tableau, basis, cost = chvatal_cycle()
    (unbounded, iterations, bland), final = run_core(tableau, basis, cost)
    assert not unbounded and bland and iterations > 21
    assert cost[basis] @ final[:3, -1] == -1.0
