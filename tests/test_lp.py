"""Two-phase simplex solver checked against brute-force vertex enumeration
and, program by program, against the one-tableau scalar oracle."""

from dataclasses import fields

import numpy as np
import pytest

import bspower.lp as lp_mod
import scalar_lp
from bspower.calibration import default_calibration
from bspower.lp import (
    FEAS_TOL,
    LinearProgram,
    LpResult,
    _run_simplex,
    solve,
    solve_batch,
)
from bspower.scenarios import CompositeScenario, ScenarioSpace
from bspower.stochastic import build_deterministic_equivalent
from bspower.units import Horizon
from brute_force_lp import brute_force_solve, row_triples, stack_with_slacks, with_slacks


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
    assert sol.status[0] == "optimal"
    assert sol.objective[0] == pytest.approx(3.0, abs=1e-9)
    np.testing.assert_allclose(sol.x[0, :1], [3.0], atol=1e-9)


def test_two_variable_vertex():
    # steeper reward on x pulls the optimum to the (1, 0) corner
    sol = solve(with_slacks(LinearProgram(c=[-1.0, -0.5]), [[1.0, 1.0]], [1.0]))
    assert sol.status[0] == "optimal"
    np.testing.assert_allclose(sol.x[0, :2], [1.0, 0.0], atol=1e-9)
    assert sol.objective[0] == pytest.approx(-1.0, abs=1e-9)


def test_equality_with_bounds():
    # min 2a + b  s.t. a + b = 4, a <= 1.5  ->  a = 0, b = 4
    lp = LinearProgram(c=[2.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[4.0],
                       upper=[1.5, np.inf])
    sol = solve(lp)
    assert sol.status[0] == "optimal"
    np.testing.assert_allclose(sol.x[0], [0.0, 4.0], atol=1e-9)
    assert sol.objective[0] == pytest.approx(4.0, abs=1e-9)


def test_infeasible_sign_conflict():
    # x <= -1 contradicts x >= 0
    lp = LinearProgram(c=[1.0])
    assert solve(with_slacks(lp, [[1.0]], [-1.0])).status[0] == "infeasible"
    assert brute_force_solve(lp, [[1.0]], [-1.0]).status[0] == "infeasible"


def test_zero_row_inconsistency():
    lp = LinearProgram(c=[1.0, 1.0], a_eq=[[0.0, 0.0]], b_eq=[1.0])
    assert solve(lp).status[0] == "infeasible"
    assert brute_force_solve(lp).status[0] == "infeasible"


def test_unbounded_direction():
    lp = LinearProgram(c=[-1.0, 0.0])
    assert solve(with_slacks(lp, [[0.0, 1.0]], [5.0])).status[0] == "unbounded"
    assert brute_force_solve(lp, [[0.0, 1.0]], [5.0]).status[0] == "unbounded"


def test_upper_bound_caps_unbounded_direction():
    lp = LinearProgram(c=[-1.0], upper=[10.0])
    sol = solve(lp)
    assert sol.status[0] == "optimal"
    np.testing.assert_allclose(sol.x[0], [10.0], atol=1e-9)


def test_fixed_variables_are_presolved():
    # first variable pinned to 2 by equal bounds
    lp = LinearProgram(c=[5.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[3.0],
                       lower=[2.0, 0.0], upper=[2.0, np.inf])
    sol = solve(lp)
    assert sol.status[0] == "optimal"
    np.testing.assert_allclose(sol.x[0], [2.0, 1.0], atol=1e-9)
    assert sol.objective[0] == pytest.approx(11.0, abs=1e-9)


def test_fixed_variables_can_make_rows_infeasible():
    lp = LinearProgram(c=[1.0], a_eq=[[1.0]], b_eq=[7.0],
                       lower=[2.0], upper=[2.0])
    assert solve(lp).status[0] == "infeasible"
    assert brute_force_solve(lp).status[0] == "infeasible"


def test_degenerate_ties_still_terminate():
    # many redundant rows through one vertex; Bland's rule guards cycling
    lp = with_slacks(
        LinearProgram(c=[-1.0, -1.0]),
        [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 2.0], [1.0, 1.0]],
        [1.0, 1.0, 2.0, 4.0, 2.0])
    sol = solve(lp)
    assert sol.status[0] == "optimal"
    assert sol.objective[0] == pytest.approx(-2.0, abs=1e-9)


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
        assert got.status[0] == want.status[0], f"case {k}: {got.status[0]} != {want.status[0]}"
        statuses[got.status[0]] += 1
        if got.status[0] == "optimal":
            assert got.objective[0] == pytest.approx(
                want.objective[0], abs=1e-8), f"case {k}"
            _assert_feasible(lp, got.x[0, :lp.n_vars], a_ub, b_ub)
    # the generator must actually exercise all three outcomes
    assert min(statuses.values()) > 0, statuses


def test_solver_is_deterministic():
    rng = np.random.default_rng(99)
    lp = with_slacks(*random_lp(rng))
    first = solve(lp)
    second = solve(lp)
    assert first.status[0] == second.status[0]
    np.testing.assert_array_equal(first.x, second.x)
    assert first.iterations[0] == second.iterations[0]


def test_objective_scaling():
    lp = with_slacks(LinearProgram(c=[-1.0, -0.5]), [[1.0, 1.0]], [1.0])
    scaled = with_slacks(LinearProgram(c=[-7.0, -3.5]), [[1.0, 1.0]], [1.0])
    assert solve(scaled).objective[0] == pytest.approx(
        7.0 * solve(lp).objective[0], rel=1e-12)


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
        assert sol.status[0] == "optimal"
        assert sol.objective[0] <= lp.c @ x0 + 1e-7
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
# lockstep batches against the scalar oracle
# ---------------------------------------------------------------------------

def alone(lp, c, b_eq):
    """Program k of a batch as a program of its own."""
    return LinearProgram(c=c, a_eq=lp.a_eq, b_eq=b_eq, lower=lp.lower, upper=lp.upper)


def oracle_batch(lp, c, b_eq):
    """The scalar oracle's records of every program alone, stacked as one."""
    ones = [scalar_lp.scalar_solve(alone(lp, c[k], b_eq[k])) for k in range(len(c))]
    return LpResult(*(np.concatenate([getattr(one, field.name) for one in ones])
                      for field in fields(LpResult)))


def assert_same_solution(got, want):
    """Two records agree bit for bit, program by program; x and the
    objective are NaN in the same places."""
    assert (got.status.tolist(), got.iterations.tolist(), got.bland.tolist()) == (
        want.status.tolist(), want.iterations.tolist(), want.bland.tolist())
    assert np.array_equal(got.objective, want.objective, equal_nan=True)
    assert np.array_equal(got.x, want.x, equal_nan=True)


def assert_batch_matches_oracle(lp, c, b_eq):
    got = solve_batch(lp, c, b_eq, lp.upper[None], row_triples(len(c)))
    assert_same_solution(got, oracle_batch(lp, c, b_eq))
    return got.status.tolist()


def test_batch_mixing_verdicts_matches_the_oracle_per_program():
    # the equality rows are one row twice: consistent right-hand sides leave
    # a redundant row after phase 1, inconsistent ones are infeasible, and a
    # negative cost on x2 (free upwards) is unbounded
    lp = LinearProgram(c=[1.0, 2.0, 0.0], a_eq=[[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]],
                       b_eq=[1.0, 2.0], upper=[4.0, np.inf, np.inf])
    lp = with_slacks(lp, [[1.0, 0.0, -1.0]], [3.0])
    c = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0], [1.0, 2.0, -1.0],
                  [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [2.0, 1.0, 0.5]])
    b_eq = np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 2.0], [2.0, 4.0], [0.0, 0.0], [-1.0, -2.0]])
    statuses = assert_batch_matches_oracle(lp, *stack_with_slacks(c, b_eq, [3.0]))
    assert statuses == ["optimal", "infeasible", "unbounded", "optimal", "optimal", "infeasible"]


def test_programs_with_a_redundant_row_finish_in_their_stack(solver_calls):
    # the rows of the mixing-verdicts batch: after phase 1 every feasible
    # program has one redundant row, zeroed in place, and runs phase 2 with
    # the rest of its stack, so the stack makes one call per phase
    lp = with_slacks(LinearProgram(c=[1.0, 2.0, 0.0], a_eq=[[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]],
                                   b_eq=[1.0, 2.0], upper=[4.0, np.inf, np.inf]),
                     [[1.0, 0.0, -1.0]], [3.0])
    c = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, -1.0], [-1.0, 1.0, 0.0], [2.0, 1.0, 0.5]])
    b_eq = np.array([[1.0, 2.0], [1.0, 2.0], [2.0, 4.0], [-1.0, -2.0]])
    c, b_eq = stack_with_slacks(c, b_eq, [3.0])
    statuses = assert_batch_matches_oracle(lp, c, b_eq)
    assert [k for k, _ in solver_calls.stacks] == [4]
    assert solver_calls.simplex_runs == [2]
    assert statuses == [brute_force_solve(alone(lp, c[k], b_eq[k])).status[0]
                        for k in range(len(c))]
    assert statuses == ["optimal", "unbounded", "optimal", "infeasible"]


def test_batch_of_all_fixed_programs_matches_the_oracle():
    lp = LinearProgram(c=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[3.0],
                       lower=[1.0, 2.0], upper=[1.0, 2.0])
    c = np.array([[1.0, 1.0], [2.0, -1.0], [1.0, 1.0]])
    b_eq = np.array([[3.0], [3.0], [4.0]])
    assert assert_batch_matches_oracle(lp, c, b_eq) == ["optimal", "optimal", "infeasible"]


def test_batch_results_do_not_depend_on_the_stack_budget(monkeypatch):
    rng = np.random.default_rng(31)
    lp, a_ub, b_ub = random_lp(rng)
    while lp.b_eq.size == 0:
        lp, a_ub, b_ub = random_lp(rng)
    c = lp.c + rng.uniform(-2, 2, size=(9, lp.n_vars))
    b_eq = lp.b_eq + rng.uniform(-1, 1, size=(9, lp.b_eq.size))
    lp = with_slacks(lp, a_ub, b_ub)
    c, b_eq = stack_with_slacks(c, b_eq, b_ub)
    whole = solve_batch(lp, c, b_eq, lp.upper[None], row_triples(len(c)))
    monkeypatch.setattr(lp_mod, "_BATCH_BYTES", 1)  # one program per stack
    assert_same_solution(solve_batch(lp, c, b_eq, lp.upper[None], row_triples(len(c))), whole)


def test_random_batches_match_the_oracle_per_program():
    rng = np.random.default_rng(8128)
    seen = set()
    for _ in range(120):
        lp, a_ub, b_ub = random_lp(rng)
        K = int(rng.integers(1, 7))
        c = lp.c + rng.uniform(-3, 3, size=(K, lp.n_vars)) * (rng.random((K, 1)) < 0.7)
        b_eq = lp.b_eq + rng.uniform(-2, 2, size=(K, lp.b_eq.size)) * (rng.random((K, 1)) < 0.7)
        seen.update(assert_batch_matches_oracle(with_slacks(lp, a_ub, b_ub),
                                                *stack_with_slacks(c, b_eq, b_ub)))
    assert seen == {"optimal", "infeasible", "unbounded"}


def test_bounds_only_programs_solve_alone_and_in_a_batch():
    # no rows at all: every step is a bound flip or the unbounded verdict
    lp = LinearProgram(c=[-1.0, 2.0, -3.0], lower=[1.0, 0.0, 0.0],
                       upper=[10.0, np.inf, 4.0])
    sol = solve(lp)
    assert sol.status[0] == "optimal"
    np.testing.assert_array_equal(sol.x[0], [10.0, 0.0, 4.0])
    assert sol.objective[0] == -22.0 and sol.iterations[0] == 2
    ray = LinearProgram(c=[-1.0, -1.0], upper=[5.0, np.inf])
    assert solve(ray).status[0] == "unbounded"
    assert brute_force_solve(ray).status[0] == "unbounded"

    c = np.array([[-1.0, 2.0, -3.0], [1.0, 1.0, 1.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
    statuses = assert_batch_matches_oracle(lp, c, np.zeros((4, 0)))
    assert statuses == ["optimal", "optimal", "unbounded", "optimal"]
    fixed_and_free = LinearProgram(c=[1.0, -1.0], lower=[2.0, 0.0], upper=[2.0, 3.0])
    assert assert_batch_matches_oracle(fixed_and_free, np.array([[1.0, -1.0], [1.0, 1.0]]),
                                       np.zeros((2, 0))) == ["optimal", "optimal"]


def test_batch_takes_bound_flips_and_leaves_at_upper_bounds(monkeypatch):
    # x1 - x2 = 0, x2 + x3 <= 10, x1 <= 2, x3 <= 3. Program 0 raises x3,
    # which hits its own bound before the row: a bound flip, no pivot.
    # Program 1 raises x2, which drags the basic x1 up to its bound: x1
    # leaves at its upper bound
    lp = LinearProgram(c=[0.0, 0.0, 0.0], a_eq=[[1.0, -1.0, 0.0]], b_eq=[0.0],
                       upper=[2.0, np.inf, 3.0])
    lp = with_slacks(lp, [[0.0, 1.0, 1.0]], [10.0])
    pivots = np.zeros(2, dtype=int)
    pivot = lp_mod._pivot

    def counting_pivot(tableau, basis, k, r, j, col):
        np.add.at(pivots, k, 1)
        pivot(tableau, basis, k, r, j, col)

    monkeypatch.setattr(lp_mod, "_pivot", counting_pivot)
    c, b_eq = stack_with_slacks(np.array([[0.0, 0.0, -1.0], [0.0, -1.0, 0.0]]),
                                np.zeros((2, 1)), [10.0])
    result = solve_batch(lp, c, b_eq, lp.upper[None], row_triples(2))
    np.testing.assert_array_equal(result.x[0, :3], [0.0, 0.0, 3.0])
    np.testing.assert_array_equal(result.x[1, :3], [2.0, 2.0, 0.0])
    # one phase-1 pivot each; then a flip for program 0 and a pivot for 1
    assert result.iterations.tolist() == [2, 2]
    assert pivots.tolist() == [1, 2]
    assert assert_batch_matches_oracle(lp, c, b_eq) == ["optimal", "optimal"]


def test_bound_flip_wins_a_tie_with_a_row():
    # x1 reaches its bound 2 exactly when the first row's slack reaches 0:
    # the flip ends it in one step, a pivot would leave x1 basic at its
    # bound and take a second, degenerate step
    lp = with_slacks(LinearProgram(c=[0.0, -3.0], upper=[1.0, 2.0]),
                     [[-1.0, 1.0], [2.0, 1.0]], [2.0, 3.0])
    sol = solve(lp)
    assert (sol.status[0], sol.iterations[0]) == ("optimal", 1)
    np.testing.assert_array_equal(sol.x[0, :2], [0.0, 2.0])
    assert_same_solution(sol, scalar_lp.scalar_solve(lp))


def test_upper_bounds_stay_out_of_the_rows():
    lp = LinearProgram(c=[1.0, 1.0, 1.0], a_eq=[[1.0, 1.0, 1.0]], b_eq=[2.0],
                       lower=[0.0, 1.0, 0.0], upper=[4.0, 3.0, np.inf])
    free, body, _, _, up = lp_mod._prepare(lp, lp.b_eq[None], lp.upper[None])
    assert body.shape == (1, 3) and free.tolist() == [0, 1, 2]
    # the three variables, then the one row's artificial
    np.testing.assert_array_equal(up, [[4.0, 2.0, np.inf, np.inf]])


def test_crash_basis_starts_from_columns_of_one_row():
    # x0 appears only in row 0 and y only in row 1, which is negated to a
    # nonnegative rhs; they start basic, no artificial is needed, and that
    # start is already optimal
    a_eq = [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, -1.0, -1.0]]
    lp = LinearProgram(c=[1.0, 1.0, 3.0, 1.0], a_eq=a_eq, b_eq=[3.0, -1.0])
    sol = solve(lp)
    assert (sol.status[0], sol.iterations[0]) == ("optimal", 0)
    np.testing.assert_array_equal(sol.x[0], [3.0, 0.0, 0.0, 1.0])
    # with an upper bound on y, row 1 has no such column: phase 1 pivots
    bounded = LinearProgram(c=lp.c, a_eq=a_eq, b_eq=lp.b_eq, upper=[np.inf] * 3 + [5.0])
    sol = solve(bounded)
    assert sol.status[0] == "optimal" and sol.iterations[0] > 0
    np.testing.assert_array_equal(sol.x[0], [3.0, 0.0, 0.0, 1.0])
    c = np.array([[1.0, 1.0, 3.0, 1.0], [1.0, 1.0, 1.0, 1.0], [0.0, -1.0, 0.0, 0.0]])
    b_eq = np.array([[3.0, -1.0], [3.0, 2.0], [1.0, 1.0]])
    # x1 = 1 + x2 + y grows without end unless y is bounded
    assert assert_batch_matches_oracle(lp, c, b_eq) == ["optimal", "optimal", "unbounded"]
    assert assert_batch_matches_oracle(bounded, c, b_eq) == ["optimal", "optimal", "optimal"]


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
    assert sol.status.tolist() == ["numerical"]
    assert np.isnan(sol.x).all() and np.isnan(sol.objective).all()


def test_solve_batch_checks_the_stacked_shapes():
    lp = LinearProgram(c=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    upper, one = lp.upper[None], [[0, 0, 0]]
    with pytest.raises(ValueError, match="stack"):
        solve_batch(lp, np.ones((2, 3)), np.ones((2, 1)), upper, one)
    with pytest.raises(ValueError, match="stack"):
        solve_batch(lp, np.ones((2, 2)), np.ones((3, 1)), np.ones((1, 3)), one)
    with pytest.raises(ValueError, match="stack"):
        solve_batch(lp, np.ones(2), np.ones(1), upper, one)
    with pytest.raises(ValueError, match="triple"):
        solve_batch(lp, np.ones((2, 2)), np.ones((1, 1)), upper, [[1, 1, 0]])
    with pytest.raises(ValueError, match="triple"):
        solve_batch(lp, np.ones((2, 2)), np.ones((1, 1)), upper, [[1, 0]])
    with pytest.raises(ValueError, match="fix the same"):
        solve_batch(lp, np.ones((1, 2)), np.ones((1, 1)), np.array([[0.0, 1.0], [1.0, 1.0]]),
                    [[0, 0, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="lower bound exceeds"):
        solve_batch(lp, np.ones((1, 2)), np.ones((1, 1)), np.array([[1.0, -1.0]]), one)


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


def chvatal_cycle(c=(-10.0, 57.0, 9.0, 24.0)):
    """Slack-basis tableau of Chvatal's degenerate example.

    Dantzig's rule with the lowest-index tie-break cycles on it for ever.
    """
    a = np.array([[0.5, -5.5, -2.5, 9.0], [0.5, -1.5, -0.5, 1.0], [1.0, 0.0, 0.0, 0.0]])
    b = np.array([0.0, 0.0, 1.0])
    return np.hstack([a, np.eye(3), b[:, None]]), np.arange(4, 7), np.concatenate([c, np.zeros(3)])


def with_cost_row(tableau, basis, cost):
    """The tableau with the reduced-cost row of cost in its basis appended,
    as the core carries it; every variable is uncomplemented and unbounded."""
    out = np.vstack([tableau, np.zeros(tableau.shape[1])])
    scalar_lp._price(out, basis, cost, np.zeros(0, bool), np.full(cost.size, np.inf))
    return out


def run_core(tableau, basis, cost):
    """The batched core on a stack of one; returns (unbounded, iterations, bland)."""
    unbounded, iterations, bland = _run_simplex(
        tableau[None], basis[None], np.zeros((1, 0), bool), np.full((1, cost.size), np.inf),
        np.ones(1, bool))
    return unbounded[0], iterations[0], bland[0]


def run_oracle_core(tableau, basis, cost):
    return scalar_lp._run_simplex(tableau, basis, np.zeros(0, bool),
                                  np.full(cost.size, np.inf))


def test_stall_counter_counts_only_pivots_that_do_not_improve():
    # 255 improving pivots, far above 2 (m + n) = 48: Dantzig's rule must
    # stay in charge all the way
    tableau, basis, cost = klee_minty(8)
    tableau = with_cost_row(tableau, basis, cost)
    assert tableau.shape == (9, 17)  # m = 8 rows, n = 16 columns and the rhs
    assert run_core(tableau.copy(), basis.copy(), cost) == (False, 2**8 - 1, False)
    assert run_oracle_core(tableau.copy(), basis.copy(), cost) == ("optimal", 255, False)

    # a degenerate cycle improves nothing, so Bland's rule takes over
    # after 2 (3 + 7) + 1 pivots and ends it
    tableau, basis, cost = chvatal_cycle()
    stack, stack_basis = with_cost_row(tableau, basis, cost)[None], basis[None].copy()
    unbounded, iterations, bland = _run_simplex(stack, stack_basis, np.zeros((1, 0), bool),
                                                np.full((1, 7), np.inf), np.ones(1, bool))
    assert not unbounded[0] and bland[0] and iterations[0] > 21
    assert cost[stack_basis[0]] @ stack[0, :3, -1] == -1.0


def test_stacked_simplex_core_matches_the_oracle_per_program():
    # one stack holds the cycling program (Bland's rule switches on), a copy
    # that is already finished, an unbounded one and random same-shape ones
    rng = np.random.default_rng(44)
    programs = [chvatal_cycle(), chvatal_cycle((1.0, 1.0, 1.0, 1.0)),
                chvatal_cycle((-1.0, -1.0, 0.0, 0.0))]
    for _ in range(5):
        tableau, basis, _ = chvatal_cycle()
        tableau[:, :4] = rng.integers(-4, 5, size=(3, 4)) / 2.0
        tableau[:, -1] = rng.integers(0, 3, size=3)
        programs.append((tableau, basis, rng.uniform(-5, 5, size=7)))
    programs = [(with_cost_row(*p), p[1], p[2]) for p in programs]
    stack = np.stack([p[0] for p in programs])
    stack_basis = np.stack([p[1] for p in programs])
    unbounded, iterations, bland = _run_simplex(
        stack, stack_basis, np.zeros((len(programs), 0), bool),
        np.full((len(programs), 7), np.inf), np.ones(len(programs), bool))
    assert bland[0] and unbounded[2] and iterations[1] == 0
    for k, (tableau, basis, cost) in enumerate(programs):
        tableau, basis = tableau.copy(), basis.copy()
        status, its, switched = run_oracle_core(tableau, basis, cost)
        assert (status == "unbounded", its, switched) == (unbounded[k], iterations[k], bland[k])
        assert np.array_equal(stack[k], tableau) and np.array_equal(stack_basis[k], basis)
