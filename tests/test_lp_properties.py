"""Lockstep batches equal one-program solves, on random shared matrices."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

import scalar_lp  # noqa: E402
from bspower import lp as lp_mod  # noqa: E402
from bspower.lp import LinearProgram, solve, solve_batch  # noqa: E402
from brute_force_lp import row_triples, stack_with_slacks, with_slacks  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None, database=None)
small_ints = st.integers(-3, 3).map(float)
values = st.floats(-4.0, 4.0, allow_nan=False, width=32)


@st.composite
def batches(draw):
    """A program with shared rows and bounds, plus stacked costs and rhs;
    its inequality rows are posed through with_slacks."""
    n = draw(st.integers(1, 5))
    m_eq = draw(st.integers(0, 3))
    m_ub = draw(st.integers(0, 3))
    K = draw(st.integers(1, 5))
    a_eq = draw(hnp.arrays(float, (m_eq, n), elements=small_ints))
    a_ub = draw(hnp.arrays(float, (m_ub, n), elements=small_ints))
    b_ub = draw(hnp.arrays(float, m_ub, elements=values))
    lower = draw(hnp.arrays(float, n, elements=st.sampled_from([0.0, 0.5, 1.0])))
    width = draw(hnp.arrays(float, n, elements=st.sampled_from([0.0, 1.0, 2.5, np.inf])))
    c = draw(hnp.arrays(float, (K, n), elements=values))
    b_eq = draw(hnp.arrays(float, (K, m_eq), elements=values))
    lp = LinearProgram(c=c[0], a_eq=a_eq, b_eq=b_eq[0], lower=lower, upper=lower + width)
    return (with_slacks(lp, a_ub, b_ub), *stack_with_slacks(c, b_eq, b_ub))


@SETTINGS
@given(batch=batches())
def test_each_program_of_a_batch_equals_its_lone_solve(batch):
    lp, c, b_eq = batch
    got = solve_batch(lp, c, b_eq, lp.upper[None], row_triples(len(c)))
    for k in range(len(c)):
        want = scalar_lp.scalar_solve(LinearProgram(
            c=c[k], a_eq=lp.a_eq, b_eq=b_eq[k], lower=lp.lower, upper=lp.upper))
        assert (got.status[k], got.iterations[k], got.bland[k]) == (
            want.status[0], want.iterations[0], want.bland[0])
        assert np.array_equal(got.objective[k], want.objective[0], equal_nan=True)
        assert np.array_equal(got.x[k], want.x[0], equal_nan=True)


@st.composite
def row_tables(draw):
    """A program's shared rows and lower bounds with row tables of costs,
    rhs and upper bounds, every bound row fixing the same variables, and
    index triples that use every bound row and repeat two triples;
    inequality rows are posed through with_slacks."""
    n = draw(st.integers(1, 5))
    m_eq = draw(st.integers(0, 3))
    m_ub = draw(st.integers(0, 3))
    a_eq = draw(hnp.arrays(float, (m_eq, n), elements=small_ints))
    a_ub = draw(hnp.arrays(float, (m_ub, n), elements=small_ints))
    b_ub = draw(hnp.arrays(float, m_ub, elements=values))
    lower = draw(hnp.arrays(float, n, elements=st.sampled_from([0.0, 0.5, 1.0])))
    fixed = draw(hnp.arrays(bool, n))
    width = draw(hnp.arrays(float, n, elements=st.sampled_from([1.0, 2.5, np.inf])))
    # each bound row scales the widths by its own factor; the third has none
    factors = np.array([1.0, 2.0, np.inf])[:draw(st.integers(2, 3)), None]
    upper = lower + np.where(fixed, 0.0, width * factors)
    c = draw(hnp.arrays(float, (draw(st.integers(1, 3)), n), elements=values))
    b_eq = draw(hnp.arrays(float, (draw(st.integers(1, 3)), m_eq), elements=values))
    rows = draw(st.lists(st.tuples(*(st.integers(0, len(t) - 1) for t in (c, b_eq, upper))),
                         min_size=1, max_size=7))
    # every bound row takes part with a cost row that pulls each variable
    # up, so programs end at different bounds, and two triples repeat
    c = np.vstack([c, np.full(n, -1.0)])
    rows += [(len(c) - 1, len(b_eq) - 1, bound) for bound in range(len(upper))]
    rows += [rows[-2], draw(st.sampled_from(rows))]
    lp = with_slacks(LinearProgram(c=c[0], a_eq=a_eq, b_eq=b_eq[0], lower=lower,
                                   upper=upper[0]), a_ub, b_ub)
    return (lp, np.hstack([c, np.zeros((len(c), m_ub))]),
            np.hstack([b_eq, np.tile(b_ub, (len(b_eq), 1))]),
            np.hstack([upper, np.full((len(upper), m_ub), np.inf)]), np.array(rows))


def assert_each_triple_equals_its_lone_solve(got, lp, c, b_eq, upper, rows):
    """Entry k of got equals, bit for bit, lp.solve and the scalar oracle
    on the program of triple k alone."""
    for k, (cost, rhs, bound) in enumerate(rows):
        alone = LinearProgram(c=c[cost], a_eq=lp.a_eq, b_eq=b_eq[rhs], lower=lp.lower,
                              upper=upper[bound])
        for want in (solve(alone), scalar_lp.scalar_solve(alone)):
            assert (got.status[k], got.iterations[k], got.bland[k]) == (
                want.status[0], want.iterations[0], want.bland[0])
            assert np.array_equal(got.objective[k], want.objective[0], equal_nan=True)
            assert np.array_equal(got.x[k], want.x[0], equal_nan=True)


@SETTINGS
@given(batch=row_tables())
def test_each_triple_of_mixed_bound_tables_equals_its_lone_solve(batch):
    lp, c, b_eq, upper, rows = batch
    got = solve_batch(lp, c, b_eq, upper, rows)
    assert_each_triple_equals_its_lone_solve(got, lp, c, b_eq, upper, rows)


@st.composite
def repeated_row_tables(draw):
    """row_tables with each table's rows appended twice, as two sources
    that made the same rows would, and the triples spread over both
    copies; the triples into the first copy alone come last."""
    lp, c, b_eq, upper, rows = draw(row_tables())
    second = draw(hnp.arrays(bool, rows.shape))
    spread = rows + second * np.array([len(c), len(b_eq), len(upper)])
    return (lp, np.vstack([c, c]), np.vstack([b_eq, b_eq]), np.vstack([upper, upper]),
            spread, rows)


@settings(SETTINGS, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(batch=repeated_row_tables())
def test_each_triple_of_repeated_tables_equals_its_lone_solve(solver_calls, batch):
    lp, c, b_eq, upper, rows, first_copy = batch
    solver_calls.clear()
    got = solve_batch(lp, c, b_eq, upper, rows)
    # every triple that passes the zero-row check is stacked, repeats too;
    # with every variable fixed, no stack runs
    free, _, _, ok, _ = lp_mod._prepare(lp, b_eq, upper)
    stacked = ok[rows[:, 1]].sum() if free.size else 0
    assert sum(k for k, _ in solver_calls.stacks) == stacked
    # which copy of a row a triple names does not change its result
    again = solve_batch(lp, c, b_eq, upper, first_copy)
    for field in ("status", "iterations", "bland"):
        assert np.array_equal(getattr(got, field), getattr(again, field))
    for field in ("x", "objective"):
        assert np.array_equal(getattr(got, field), getattr(again, field), equal_nan=True)
    assert_each_triple_equals_its_lone_solve(got, lp, c, b_eq, upper, rows)


@SETTINGS
@given(batch=row_tables())
def test_solve_batch_leaves_its_inputs_unchanged(batch):
    # preparation divides its copy of the free columns in place
    lp, c, b_eq, upper, rows = batch
    inputs = (lp.a_eq, lp.b_eq, lp.lower, lp.upper, c, b_eq, upper)
    before = [a.copy() for a in inputs]
    solve_batch(lp, c, b_eq, upper, rows)
    for now, then in zip(inputs, before):
        assert np.array_equal(now, then)
