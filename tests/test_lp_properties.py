"""lp.solve against HiGHS on random programs too large for brute force."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
optimize = pytest.importorskip("scipy.optimize")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from bspower.lp import LinearProgram, solve  # noqa: E402

# HiGHS's default feasibility tolerances (1e-7) are looser than the
# agreement asked for here, so they are tightened, and the costs are
# scaled to unit max
HIGHS_OPTIONS = {"dual_feasibility_tolerance": 1e-10, "primal_feasibility_tolerance": 1e-10}
HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}
REL = 1e-9
FEAS = 1e-9  # the data are small integers, bounds at most 7

small_ints = st.integers(-3, 3).map(float)


@st.composite
def programs(draw):
    """15-60 variables under equality rows of small integers, with lower
    bounds, widths that fix a variable (0), bound it or leave it free
    above (inf), and an rhs that a known point meets or a drawn one."""
    n = draw(st.integers(15, 60))
    m = draw(st.integers(1, n // 2))
    a_eq = draw(hnp.arrays(float, (m, n), elements=small_ints))
    lower = draw(hnp.arrays(float, n, elements=st.sampled_from([0.0, 1.0, 2.0])))
    width = draw(hnp.arrays(float, n, elements=st.sampled_from([0.0, 1.0, 3.0, 5.0, np.inf])))
    c = draw(hnp.arrays(float, n, elements=st.integers(-5, 5).map(float)))
    if draw(st.booleans()):
        c = np.abs(c)
    if draw(st.booleans()):
        point = lower + np.minimum(width, draw(hnp.arrays(float, n, elements=st.sampled_from(
            [0.0, 0.5, 1.0, 2.0]))))
        b_eq = a_eq @ point
    else:
        b_eq = draw(hnp.arrays(float, m, elements=st.integers(-6, 6).map(float)))
    return LinearProgram(c=c, a_eq=a_eq, b_eq=b_eq, lower=lower, upper=lower + width)


def highs(lp):
    """HiGHS's status and optimal objective of lp."""
    scale = 1.0 / max(np.abs(lp.c).max(), 1.0)
    bounds = np.column_stack([lp.lower, lp.upper])
    res = optimize.linprog(lp.c * scale, A_eq=lp.a_eq, b_eq=lp.b_eq, bounds=bounds,
                           method="highs", options=HIGHS_OPTIONS)
    if res.status == 4 and "unbounded or infeasible" in res.message:
        # presolve may stop before it tells the two apart: the program is
        # unbounded exactly when it is feasible
        feasible = optimize.linprog(np.zeros(lp.n_vars), A_eq=lp.a_eq, b_eq=lp.b_eq,
                                    bounds=bounds, method="highs", options=HIGHS_OPTIONS)
        return ("unbounded" if feasible.status == 0 else "infeasible"), None
    assert res.status in HIGHS_STATUS, res.message
    return HIGHS_STATUS[res.status], (res.fun / scale if res.status == 0 else None)


@settings(max_examples=80, deadline=None, database=None, print_blob=True)
@given(lp=programs())
def test_solve_agrees_with_highs(lp):
    got = solve(lp)
    status, objective = highs(lp)
    assert got.status == status
    if status == "optimal":
        assert abs(got.objective - objective) <= REL * max(1.0, abs(objective))
        # a basic variable may end a few ulps past its upper bound
        assert np.all(got.x >= lp.lower) and np.all(got.x <= lp.upper + FEAS)
        np.testing.assert_allclose(lp.a_eq @ got.x, lp.b_eq, rtol=0, atol=FEAS)
