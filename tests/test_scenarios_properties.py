"""Composition keeps a scenario space valid."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bspower.scenarios import (  # noqa: E402
    MARGINAL_KINDS,
    PROB_TOL,
    MarginalScenario,
    MarginalSpace,
    check_marginal_space,
    compose,
    validate,
)
from bspower.units import Horizon  # noqa: E402

SETTINGS = settings(max_examples=100, deadline=None, database=None)
# short labels over an alphabet with the '|' of composite labels, so joined
# labels can collide; weights down to 1e-200, so products can underflow
labels = st.text(alphabet="a|", min_size=1, max_size=2)
weights = st.one_of(st.integers(1, 9).map(float), st.floats(1e-200, 1e-100))
values = st.floats(0.0, 1e300)


@st.composite
def marginal(draw, kind, T):
    """A marginal space of 1-3 alternatives whose mass may sit anywhere in
    the tolerance; the caller keeps only the spaces that pass the check."""
    names = draw(st.lists(labels, min_size=1, max_size=3, unique=True))
    w = np.array(draw(st.lists(weights, min_size=len(names), max_size=len(names))))
    probabilities = w / w.sum()
    probabilities[-1] += draw(st.one_of(st.just(0.0), st.floats(-PROB_TOL, PROB_TOL)))
    return MarginalSpace(kind, tuple(
        MarginalScenario(name, float(p),
                         np.array(draw(st.lists(values, min_size=T, max_size=T))))
        for name, p in zip(names, probabilities)))


@st.composite
def marginals(draw):
    T = draw(st.integers(2, 4))
    return Horizon(T=T), [draw(marginal(kind, T)) for kind in MARGINAL_KINDS]


@SETTINGS
@given(case=marginals())
def test_checked_marginals_compose_into_a_space_validate_passes(case):
    horizon, spaces = case
    assume(all(check_marginal_space(space, horizon) == [] for space in spaces))
    try:
        space = compose(*spaces)
    except ValueError as exc:
        # only what the product itself can break: joined labels, underflow, mass
        lines = str(exc).splitlines()[1:]
        assert lines and all(
            ".label: duplicate" in line or "probability 0.0 outside" in line
            or line.strip().startswith("scenarios: probability mass") for line in lines)
        return
    assert validate(space, horizon) == []
