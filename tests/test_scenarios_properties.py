"""Composition keeps a scenario space valid."""

import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, reject, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bspower.scenarios import (  # noqa: E402
    MARGINAL_KINDS,
    PROB_TOL,
    MarginalScenario,
    MarginalSpace,
    compose,
)

SETTINGS = settings(max_examples=100, deadline=None, database=None, print_blob=True)
# short labels over an alphabet with the '|' of composite labels, so joined
# labels can collide; weights down to 1e-200, so products can underflow
labels = st.text(alphabet="a|", min_size=1, max_size=2)
weights = st.one_of(st.integers(1, 9).map(float), st.floats(1e-200, 1e-100))
values = st.floats(0.0, 1e300)


@st.composite
def alternatives(draw, T):
    """1-3 alternatives of one source whose mass may sit anywhere in the
    tolerance; the test keeps only those a MarginalSpace accepts."""
    names = draw(st.lists(labels, min_size=1, max_size=3, unique=True))
    w = np.array(draw(st.lists(weights, min_size=len(names), max_size=len(names))))
    probabilities = w / w.sum()
    probabilities[-1] += draw(st.one_of(st.just(0.0), st.floats(-PROB_TOL, PROB_TOL)))
    return tuple(MarginalScenario(name, float(p),
                                  np.array(draw(st.lists(values, min_size=T, max_size=T))))
                 for name, p in zip(names, probabilities))


@st.composite
def marginals(draw):
    T = draw(st.integers(2, 4))
    return [draw(alternatives(T)) for _ in MARGINAL_KINDS]


@SETTINGS
@given(case=marginals())
def test_buildable_marginals_compose_or_raise_a_product_error(case):
    try:
        spaces = [MarginalSpace(kind, scenarios) for kind, scenarios in zip(MARGINAL_KINDS, case)]
    except ValueError:
        reject()
    try:
        space = compose(*spaces)
    except ValueError as exc:
        # only what the product itself can break: joined labels, underflow, mass
        lines = str(exc).splitlines()[1:]
        assert lines and all(
            ".label: duplicate" in line or "probability 0.0 outside" in line
            or line.strip().startswith("scenarios: probability mass") for line in lines)
        return
    assert len(space) == np.prod([len(s) for s in case])
    assert space.labels == ["|".join(labels) for labels in itertools.product(
        *([s.label for s in scenarios] for scenarios in case))]
