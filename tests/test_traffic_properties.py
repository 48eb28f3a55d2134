"""Exact monotonicity of the traffic simulator under common random numbers."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bspower.traffic import CacConfig, simulate_replicated, uniform_traffic  # noqa: E402
from bspower.units import Horizon  # noqa: E402

HORIZON = Horizon(T=12)
SETTINGS = settings(max_examples=30, deadline=None, database=None)
seeds = st.integers(0, 2**32 - 1)
fractions = st.floats(0.0, 1.0)


@SETTINGS
@given(rate=st.floats(0.0, 6.0), handoff=fractions,
       channels=st.integers(1, 25), seed=seeds, data=st.data())
def test_qos_counts_are_monotone_in_threshold(rate, handoff, channels, seed, data):
    thresholds = sorted(data.draw(st.sets(st.integers(1, channels), min_size=2)
                                  if channels > 1 else st.just({1})))
    spec = uniform_traffic(rate, handoff, HORIZON.T)
    stats = [simulate_replicated(spec, CacConfig(channels, tau), HORIZON, 1, seed)[1]
             for tau in thresholds]
    blocked = [s.blocked_new for s in stats]
    dropped = [s.dropped_handoff for s in stats]
    assert blocked == sorted(blocked, reverse=True), (thresholds, blocked)
    assert dropped == sorted(dropped), (thresholds, dropped)
    assert len({(s.offered_new, s.offered_handoff) for s in stats}) == 1


def _dominating(spec) -> float:
    return max(1.0, math.ceil(spec.total_rate.max()))


@SETTINGS
@given(ceiling=st.integers(1, 6), scales=st.tuples(fractions, fractions),
       handoff=fractions, channels=st.integers(1, 25), seed=seeds, data=st.data())
def test_occupancy_is_pointwise_monotone_in_rate(ceiling, scales, handoff,
                                                 channels, seed, data):
    threshold = data.draw(st.integers(1, channels))
    cac = CacConfig(channels, threshold)
    light, heavy = (uniform_traffic(ceiling - 1 + s, handoff, HORIZON.T)
                    for s in sorted(scales))
    # the coupling holds for specs that share the dominating rate, and so
    # the same candidate event stream
    assume(_dominating(light) == _dominating(heavy))
    light_trace = simulate_replicated(light, cac, HORIZON, 2, seed)[0]
    heavy_trace = simulate_replicated(heavy, cac, HORIZON, 2, seed)[0]
    assert np.all(heavy_trace >= light_trace)
