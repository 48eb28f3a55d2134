"""Affine base-station power model: static draw plus per-connection draw."""

import re

import numpy as np
import pytest

from bspower.power_model import BaseStationParams, consumption_trace
from bspower.units import Horizon

PARAMS = BaseStationParams(e_static_w=194.25, e_dynamic_w=24.0, max_connections=25)


def _watts(*occupancy):
    """Hourly consumption_trace, so each entry is the period's mean draw in W."""
    return consumption_trace(PARAMS, occupancy, Horizon(T=len(occupancy)))


def test_idle_station_draws_static_power_only():
    np.testing.assert_allclose(_watts(0.0, 0.0), 194.25, rtol=1e-12)


def test_fully_loaded_station():
    # 194.25 + 24 * 25
    np.testing.assert_allclose(_watts(25.0, 25.0), 794.25, rtol=1e-12)


def test_fractional_occupancy_is_allowed():
    np.testing.assert_allclose(_watts(12.5, 0.25), [194.25 + 24.0 * 12.5,
                                                    194.25 + 24.0 * 0.25], rtol=1e-12)


def test_occupancy_outside_capacity_rejected():
    with pytest.raises(ValueError):
        _watts(0.0, -0.1)
    with pytest.raises(ValueError):
        _watts(25.0001, 0.0)


def test_affine_model_commutes_with_averaging():
    # the draw at the mean occupancy equals the mean draw, exactly, because
    # the model is affine. This is what justifies feeding time-averaged
    # occupancy into the per-period energy accounting.
    rng = np.random.default_rng(4)
    occ = rng.uniform(0, 25, size=500)
    direct = _watts(*occ).mean()
    assert _watts(occ.mean(), 0.0)[0] == pytest.approx(direct, rel=1e-12)


def test_consumption_trace_matches_scalar_model():
    horizon = Horizon(T=6)
    occ = [0.0, 1.0, 5.5, 25.0, 10.0, 0.25]
    trace = consumption_trace(PARAMS, occ, horizon)
    expected = [(194.25 + 24.0 * v) * 1.0 for v in occ]
    np.testing.assert_allclose(trace, expected, rtol=1e-12)


def test_consumption_trace_scales_with_period_length():
    occ = [2.0, 3.0]
    hourly = consumption_trace(PARAMS, occ, Horizon(T=2, period_hours=1.0))
    halfhour = consumption_trace(PARAMS, occ, Horizon(T=2, period_hours=0.5))
    np.testing.assert_allclose(halfhour, hourly / 2.0, rtol=1e-12)


def test_consumption_trace_validation():
    horizon = Horizon(T=3)
    with pytest.raises(ValueError):
        consumption_trace(PARAMS, [1.0, 2.0], horizon)  # wrong length
    with pytest.raises(ValueError):
        consumption_trace(PARAMS, [1.0, -0.5, 2.0], horizon)
    with pytest.raises(ValueError):
        consumption_trace(PARAMS, [1.0, 26.0, 2.0], horizon)


def test_params_validation():
    with pytest.raises(ValueError):
        BaseStationParams(e_static_w=-1.0, e_dynamic_w=24.0, max_connections=25)
    with pytest.raises(ValueError):
        BaseStationParams(e_static_w=194.25, e_dynamic_w=-24.0, max_connections=25)
    with pytest.raises(ValueError):
        BaseStationParams(e_static_w=194.25, e_dynamic_w=24.0, max_connections=0)


@pytest.mark.parametrize("field, value, message", [
    ("e_static_w", np.nan, "e_static_w must be finite, got nan"),
    ("e_dynamic_w", np.inf, "e_dynamic_w must be finite, got inf"),
    ("e_dynamic_w", -np.inf, "e_dynamic_w must be finite, got -inf"),
    ("max_connections", np.inf, "max_connections must be >= 1, got inf"),
])
def test_params_refuse_non_finite_values(field, value, message):
    fields = dict(e_static_w=194.25, e_dynamic_w=24.0, max_connections=25)
    with pytest.raises(ValueError, match=re.escape(message)):
        BaseStationParams(**{**fields, field: value})
