"""The horizon clock."""

import math
import re

import pytest

import bspower
from bspower.units import Horizon


def test_horizon_defaults_to_hourly_periods():
    h = Horizon(T=24)
    assert h.period_hours == 1.0
    assert h.period_minutes == 60.0


def test_horizon_validation():
    with pytest.raises(ValueError):
        Horizon(T=1)
    with pytest.raises(ValueError):
        Horizon(T=0)
    with pytest.raises(ValueError):
        Horizon(T=24, period_hours=0.0)
    with pytest.raises(ValueError):
        Horizon(T=24, period_hours=-1.0)
    # 2 periods is the smallest horizon with a balance constraint
    assert Horizon(T=2).T == 2


@pytest.mark.parametrize("fields, message", [
    (dict(T=math.inf), "horizon needs at least 2 periods, got T=inf"),
    (dict(T=24, period_hours=math.nan), "period_hours must be positive, got nan"),
    (dict(T=24, period_hours=math.inf), "period_hours must be positive, got inf"),
])
def test_horizon_refuses_non_finite_values(fields, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Horizon(**fields)


@pytest.mark.parametrize("T", [2.5, 24.0])
def test_horizon_refuses_a_period_count_that_is_not_an_integer(T):
    with pytest.raises(ValueError, match=re.escape(f"whole number of periods, got T={T}")):
        Horizon(T=T)


def test_horizon_subhourly_periods():
    h = Horizon(T=96, period_hours=0.25)
    assert h.period_minutes == pytest.approx(15.0)


def test_package_reexports_core_names():
    assert bspower.Horizon is Horizon
    assert isinstance(bspower.__version__, str)
