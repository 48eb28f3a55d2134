"""Canonical units and the decision-horizon clock.

Conventions used throughout the package:

  power   -> watts (W)
  energy  -> watt-hours (Wh)
  price   -> cents per kWh
  cost    -> cents (converted to dollars only for display)

With the default one-hour period, a constant power of p W over one period
equals p Wh of energy, so all per-period balance arithmetic is done in Wh.
Nameplate figures quoted in kW are read as Wh of stored energy (a "2 kW"
battery holds 2000 Wh).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


@dataclass(frozen=True)
class Horizon:
    """Decision horizon: T periods of equal length in hours."""

    T: int
    period_hours: float = 1.0

    def __post_init__(self):
        # each rule is written to be false for NaN and for inf
        if not 2 <= self.T < math.inf:
            raise ValueError(f"horizon needs at least 2 periods, got T={self.T}")
        if not isinstance(self.T, numbers.Integral):
            raise ValueError(f"horizon needs a whole number of periods, got T={self.T}")
        if not 0.0 < self.period_hours < math.inf:
            raise ValueError(f"period_hours must be positive, got {self.period_hours}")

    @property
    def period_minutes(self) -> float:
        return self.period_hours * 60.0

