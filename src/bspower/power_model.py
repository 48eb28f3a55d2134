"""Micro base station power consumption as an affine function of traffic.

Total draw is a constant static term plus a per-connection dynamic term:
``e_static + e_dynamic * n_active``. Because the model is affine, applying
it to the time-averaged occupancy of a period gives exactly the period's
average power, which is what the per-period energy accounting needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .units import Horizon


@dataclass(frozen=True)
class BaseStationParams:
    """Affine power model parameters for a micro base station.

    e_static_w:  constant draw while the station is up (W)
    e_dynamic_w: additional draw per active connection (W)
    max_connections: channel capacity of the station
    """

    e_static_w: float
    e_dynamic_w: float
    max_connections: int

    def __post_init__(self):
        # each rule is written to be false for NaN and for inf
        for name in ("e_static_w", "e_dynamic_w"):
            value = getattr(self, name)
            if not -np.inf < value < np.inf:
                raise ValueError(f"{name} must be finite, got {value}")
        if not (self.e_static_w >= 0.0 and self.e_dynamic_w >= 0.0):
            raise ValueError("power coefficients must be non-negative")
        if not 1 <= self.max_connections < np.inf:
            raise ValueError(f"max_connections must be >= 1, got {self.max_connections}")


def consumption_trace(
    params: BaseStationParams,
    occupancy: Sequence[float],
    horizon: Horizon,
) -> np.ndarray:
    """Per-period energy consumption (Wh) for a per-period mean occupancy trace.

    Exact for the affine model: energy in period t is
    (e_static_w + e_dynamic_w * mean occupancy in t) * period length.
    """
    occ = np.asarray(occupancy, dtype=float)
    if occ.shape != (horizon.T,):
        raise ValueError(
            f"occupancy length {occ.shape} does not match horizon T={horizon.T}"
        )
    if np.any(occ < 0) or np.any(occ > params.max_connections):
        raise ValueError("occupancy entries must lie in [0, max_connections]")
    watts = params.e_static_w + params.e_dynamic_w * occ
    return watts * horizon.period_hours
