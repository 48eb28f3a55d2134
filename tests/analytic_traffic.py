"""Stationary birth-death law of the guard-channel system, kept as a test oracle.

The simulator in ``bspower.traffic`` must agree with it on long stationary
runs, and it must collapse to the Erlang-B formula when there is no guard
band and no handoff traffic.
"""

import numpy as np

from bspower.traffic import CacConfig


def analytic_guard_channel(new_rate: float, handoff_rate: float, mean_holding: float,
                           cac: CacConfig) -> tuple[float, float, float]:
    """Stationary blocking, dropping, and mean occupancy for constant rates.

    Birth-death chain on occupancy 0..channels: birth new+handoff below the
    threshold and handoff only at or above it, death k/mean_holding at
    state k. New blocking is the probability mass at or above the
    threshold; dropping is the mass at full occupancy.
    """
    if new_rate < 0 or handoff_rate < 0:
        raise ValueError("rates must be non-negative")
    if not mean_holding > 0:
        raise ValueError(f"mean_holding must be positive, got {mean_holding}")
    c, tau = cac.channels, cac.threshold
    mu = 1.0 / mean_holding
    weights = np.ones(c + 1)
    for k in range(c):
        birth = new_rate + handoff_rate if k < tau else handoff_rate
        weights[k + 1] = weights[k] * birth / ((k + 1) * mu)
    pi = weights / weights.sum()
    blocking = float(pi[tau:].sum())
    dropping = float(pi[c])
    mean_occupancy = float(np.arange(c + 1) @ pi)
    return blocking, dropping, mean_occupancy
