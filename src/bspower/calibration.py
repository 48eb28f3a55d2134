"""Default experimental setup: a solar-assisted micro base station in a
time-of-use market.

Defaults: 194.25 W static plus 24 W per active connection across 25
channels; a 2000 Wh battery starting and ending the day at 500 Wh with
0.1%/hour self-discharge; peak-price days (20 cents/kWh from 12:00 to
20:00, 12 otherwise, probability 0.6) against flat 12-cent days (0.4);
clear-sky days averaging 195 Wh per daylight hour against cloudy days
averaging 100 Wh (0.6/0.4), shaped as a half sine between 6:00 and 18:00;
and five traffic-day profiles (three uniform loads plus morning and
evening peaks of 0.8 connections/minute). Consumption scenarios are
produced by simulating each traffic profile through admission control and
the consumption model.

The storage holding penalty defaults to self-discharge rate times mean
energy price, i.e. it prices the energy expected to leak per period.
All of this is data; callers can substitute any piece.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .power_model import BaseStationParams, consumption_trace
from .scenarios import (MarginalScenario, MarginalSpace, RateProfile,
                        ScenarioSpace, compose)
from .stochastic import StorageConfig
from .traffic import CacConfig, TrafficSpec, simulate_replicated
from .units import Horizon

DEFAULT_BATTERY_GRID = (500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0, 3500.0, 4000.0)
DEFAULT_RENEWABLE_SCALINGS = (1.0, 1.5)
DEFAULT_CAC_THRESHOLDS = tuple(range(5, 26))
DEFAULT_ARRIVAL_RATES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)


def half_sine_profile(mean_wh: float, window: tuple[float, float] = (6.0, 18.0),
                      periods: int = 24) -> np.ndarray:
    """Hourly energy of a half-sine generation curve over a daylight window.

    Entries are exact integrals of A*sin(pi*(h - start)/width) over each
    hour, with A chosen so the window's per-hour mean equals mean_wh; zero
    outside the window.
    """
    start, end = window
    width = end - start
    if not 0 <= start < end <= periods:
        raise ValueError(f"window {window} outside horizon of {periods} periods")
    if mean_wh < 0:
        raise ValueError(f"mean_wh must be non-negative, got {mean_wh}")
    amplitude = mean_wh * np.pi / 2.0
    values = np.zeros(periods)
    for h in range(int(np.floor(start)), int(np.ceil(end))):
        a = max(float(h), start)
        b = min(float(h + 1), end)
        values[h] = amplitude * (width / np.pi) * (
            np.cos(np.pi * (a - start) / width) - np.cos(np.pi * (b - start) / width))
    return values


def stepped_profile(base: float, elevated: float, window: tuple[int, int],
                    periods: int = 24) -> np.ndarray:
    """Flat profile with one elevated window [start, end)."""
    start, end = window
    if not 0 <= start <= end <= periods:
        raise ValueError(f"window {window} outside horizon of {periods} periods")
    values = np.full(periods, float(base))
    values[start:end] = elevated
    return values


def default_price_space(periods: int = 24) -> MarginalSpace:
    return MarginalSpace(kind="price", scenarios=(
        MarginalScenario("peak", 0.6, stepped_profile(12.0, 20.0, (12, 20), periods)),
        MarginalScenario("normal", 0.4, np.full(periods, 12.0)),
    ))


def default_renewable_space(periods: int = 24) -> MarginalSpace:
    return MarginalSpace(kind="renewable", scenarios=(
        MarginalScenario("clear", 0.6, half_sine_profile(195.0, (6.0, 18.0), periods)),
        MarginalScenario("cloudy", 0.4, half_sine_profile(100.0, (6.0, 18.0), periods)),
    ))


def _split(total: np.ndarray, handoff_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    handoff = total * handoff_fraction
    return total - handoff, handoff


def default_traffic_profiles(handoff_fraction: float = 0.3,
                             mean_holding: float = 10.0,
                             periods: int = 24) -> tuple[RateProfile, ...]:
    """Five traffic-day profiles: uniform heavy/medium/light plus two peaks.

    Peak days run 0.8 connections/minute during 8:00-11:00 or 17:00-21:00
    and the light-uniform 0.15 off peak. Totals are split into new and
    handoff arrivals by handoff_fraction.
    """
    shapes = (
        ("heavy-uniform", 0.1, np.full(periods, 0.56)),
        ("medium-uniform", 0.1, np.full(periods, 0.22)),
        ("light-uniform", 0.2, np.full(periods, 0.15)),
        ("morning-peak", 0.2, stepped_profile(0.15, 0.8, (8, 11), periods)),
        ("evening-peak", 0.4, stepped_profile(0.15, 0.8, (17, 21), periods)),
    )
    profiles = []
    for label, prob, total in shapes:
        new, handoff = _split(total, handoff_fraction)
        profiles.append(RateProfile(label=label, probability=prob, new_rate=new,
                                    handoff_rate=handoff,
                                    mean_holding_min=mean_holding))
    return tuple(profiles)


def derived_loss_cost(price: MarginalSpace, self_discharge: float) -> float:
    """Penalty pricing the energy expected to self-discharge each period."""
    mean_price = float(sum(s.probability * s.values.mean() for s in price.scenarios))
    return self_discharge * mean_price / 1000.0


def consumption_space_from_profiles(
    profiles: tuple[RateProfile, ...],
    params: BaseStationParams,
    cac: CacConfig,
    horizon: Horizon,
    replications: int,
    seed: int,
) -> MarginalSpace:
    """Simulate each traffic profile into a consumption scenario.

    All profiles reuse the same seed, so their arrival streams are coupled
    and heavier profiles produce pointwise heavier occupancy.
    """
    scenarios = []
    for profile in profiles:
        spec = TrafficSpec(new_rate=profile.new_rate,
                           handoff_rate=profile.handoff_rate,
                           mean_holding=profile.mean_holding_min)
        occupancy = simulate_replicated(spec, cac, horizon, replications, seed)[0]
        scenarios.append(MarginalScenario(
            label=profile.label,
            probability=profile.probability,
            values=consumption_trace(params, occupancy, horizon),
        ))
    return MarginalSpace(kind="consumption", scenarios=tuple(scenarios))


@dataclass(frozen=True)
class Calibration:
    """Everything needed to build and study the default experiment."""

    horizon: Horizon
    params: BaseStationParams
    storage: StorageConfig
    cac: CacConfig
    price: MarginalSpace
    renewable: MarginalSpace
    traffic_profiles: tuple[RateProfile, ...]
    handoff_fraction: float = 0.3
    mean_holding: float = 10.0
    replications: int = 5
    consumption: MarginalSpace | None = None  # bypasses traffic simulation

    def consumption_space(self, seed: int) -> MarginalSpace:
        if self.consumption is not None:
            return self.consumption
        return consumption_space_from_profiles(
            self.traffic_profiles, self.params, self.cac, self.horizon,
            self.replications, seed)

    def scenario_space(self, seed: int) -> ScenarioSpace:
        return compose(self.price, self.renewable, self.consumption_space(seed))

    def with_storage(self, **changes) -> "Calibration":
        return replace(self, storage=replace(self.storage, **changes))


def default_calibration(periods: int = 24) -> Calibration:
    horizon = Horizon(T=periods)
    price = default_price_space(periods)
    storage = StorageConfig(
        capacity=2000.0,
        initial=500.0,
        terminal=500.0,
        self_discharge=0.001,
        loss_cost_coeff=derived_loss_cost(price, 0.001),
    )
    return Calibration(
        horizon=horizon,
        params=BaseStationParams(e_static_w=194.25, e_dynamic_w=24.0,
                                 max_connections=25),
        storage=storage,
        cac=CacConfig(channels=25, threshold=20),
        price=price,
        renewable=default_renewable_space(periods),
        traffic_profiles=default_traffic_profiles(periods=periods),
    )
