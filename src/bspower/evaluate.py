"""Policy evaluation, the constant-level baseline, and experiment sweeps.

evaluate_policy replays a solved schedule against a scenario space with
the policy's labels: each scenario's purchase and dump decisions are
applied as-is, and its battery trajectory is recomputed forward from the
initial level via the balance equation, then certified against capacity
and the terminal condition. The result is one cost per scenario, priced
by stochastic._costs exactly as the solve prices its schedules. Replaying
the space used at solve time therefore reproduces the optimizer's own
trajectories and costs. The baseline's expectation and the arrival
sweep's averages are stochastic._expected, the solve's own fold.

The baseline scheme never schedules the battery: it holds a constant
level, buys whatever consumption exceeds renewable supply each period,
and dumps the rest. baseline_policy returns its expected cost over a
scenario space.

Sweeps re-solve the program across parameter grids and return fixed-schema
reports. Each sweep hands all its grid cells to one solve_policies call,
whose one storage recursion solves every scenario of every cell together;
traffic sweeps solve each distinct occupancy trace once. Simulation-driven
sweeps share one seed across grid points so traffic realizations are
coupled and the documented monotone trends hold exactly per run, not just
in expectation. A grid value the model cannot use is refused with its
config key, config.sweeps.<kind>.<key>[i], i its place in the grid as
given.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .calibration import Calibration, _keyed
from .power_model import consumption_trace
from .scenarios import MarginalScenario, MarginalSpace, ScenarioSpace, compose
from .stochastic import (BALANCE_TOL, PolicyTable, _costs, _expected, _retention,
                         solve_policies)
from .traffic import (CacConfig, TrafficSpec, _check_events, simulate_replicated,
                      uniform_traffic)

DAYS_PER_MONTH = 30


class ReplayError(RuntimeError):
    """A replayed schedule violated storage bounds or the terminal level."""


def evaluate_policy(policy: PolicyTable, space: ScenarioSpace) -> np.ndarray:
    """Replay each scenario's scheduled purchases/dumps against its traces;
    recompute the battery paths. Returns each scenario's cost in cents."""
    x, y = policy.purchase, policy.excess
    T = x.shape[1]
    if space.labels != list(policy.scenario_labels):
        raise ValueError("space scenario labels do not match the policy")
    renewable, consumption = space.trace_matrix("renewable"), space.trace_matrix("consumption")
    if renewable.shape[1] != T:
        raise ValueError(f"space has {renewable.shape[1]} periods, policy has {T}")
    storage = policy.storage
    keep = _retention(storage, policy.physical_discharge)
    s = np.empty_like(x)
    s[:, 0] = storage.initial
    for t in range(T - 1):
        s[:, t + 1] = keep * s[:, t] + x[:, t] + renewable[:, t] - consumption[:, t] - y[:, t]
    # a NaN passes every bound check, and the last period's purchase is priced
    # without entering the path
    non_finite = ~(np.isfinite(x).all(axis=1) & np.isfinite(y).all(axis=1))
    leaves = np.any(s < -BALANCE_TOL, axis=1) | np.any(s > storage.capacity + BALANCE_TOL, axis=1)
    missed = np.abs(s[:, T - 1] - storage.terminal) > BALANCE_TOL
    failed = np.flatnonzero(non_finite | leaves | missed)
    if failed.size:
        w = failed[0]
        label, path = policy.scenario_labels[w], s[w]
        if non_finite[w]:
            raise ReplayError(f"non-finite purchase or excess on day {label!r}")
        if leaves[w]:
            raise ReplayError(
                f"battery path leaves [0, {storage.capacity}] on day {label!r} "
                f"(range {path.min():.6f}..{path.max():.6f})")
        raise ReplayError(
            f"terminal level {path[T - 1]:.6f} != {storage.terminal} on day {label!r}")
    return _costs(x, space.trace_matrix("price"), storage.loss_cost_coeff, s.sum(axis=1))


def baseline_policy(storage, space: ScenarioSpace, hold_level: float = 1000.0) -> float:
    """Expected cost in cents of the no-scheduling scheme: constant battery
    level, grid purchase only when renewable falls short, surplus dumped."""
    level = min(hold_level, storage.capacity)
    purchase = np.maximum(0.0, space.trace_matrix("consumption")
                          - space.trace_matrix("renewable"))
    per_scenario = _costs(purchase, space.trace_matrix("price"), storage.loss_cost_coeff,
                          level * purchase.shape[1])
    return _expected(space.probabilities, per_scenario)


def monthly_cost(expected_daily_cost: float) -> float:
    """Dollars per month from an expected daily cost in cents."""
    if expected_daily_cost < 0:
        raise ValueError(f"cost must be non-negative, got {expected_daily_cost}")
    return expected_daily_cost * DAYS_PER_MONTH / 100.0


# ---------------------------------------------------------------------------
# Experiment reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentReport:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(f"row {row} does not match columns {self.columns}")
        first = [row[0] for row in self.rows]
        if any(b < a for a, b in zip(first, first[1:])):
            raise ValueError("sweep parameter column must be non-decreasing")

    def csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_format_cell(v) for v in row))
        return "\n".join(lines) + "\n"


def _format_cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.6f}"


@functools.cache
def _version() -> str:
    """The installed bspower version, "unknown" when it runs uninstalled.

    Read once per process: each metadata lookup leaves a reference cycle
    that only a full garbage collection frees."""
    # imported here: it is ~15% of `import bspower`, and only this line needs it
    from importlib import metadata

    try:
        return metadata.version("bspower")
    except metadata.PackageNotFoundError:
        return "unknown"


def manifest_text(config_hash: str, seed: int) -> str:
    """Run provenance: config digest, seed, package version. No timestamps,
    so reruns of the same configuration are byte-identical."""
    return (f"config_sha256: {config_hash}\n"
            f"seed: {seed}\n"
            f"package: bspower {_version()}\n")


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _scaled_renewable(space: MarginalSpace, factor: float) -> MarginalSpace:
    if factor < 0:
        raise ValueError(f"renewable scale must be non-negative, got {factor}")
    # a trace that overflows is refused by key when the scaled space is built
    with np.errstate(over="ignore"):
        return MarginalSpace(kind="renewable", scenarios=tuple(
            MarginalScenario(s.label, s.probability, s.values * factor)
            for s in space.scenarios))


def _with_capacity(storage, capacity: float):
    """storage at capacity, its initial and terminal levels clamped to it."""
    return replace(storage, capacity=capacity, initial=min(storage.initial, capacity),
                   terminal=min(storage.terminal, capacity))


def _uniform_load(cal: Calibration, rate: float) -> TrafficSpec:
    """The calibration's uniform traffic at rate arrivals per minute,
    refused when one replication of it alone passes the event budget."""
    spec = uniform_traffic(rate, cal.handoff_fraction, cal.horizon.T, cal.mean_holding)
    _check_events([(spec, cal.cac)], cal.horizon, 1)
    return spec


def _grid(key: str, values, make) -> list:
    """make(value) of each grid value, a refusal led by its config key."""
    return [_keyed(f"sweeps.{key}[{i}]", make, value=value) for i, value in enumerate(values)]


def _single_consumption(values: np.ndarray) -> MarginalSpace:
    return MarginalSpace(kind="consumption", scenarios=(
        MarginalScenario("simulated", 1.0, values),))


def _solve_traces(cal: Calibration, traces) -> list[PolicyTable]:
    """The policy under the calibration's battery for the consumption of
    each occupancy trace. Each distinct trace, by its bytes, is composed
    and solved once, all in one solve_policies call, and its policy serves
    every trace equal to it."""
    distinct = {trace.tobytes(): trace for trace in traces}
    policies = solve_policies(cal.horizon, [
        (cal.storage, compose(cal.price, cal.renewable, _single_consumption(
            consumption_trace(cal.params, trace, cal.horizon))))
        for trace in distinct.values()])
    solved = dict(zip(distinct, policies))
    return [solved[trace.tobytes()] for trace in traces]


def sweep_battery(capacities, renewable_scalings, cal: Calibration,
                  seed: int = 0) -> ExperimentReport:
    """Expected monthly cost over a (capacity, renewable scale) grid.

    Initial/terminal levels are clamped to the capacity under test, so
    every cell is feasible; a cell without a finite optimum fails the
    sweep with the RuntimeError of solve_policies. Every cell is solved
    in full, all in one solve_policies call; a capacity repeated in the
    grid is solved once.
    """
    if not len(capacities) or not len(renewable_scalings):
        raise ValueError("sweep grids must be non-empty")
    storages = sorted(_grid("battery.capacities_wh", capacities,
                            lambda value: _with_capacity(cal.storage, float(value))),
                      key=lambda storage: storage.capacity)
    scaled = _grid("battery.renewable_scalings", renewable_scalings,
                   lambda value: _scaled_renewable(cal.renewable, value))
    consumption = cal.consumption_space(seed)
    spaces = {scale: compose(cal.price, renewable, consumption)
              for scale, renewable in zip(renewable_scalings, scaled)}
    grid = [(storage, scale) for storage in storages for scale in renewable_scalings]
    policies = solve_policies(cal.horizon, [(storage, spaces[scale]) for storage, scale in grid])
    rows = [(storage.capacity, float(scale), monthly_cost(policy.expected_cost))
            for (storage, scale), policy in zip(grid, policies)]
    return ExperimentReport(
        columns=("capacity_wh", "renewable_scale", "monthly_cost_usd"),
        rows=tuple(rows))


def sweep_cac(thresholds, spec: TrafficSpec, cal: Calibration,
              seed: int = 0) -> ExperimentReport:
    """QoS and cost saving across admission thresholds under one load.

    All thresholds share the seed, so blocking is non-increasing and
    dropping non-decreasing along the grid by construction. Saving is
    relative to no admission reservation (threshold = channels). Each
    distinct threshold, that baseline included, is simulated once, and each
    distinct trace among theirs is solved once.
    """
    if not len(thresholds):
        raise ValueError("threshold grid must be non-empty")
    channels = cal.cac.channels
    _grid("cac.thresholds", thresholds,
          lambda value: CacConfig(channels=channels, threshold=int(value)))
    thresholds = sorted(int(t) for t in thresholds)

    distinct = list(dict.fromkeys([*thresholds, channels]))
    runs = simulate_replicated(
        [(spec, CacConfig(channels=channels, threshold=tau)) for tau in distinct],
        cal.horizon, cal.replications, seed)
    policies = _solve_traces(cal, runs.traces)
    results = {tau: (stats, policy.expected_cost)
               for tau, stats, policy in zip(distinct, runs.qos, policies)}
    _, cost_open = results[channels]
    rows = []
    for tau in thresholds:
        stats, cost = results[tau]
        saving = 100.0 * (cost_open - cost) / cost_open if cost_open > 0 else 0.0
        rows.append((tau, stats.new_blocking_prob, stats.handoff_dropping_prob,
                     saving))
    return ExperimentReport(
        columns=("threshold", "blocking", "dropping", "cost_saving_pct"),
        rows=tuple(rows))


def sweep_arrival_rate(rates, cal: Calibration, seed: int = 0) -> ExperimentReport:
    """Average purchased energy and battery level across uniform loads.

    Rates share the seed; occupancy is then pointwise non-decreasing in
    the rate, and so are consumption and the reported averages.
    """
    if not len(rates):
        raise ValueError("rate grid must be non-empty")
    specs = _grid("arrival.rates_per_min", rates, lambda value: _uniform_load(cal, float(value)))
    order = sorted(range(len(rates)), key=lambda i: float(rates[i]))
    traces = simulate_replicated([(specs[i], cal.cac) for i in order], cal.horizon,
                                 cal.replications, seed).traces
    rows = []
    for i, policy in zip(order, _solve_traces(cal, traces)):
        rate = float(rates[i])
        rows.append((rate, _expected(policy.probabilities, policy.purchase.mean(axis=1)),
                     _expected(policy.probabilities, policy.battery.mean(axis=1))))
    return ExperimentReport(
        columns=("arrival_rate_per_min", "avg_purchase_wh", "avg_battery_wh"),
        rows=tuple(rows))
