"""Scenario-based purchase/storage program and its LP solution.

Decision variables per period t and scenario w: grid purchase x (Wh),
battery level s (Wh), dumped excess y (Wh). The objective is expected
purchase cost plus a storage holding penalty; the balance

    s_t + x_t + R_t = s_{t+1} + C_t + y_t      t = 1..T-1

couples consecutive periods within a scenario (R renewable, C consumed).
Battery level is capped by capacity and pinned to the configured initial
and terminal levels.

Modes: nonanticipative adds first-period coupling rows (purchase in
period 1 equal across scenarios that share identical period-1 price,
renewable, and consumption values); physical_discharge applies the
self-discharge factor to the stored level on the input side of the
balance instead of only pricing it in the objective.

Scenarios share constraints only inside a nonanticipativity group (every
scenario is its own group without the nonanticipative mode), so the
program is block-diagonal by group. solve_policy is the one solve path.
It solves every scenario alone first (the wait-and-see solve). Under the
nonanticipative mode a group is certified when all its members' programs
are optimal and their first-period purchases are exactly equal, with no
tolerance: the wait-and-see cost bounds the coupled cost from below, so
such a plan is optimal for the coupled group as well (Madansky 1960;
Birge & Louveaux, ch. 4). Only the other groups are solved as coupled
programs.

One assembly writes every program, the monolithic one and the grouped
batches alike. It takes a stack of same-size scenario blocks and returns
their shared constraint matrix and bounds with each block's costs and
right-hand side. build_deterministic_equivalent calls it once over the
whole space: the dense monolithic program, which the tests solve as the
oracle for solve_policy. solve_policy calls it once per group size and
hands the stack to lp.solve_batch, which pivots the programs in lockstep
within its per-stack memory budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lp as lp_mod
from .scenarios import ScenarioSpace, validate
from .units import Horizon

BALANCE_TOL = 1e-6


class InfeasibleProgramError(RuntimeError):
    """Raised when the purchase/storage program has no feasible policy."""


@dataclass(frozen=True)
class StorageConfig:
    """Battery parameters; levels in Wh, self_discharge as fraction/period,
    loss_cost_coeff in cents per Wh per period applied to the stored level."""

    capacity: float
    initial: float
    terminal: float
    self_discharge: float = 0.0
    loss_cost_coeff: float = 0.0

    def __post_init__(self):
        if self.capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {self.capacity}")
        for name in ("initial", "terminal"):
            level = getattr(self, name)
            if not 0.0 <= level <= self.capacity:
                raise ValueError(
                    f"{name} level {level} outside [0, capacity={self.capacity}]"
                )
        if not 0.0 <= self.self_discharge < 1.0:
            raise ValueError(f"self_discharge must be in [0, 1), got {self.self_discharge}")
        if self.loss_cost_coeff < 0:
            raise ValueError(f"loss_cost_coeff must be >= 0, got {self.loss_cost_coeff}")


@dataclass(frozen=True)
class VariableMap:
    """Column layout of the deterministic equivalent.

    Scenario-major blocks of 3*T columns: purchase x_1..x_T, then battery
    s_1..s_T, then excess y_1..y_T. Periods are 0-based here.
    """

    T: int
    scenario_labels: tuple[str, ...]

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split a solution vector into (S, T) arrays for x, s, y."""
        cube = np.asarray(x).reshape(len(self.scenario_labels), 3, self.T)
        return cube[:, 0, :].copy(), cube[:, 1, :].copy(), cube[:, 2, :].copy()


@dataclass(frozen=True)
class PolicyTable:
    """Per-scenario schedules plus the expected cost in cents."""

    scenario_labels: tuple[str, ...]
    probabilities: np.ndarray
    purchase: np.ndarray  # (S, T) Wh
    battery: np.ndarray   # (S, T) Wh
    excess: np.ndarray    # (S, T) Wh
    expected_cost: float  # cents
    storage: StorageConfig
    physical_discharge: bool = False
    nonanticipative: bool = False

    def scenario_index(self, label: str) -> int:
        try:
            return self.scenario_labels.index(label)
        except ValueError:
            raise KeyError(f"scenario label {label!r} not in policy") from None


def _retention(storage: StorageConfig, physical_discharge: bool) -> float:
    return 1.0 - storage.self_discharge if physical_discharge else 1.0


def _check_space(space: ScenarioSpace, horizon: Horizon) -> None:
    problems = validate(space, horizon)
    if problems:
        raise ValueError("invalid scenario space:\n  " + "\n  ".join(problems))


def _nonanticipativity_groups(space: ScenarioSpace,
                              nonanticipative: bool) -> list[list[int]]:
    """Scenario indices that share a first-period purchase, in first-seen order.

    With nonanticipative, scenarios with exactly equal period-1 price,
    renewable and consumption values form one group; otherwise every
    scenario is a group of its own.
    """
    if not nonanticipative:
        return [[w] for w in range(len(space))]
    groups: dict[tuple, list[int]] = {}
    for w, scen in enumerate(space.scenarios):
        key = (scen.price[0], scen.renewable[0], scen.consumption[0])
        groups.setdefault(key, []).append(w)
    return list(groups.values())


def _assemble(storage: StorageConfig, probs: np.ndarray, prices: np.ndarray,
              net_load: np.ndarray, keep: float, coupled
              ) -> tuple[lp_mod.LinearProgram, np.ndarray, np.ndarray]:
    """The program of a stack of same-size scenario blocks.

    probs is (blocks, size) and prices and net_load (consumption minus
    renewable) are (blocks, size, T). coupled lists the index lists, within
    a block, of scenarios whose first-period purchases are made equal: each
    member after the first gets a row equating its purchase with the
    first's. Rows are every scenario's balance rows, scenario-major, then
    the coupling rows; columns follow VariableMap. Returns the program of
    the first block and the costs (blocks, n) and right-hand sides
    (blocks, rows) of every block; the blocks share the constraint matrix
    and bounds.
    """
    blocks, size, T = prices.shape
    n = 3 * T * size
    leads = [members[0] for members in coupled for _ in members[1:]]
    others = [w for members in coupled for w in members[1:]]
    n_balance = size * (T - 1)
    a_eq = np.zeros((n_balance + len(others), n))
    balance = a_eq[:n_balance].reshape(size, T - 1, size, 3, T)
    w, t = np.arange(size)[:, None], np.arange(T - 1)
    balance[w, t, w, 0, t] = 1.0
    balance[w, t, w, 1, t] = keep
    balance[w, t, w, 1, t + 1] = -1.0
    balance[w, t, w, 2, t] = -1.0
    coupling = n_balance + np.arange(len(others))
    a_eq[coupling, 3 * T * np.array(leads, dtype=int)] = 1.0
    a_eq[coupling, 3 * T * np.array(others, dtype=int)] = -1.0

    c = np.zeros((blocks, size, 3, T))
    c[:, :, 0] = probs[:, :, None] * prices / 1000.0
    c[:, :, 1] = probs[:, :, None] * storage.loss_cost_coeff
    c = c.reshape(blocks, n)
    b_eq = np.zeros((blocks, a_eq.shape[0]))
    b_eq[:, :n_balance] = net_load[:, :, :T - 1].reshape(blocks, n_balance)
    lower = np.zeros((size, 3, T))
    upper = np.full((size, 3, T), np.inf)
    upper[:, 1] = storage.capacity
    lower[:, 1, 0] = upper[:, 1, 0] = storage.initial
    lower[:, 1, T - 1] = upper[:, 1, T - 1] = storage.terminal
    program = lp_mod.LinearProgram(c=c[0], a_eq=a_eq, b_eq=b_eq[0],
                                   lower=lower.ravel(), upper=upper.ravel())
    return program, c, b_eq


def build_deterministic_equivalent(
    horizon: Horizon,
    storage: StorageConfig,
    space: ScenarioSpace,
    nonanticipative: bool = False,
    physical_discharge: bool = False,
) -> tuple[lp_mod.LinearProgram, VariableMap]:
    """Assemble the full LP over all scenarios and the column map."""
    _check_space(space, horizon)
    net_load = space.trace_matrix("consumption") - space.trace_matrix("renewable")
    program, _, _ = _assemble(
        storage, space.probabilities[None], space.trace_matrix("price")[None],
        net_load[None], _retention(storage, physical_discharge),
        _nonanticipativity_groups(space, nonanticipative))
    return program, VariableMap(T=horizon.T, scenario_labels=tuple(space.labels))


def _solve_groups(storage, space, groups, physical_discharge, cube):
    """Solve each group's program, all members coupled in period 1.

    Writes each member's purchase, battery and excess into its row of cube
    (S, 3, T), NaN where the program is not optimal, and returns each
    group's probability mass, status and optimal cost. Groups of one size
    share their constraint matrix and bounds, so one lp.solve_batch call per
    size solves them all, with each group's own costs and right-hand side
    stacked as rows.
    """
    masses = [sum(space.scenarios[w].probability for w in members) for members in groups]
    prices = space.trace_matrix("price")
    net_load = space.trace_matrix("consumption") - space.trace_matrix("renewable")
    by_size: dict[int, list[int]] = {}
    for g, members in enumerate(groups):
        by_size.setdefault(len(members), []).append(g)

    status = np.empty(len(groups), dtype=object)
    objective = np.empty(len(groups))
    for size, ids in by_size.items():
        members = np.array([groups[g] for g in ids])
        probs = np.array([[space.scenarios[w].probability / masses[g] for w in groups[g]]
                          for g in ids])
        program, c, b_eq = _assemble(storage, probs, prices[members], net_load[members],
                                     _retention(storage, physical_discharge),
                                     [range(size)])
        result = lp_mod.solve_batch(program, c, b_eq)
        cube[members] = result.x.reshape(members.shape + cube.shape[1:])
        status[ids], objective[ids] = result.status, result.objective
    return masses, status, objective


def solve_policy(
    horizon: Horizon,
    storage: StorageConfig,
    space: ScenarioSpace,
    nonanticipative: bool = False,
    physical_discharge: bool = False,
) -> PolicyTable:
    """Solve the program one block of scenarios at a time.

    Every scenario is first solved alone (the wait-and-see solve, one
    lp.solve_batch call); without nonanticipative that is the whole
    program. With it, a nonanticipativity group whose members are all
    optimal with exactly equal first-period purchases is certified and
    keeps their schedules and costs: the wait-and-see cost bounds the
    coupled cost from below, so they are optimal for the group too. Each
    other group is one block, solved as its own deterministic equivalent
    with the probabilities renormalised inside the group; its schedules
    overwrite its members' wait-and-see ones in the (S, 3, T) cube that
    every solve writes into. The expected cost sums the block optima
    weighted by block probability mass, in order of each block's first
    scenario. It equals the optimum of build_deterministic_equivalent over
    the whole space, because no constraint spans two groups.

    Raises InfeasibleProgramError when a block has no optimum, and
    RuntimeError when a block's optimal cost is not finite.
    """
    _check_space(space, horizon)
    S = len(space)
    cube = np.empty((S, 3, horizon.T))
    singles = _solve_groups(storage, space, [[w] for w in range(S)], physical_discharge, cube)
    # each block, keyed by its first scenario: (mass, status, optimal cost)
    blocks = dict(enumerate(zip(*singles)))
    if nonanticipative:
        optimal = singles[1] == "optimal"
        binding = [members for members in _nonanticipativity_groups(space, True)
                   if not (optimal[members].all()
                           and (cube[members, 0, 0] == cube[members[0], 0, 0]).all())]
        coupled = _solve_groups(storage, space, binding, physical_discharge, cube)
        for members, *block in zip(binding, *coupled):
            for w in members:
                del blocks[w]
            blocks[members[0]] = block

    expected = 0.0
    for lead in sorted(blocks):
        mass, status, cost = blocks[lead]
        if status != "optimal":
            raise InfeasibleProgramError(
                f"stochastic program is {status} for the scenario group "
                f"of {space.scenarios[lead].label!r}; check battery endpoint "
                f"levels (initial={storage.initial}, terminal={storage.terminal}) "
                f"against capacity {storage.capacity}")
        if not math.isfinite(cost):
            raise RuntimeError(
                f"optimal cost of the scenario group of {space.scenarios[lead].label!r} "
                f"is {cost}; trace values too large for the solver")
        expected += mass * float(cost)

    purchase, battery, excess = cube.transpose(1, 0, 2).copy()
    return PolicyTable(
        scenario_labels=tuple(space.labels),
        probabilities=space.probabilities,
        purchase=purchase,
        battery=battery,
        excess=excess,
        expected_cost=expected,
        storage=storage,
        physical_discharge=physical_discharge,
        nonanticipative=nonanticipative,
    )


def per_scenario_decomposition(
    horizon: Horizon,
    storage: StorageConfig,
    space: ScenarioSpace,
    physical_discharge: bool = False,
) -> PolicyTable:
    """solve_policy without nonanticipativity: one small LP per scenario."""
    return solve_policy(horizon, storage, space, nonanticipative=False,
                        physical_discharge=physical_discharge)


def verify_policy(policy: PolicyTable, horizon: Horizon, space: ScenarioSpace,
                  tol: float = BALANCE_TOL) -> list[str]:
    """Independent re-check of balance, bounds, and endpoint conditions, and,
    for a nonanticipative policy, of equal first-period purchases in each group.

    Returns a list of violations (empty when the policy is certified).
    Deliberately recomputes everything from the traces rather than
    trusting solver internals.
    """
    problems: list[str] = []
    T = horizon.T
    S = len(space)
    shapes = {policy.purchase.shape, policy.battery.shape, policy.excess.shape}
    if shapes != {(S, T)}:
        return [f"policy arrays have shapes {shapes}, expected {(S, T)}"]
    if tuple(space.labels) != tuple(policy.scenario_labels):
        problems.append("policy scenario labels do not match the space")
    keep = _retention(policy.storage, policy.physical_discharge)
    renewable = space.trace_matrix("renewable")
    consumption = space.trace_matrix("consumption")
    for name, arr in (("purchase", policy.purchase), ("battery", policy.battery),
                      ("excess", policy.excess)):
        if np.any(arr < -tol):
            problems.append(f"negative {name} entries (min {arr.min():.3e})")
    if np.any(policy.battery > policy.storage.capacity + tol):
        problems.append(
            f"battery exceeds capacity {policy.storage.capacity} "
            f"(max {policy.battery.max():.6f})")
    for w, label in enumerate(policy.scenario_labels):
        if abs(policy.battery[w, 0] - policy.storage.initial) > tol:
            problems.append(f"{label}: initial level {policy.battery[w, 0]:.6f} "
                            f"!= {policy.storage.initial}")
        if abs(policy.battery[w, T - 1] - policy.storage.terminal) > tol:
            problems.append(f"{label}: terminal level {policy.battery[w, T - 1]:.6f} "
                            f"!= {policy.storage.terminal}")
        residual = (policy.purchase[w, :T - 1] + keep * policy.battery[w, :T - 1]
                    + renewable[w, :T - 1] - policy.battery[w, 1:]
                    - consumption[w, :T - 1] - policy.excess[w, :T - 1])
        worst = np.abs(residual).max() if T > 1 else 0.0
        if worst > tol:
            t_bad = int(np.abs(residual).argmax())
            problems.append(f"{label}: balance residual {worst:.3e} at period {t_bad + 1}")
    if policy.nonanticipative:
        for members in _nonanticipativity_groups(space, True):
            spread = np.ptp(policy.purchase[members, 0])
            if spread > tol:
                problems.append(
                    f"{policy.scenario_labels[members[0]]}: first-period purchases of "
                    f"its group spread {spread:.3e}")
    return problems


def policy_csv_text(policy: PolicyTable) -> str:
    """Fixed-format CSV of the policy; byte-stable for identical policies."""
    lines = ["scenario_label,t,x_wh,s_wh,y_wh"]
    T = policy.purchase.shape[1]
    for w, label in enumerate(policy.scenario_labels):
        for t in range(T):
            lines.append(
                f"{label},{t + 1},{policy.purchase[w, t]:.6f},"
                f"{policy.battery[w, t]:.6f},{policy.excess[w, t]:.6f}")
    return "\n".join(lines) + "\n"
