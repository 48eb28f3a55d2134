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
programs. Programs of one size have the same constraint matrix and bounds
and differ only in costs and right-hand side, so solve_policy builds the
program once per size (build_deterministic_equivalent on the first
group), stacks every program's costs and right-hand side with numpy, and
hands them to lp.solve_batch, which pivots them in lockstep within its
per-stack memory budget. build_deterministic_equivalent over the whole
space is the dense monolithic program; the tests solve it as the oracle
for solve_policy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import lp as lp_mod
from .scenarios import ScenarioSpace, validate
from .units import Horizon

KINDS = ("purchase", "battery", "excess")

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

    def column(self, kind: str, t: int, scenario: int) -> int:
        k = KINDS.index(kind)
        if not 0 <= t < self.T:
            raise IndexError(f"period {t} outside 0..{self.T - 1}")
        if not 0 <= scenario < len(self.scenario_labels):
            raise IndexError(f"scenario {scenario} outside space")
        return scenario * 3 * self.T + k * self.T + t

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


def build_deterministic_equivalent(
    horizon: Horizon,
    storage: StorageConfig,
    space: ScenarioSpace,
    nonanticipative: bool = False,
    physical_discharge: bool = False,
) -> tuple[lp_mod.LinearProgram, VariableMap]:
    """Assemble the full LP over all scenarios and the column map."""
    _check_space(space, horizon)
    T = horizon.T
    S = len(space)
    vmap = VariableMap(T=T, scenario_labels=tuple(space.labels))
    probs = space.probabilities
    prices = space.trace_matrix("price")
    renewable = space.trace_matrix("renewable")
    consumption = space.trace_matrix("consumption")
    keep = _retention(storage, physical_discharge)

    n = 3 * T * S
    c = np.zeros(n)
    lower = np.zeros(n)
    upper = np.full(n, np.inf)
    for w in range(S):
        base = w * 3 * T
        c[base:base + T] = probs[w] * prices[w] / 1000.0
        c[base + T:base + 2 * T] = probs[w] * storage.loss_cost_coeff
        upper[base + T:base + 2 * T] = storage.capacity
        lower[base + T] = upper[base + T] = storage.initial
        lower[base + 2 * T - 1] = upper[base + 2 * T - 1] = storage.terminal

    rows = []
    rhs = []
    for w in range(S):
        for t in range(T - 1):
            row = np.zeros(n)
            row[vmap.column("purchase", t, w)] = 1.0
            row[vmap.column("battery", t, w)] = keep
            row[vmap.column("battery", t + 1, w)] = -1.0
            row[vmap.column("excess", t, w)] = -1.0
            rows.append(row)
            rhs.append(consumption[w, t] - renewable[w, t])
    for members in _nonanticipativity_groups(space, nonanticipative):
        lead = members[0]
        for w in members[1:]:
            row = np.zeros(n)
            row[vmap.column("purchase", 0, lead)] = 1.0
            row[vmap.column("purchase", 0, w)] = -1.0
            rows.append(row)
            rhs.append(0.0)

    program = lp_mod.LinearProgram(
        c=c,
        a_eq=np.array(rows),
        b_eq=np.array(rhs),
        lower=lower,
        upper=upper,
    )
    return program, vmap


def _solve_groups(horizon, storage, space, groups, nonanticipative, physical_discharge):
    """Solve each group's program; returns (mass, solution, vmap) per group.

    Groups of one size share their constraint matrix and bounds, so one
    lp.solve_batch call per size solves them all, with each group's own
    costs and right-hand side stacked as rows.
    """
    T = horizon.T
    masses = [sum(space.scenarios[w].probability for w in members) for members in groups]
    prices = space.trace_matrix("price")
    net_load = space.trace_matrix("consumption") - space.trace_matrix("renewable")
    by_size: dict[int, list[int]] = {}
    for g, members in enumerate(groups):
        by_size.setdefault(len(members), []).append(g)

    solved = [None] * len(groups)
    for size, ids in by_size.items():
        members = np.array([groups[g] for g in ids])
        probs = np.array([[space.scenarios[w].probability / masses[g] for w in groups[g]]
                          for g in ids])
        template = ScenarioSpace(tuple(
            replace(space.scenarios[w], probability=float(p))
            for w, p in zip(members[0], probs[0])))
        program, vmap = build_deterministic_equivalent(
            horizon, storage, template, nonanticipative, physical_discharge)
        # each entry by the expression build_deterministic_equivalent evaluates
        # for the group, so it is the same bit for bit
        c = np.zeros((len(ids), size, 3, T))
        c[:, :, 0] = probs[:, :, None] * prices[members] / 1000.0
        c[:, :, 1] = probs[:, :, None] * storage.loss_cost_coeff
        b_eq = np.zeros((len(ids), program.b_eq.size))
        b_eq[:, :size * (T - 1)] = net_load[members, :T - 1].reshape(len(ids), -1)
        solutions = lp_mod.solve_batch(program, c.reshape(len(ids), -1), b_eq)
        for g, solution in zip(ids, solutions):
            solved[g] = masses[g], solution, vmap
    return solved


def _certified(solutions: list[lp_mod.LpSolution]) -> bool:
    """Whether every program is optimal and all first-period purchases are equal."""
    return (all(solution.status == "optimal" for solution in solutions)
            and len({float(solution.x[0]) for solution in solutions}) == 1)


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
    with the probabilities renormalised inside the group. The expected
    cost sums the block optima weighted by block probability mass, in order
    of each block's first scenario. It equals the optimum of
    build_deterministic_equivalent over the whole space, because no
    constraint spans two groups.
    """
    _check_space(space, horizon)
    T = horizon.T
    S = len(space)
    singles = _solve_groups(horizon, storage, space, [[w] for w in range(S)], False,
                            physical_discharge)
    # each block, keyed by its first scenario: (members, (mass, solution, vmap))
    blocks = {w: ([w], result) for w, result in enumerate(singles)}
    if nonanticipative:
        binding = [members for members in _nonanticipativity_groups(space, True)
                   if not _certified([singles[w][1] for w in members])]
        coupled = _solve_groups(horizon, storage, space, binding, True, physical_discharge)
        for members, result in zip(binding, coupled):
            for w in members:
                del blocks[w]
            blocks[members[0]] = members, result

    purchase = np.zeros((S, T))
    battery = np.zeros((S, T))
    excess = np.zeros((S, T))
    expected = 0.0
    for lead in sorted(blocks):
        members, (mass, solution, vmap) = blocks[lead]
        if solution.status != "optimal":
            raise InfeasibleProgramError(
                f"stochastic program is {solution.status} for the scenario group "
                f"of {space.scenarios[lead].label!r}; check battery endpoint "
                f"levels (initial={storage.initial}, terminal={storage.terminal}) "
                f"against capacity {storage.capacity}")
        purchase[members], battery[members], excess[members] = vmap.unpack(solution.x)
        expected += mass * float(solution.objective_value)
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
