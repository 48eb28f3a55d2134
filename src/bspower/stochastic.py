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
program is block-diagonal by group. solve_policies is the one solve path:
it takes a sequence of (storage, space) cells, such as the cells of a
sweep, and returns one PolicyTable per cell; solve_policy is its batch of
one. It solves every scenario alone first (the wait-and-see solve). Under
the nonanticipative mode a group is certified when all its members'
programs are optimal and their first-period purchases are exactly equal,
with no tolerance: the wait-and-see cost bounds the coupled cost from
below, so such a plan is optimal for the coupled group as well (Madansky
1960; Birge & Louveaux, ch. 4). Only the other groups are solved as
coupled programs.

One assembly writes every program: _structure gives the constraint matrix
and bounds that the blocks of one size and battery share, and _costs and
_rhs give each block's own rows. build_deterministic_equivalent puts them
together once over the whole space: the dense monolithic program, which
the tests solve as the oracle for solve_policy. solve_policies hands the
blocks of all its cells to lp.solve_batch as row tables, one call per
block size, retention and fixed-variable pattern (the endpoint levels,
and whether the capacity is 0), each space's cost and right-hand side
rows made once; lp.solve_batch solves every program it is given, in
lockstep within its per-stack memory budget. A ScenarioSpace is valid
once built, so build_deterministic_equivalent and solve_policies only
compare its trace length with T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp as lp_mod
from .scenarios import ScenarioSpace
from .units import Horizon

BALANCE_TOL = 1e-6


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


def _retention(storage: StorageConfig, physical_discharge: bool) -> float:
    return 1.0 - storage.self_discharge if physical_discharge else 1.0


def _traces(space: ScenarioSpace, horizon: Horizon):
    """A space's probabilities and its (S, T) price and net-load (consumption
    minus renewable) matrices, once its trace length is checked against T."""
    price = space.trace_matrix("price")
    if price.shape[1] != horizon.T:
        raise ValueError(f"scenarios: trace length {price.shape[1]} != T={horizon.T}")
    return (space.probabilities, price,
            space.trace_matrix("consumption") - space.trace_matrix("renewable"))


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


def _structure(storage: StorageConfig, size: int, T: int, keep: float, coupled
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constraint matrix and bounds of a block of size scenarios.

    coupled lists the index lists, within the block, of scenarios whose
    first-period purchases are made equal: each member after the first
    gets a row equating its purchase with the first's. Rows are every
    scenario's balance rows, scenario-major, then the coupling rows;
    columns follow VariableMap. Returns (a_eq, lower, upper); every block
    of this size and storage shares them and brings its own _costs and
    _rhs rows.
    """
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
    lower = np.zeros((size, 3, T))
    upper = np.full((size, 3, T), np.inf)
    upper[:, 1] = storage.capacity
    lower[:, 1, 0] = upper[:, 1, 0] = storage.initial
    lower[:, 1, T - 1] = upper[:, 1, T - 1] = storage.terminal
    return a_eq, lower.ravel(), upper.ravel()


def _costs(storage: StorageConfig, probs: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """Cost rows (blocks, 3 T size) of blocks with probabilities probs
    (blocks, size) and prices (blocks, size, T)."""
    blocks, size, T = prices.shape
    c = np.zeros((blocks, size, 3, T))
    c[:, :, 0] = probs[:, :, None] * prices / 1000.0
    c[:, :, 1] = probs[:, :, None] * storage.loss_cost_coeff
    return c.reshape(blocks, 3 * T * size)


def _rhs(net_load: np.ndarray, rows: int) -> np.ndarray:
    """Right-hand sides (blocks, rows) of blocks with net load (consumption
    minus renewable) (blocks, size, T); the coupling rows' are 0."""
    blocks, size, T = net_load.shape
    b_eq = np.zeros((blocks, rows))
    b_eq[:, :size * (T - 1)] = net_load[:, :, :T - 1].reshape(blocks, -1)
    return b_eq


def build_deterministic_equivalent(
    horizon: Horizon,
    storage: StorageConfig,
    space: ScenarioSpace,
    nonanticipative: bool = False,
    physical_discharge: bool = False,
) -> tuple[lp_mod.LinearProgram, VariableMap]:
    """Assemble the full LP over all scenarios and the column map.

    This dense monolithic program is kept only as the documented oracle:
    the HiGHS check in benchmarks/gate.py and the tests solve it to check
    solve_policy. The CLI never calls it; solve_policies builds its blocks
    from the same _structure, _costs and _rhs.
    """
    probabilities, price, net_load = _traces(space, horizon)
    a_eq, lower, upper = _structure(storage, len(space), horizon.T,
                                    _retention(storage, physical_discharge),
                                    _nonanticipativity_groups(space, nonanticipative))
    program = lp_mod.LinearProgram(
        c=_costs(storage, probabilities[None], price[None])[0],
        a_eq=a_eq, b_eq=_rhs(net_load[None], len(a_eq))[0], lower=lower, upper=upper)
    return program, VariableMap(T=horizon.T, scenario_labels=tuple(space.labels))


class _Batch:
    """The programs of one lp.solve_batch call: a shared constraint matrix
    and lower bounds, tables of cost, right-hand side and upper-bound rows,
    and one (cost, rhs, bound) row triple per program, the tables and
    triples kept as lists of blocks until run()."""

    def __init__(self, a_eq, lower):
        self.a_eq, self.lower = a_eq, lower
        self.costs, self.rhs, self.bounds, self.index = [], [], [], []
        # the row ids of the cost and rhs rows added so far, by the space,
        # groups (and loss cost) they were made from
        self.seen: dict[tuple, np.ndarray] = {}

    def rows(self, table: list, source: tuple, make) -> np.ndarray:
        """Row ids in table of the rows make() returns, made once per source."""
        if source not in self.seen:
            start = sum(map(len, table))
            table.append(make())
            self.seen[source] = np.arange(start, start + len(table[-1]))
        return self.seen[source]

    def run(self) -> lp_mod.LpResult:
        return lp_mod.solve_batch(self.a_eq, self.lower, *map(np.concatenate, (
            self.costs, self.rhs, self.bounds, self.index)))


def _solve_groups(cells, traces, segments, T, physical_discharge):
    """Solve the program of every group, all its members coupled in period 1.

    A segment (cell, members) holds same-size groups of one cell, members
    (groups, size) indexing the scenarios of that cell's space; traces
    maps id(space) to the space's probabilities, price matrix and net
    load (consumption minus renewable) matrix. Returns,
    for each segment, the groups' probability masses, statuses, optimal
    costs and solution rows (groups, 3 T size), NaN where a program is not
    optimal. Segments whose programs share the constraint matrix and fix the
    same variables at the same values (one group size, one retention and
    one pair of endpoint levels) go to one lp.solve_batch call, their costs,
    right-hand sides and upper bounds as row tables, each space's and
    group set's rows made once; each segment's results are one slice of
    its call's.
    """
    batches: dict[tuple, _Batch] = {}
    placed = []
    for cell, members in segments:
        storage, space = cells[cell]
        p, prices, net_load = traces[id(space)]
        # the left fold of Python's sum, one group per entry
        mass = p[members[:, 0]]
        for j in range(1, members.shape[1]):
            mass = mass + p[members[:, j]]
        size = members.shape[1]
        keep = _retention(storage, physical_discharge)
        a_eq, lower, upper = _structure(storage, size, T, keep, [range(size)])
        key = (size, keep, lower.tobytes(), (lower == upper).tobytes())
        if key not in batches:
            batches[key] = _Batch(a_eq, lower)
        batch = batches[key]
        groups = (id(space), members.tobytes())
        index = np.empty((len(members), 3), dtype=np.intp)
        index[:, 0] = batch.rows(batch.costs, (*groups, storage.loss_cost_coeff),
                                 lambda: _costs(storage, p[members] / mass[:, None],
                                                prices[members]))
        index[:, 1] = batch.rows(batch.rhs, groups,
                                 lambda: _rhs(net_load[members], len(a_eq)))
        index[:, 2] = len(batch.bounds)
        batch.bounds.append(upper[None])
        start = sum(map(len, batch.index))
        batch.index.append(index)
        placed.append((key, slice(start, start + len(members)), mass))

    results = {key: batch.run() for key, batch in batches.items()}
    return [(mass, results[key].status[at], results[key].objective[at], results[key].x[at])
            for key, at, mass in placed]


def solve_policy(
    horizon: Horizon,
    storage: StorageConfig,
    space: ScenarioSpace,
    nonanticipative: bool = False,
    physical_discharge: bool = False,
) -> PolicyTable:
    """The policy of one cell: solve_policies over [(storage, space)].

    Raises RuntimeError when a block has no finite optimum.
    """
    policy, = solve_policies(horizon, [(storage, space)], nonanticipative, physical_discharge)
    return policy


def solve_policies(
    horizon: Horizon,
    cells,
    nonanticipative: bool = False,
    physical_discharge: bool = False,
) -> list[PolicyTable]:
    """Solve the program of every (storage, space) cell one block at a time.

    Every scenario is first solved alone (the wait-and-see solve); without
    nonanticipative that is the whole program. With it, a
    nonanticipativity group whose members are all optimal with exactly
    equal first-period purchases is certified and keeps their schedules
    and costs: the wait-and-see cost bounds the coupled cost from below, so
    they are optimal for the group too. Each other group is one block,
    solved as its own deterministic equivalent with the probabilities
    renormalised inside the group; its schedules overwrite its members'
    wait-and-see ones in the cell's (S, 3, T) cube. Each of the two stages
    solves the blocks of every cell together, one lp.solve_batch call per
    block size and fixed-variable pattern. Each distinct space has its
    trace length compared with T and is turned into trace matrices once.

    A cell's expected cost sums its block optima weighted by block
    probability mass, in order of each block's first scenario. It equals
    the optimum of build_deterministic_equivalent over the whole space,
    because no constraint spans two groups.

    Every block is feasible and bounded: each balance row has its own
    purchase and excess columns, with no upper bound, so the grid covers
    any shortfall and takes any surplus; StorageConfig keeps both endpoint
    levels in [0, capacity]; the coupling rows only equate first-period
    purchases, which are free; and costs are non-negative. So a block
    without a finite optimum is a numerical breakdown.

    Returns one PolicyTable per cell. Raises RuntimeError at the first
    cell's first block whose status is not optimal or whose optimal cost
    is not finite, naming that block's first scenario.
    """
    cells = list(cells)
    traces = {}
    for _, space in cells:
        if id(space) not in traces:
            traces[id(space)] = _traces(space, horizon)
    # each cell's blocks, indexed by their first scenario: whether a block
    # starts there, and its mass, status and optimal cost
    blocks = []
    cubes = []
    singles = [(cell, np.arange(len(space))[:, None]) for cell, (_, space) in enumerate(cells)]
    for mass, status, cost, x in _solve_groups(cells, traces, singles, horizon.T,
                                               physical_discharge):
        blocks.append((np.ones(len(mass), dtype=bool), mass, status.copy(), cost.copy()))
        cubes.append(x.reshape(len(mass), 3, horizon.T))
    if nonanticipative:
        coupled = []
        for cell, (_, space) in enumerate(cells):
            cube, optimal = cubes[cell], blocks[cell][2] == "optimal"
            by_size: dict[int, list[list[int]]] = {}
            for members in _nonanticipativity_groups(space, True):
                if not (optimal[members].all()
                        and (cube[members, 0, 0] == cube[members[0], 0, 0]).all()):
                    by_size.setdefault(len(members), []).append(members)
            coupled.extend((cell, np.array(groups)) for groups in by_size.values())
        for (cell, members), (mass, status, cost, x) in zip(
                coupled, _solve_groups(cells, traces, coupled, horizon.T, physical_discharge)):
            cubes[cell][members] = x.reshape(members.shape + cubes[cell].shape[1:])
            lead, masses, statuses, costs = blocks[cell]
            lead[members] = False
            leads = members[:, 0]
            lead[leads], masses[leads], statuses[leads], costs[leads] = True, mass, status, cost
    return [_policy(storage, space, cube, block, nonanticipative, physical_discharge)
            for (storage, space), cube, block in zip(cells, cubes, blocks)]


def _policy(storage, space, cube, blocks, nonanticipative, physical_discharge):
    """A cell's PolicyTable; RuntimeError at its first block without a
    finite optimum."""
    lead, masses, statuses, costs = blocks
    order = np.nonzero(lead)[0]
    failing = (statuses[order] != "optimal") | ~np.isfinite(costs[order])
    if failing.any():
        first = order[failing.argmax()]
        label = space.scenarios[first].label
        # a block without an optimum has no cost to show; an optimal one shows its inf
        cost = f" with cost {costs[first]}" if statuses[first] == "optimal" else ""
        raise RuntimeError(f"the scenario group of {label!r} solved {statuses[first]}"
                           f"{cost}; trace values too large for the solver")
    expected = 0.0
    for mass, cost in zip(masses[order].tolist(), costs[order].tolist()):
        expected += mass * cost
    purchase, battery, excess = cube.transpose(1, 0, 2)
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
    initial = np.abs(policy.battery[:, 0] - policy.storage.initial) > tol
    terminal = np.abs(policy.battery[:, T - 1] - policy.storage.terminal) > tol
    residual = np.abs(policy.purchase[:, :T - 1] + keep * policy.battery[:, :T - 1]
                      + renewable[:, :T - 1] - policy.battery[:, 1:]
                      - consumption[:, :T - 1] - policy.excess[:, :T - 1])
    worst = residual.max(axis=1, initial=0.0)
    for w in np.nonzero(initial | terminal | (worst > tol))[0]:
        label = policy.scenario_labels[w]
        if initial[w]:
            problems.append(f"{label}: initial level {policy.battery[w, 0]:.6f} "
                            f"!= {policy.storage.initial}")
        if terminal[w]:
            problems.append(f"{label}: terminal level {policy.battery[w, T - 1]:.6f} "
                            f"!= {policy.storage.terminal}")
        if worst[w] > tol:
            problems.append(f"{label}: balance residual {worst[w]:.3e} "
                            f"at period {int(residual[w].argmax()) + 1}")
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
