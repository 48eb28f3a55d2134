"""Scenario-based purchase/storage program and its solution.

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
program is block-diagonal by group. Each scenario's program is one battery
on a line of periods, whose optimal policy is a base-stock rule
(Secomandi, Management Science 56(3), 2010), and a group couples only
through its common first purchase. So solve_policies, the one solve path,
needs no LP solver: it takes a sequence of (storage, space) cells, such as
the cells of a sweep, runs one backward recursion over every scenario of
every cell and one forward pass (_storage_recursion), and returns one
PolicyTable per cell; solve_policy is its batch of one. Under the
nonanticipative mode each group's first-period level is the exact
minimiser of its members' merged costs, found in the same call; both
modes take this one path. Among tied optima the recursion always takes the
lowest next battery level.

build_deterministic_equivalent writes the dense program over the whole
space in one function: every scenario's balance rows, then the coupling
rows of each group. It is the oracle: the tests solve it with bspower.lp
and HiGHS, and the benchmark's gate with HiGHS, to check the recursion;
the CLI never builds it. A ScenarioSpace is valid once built, so
build_deterministic_equivalent and solve_policies only compare its trace
length with T.
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
        # each rule is false for NaN; an infinite capacity solves to a
        # finite plan, but the levels and the loss cost must be finite
        if not self.capacity >= 0:
            raise ValueError(f"capacity must be >= 0, got {self.capacity}")
        for name in ("initial", "terminal"):
            level = getattr(self, name)
            if not (0.0 <= level <= self.capacity and level < np.inf):
                raise ValueError(
                    f"{name} level {level} outside [0, capacity={self.capacity}]"
                )
        if not 0.0 <= self.self_discharge < 1.0:
            raise ValueError(f"self_discharge must be in [0, 1), got {self.self_discharge}")
        if not 0.0 <= self.loss_cost_coeff < np.inf:
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


def _costs(purchase, price, loss, stored_wh):
    """Each program's cost in cents: its purchases at price / 1000 cents per
    Wh, added period by period from 0 in period order, plus loss times its
    stored Wh. Written out, so the bits do not depend on the BLAS loaded."""
    total = np.zeros(len(purchase))
    for t in range(purchase.shape[1]):
        total += purchase[:, t] * (price[:, t] / 1000.0)
    return total + loss * stored_wh


def _expected(probabilities, values) -> float:
    """The expectation of values: the left fold of probability times value
    in scenario order, in Python floats."""
    total = 0.0
    for p, value in zip(probabilities.tolist(), values.tolist()):
        total += p * value
    return total


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
    """Assemble the full LP over all scenarios and the column map.

    Rows are every scenario's T-1 balance rows, scenario-major, then one
    coupling row per member after the first of each nonanticipativity
    group, equating its first purchase with the first member's; columns
    follow VariableMap.

    This dense monolithic program is kept only as the documented oracle:
    the HiGHS check in benchmarks/gate.py and the tests solve it to check
    solve_policy. The CLI never calls it; solve_policies solves the same
    program by the storage recursion.
    """
    probabilities, price, net_load = _traces(space, horizon)
    S, T = price.shape
    groups = _nonanticipativity_groups(space, nonanticipative)
    leads = [members[0] for members in groups for _ in members[1:]]
    others = [w for members in groups for w in members[1:]]
    n_balance = S * (T - 1)
    a_eq = np.zeros((n_balance + len(others), 3 * T * S))
    balance = a_eq[:n_balance].reshape(S, T - 1, S, 3, T)
    w, t = np.arange(S)[:, None], np.arange(T - 1)
    balance[w, t, w, 0, t] = 1.0
    balance[w, t, w, 1, t] = _retention(storage, physical_discharge)
    balance[w, t, w, 1, t + 1] = -1.0
    balance[w, t, w, 2, t] = -1.0
    coupling = n_balance + np.arange(len(others))
    a_eq[coupling, 3 * T * np.array(leads, dtype=int)] = 1.0
    a_eq[coupling, 3 * T * np.array(others, dtype=int)] = -1.0
    b_eq = np.zeros(len(a_eq))
    b_eq[:n_balance] = net_load[:, :T - 1].ravel()
    c = np.zeros((S, 3, T))
    c[:, 0] = probabilities[:, None] * price / 1000.0
    c[:, 1] = probabilities[:, None] * storage.loss_cost_coeff
    lower = np.zeros((S, 3, T))
    upper = np.full((S, 3, T), np.inf)
    upper[:, 1] = storage.capacity
    lower[:, 1, 0] = upper[:, 1, 0] = storage.initial
    lower[:, 1, T - 1] = upper[:, 1, T - 1] = storage.terminal
    program = lp_mod.LinearProgram(c=c.ravel(), a_eq=a_eq, b_eq=b_eq,
                                   lower=lower.ravel(), upper=upper.ravel())
    return program, VariableMap(T=T, scenario_labels=tuple(space.labels))


def _gathered(source, flat, first):
    """A (len(flat) + 2, P) array: the row first, the entries of source
    ravelled at the (len(flat), P) flat indices, then an all-inf row."""
    out = np.empty((len(flat) + 2, flat.shape[1]))
    out[0], out[-1] = first, np.inf
    # in range by construction, so mode="clip" only spares take a buffered copy
    source.ravel().take(flat, out=out[1:-1], mode="clip")
    return out


def _count(mask):
    """The number of True entries in each column of mask, as intp. numpy
    sums a bool array about twice as fast into int32 as into int64."""
    return mask.sum(axis=0, dtype=np.int32).astype(np.intp)


def _levels(price, net_load, keep, loss, capacity, initial, terminal, probabilities, groups):
    """The backward pass and group merge of _storage_recursion: L_t and U_t,
    each (T - 1, P). Its working arrays are freed when it returns, before
    the schedules are allocated.

    The slopes of W_t right of the images of W_{t+1}'s knots at or past
    U_t are exact only in sign. F_t' is 0 there, so the exact slope is
    loss; the pass keeps loss + keep times W_{t+1}'s slope, which is also
    >= 0. Only that sign reaches a decision: the counts for L_t and U_t and
    the merge's min(g, 0)."""
    P, T = price.shape
    rows, room = np.arange(P), capacity > 0.0
    roomy, limit = rows[room], capacity[room]  # the programs with room, their capacity
    below, above = np.empty((T - 1, P)), np.empty((T - 1, P))  # L_t and U_t
    knots, slopes = np.full((2, P), np.inf), np.full((2, P), np.inf)  # one knot, the inf row
    knots[0] = terminal
    for t in range(T - 2, -1, -1):
        minus_c = -(price[:, t] / 1000.0)
        # each column's slopes ascend, so the first that qualifies is a count
        up = _count(slopes < 0.0)
        buy = _count(slopes < minus_c)
        below[t], above[t] = knots.ravel().take(buy * P + rows), knots.ravel().take(up * P + rows)
        if t == 0:
            break
        z0 = -net_load[:, t]  # what level 0 leaves
        low = _count(knots <= z0)  # the knots whose images are <= 0
        # W_t's slope right of 0: -c_t below L_t, else W_{t+1}'s at z0
        first = np.where(room, loss + keep * np.where(
            z0 < below[t], minus_c, slopes.ravel().take(np.maximum(low - 1, 0) * P + rows)),
            np.inf)
        # W_{t+1}'s knots become their images (k + d_t) / keep, in place
        np.divide(np.add(knots, net_load[:, t], out=knots), keep, out=knots)
        # the run of new knots: rows lo to end - 1, from L_t to U_t, in (0, capacity)
        lo = np.maximum(buy, low)
        end = np.maximum(np.minimum(up + 1, _count(knots < capacity)), lo)
        count = end - lo
        stop = end * P + rows
        knots.ravel()[stop] = slopes.ravel()[stop] = np.inf
        span = np.arange(int(count.max()) + 1)[:, None]  # the new knots after 0
        # flat index of each new knot's source; an untaken slot reads row end
        flat = lo * P + rows + span * P
        np.minimum(flat, stop, out=flat)  # in place: a lower peak
        # each of W_{t+1}'s arrays is freed once gathered from: a lower peak
        knots = _gathered(knots, flat, 0.0)
        knots.ravel()[(1 + count[room]) * P + roomy] = limit
        slopes = _gathered(slopes, flat, first)
        np.add(loss, np.multiply(keep, slopes[1:-1], out=slopes[1:-1]),
               out=slopes[1:-1])  # loss + keep F_t'

    for members in groups:
        lead = members[0]
        bound = max(0.0, keep[lead] * initial[lead] - net_load[lead, 0])
        own = knots[:, members].T
        candidates = np.concatenate(([bound], own[(own > bound) & (own < np.inf)]))
        # each member's slope right of a level, -inf below its first knot
        right = np.concatenate((np.full((len(members), 1), -np.inf), slopes[:, members].T),
                               axis=1)
        slope = 0.0
        for k, w in enumerate(members):
            g = right[k, np.searchsorted(own[k], candidates, side="right")]
            slope = slope + probabilities[w] * (price[lead, 0] / 1000.0 + np.minimum(g, 0.0))
        below[0, members] = np.min(candidates, where=slope >= 0.0, initial=np.inf)
    return below, above


def _storage_recursion(price, net_load, keep, loss, capacity, initial, terminal,
                       probabilities, groups):
    """Optimal purchase, battery and excess schedules, each (P, T), of P
    one-battery programs given as (P, T) price and net-load (consumption
    minus renewable) rows and (P,) retention, loss cost, capacity, endpoint
    levels and probabilities. groups lists index arrays of two or more
    programs that share their first purchase.

    Let c_t = price_t / 1000 and d_t the net load. W_t, the optimal cost
    from period t on as a function of the level s_t, is convex and
    piecewise linear; it is held as ascending knots and the slope right of
    each knot, inf at the last knot. No values are needed. W_{T-1} is the
    one knot terminal. Going back, U_t is the first knot of W_{t+1} with
    slope >= 0, its smallest minimiser, and L_t the first with slope >=
    -c_t, below which buying a Wh more pays.
    From level s the period leaves z = keep s - d_t before any purchase or
    dump, and the best next level is clip(z, L_t, U_t); the cost from there
    on, F_t(z), has slope -c_t below L_t, W_{t+1}'s slope between and 0
    above U_t. So W_t(s) = loss s + F_t(keep s - d_t) on [0, capacity] has
    the knots 0, capacity (when > 0) and the images (k + d_t) / keep of
    W_{t+1}'s knots k from L_t to U_t that lie strictly between, each with
    right slope loss + keep F_t'.

    The layout is column-major: knots and slopes are (width, P) arrays, one
    column per program, each column padded with inf below its last knot,
    and the last row is all inf. So per-program vectors broadcast along
    rows and counts reduce along axis 0. Each column's knots and slopes
    ascend (W_t is convex, rounding is monotone and the padding is inf), so
    each search is a count: U_t is the knot at row (slopes < 0).sum() and
    L_t the one at row (slopes < -c_t).sum(). The images that enter W_t form
    one run of rows, lo to end - 1. lo is the larger of L_t's row and the
    number of knots k <= -d_t, whose images are <= 0: k + d_t rounds to 0
    only when it is 0, and rounding keeps the sign. end is the smaller of
    U_t's row + 1 and the number of images below capacity, and at least lo.
    Each period overwrites W_{t+1}'s knots with their images, writes inf
    into row end of both arrays, and gathers every new knot and slope from
    their ravelled form at flat index row * P + program; a slot past a
    column's run gathers its row end, which pads it with inf with no mask.
    U_t's row is above the all-inf last row, and lo is at most that row,
    so row end is always in range.

    The forward pass buys up to Y = max(z, L_t) and dumps down to U_t.
    Among tied optima it takes the lowest next level, because L_t and U_t
    are the first knots that qualify. A group's members share c_0, d_0 and
    s_0, so z too, and their common Y minimises c_0 (Y - z) sum p_w + sum
    p_w W_1w(min(Y, U_0w)) over Y >= max(0, z). That is convex and
    piecewise linear, so Y is the smallest of that bound and the members'
    W_1 knots at which the slope sum_w p_w (c_0 + min(g_w(Y), 0)) is >= 0,
    g_w(Y) the slope of W_1w right of Y, -inf below its first knot (a
    one-dimensional master problem, solved exactly: the L-shaped method of
    Van Slyke & Wets 1969). Written per member, a term is exactly 0 where
    that member is tied, so members that agree alone keep their level. Each
    member then buys Y - z and dumps what lies above its own U_0.
    """
    P, T = price.shape
    below, above = _levels(price, net_load, keep, loss, capacity, initial, terminal,
                           probabilities, groups)
    purchase, battery, excess = np.zeros((P, T)), np.empty((P, T)), np.zeros((P, T))
    battery[:, 0] = initial
    for t in range(T - 1):
        z = keep * battery[:, t] - net_load[:, t]
        level = np.maximum(z, below[t])
        battery[:, t + 1] = np.minimum(level, above[t])
        purchase[:, t] = level - z
        excess[:, t] = level - battery[:, t + 1]
    return purchase, battery, excess


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
    """Solve the program of every (storage, space) cell in one recursion.

    Every scenario of every distinct cell is one program of
    _storage_recursion: one backward pass over all of them and one forward
    pass, with nonanticipative each group of two or more members merged at
    period 1. Both modes take this one path, and among tied optima it
    takes the lowest next battery level. A repeated cell (an equal storage
    over the same space object) is solved once and its PolicyTable
    returned for each. Each distinct space has its trace length compared
    with T and is turned into trace matrices once.

    The result is the optimum of build_deterministic_equivalent over the
    whole space. Every block of that program is feasible and bounded: the
    grid covers any shortfall and takes any surplus, StorageConfig keeps
    both endpoint levels in [0, capacity] and costs are non-negative. So a
    block without a finite optimum is one whose numbers overflow.

    Each scenario's cost is its purchases at price / 1000 cents per Wh,
    added period by period, plus the loss cost of its battery levels
    (_costs), and a cell's expected cost is the left fold of probability
    times cost in scenario order (_expected). Replay, the baseline and the
    sweeps price and average with the same two functions, so every figure
    has the same bits whatever BLAS kernel or thread count is loaded.

    Returns one PolicyTable per cell. Raises RuntimeError at the first
    cell holding a scenario whose cost or schedule is not finite, naming
    the first scenario of the first block (its nonanticipativity group, or
    the scenario alone) of that cell that holds one.
    """
    cells = list(cells)
    if not cells:
        return []
    traces, distinct = {}, {}
    for storage, space in cells:
        if id(space) not in traces:
            traces[id(space)] = _traces(space, horizon)
        distinct.setdefault((storage, id(space)), (storage, space))
    solved = list(distinct.values())
    sizes = [len(space) for _, space in solved]
    starts = np.cumsum([0, *sizes])
    merged = [start + np.array(members) for start, (_, space) in zip(starts, solved)
              for members in _nonanticipativity_groups(space, nonanticipative)
              if len(members) > 1]

    def each(value):
        """value(storage) of each distinct cell, once per scenario."""
        return np.repeat([float(value(storage)) for storage, _ in solved], sizes)

    probabilities, price, net_load = map(np.concatenate,
                                         zip(*(traces[id(space)] for _, space in solved)))
    loss = each(lambda s: s.loss_cost_coeff)
    # an overflow shows as a cost or schedule that is not finite, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        purchase, battery, excess = _storage_recursion(
            price, net_load, each(lambda s: _retention(s, physical_discharge)), loss,
            each(lambda s: s.capacity), each(lambda s: s.initial),
            each(lambda s: s.terminal), probabilities, merged)
        costs = _costs(purchase, price, loss, battery.sum(axis=1))
    finite = (np.isfinite(costs) & np.isfinite(purchase).all(axis=1)
              & np.isfinite(battery).all(axis=1) & np.isfinite(excess).all(axis=1))
    if not finite.all():
        lead = np.arange(len(costs))
        for members in merged:
            lead[members] = members[0]
        failed = np.flatnonzero(~finite)
        k = int(np.searchsorted(starts, failed[0], side="right")) - 1
        label = solved[k][1].labels[lead[failed[failed < starts[k + 1]]].min() - starts[k]]
        raise RuntimeError(f"the scenario group of {label!r} has no finite optimum; "
                           "trace values too large for the solver")
    policies = []
    for (storage, space), start, end in zip(solved, starts, starts[1:]):
        policies.append(PolicyTable(
            scenario_labels=tuple(space.labels),
            probabilities=space.probabilities,
            purchase=purchase[start:end],
            battery=battery[start:end],
            excess=excess[start:end],
            expected_cost=_expected(probabilities[start:end], costs[start:end]),
            storage=storage,
            physical_discharge=physical_discharge,
            nonanticipative=nonanticipative,
        ))
    by_cell = dict(zip(distinct, policies))
    return [by_cell[storage, id(space)] for storage, space in cells]


def per_scenario_decomposition(
    horizon: Horizon,
    storage: StorageConfig,
    space: ScenarioSpace,
    physical_discharge: bool = False,
) -> PolicyTable:
    """solve_policy without nonanticipativity: each scenario a program of its own."""
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
        # every comparison below is false for NaN
        non_finite = np.count_nonzero(~np.isfinite(arr))
        if non_finite:
            problems.append(f"non-finite {name} entries ({non_finite} of {arr.size})")
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
