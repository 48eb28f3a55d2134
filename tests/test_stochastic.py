"""Deterministic-equivalent construction, solving, and policy verification."""

import re
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

import scalar_lp
from bspower import lp as lp_mod
from bspower.calibration import DEFAULT_CONFIG, calibration_from_config, default_calibration
from bspower.scenarios import CompositeScenario, ScenarioSpace, parse_scenario_document
from bspower.stochastic import (
    PolicyTable,
    StorageConfig,
    VariableMap,
    _nonanticipativity_groups,
    _structure,
    build_deterministic_equivalent,
    per_scenario_decomposition,
    policy_csv_text,
    solve_policies,
    solve_policy,
    verify_policy,
)
from bspower.units import Horizon
from brute_force_lp import brute_force_solve
from test_reference_digests import WORKLOADS


def single_scenario(price, renewable, consumption, label="only"):
    return ScenarioSpace((CompositeScenario(
        label=label, probability=1.0,
        price=np.asarray(price, dtype=float),
        renewable=np.asarray(renewable, dtype=float),
        consumption=np.asarray(consumption, dtype=float)),))


def random_instance(rng):
    """Random horizon, storage, and scenario space with valid probabilities."""
    T = int(rng.integers(2, 13))
    S = int(rng.integers(1, 7))
    capacity = float(rng.uniform(200, 3000))
    storage = StorageConfig(
        capacity=capacity,
        initial=float(rng.uniform(0, capacity)),
        terminal=float(rng.uniform(0, capacity)),
        self_discharge=float(rng.uniform(0, 0.005)),
        loss_cost_coeff=float(rng.uniform(0, 2e-5)))
    probs = rng.dirichlet(np.ones(S))
    space = ScenarioSpace(tuple(
        CompositeScenario(
            label=f"w{w}", probability=float(probs[w]),
            price=rng.uniform(5, 25, T),
            renewable=rng.uniform(0, 300, T),
            consumption=rng.uniform(0, 400, T))
        for w in range(S)))
    return Horizon(T=T), storage, space


def coupled_instance(rng):
    """Nonanticipativity groups of 1, 2 and 4 scenarios, interleaved.

    Members of a group share period-1 data; afterwards prices turn cheap in
    even members and dear in odd ones, so with an empty battery the
    wait-and-see plan buys ahead in period 1 only in the dear futures and
    the coupling binds in every group with more than one member.
    """
    T = int(rng.integers(3, 8))
    storage = StorageConfig(capacity=float(rng.uniform(500, 2000)), initial=0.0,
                            terminal=0.0, loss_cost_coeff=float(rng.uniform(0, 1e-5)))
    traces = []
    for g, size in enumerate((1, 2, 4)):
        price1, renewable1 = rng.uniform(8, 12), rng.uniform(0, 50)
        consumption1 = rng.uniform(0, 100)
        for k in range(size):
            later = rng.uniform(20, 30, T - 1) if k % 2 else rng.uniform(2, 6, T - 1)
            traces.append((f"g{g}k{k}",
                           np.concatenate([[price1], later]),
                           np.concatenate([[renewable1], rng.uniform(0, 100, T - 1)]),
                           np.concatenate([[consumption1], rng.uniform(100, 300, T - 1)])))
    probs = rng.dirichlet(np.ones(len(traces)))
    space = ScenarioSpace(tuple(
        CompositeScenario(label, float(p), price, renewable, consumption)
        for (label, price, renewable, consumption), p
        in zip((traces[i] for i in rng.permutation(len(traces))), probs)))
    return Horizon(T=T), storage, space


def grouped_instance(rng, S, T, max_group=4):
    """S scenarios in nonanticipativity groups of random sizes 1-max_group.

    Members of a group share period-1 data, and several groups have the
    same size, so the grouped solve batches them.
    """
    storage = StorageConfig(capacity=float(rng.uniform(300, 3000)), initial=100.0,
                            terminal=100.0, self_discharge=float(rng.uniform(0, 0.005)),
                            loss_cost_coeff=float(rng.uniform(0, 2e-5)))
    traces = []
    while len(traces) < S:
        first = rng.uniform(5, 25), rng.uniform(0, 100), rng.uniform(0, 300)
        for _ in range(min(int(rng.integers(1, max_group + 1)), S - len(traces))):
            traces.append([np.concatenate([[v], rng.uniform(lo, hi, T - 1)])
                           for v, (lo, hi) in zip(first, ((5, 25), (0, 300), (0, 400)))])
    probs = rng.dirichlet(np.ones(S))
    space = ScenarioSpace(tuple(
        CompositeScenario(f"w{w}", float(probs[w]), *traces[i])
        for w, i in enumerate(rng.permutation(S))))
    return Horizon(T=T), storage, space


def group_space(space, members):
    """The members' scenarios with their probabilities renormalised to one."""
    mass = sum(space.scenarios[w].probability for w in members)
    return mass, ScenarioSpace(tuple(
        replace(space.scenarios[w], probability=space.scenarios[w].probability / mass)
        for w in members))


def per_group_oracle(horizon, storage, space, nonanticipative, physical_discharge):
    """Each block's program built on its own and solved by the scalar oracle.

    Blocks are single scenarios, except that a nonanticipativity group whose
    members' own optima are not all optimal with one exact first-period
    purchase is solved as one coupled program. Costs add up in order of
    each block's first scenario.
    """
    def solve(members):
        mass, group = group_space(space, members)
        program, vmap = build_deterministic_equivalent(
            horizon, storage, group, nonanticipative, physical_discharge)
        return mass, scalar_lp.scalar_solve(program), vmap

    singles = {w: solve([w]) for w in range(len(space))}
    blocks = []
    for members in _nonanticipativity_groups(space, nonanticipative):
        own = [singles[w][1] for w in members]
        if (all(s.status[0] == "optimal" for s in own)
                and all(s.x[0, 0] == own[0].x[0, 0] for s in own)):
            blocks.extend([w] for w in members)
        else:
            blocks.append(members)
    schedules = np.zeros((3, len(space), horizon.T))
    expected = 0.0
    for members in sorted(blocks):
        mass, solution, vmap = singles[members[0]] if len(members) == 1 else solve(members)
        assert solution.status[0] == "optimal"
        schedules[:, members] = vmap.unpack(solution.x)
        expected += mass * solution.objective[0]
    return schedules, expected


def monolithic_cost(horizon, storage, space, **modes):
    """The oracle: one LP over all scenarios, solved without decomposition."""
    program, _ = build_deterministic_equivalent(horizon, storage, space, **modes)
    solution = lp_mod.solve(program)
    assert solution.status[0] == "optimal"
    return solution.objective[0]


def mixed_instance():
    """Two groups of two plus a lone scenario; only the "split" group binds.

    In the "flat" group period 1 is the dearest period, so each member buys
    exactly its period-1 shortfall whatever comes later. In the "split"
    group one future turns dear and the other cheap, so only the dear one
    would buy ahead.
    """
    consumption = np.array([0.0, 200.0, 0.0])
    scenarios = (
        ("flat-a", 0.2, [30.0, 10.0, 12.0], [50.0, 80.0, 0.0], [120.0, 250.0, 0.0]),
        ("split-spike", 0.3, [10.0, 40.0, 40.0], [0.0, 0.0, 0.0], consumption),
        ("flat-b", 0.1, [30.0, 20.0, 5.0], [50.0, 0.0, 0.0], [120.0, 90.0, 0.0]),
        ("split-dip", 0.25, [10.0, 5.0, 5.0], [0.0, 0.0, 0.0], consumption),
        ("lone", 0.15, [15.0, 25.0, 25.0], [0.0, 0.0, 0.0], consumption),
    )
    space = ScenarioSpace(tuple(
        CompositeScenario(label, p, np.array(price), np.array(renewable),
                          np.array(consumed, dtype=float))
        for label, p, price, renewable, consumed in scenarios))
    storage = StorageConfig(capacity=500.0, initial=0.0, terminal=0.0)
    return Horizon(T=3), storage, space


@lru_cache(maxsize=None)
def default_program():
    cal = default_calibration()
    return cal.horizon, cal.storage, cal.scenario_space(seed=0)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_storage_config_validation():
    with pytest.raises(ValueError):
        StorageConfig(capacity=-1.0, initial=0.0, terminal=0.0)
    with pytest.raises(ValueError):
        StorageConfig(capacity=100.0, initial=150.0, terminal=0.0)
    with pytest.raises(ValueError):
        StorageConfig(capacity=100.0, initial=0.0, terminal=-5.0)
    with pytest.raises(ValueError):
        StorageConfig(capacity=100.0, initial=0.0, terminal=0.0, self_discharge=1.0)
    with pytest.raises(ValueError):
        StorageConfig(capacity=100.0, initial=0.0, terminal=0.0, loss_cost_coeff=-1.0)


def test_variable_map_roundtrip():
    vmap = VariableMap(T=4, scenario_labels=("a", "b", "c"))
    n = 3 * 3 * 4
    parts = vmap.unpack(np.arange(n))
    assert all(part.shape == (3, 4) for part in parts)
    # every column appears exactly once
    assert sorted(np.concatenate([part.ravel() for part in parts])) == list(range(n))


def test_program_dimensions():
    horizon = Horizon(T=5)
    storage = StorageConfig(capacity=100.0, initial=10.0, terminal=10.0)
    rng = np.random.default_rng(0)
    space = ScenarioSpace(tuple(
        CompositeScenario(f"w{w}", 0.25, rng.uniform(5, 20, 5),
                          rng.uniform(0, 50, 5), rng.uniform(0, 80, 5))
        for w in range(4)))
    program, vmap = build_deterministic_equivalent(horizon, storage, space)
    assert program.n_vars == 3 * 5 * 4
    # one balance row per transition per scenario
    assert program.a_eq.shape == (4 * 4, program.n_vars)
    # battery endpoints enter as pinned bounds, not rows
    _, battery, _ = vmap.unpack(np.arange(program.n_vars))
    s1 = battery[2, 0]
    assert program.lower[s1] == program.upper[s1] == 10.0


def test_invalid_space_is_rejected_up_front(solver_calls):
    # a space checks itself when built; the program compares its trace
    # length with T before any solve
    horizon = Horizon(T=3)
    storage = StorageConfig(capacity=10.0, initial=0.0, terminal=0.0)
    with pytest.raises(ValueError, match="mass"):
        ScenarioSpace((CompositeScenario("w", 0.5, np.ones(3), np.ones(3), np.ones(3)),))
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match=r"scenarios\[0\]\.price: only: non-finite"):
            single_scenario(price=[10.0, value, 10.0], renewable=np.zeros(3),
                            consumption=np.ones(3))
    short = single_scenario(np.ones(2), np.zeros(2), np.ones(2))
    for solve in (solve_policy, per_scenario_decomposition, build_deterministic_equivalent):
        with pytest.raises(ValueError, match=re.escape("scenarios: trace length 2 != T=3")):
            solve(horizon, storage, short)
    assert solver_calls.batches == []


# ---------------------------------------------------------------------------
# hand-checkable optima
# ---------------------------------------------------------------------------

def test_two_period_shortfall_is_purchased():
    # deficit of 200 Wh in period 1 and fixed endpoints leave no choice
    horizon = Horizon(T=2)
    storage = StorageConfig(capacity=2000.0, initial=500.0, terminal=500.0)
    space = single_scenario(price=[10.0, 99.0], renewable=[100.0, 0.0],
                            consumption=[300.0, 0.0])
    policy = solve_policy(horizon, storage, space)
    np.testing.assert_allclose(policy.purchase[0], [200.0, 0.0], atol=1e-7)
    np.testing.assert_allclose(policy.battery[0], [500.0, 500.0], atol=1e-7)
    np.testing.assert_allclose(policy.excess[0], [0.0, 0.0], atol=1e-7)
    assert policy.expected_cost == pytest.approx(200.0 * 10.0 / 1000.0, abs=1e-9)


def test_storage_arbitrage_buys_ahead_of_price_rise():
    # 100 Wh needed at 10 cents now, 300 Wh needed when the price is 30;
    # charging 300 Wh early costs 4.0 cents total instead of 10.0
    horizon = Horizon(T=3)
    storage = StorageConfig(capacity=1000.0, initial=0.0, terminal=0.0)
    space = single_scenario(price=[10.0, 30.0, 99.0],
                            renewable=[0.0, 0.0, 0.0],
                            consumption=[100.0, 300.0, 0.0])
    policy = solve_policy(horizon, storage, space)
    assert policy.expected_cost == pytest.approx(4.0, abs=1e-9)
    np.testing.assert_allclose(policy.purchase[0], [400.0, 0.0, 0.0], atol=1e-7)
    np.testing.assert_allclose(policy.battery[0], [0.0, 300.0, 0.0], atol=1e-7)


def test_capacity_limits_how_much_can_be_bought_ahead():
    # same price rise as above, but only 150 Wh of headroom: the expensive
    # period must cover the remaining 300 - 150 = 150 Wh at 30 cents/kWh
    horizon = Horizon(T=3)
    storage = StorageConfig(capacity=150.0, initial=0.0, terminal=0.0)
    space = single_scenario(price=[10.0, 30.0, 99.0],
                            renewable=[0.0, 0.0, 0.0],
                            consumption=[100.0, 300.0, 0.0])
    policy = solve_policy(horizon, storage, space)
    assert policy.expected_cost == pytest.approx(7.0, abs=1e-9)
    np.testing.assert_allclose(policy.purchase[0], [250.0, 150.0, 0.0], atol=1e-7)
    np.testing.assert_allclose(policy.battery[0], [0.0, 150.0, 0.0], atol=1e-7)


def test_idle_station_with_matched_endpoints_costs_nothing():
    horizon = Horizon(T=6)
    storage = StorageConfig(capacity=1000.0, initial=500.0, terminal=500.0)
    space = single_scenario(price=np.full(6, 12.0), renewable=np.zeros(6),
                            consumption=np.zeros(6))
    policy = solve_policy(horizon, storage, space)
    assert policy.expected_cost == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(policy.purchase[0], np.zeros(6), atol=1e-7)
    np.testing.assert_allclose(policy.excess[0], np.zeros(6), atol=1e-7)
    np.testing.assert_allclose(policy.battery[0], np.full(6, 500.0), atol=1e-7)


def test_surplus_renewable_is_dumped_without_cost():
    horizon = Horizon(T=2)
    storage = StorageConfig(capacity=500.0, initial=500.0, terminal=500.0)
    space = single_scenario(price=[10.0, 10.0], renewable=[400.0, 0.0],
                            consumption=[100.0, 0.0])
    policy = solve_policy(horizon, storage, space)
    assert policy.expected_cost == pytest.approx(0.0, abs=1e-9)
    # battery is already full, so the extra 300 Wh must be dumped
    np.testing.assert_allclose(policy.excess[0, 0], 300.0, atol=1e-7)


def test_flat_price_cost_is_total_consumption_times_price():
    # with a flat tariff, no renewables, free storage, and equal endpoint
    # levels, every feasible plan pays for exactly the consumed energy
    rng = np.random.default_rng(21)
    for _ in range(10):
        T = int(rng.integers(3, 20))
        p = float(rng.uniform(5, 30))
        consumption = rng.uniform(0, 400, T)
        consumption[-1] = 0.0  # nothing scheduled after the last balance
        level = float(rng.uniform(0, 700))
        storage = StorageConfig(capacity=1400.0, initial=level, terminal=level)
        space = single_scenario(np.full(T, p), np.zeros(T), consumption)
        policy = solve_policy(Horizon(T=T), storage, space)
        want = consumption.sum() * p / 1000.0
        assert policy.expected_cost == pytest.approx(want, rel=1e-11)


def test_expected_cost_weights_scenarios_by_probability():
    horizon = Horizon(T=2)
    storage = StorageConfig(capacity=1000.0, initial=0.0, terminal=0.0)
    cheap = CompositeScenario("cheap", 0.25, np.array([10.0, 10.0]),
                              np.zeros(2), np.array([100.0, 0.0]))
    dear = CompositeScenario("dear", 0.75, np.array([40.0, 40.0]),
                             np.zeros(2), np.array([100.0, 0.0]))
    policy = solve_policy(horizon, storage, ScenarioSpace((cheap, dear)))
    want = 0.25 * 1.0 + 0.75 * 4.0
    assert policy.expected_cost == pytest.approx(want, abs=1e-9)


def test_physical_discharge_buys_back_decay_losses():
    # 1000 Wh held one period at 10% decay leaves 900 Wh; covering 950 Wh of
    # consumption then needs a 50 Wh purchase, while the accounting-only
    # mode sees the full 1000 Wh and dumps the excess instead
    horizon = Horizon(T=2)
    storage = StorageConfig(capacity=1000.0, initial=1000.0, terminal=0.0,
                            self_discharge=0.1)
    space = single_scenario(price=[8.0, 8.0], renewable=[0.0, 0.0],
                            consumption=[950.0, 0.0])
    physical = solve_policy(horizon, storage, space, physical_discharge=True)
    assert physical.expected_cost == pytest.approx(50.0 * 8.0 / 1000.0, abs=1e-9)
    np.testing.assert_allclose(physical.purchase[0], [50.0, 0.0], atol=1e-7)

    booked = solve_policy(horizon, storage, space, physical_discharge=False)
    assert booked.expected_cost == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(booked.excess[0], [50.0, 0.0], atol=1e-7)


def test_holding_cost_penalizes_stored_energy():
    # flat price, nothing to do; the only cost is the per-period holding
    # penalty on the pinned endpoint levels
    horizon = Horizon(T=3)
    coeff = 2e-3
    storage = StorageConfig(capacity=1000.0, initial=400.0, terminal=400.0,
                            loss_cost_coeff=coeff)
    space = single_scenario(np.full(3, 10.0), np.full(3, 50.0), np.full(3, 50.0))
    policy = solve_policy(horizon, storage, space)
    # s = 400 at t=1 and t=3 is forced; t=2 is free and drains to 0 between
    # balances, but balance only allows s_2 = s_1 since x,y >= 0 cost money
    assert policy.expected_cost == pytest.approx(coeff * 1200.0, abs=1e-9)
    np.testing.assert_allclose(policy.battery[0], [400.0, 400.0, 400.0], atol=1e-6)


# ---------------------------------------------------------------------------
# oracle equivalences
# ---------------------------------------------------------------------------

def test_small_programs_match_vertex_enumeration():
    # the assembled program itself is fed to the brute-force LP oracle
    rng = np.random.default_rng(77)
    for _ in range(15):
        T, S = int(rng.integers(2, 4)), 1 if rng.random() < 0.7 else 2
        if T * S * 3 > 12:
            T, S = 2, 2
        capacity = float(rng.uniform(100, 800))
        storage = StorageConfig(
            capacity=capacity,
            initial=float(rng.uniform(0, capacity)),
            terminal=float(rng.uniform(0, capacity)),
            loss_cost_coeff=float(rng.uniform(0, 1e-4)))
        probs = rng.dirichlet(np.ones(S))
        space = ScenarioSpace(tuple(
            CompositeScenario(f"w{w}", float(probs[w]), rng.uniform(5, 25, T),
                              rng.uniform(0, 200, T), rng.uniform(0, 300, T))
            for w in range(S)))
        program, _ = build_deterministic_equivalent(Horizon(T=T), storage, space)
        fast = lp_mod.solve(program)
        slow = brute_force_solve(program)
        assert fast.status[0] == slow.status[0] == "optimal"
        assert fast.objective[0] == pytest.approx(slow.objective[0], abs=1e-8)


def test_decomposition_matches_full_program():
    rng = np.random.default_rng(1234)
    for k in range(25):
        horizon, storage, space = random_instance(rng)
        physical = bool(rng.integers(0, 2))
        full = monolithic_cost(horizon, storage, space, physical_discharge=physical)
        split = solve_policy(horizon, storage, space, physical_discharge=physical)
        denom = max(abs(full), 1e-9)
        assert abs(full - split.expected_cost) / denom < 1e-8, k
        assert verify_policy(split, horizon, space) == []


def test_decomposition_of_single_scenario_is_the_plain_solve():
    horizon = Horizon(T=5)
    storage = StorageConfig(capacity=800.0, initial=200.0, terminal=200.0)
    rng = np.random.default_rng(7)
    space = single_scenario(price=rng.uniform(5, 25, 5),
                            renewable=rng.uniform(0, 200, 5),
                            consumption=rng.uniform(0, 300, 5))
    program, vmap = build_deterministic_equivalent(horizon, storage, space)
    full = lp_mod.solve(program)
    purchase, battery, excess = vmap.unpack(full.x)
    split = solve_policy(horizon, storage, space)
    assert split.expected_cost == pytest.approx(full.objective[0], rel=1e-10)
    np.testing.assert_allclose(split.purchase, purchase, atol=1e-6)
    np.testing.assert_allclose(split.battery, battery, atol=1e-6)
    np.testing.assert_allclose(split.excess, excess, atol=1e-6)


def test_grouped_solve_matches_full_program_when_coupling_binds():
    rng = np.random.default_rng(2718)
    for k in range(10):
        horizon, storage, space = coupled_instance(rng)
        na = solve_policy(horizon, storage, space, nonanticipative=True)
        full = monolithic_cost(horizon, storage, space, nonanticipative=True)
        assert abs(na.expected_cost - full) / abs(full) < 1e-8, k
        for group in ("g0", "g1", "g2"):
            first = [na.purchase[w, 0] for w, label in enumerate(space.labels)
                     if label.startswith(group)]
            assert max(first) - min(first) < 1e-7, (k, group)
        assert verify_policy(na, horizon, space) == []
        ws = solve_policy(horizon, storage, space)
        assert na.expected_cost > ws.expected_cost * (1 + 1e-6), k


def test_batched_groups_equal_per_group_solves_bit_for_bit():
    rng = np.random.default_rng(99)
    for k in range(16):
        if k % 4 == 0:
            horizon, storage, space = random_instance(rng)
        elif k % 4 == 1:
            horizon, storage, space = coupled_instance(rng)
        else:
            # groups of up to 12 make the group masses sums of many terms
            horizon, storage, space = grouped_instance(rng, int(rng.integers(5, 30)),
                                                       int(rng.integers(2, 10)),
                                                       max_group=int(rng.integers(2, 13)))
        nonanticipative, physical = bool(k % 2), bool(rng.integers(0, 2))
        policy = solve_policy(horizon, storage, space, nonanticipative, physical)
        schedules, expected = per_group_oracle(horizon, storage, space,
                                               nonanticipative, physical)
        assert np.array_equal(policy.purchase, schedules[0]), k
        assert np.array_equal(policy.battery, schedules[1]), k
        assert np.array_equal(policy.excess, schedules[2]), k
        assert policy.expected_cost == expected, k


@pytest.mark.parametrize("S", [20, 45, 80])
def test_random_programs_up_to_80_scenarios_match_highs(S):
    pytest.importorskip("scipy")
    from scipy.optimize import linprog
    from scipy.sparse import csr_array

    rng = np.random.default_rng(S)
    horizon, storage, space = grouped_instance(rng, S, T=8)
    for modes in ({}, {"nonanticipative": True, "physical_discharge": True}):
        program, _ = build_deterministic_equivalent(horizon, storage, space, **modes)
        # as for the default program: unit-max costs and tight tolerances
        scale = 1.0 / np.abs(program.c).max()
        res = linprog(program.c * scale, A_eq=csr_array(program.a_eq), b_eq=program.b_eq,
                      bounds=np.column_stack([program.lower, program.upper]),
                      method="highs",
                      options={"dual_feasibility_tolerance": 1e-10,
                               "primal_feasibility_tolerance": 1e-10})
        assert res.status == 0, res.message
        policy = solve_policy(horizon, storage, space, **modes)
        assert policy.expected_cost == pytest.approx(res.fun / scale, rel=1e-9), modes
        assert verify_policy(policy, horizon, space) == []


@pytest.mark.parametrize("modes", [{}, {"nonanticipative": True},
                                   {"physical_discharge": True}],
                         ids=["plain", "nonanticipative", "physical-discharge"])
def test_default_program_matches_highs(modes):
    pytest.importorskip("scipy")
    from scipy.optimize import linprog

    horizon, storage, space = default_program()
    program, _ = build_deterministic_equivalent(horizon, storage, space, **modes)
    # rare scenarios' weighted costs sit below HiGHS's default 1e-7 dual
    # tolerance, so costs are scaled to unit max and tolerances tightened
    scale = 1.0 / np.abs(program.c).max()
    res = linprog(program.c * scale, A_eq=program.a_eq, b_eq=program.b_eq,
                  bounds=np.column_stack([program.lower, program.upper]),
                  method="highs",
                  options={"dual_feasibility_tolerance": 1e-10,
                           "primal_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    policy = solve_policy(horizon, storage, space, **modes)
    assert policy.expected_cost == pytest.approx(res.fun / scale, rel=1e-9)
    assert verify_policy(policy, horizon, space) == []


def test_nonanticipativity_couples_first_period_purchase():
    # both futures look identical in period 1, then prices diverge; the
    # here-and-now purchase must be common and costs more than wait-and-see
    horizon = Horizon(T=3)
    storage = StorageConfig(capacity=500.0, initial=0.0, terminal=0.0)
    consumption = np.array([0.0, 200.0, 0.0])
    spike = CompositeScenario("spike", 0.5, np.array([10.0, 40.0, 40.0]),
                              np.zeros(3), consumption)
    dip = CompositeScenario("dip", 0.5, np.array([10.0, 5.0, 5.0]),
                            np.zeros(3), consumption)
    space = ScenarioSpace((spike, dip))

    ws = solve_policy(horizon, storage, space)
    assert ws.expected_cost == pytest.approx(1.5, abs=1e-9)
    assert abs(ws.purchase[0, 0] - ws.purchase[1, 0]) > 100.0

    na = solve_policy(horizon, storage, space, nonanticipative=True)
    assert na.purchase[0, 0] == pytest.approx(na.purchase[1, 0], abs=1e-7)
    assert na.expected_cost == pytest.approx(2.0, abs=1e-9)
    assert verify_policy(na, horizon, space) == []


@pytest.mark.parametrize("capacity", [2000.0, 500.0, 0.0])
@pytest.mark.parametrize("keep", [1.0, 0.999])
def test_every_block_has_full_row_rank_on_its_free_columns(capacity, keep):
    # every balance row has its own excess column and the coupling rows hold
    # only first-period purchases, none of them fixed, so the simplex never
    # meets a redundant row in a program the package builds
    storage = StorageConfig(capacity=capacity, initial=capacity / 2, terminal=capacity / 4)
    for size in (1, 2, 4, 12):
        for coupled in ([[w] for w in range(size)], [range(size)]):
            a_eq, lower, upper = _structure(storage, size, 24, keep, coupled)
            assert np.linalg.matrix_rank(a_eq[:, lower != upper]) == len(a_eq), (size, coupled)


def test_default_nonanticipative_plan_is_certified_from_one_batch(solver_calls):
    horizon, storage, space = default_program()
    na = solve_policy(horizon, storage, space, nonanticipative=True)
    assert solver_calls.shapes() == [(3 * horizon.T, 20)]
    ws = solve_policy(horizon, storage, space)
    assert np.array_equal(na.purchase, ws.purchase)
    assert np.array_equal(na.battery, ws.battery)
    assert np.array_equal(na.excess, ws.excess)
    assert na.expected_cost == ws.expected_cost
    assert na.nonanticipative and not ws.nonanticipative
    assert verify_policy(na, horizon, space) == []


def test_coupled_solve_runs_only_for_groups_that_bind(solver_calls):
    rng = np.random.default_rng(2718)
    for k in range(10):
        horizon, storage, space = coupled_instance(rng)
        solver_calls.clear()
        solve_policy(horizon, storage, space, nonanticipative=True)
        n = 3 * horizon.T
        assert solver_calls.shapes()[0] == (n, 7), k
        assert sorted(solver_calls.shapes()[1:]) == [(2 * n, 1), (4 * n, 1)], k


def test_certified_and_binding_groups_in_one_space(solver_calls):
    horizon, storage, space = mixed_instance()
    na = solve_policy(horizon, storage, space, nonanticipative=True)
    n = 3 * horizon.T
    assert solver_calls.shapes() == [(n, 5), (2 * n, 1)]
    schedules, expected = per_group_oracle(horizon, storage, space, True, False)
    assert np.array_equal(na.purchase, schedules[0])
    assert np.array_equal(na.battery, schedules[1])
    assert np.array_equal(na.excess, schedules[2])
    assert na.expected_cost == expected
    ws = solve_policy(horizon, storage, space)
    for label in ("flat-a", "flat-b", "lone"):
        w = space.labels.index(label)
        assert np.array_equal(na.purchase[w], ws.purchase[w]), label
    spike, dip = space.labels.index("split-spike"), space.labels.index("split-dip")
    assert ws.purchase[spike, 0] != ws.purchase[dip, 0]
    assert abs(na.purchase[spike, 0] - na.purchase[dip, 0]) < 1e-7
    full = monolithic_cost(horizon, storage, space, nonanticipative=True)
    assert na.expected_cost == pytest.approx(full, rel=1e-9)
    assert na.expected_cost > ws.expected_cost
    assert verify_policy(na, horizon, space) == []


@pytest.mark.parametrize("nonanticipative", [False, True])
def test_batched_programs_are_the_groups_own_programs_byte_for_byte(solver_calls,
                                                                    nonanticipative):
    horizon, storage, space = mixed_instance()
    solve_policy(horizon, storage, space, nonanticipative=nonanticipative)
    calls = [(call.a_eq, call.lower, call.c[call.rows[:, 0]], call.b_eq[call.rows[:, 1]],
              call.upper[call.rows[:, 2]]) for call in solver_calls.batches]
    # the wait-and-see batch of singletons, then the one group that binds
    expected = [[[w] for w in range(len(space))]]
    if nonanticipative:
        expected.append([[space.labels.index("split-spike"),
                          space.labels.index("split-dip")]])
    assert len(calls) == len(expected)
    for (a_eq, lower, c, b_eq, upper), groups in zip(calls, expected):
        assert len(c) == len(b_eq) == len(upper) == len(groups)
        for k, members in enumerate(groups):
            own, _ = build_deterministic_equivalent(
                horizon, storage, group_space(space, members)[1], nonanticipative)
            for got, want in ((a_eq, own.a_eq), (lower, own.lower),
                              (upper[k], own.upper), (c[k], own.c),
                              (b_eq[k], own.b_eq)):
                assert got.dtype == want.dtype and got.shape == want.shape, members
                assert got.tobytes() == want.tobytes(), members


def test_first_purchases_a_hair_apart_are_not_certified(solver_calls):
    # the dear future buys its 1e-7 Wh ahead, the cheap one does not; the
    # certificate compares exactly, so the group still goes to the coupled solve
    horizon = Horizon(T=3)
    storage = StorageConfig(capacity=500.0, initial=0.0, terminal=0.0)
    consumption = np.array([0.0, 1e-7, 0.0])
    space = ScenarioSpace(tuple(
        CompositeScenario(label, 0.5, np.array([10.0, later, later]), np.zeros(3),
                          consumption)
        for label, later in (("spike", 40.0), ("dip", 5.0))))
    ws = solve_policy(horizon, storage, space)
    assert 0 < ws.purchase[0, 0] - ws.purchase[1, 0] < 1e-6
    solver_calls.clear()
    na = solve_policy(horizon, storage, space, nonanticipative=True)
    assert solver_calls.shapes() == [(9, 2), (18, 1)]
    assert na.purchase[0, 0] == na.purchase[1, 0]


def test_non_optimal_singleton_sends_its_group_to_the_coupled_solve(monkeypatch,
                                                                   solver_calls):
    horizon, storage, space = mixed_instance()
    spied = lp_mod.solve_batch
    flat_b = space.labels.index("flat-b")

    def flat_b_alone_not_optimal(a_eq, lower, *tables):
        result = spied(a_eq, lower, *tables)
        if lower.size == 3 * horizon.T:
            result.status[flat_b] = "unbounded"
        return result

    monkeypatch.setattr(lp_mod, "solve_batch", flat_b_alone_not_optimal)
    na = solve_policy(horizon, storage, space, nonanticipative=True)
    n = 3 * horizon.T
    assert solver_calls.shapes() == [(n, 5), (2 * n, 2)]
    full = monolithic_cost(horizon, storage, space, nonanticipative=True)
    assert na.expected_cost == pytest.approx(full, rel=1e-9)
    assert verify_policy(na, horizon, space) == []


def test_infeasible_group_names_its_first_scenario(monkeypatch):
    horizon = Horizon(T=3)
    storage = StorageConfig(capacity=500.0, initial=0.0, terminal=0.0)
    space = ScenarioSpace(tuple(
        CompositeScenario(label, 0.5, np.array([10.0, later, later]), np.zeros(3),
                          np.array([0.0, 200.0, 0.0]))
        for label, later in (("spike", 40.0), ("dip", 5.0))))
    def all_infeasible(a_eq, lower, c, b_eq, upper, rows):
        K = len(rows)
        return lp_mod.LpResult(np.full(K, "infeasible"), np.full((K, lower.size), np.nan),
                               np.full(K, np.nan), np.zeros(K, int), np.zeros(K, bool))

    monkeypatch.setattr(lp_mod, "solve_batch", all_infeasible)
    with pytest.raises(RuntimeError, match=r"group of 'spike' solved infeasible"):
        solve_policy(horizon, storage, space, nonanticipative=True)


def test_nonanticipativity_only_binds_identical_period_one_data():
    # period-1 prices differ, so the scenarios are distinguishable up front
    # and the coupling adds no constraint
    horizon = Horizon(T=3)
    storage = StorageConfig(capacity=500.0, initial=0.0, terminal=0.0)
    consumption = np.array([0.0, 200.0, 0.0])
    spike = CompositeScenario("spike", 0.5, np.array([10.0, 40.0, 40.0]),
                              np.zeros(3), consumption)
    dip = CompositeScenario("dip", 0.5, np.array([11.0, 5.0, 5.0]),
                            np.zeros(3), consumption)
    space = ScenarioSpace((spike, dip))
    ws = solve_policy(horizon, storage, space)
    na = solve_policy(horizon, storage, space, nonanticipative=True)
    assert na.expected_cost == pytest.approx(ws.expected_cost, rel=1e-11)


def test_wait_and_see_never_costs_more_than_nonanticipative():
    rng = np.random.default_rng(4242)
    for _ in range(8):
        horizon, storage, space = random_instance(rng)
        ws = solve_policy(horizon, storage, space)
        na = solve_policy(horizon, storage, space, nonanticipative=True)
        assert ws.expected_cost <= na.expected_cost + 1e-7


# ---------------------------------------------------------------------------
# comparative statics
# ---------------------------------------------------------------------------

def test_cost_non_increasing_in_capacity():
    rng = np.random.default_rng(8)
    horizon, storage, space = random_instance(rng)
    small = StorageConfig(capacity=500.0, initial=250.0, terminal=250.0,
                          loss_cost_coeff=storage.loss_cost_coeff)
    costs = []
    for cap in (500.0, 1000.0, 2000.0, 4000.0):
        cfg = StorageConfig(capacity=cap, initial=small.initial,
                            terminal=small.terminal,
                            loss_cost_coeff=small.loss_cost_coeff)
        costs.append(solve_policy(horizon, cfg, space).expected_cost)
    assert all(b <= a + 1e-7 for a, b in zip(costs, costs[1:])), costs


def test_cost_non_increasing_in_renewable_supply():
    rng = np.random.default_rng(9)
    horizon, storage, space = random_instance(rng)
    doubled = ScenarioSpace(tuple(
        CompositeScenario(s.label, s.probability, s.price, 2.0 * s.renewable,
                          s.consumption)
        for s in space.scenarios))
    base = solve_policy(horizon, storage, space).expected_cost
    more = solve_policy(horizon, storage, doubled).expected_cost
    assert more <= base + 1e-7


def test_cost_scales_linearly_with_price():
    rng = np.random.default_rng(10)
    T = 6
    storage = StorageConfig(capacity=900.0, initial=100.0, terminal=100.0)
    space = single_scenario(rng.uniform(5, 25, T), rng.uniform(0, 100, T),
                            rng.uniform(50, 300, T))
    tripled = ScenarioSpace((CompositeScenario(
        "only", 1.0, 3.0 * space.scenarios[0].price,
        space.scenarios[0].renewable, space.scenarios[0].consumption),))
    base = solve_policy(Horizon(T=T), storage, space).expected_cost
    threx = solve_policy(Horizon(T=T), storage, tripled).expected_cost
    assert threx == pytest.approx(3.0 * base, rel=1e-10)


@lru_cache(maxsize=None)
def planner_instance(name):
    """The horizon, battery and seed-0 space of the default calibration or
    of the benchmark's seed-0 80-scenario file."""
    cal = (default_calibration() if name == "default" else calibration_from_config(
        DEFAULT_CONFIG, parse_scenario_document(WORKLOADS.storage_document(0))))
    return cal.horizon, cal.storage, cal.scenario_space(0)


@pytest.mark.parametrize("physical_discharge", [False, True], ids=("book", "physical"))
@pytest.mark.parametrize("nonanticipative", [False, True], ids=("free", "nonanticipative"))
@pytest.mark.parametrize("instance", ["default", "storage-80"])
def test_scaling_prices_by_a_power_of_two_scales_only_the_cost(instance, nonanticipative,
                                                               physical_discharge):
    # 2^k times a float is exact, so every cost and every reduced cost
    # priced from them scales exactly; the schedules may not move at all
    horizon, storage, space = planner_instance(instance)
    factors = [2.0 ** k for k in (-3, -1, 1, 4)]
    cells = [(replace(storage, loss_cost_coeff=f * storage.loss_cost_coeff),
              ScenarioSpace(tuple(CompositeScenario(s.label, s.probability, f * s.price,
                                                    s.renewable, s.consumption)
                                  for s in space.scenarios)))
             for f in [1.0, *factors]]
    base, *scaled = solve_policies(horizon, cells, nonanticipative=nonanticipative,
                                   physical_discharge=physical_discharge)
    for f, policy in zip(factors, scaled):
        for field in ("purchase", "battery", "excess"):
            assert np.array_equal(getattr(policy, field), getattr(base, field)), (f, field)
        assert policy.expected_cost == f * base.expected_cost, f


@pytest.mark.parametrize("physical_discharge", [False, True], ids=("book", "physical"))
@pytest.mark.parametrize("nonanticipative", [False, True], ids=("free", "nonanticipative"))
@pytest.mark.parametrize("instance", ["default", "storage-80"])
def test_cost_is_non_increasing_and_convex_in_capacity_and_renewable(instance, nonanticipative,
                                                                     physical_discharge):
    # capacity is an upper bound and renewable enters only the rhs, with
    # the excess free, so each only widens the feasible set; an LP's value
    # is convex in its bounds and rhs. At or above the endpoint levels
    # every capacity is feasible
    horizon, storage, space = planner_instance(instance)
    capacities = np.linspace(max(storage.initial, storage.terminal), 1.5 * storage.capacity, 9)
    scalings = np.linspace(0.5, 2.5, 5)
    cells = [(replace(storage, capacity=cap),
              ScenarioSpace(tuple(CompositeScenario(s.label, s.probability, s.price,
                                                    k * s.renewable, s.consumption)
                                  for s in space.scenarios)))
             for cap in capacities for k in scalings]
    policies = solve_policies(horizon, cells, nonanticipative=nonanticipative,
                              physical_discharge=physical_discharge)
    cost = np.array([p.expected_cost for p in policies]).reshape(capacities.size, scalings.size)
    tol = 1e-9 * np.abs(cost).max()
    for axis, name in ((0, "capacity"), (1, "renewable")):
        # both grids are evenly spaced, so convexity is a nonnegative second difference
        assert (np.diff(cost, axis=axis) <= tol).all(), name
        assert (np.diff(cost, 2, axis=axis) >= -tol).all(), name


@pytest.mark.parametrize("physical_discharge", [False, True], ids=("book", "physical"))
@pytest.mark.parametrize("nonanticipative", [False, True], ids=("free", "nonanticipative"))
@pytest.mark.parametrize("instance", ["default", "storage-80"])
def test_permuting_the_scenarios_permutes_every_schedule(instance, nonanticipative,
                                                         physical_discharge):
    # each scenario's (or group's) program does not depend on where its
    # scenarios sit in the space; only the expected cost, summed in
    # scenario order, may round differently
    horizon, storage, space = planner_instance(instance)
    order = np.random.default_rng(0).permutation(len(space))
    shuffled = ScenarioSpace(tuple(space.scenarios[w] for w in order))
    base, permuted = solve_policies(horizon, [(storage, space), (storage, shuffled)],
                                    nonanticipative=nonanticipative,
                                    physical_discharge=physical_discharge)
    assert permuted.scenario_labels == tuple(base.scenario_labels[w] for w in order)
    for field in ("purchase", "battery", "excess"):
        assert np.array_equal(getattr(permuted, field), getattr(base, field)[order]), field
    assert abs(permuted.expected_cost - base.expected_cost) <= 1e-15 * abs(base.expected_cost)


# ---------------------------------------------------------------------------
# verification and export
# ---------------------------------------------------------------------------

def test_verified_policy_catches_tampering():
    rng = np.random.default_rng(3)
    horizon, storage, space = random_instance(rng)
    policy = solve_policy(horizon, storage, space)
    assert verify_policy(policy, horizon, space) == []

    def tampered(**changes):
        fields = dict(
            scenario_labels=policy.scenario_labels,
            probabilities=policy.probabilities,
            purchase=policy.purchase.copy(),
            battery=policy.battery.copy(),
            excess=policy.excess.copy(),
            expected_cost=policy.expected_cost,
            storage=policy.storage)
        fields.update(changes)
        return PolicyTable(**fields)

    neg = policy.purchase.copy()
    neg[0, 0] = -5.0
    assert any("negative purchase" in p
               for p in verify_policy(tampered(purchase=neg), horizon, space))

    over = policy.battery.copy()
    over[0, 1] = storage.capacity + 10.0
    problems = verify_policy(tampered(battery=over), horizon, space)
    assert any("capacity" in p or "balance" in p for p in problems)

    drift = policy.battery.copy()
    drift[0, -1] = storage.terminal + 5.0
    assert any("terminal" in p
               for p in verify_policy(tampered(battery=drift), horizon, space))

    unbalanced = policy.purchase.copy()
    unbalanced[-1, 0] += 7.0
    assert any("balance residual" in p
               for p in verify_policy(tampered(purchase=unbalanced), horizon, space))

    short = verify_policy(tampered(purchase=policy.purchase[:, :-1]),
                          horizon, space)
    assert short and "shapes" in short[0]

    # a nonanticipative policy must also keep one first purchase per group
    horizon, storage, space = coupled_instance(rng)
    na = solve_policy(horizon, storage, space, nonanticipative=True)
    assert verify_policy(na, horizon, space) == []
    w = next(members[-1] for members in _nonanticipativity_groups(space, True)
             if len(members) > 1)
    nudged = na.purchase.copy()
    nudged[w, 0] += 1e-3
    problems = verify_policy(replace(na, purchase=nudged), horizon, space)
    assert any("first-period purchases" in p for p in problems)
    problems = verify_policy(replace(na, purchase=nudged, nonanticipative=False),
                             horizon, space)
    assert problems and not any("first-period purchases" in p for p in problems)


def test_verify_policy_reports_every_violation_in_a_fixed_order():
    # the checks over whole arrays come first, then each failing scenario in
    # order with its initial, terminal and worst balance findings, then the
    # first-period spread of each nonanticipativity group
    horizon, storage, space = mixed_instance()
    policy = solve_policy(horizon, storage, space, nonanticipative=True)
    assert verify_policy(policy, horizon, space) == []
    purchase, battery, excess = policy.purchase.copy(), policy.battery.copy(), policy.excess.copy()
    purchase[1, 2] = -2.0
    excess[3, 0] = -1.0
    battery[0, 0] = 3.0
    battery[0, 2] = 50.0
    battery[2, 2] = 600.0
    purchase[space.labels.index("split-dip"), 0] += 0.5
    tampered = replace(policy, purchase=purchase, battery=battery, excess=excess)
    assert verify_policy(tampered, horizon, space) == [
        "negative purchase entries (min -2.000e+00)",
        "negative excess entries (min -1.000e+00)",
        "battery exceeds capacity 500.0 (max 600.000000)",
        "flat-a: initial level 3.000000 != 0.0",
        "flat-a: terminal level 50.000000 != 0.0",
        "flat-a: balance residual 5.000e+01 at period 2",
        "flat-b: terminal level 600.000000 != 0.0",
        "flat-b: balance residual 6.000e+02 at period 2",
        "split-dip: balance residual 1.500e+00 at period 1",
        "split-spike: first-period purchases of its group spread 5.000e-01",
    ]


def test_policy_csv_layout():
    horizon = Horizon(T=2)
    storage = StorageConfig(capacity=2000.0, initial=500.0, terminal=500.0)
    space = single_scenario([10.0, 99.0], [100.0, 0.0], [300.0, 0.0])
    text = policy_csv_text(solve_policy(horizon, storage, space))
    lines = text.splitlines()
    assert lines[0] == "scenario_label,t,x_wh,s_wh,y_wh"
    assert len(lines) == 1 + 2  # header plus one row per period
    assert lines[1] == "only,1,200.000000,500.000000,0.000000"
    assert lines[2] == "only,2,0.000000,500.000000,0.000000"

