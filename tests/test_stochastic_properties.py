"""Invariants of solved policies on random scenario spaces, in both modes."""

from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bspower.evaluate import baseline_policy, evaluate_policy  # noqa: E402
from bspower.scenarios import CompositeScenario, ScenarioSpace  # noqa: E402
from bspower.stochastic import (  # noqa: E402
    StorageConfig,
    _nonanticipativity_groups,
    solve_policies,
    solve_policy,
    verify_policy,
)
from bspower.units import Horizon  # noqa: E402

SETTINGS = settings(max_examples=40, deadline=None, database=None, print_blob=True)
# whole-number traces make ties, and so exactly equal first purchases, common
prices = st.integers(1, 40).map(float)
supplies = st.integers(0, 300).map(float)
demands = st.integers(0, 400).map(float)


@st.composite
def instances(draw, endpoints_equal=False):
    """Horizon, storage and a space of nonanticipativity groups of 1-3 scenarios.

    Members of a group share period-1 data; a member's later traces are
    sometimes a copy of an earlier member's, so some groups agree on the
    first purchase and some do not.
    """
    T = draw(st.integers(2, 6))
    capacity = float(draw(st.integers(0, 2000)))
    initial = draw(st.floats(0.0, capacity))
    storage = StorageConfig(
        capacity=capacity, initial=initial,
        terminal=initial if endpoints_equal else draw(st.floats(0.0, capacity)),
        self_discharge=draw(st.floats(0.0, 0.5)),
        loss_cost_coeff=draw(st.floats(0.0, 2e-5)))
    traces = []
    for size in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)):
        first = draw(st.tuples(prices, supplies, demands))
        futures = []
        for _ in range(size):
            if futures and draw(st.booleans()):
                later = futures[draw(st.integers(0, len(futures) - 1))]
            else:
                later = tuple(draw(st.lists(kind, min_size=T - 1, max_size=T - 1))
                              for kind in (prices, supplies, demands))
            futures.append(later)
            traces.append([np.array([v, *rest]) for v, rest in zip(first, later)])
    weights = np.array(draw(st.lists(st.integers(1, 9), min_size=len(traces),
                                     max_size=len(traces))), dtype=float)
    space = ScenarioSpace(tuple(
        CompositeScenario(f"w{w}", float(p), *trace)
        for w, (p, trace) in enumerate(zip(weights / weights.sum(), traces))))
    return Horizon(T=T), storage, space


@SETTINGS
@given(instance=instances(), nonanticipative=st.booleans(), physical=st.booleans())
def test_solved_policies_are_certified(instance, nonanticipative, physical):
    """solve_policy never raises here, with capacity 0 and endpoints anywhere
    in [0, capacity]: the evidence that every program the model builds has
    a finite optimum, so a block without one is a solver failure."""
    horizon, storage, space = instance
    policy = solve_policy(horizon, storage, space, nonanticipative, physical)
    assert verify_policy(policy, horizon, space) == []


@SETTINGS
@given(instance=instances(), nonanticipative=st.booleans(), physical=st.booleans())
def test_replaying_each_scenario_reproduces_its_cost(instance, nonanticipative, physical):
    horizon, storage, space = instance
    policy = solve_policy(horizon, storage, space, nonanticipative, physical)
    costs = evaluate_policy(policy, space)
    for w, scenario in enumerate(space.scenarios):
        planned = (policy.purchase[w] @ scenario.price / 1000.0
                   + storage.loss_cost_coeff * policy.battery[w].sum())
        assert costs[w] == pytest.approx(planned, rel=1e-9, abs=1e-9)
    assert space.probabilities @ costs == pytest.approx(
        policy.expected_cost, rel=1e-9, abs=1e-9)


@SETTINGS
@given(instance=instances(endpoints_equal=True), nonanticipative=st.booleans())
def test_adaptive_cost_never_exceeds_constant_hold(instance, nonanticipative):
    # holding the endpoint level and buying each period's shortfall is a
    # feasible plan (without physical discharge), nonanticipative too,
    # because members of a group share their period-1 shortfall
    horizon, storage, space = instance
    policy = solve_policy(horizon, storage, space, nonanticipative)
    baseline = baseline_policy(storage, space, hold_level=storage.initial)
    assert policy.expected_cost <= baseline + 1e-9 * max(1.0, baseline)


@SETTINGS
@given(instance=instances(), physical=st.booleans())
def test_nonanticipative_cost_is_at_least_wait_and_see(instance, physical):
    horizon, storage, space = instance
    ws = solve_policy(horizon, storage, space, physical_discharge=physical)
    na = solve_policy(horizon, storage, space, True, physical)
    # equal costs differ only by rounding when a group is merged
    assert na.expected_cost >= ws.expected_cost - 1e-9 * max(1.0, ws.expected_cost)


@SETTINGS
@given(instance=instances(), physical=st.booleans())
def test_agreeing_wait_and_see_plan_is_the_nonanticipative_plan(instance, physical):
    horizon, storage, space = instance
    # the merge keeps a group's wait-and-see plan when its members agree on
    # their whole period-1 decision; equal purchases alone can come from
    # different levels (test_equal_first_purchases_at_different_levels_merge_to_one_level)
    ws = solve_policy(horizon, storage, space, physical_discharge=physical)
    decisions = np.stack([ws.purchase[:, 0], ws.battery[:, 1], ws.excess[:, 0]], axis=1)
    if all(len({decisions[w].tobytes() for w in members}) == 1
           for members in _nonanticipativity_groups(space, True)):
        na = solve_policy(horizon, storage, space, True, physical)
        assert np.array_equal(na.purchase, ws.purchase)
        assert np.array_equal(na.battery, ws.battery)
        assert np.array_equal(na.excess, ws.excess)
        assert na.expected_cost == ws.expected_cost


@SETTINGS
@given(instance=instances(), grid=st.lists(st.integers(0, 3000), min_size=2, max_size=5),
       nonanticipative=st.booleans(), physical=st.booleans())
def test_capacity_grid_cells_match_their_own_solves(instance, grid, nonanticipative,
                                                    physical):
    # the cells share one space and are solved in one recursion; endpoints
    # are clamped as the battery sweep clamps them
    horizon, storage, space = instance
    cells = [(replace(storage, capacity=float(cap), initial=min(storage.initial, cap),
                      terminal=min(storage.terminal, cap)), space) for cap in grid]
    policies = solve_policies(horizon, cells, nonanticipative, physical)
    for (cell, _), policy in zip(cells, policies):
        assert verify_policy(policy, horizon, space) == []
        alone = solve_policy(horizon, cell, space, nonanticipative, physical)
        assert abs(policy.expected_cost - alone.expected_cost) <= 1e-12 * abs(
            alone.expected_cost)
