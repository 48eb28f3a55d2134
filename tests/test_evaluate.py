"""Policy replay, the no-scheduling baseline, reports, and sweeps."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bspower
from bspower.calibration import (
    DEFAULT_ARRIVAL_RATES,
    DEFAULT_CAC_THRESHOLDS,
    DEFAULT_CONFIG,
    Calibration,
    default_calibration,
    default_price_space,
    default_renewable_space,
    default_traffic_profiles,
    derived_loss_cost,
    half_sine_profile,
    stepped_profile,
)
from bspower.evaluate import (
    DAYS_PER_MONTH,
    _scaled_renewable,
    _single_consumption,
    _solve_traces,
    ExperimentReport,
    ReplayError,
    baseline_policy,
    evaluate_policy,
    manifest_text,
    monthly_cost,
    sweep_arrival_rate,
    sweep_battery,
    sweep_cac,
)
from bspower.scenarios import (
    CompositeScenario,
    compose,
    MarginalScenario,
    MarginalSpace,
    ScenarioSpace,
)
from bspower.power_model import consumption_trace
from bspower.stochastic import (
    StorageConfig,
    per_scenario_decomposition,
    solve_policy,
)
from bspower.traffic import simulate_replicated, uniform_traffic
from bspower.units import Horizon

from test_stochastic import random_instance, single_scenario


def column(report, name):
    """The values of one column of a sweep report, in row order."""
    i = report.columns.index(name)
    return [row[i] for row in report.rows]


def cheap_calibration(T=24, replications=1):
    """Default shapes but a fixed consumption trace, skipping simulation."""
    cal = default_calibration(T)
    consumption = MarginalSpace(kind="consumption", scenarios=(
        MarginalScenario("fixed", 1.0, np.full(T, 300.0)),))
    return replace(cal, consumption=consumption, replications=replications)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def test_replay_reproduces_solver_cost_per_scenario():
    rng = np.random.default_rng(14)
    for _ in range(10):
        horizon, storage, space = random_instance(rng)
        policy = solve_policy(horizon, storage, space)
        costs = evaluate_policy(policy, space)
        assert costs.shape == (len(space),)
        assert space.probabilities @ costs == pytest.approx(
            policy.expected_cost, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("physical", [False, True])
def test_replay_costs_equal_each_scenarios_own_sum(physical):
    # bit for bit: the stacked product sums each row as its own x @ price
    rng = np.random.default_rng(3)
    for _ in range(5):
        horizon, storage, space = random_instance(rng)
        policy = solve_policy(horizon, storage, space, physical_discharge=physical)
        keep = 1.0 - storage.self_discharge if physical else 1.0
        price = space.trace_matrix("price")
        costs = evaluate_policy(policy, space)
        for w, scen in enumerate(space.scenarios):
            x, y = policy.purchase[w], policy.excess[w]
            path = np.empty(horizon.T)
            path[0] = storage.initial
            for t in range(horizon.T - 1):
                path[t + 1] = (keep * path[t] + x[t] + scen.renewable[t]
                               - scen.consumption[t] - y[t])
            np.testing.assert_allclose(path, policy.battery[w], rtol=0, atol=1e-6)
            assert costs[w] == x @ price[w] / 1000.0 + storage.loss_cost_coeff * path.sum()


def test_replay_cost_of_a_hand_solved_day():
    horizon = Horizon(T=3)
    storage = StorageConfig(capacity=1000.0, initial=0.0, terminal=0.0)
    space = single_scenario([10.0, 30.0, 99.0], [0.0, 0.0, 0.0],
                            [100.0, 300.0, 0.0])
    policy = solve_policy(horizon, storage, space)
    assert evaluate_policy(policy, space) == pytest.approx([4.0], abs=1e-9)


def test_replay_rejects_unknown_day_and_wrong_length():
    horizon = Horizon(T=2)
    storage = StorageConfig(capacity=100.0, initial=0.0, terminal=0.0)
    space = single_scenario([1.0, 1.0], [0.0, 0.0], [10.0, 0.0], label="w")
    policy = solve_policy(horizon, storage, space)
    with pytest.raises(ValueError, match="labels"):
        evaluate_policy(policy, single_scenario([1.0, 1.0], [0.0, 0.0], [10.0, 0.0],
                                                label="other"))
    with pytest.raises(ValueError, match="periods"):
        evaluate_policy(policy, single_scenario([1.0], [0.0], [10.0], label="w"))
    two = ScenarioSpace(tuple(replace(space.scenarios[0], label=label, probability=0.5)
                              for label in ("w", "v")))
    with pytest.raises(ValueError, match="labels"):
        evaluate_policy(policy, two)


def test_replay_flags_infeasible_schedules():
    horizon = Horizon(T=3)
    storage = StorageConfig(capacity=400.0, initial=100.0, terminal=100.0)
    space = single_scenario([10.0, 10.0, 10.0], [0.0, 0.0, 0.0],
                            [50.0, 50.0, 0.0])
    policy = solve_policy(horizon, storage, space)

    extra = policy.purchase.copy()
    extra[0, 0] += 600.0  # overcharges past capacity
    with pytest.raises(ReplayError, match="leaves"):
        evaluate_policy(replace(policy, purchase=extra), space)

    skipped = policy.purchase.copy()
    skipped[0, :] = 0.0  # battery drains below zero
    with pytest.raises(ReplayError):
        evaluate_policy(replace(policy, purchase=skipped), space)

    late = policy.purchase.copy()
    late[0, 1] += 50.0  # ends above the terminal level, within capacity
    with pytest.raises(ReplayError, match="terminal level 150.000000 != 100.0"):
        evaluate_policy(replace(policy, purchase=late), space)


def test_replay_error_names_the_first_failing_scenario():
    horizon = Horizon(T=3)
    storage = StorageConfig(capacity=400.0, initial=100.0, terminal=100.0)
    day = ([10.0, 10.0, 10.0], [0.0, 0.0, 0.0], [50.0, 50.0, 0.0])
    space = ScenarioSpace(tuple(CompositeScenario(label, p, *day) for label, p
                                in (("w0", 0.25), ("w1", 0.5), ("w2", 0.25))))
    policy = solve_policy(horizon, storage, space)
    extra = policy.purchase.copy()
    extra[1, 0] += 600.0  # scenario 1 leaves [0, capacity]
    extra[2, 1] += 50.0   # scenario 2 misses the terminal level
    with pytest.raises(ReplayError, match="leaves .* on day 'w1'"):
        evaluate_policy(replace(policy, purchase=extra), space)


def test_zero_consumption_day_with_matched_endpoints_is_free():
    horizon = Horizon(T=8)
    storage = StorageConfig(capacity=1500.0, initial=900.0, terminal=900.0)
    space = single_scenario(np.full(8, 14.0), np.zeros(8), np.zeros(8))
    policy = solve_policy(horizon, storage, space)
    assert evaluate_policy(policy, space) == pytest.approx([0.0], abs=1e-9)
    assert baseline_policy(storage, space, hold_level=900.0) == 0.0


# ---------------------------------------------------------------------------
# baseline and cost reporting
# ---------------------------------------------------------------------------

def test_baseline_buys_only_the_shortfall():
    storage = StorageConfig(capacity=2000.0, initial=500.0, terminal=500.0)
    space = single_scenario(price=[10.0, 20.0, 10.0], renewable=[50.0, 0.0, 400.0],
                            consumption=[150.0, 100.0, 100.0])
    cost = baseline_policy(storage, space)
    # shortfalls: 100 @ 10, 100 @ 20, 0 -> 1.0 + 2.0 cents; no holding cost
    assert cost == pytest.approx(3.0, abs=1e-12)


def test_baseline_holding_cost_uses_clamped_level():
    coeff = 1e-3
    storage = StorageConfig(capacity=800.0, initial=0.0, terminal=0.0,
                            loss_cost_coeff=coeff)
    space = single_scenario(price=np.full(4, 10.0), renewable=np.full(4, 50.0),
                            consumption=np.full(4, 50.0))
    # the constant hold level defaults to 1000 Wh but cannot exceed capacity
    assert baseline_policy(storage, space) == pytest.approx(coeff * 800.0 * 4, abs=1e-12)


def test_baseline_is_the_probability_weighted_cost():
    storage = StorageConfig(capacity=2000.0, initial=500.0, terminal=500.0,
                            loss_cost_coeff=1e-4)
    space = ScenarioSpace((
        CompositeScenario("dry", 0.25, [10.0, 20.0], [0.0, 0.0], [100.0, 100.0]),
        CompositeScenario("wet", 0.75, [10.0, 20.0], [100.0, 0.0], [100.0, 100.0])))
    # per scenario: 3.0 and 2.0 cents to buy, plus 1e-4 * 1000 Wh * 2 periods
    assert baseline_policy(storage, space) == pytest.approx(
        0.25 * 3.2 + 0.75 * 2.2, abs=1e-12)


def test_adaptive_schedule_never_loses_to_constant_hold():
    # holding the battery at the endpoints' level is itself a feasible
    # schedule, so the optimized expected cost can only be lower
    cal = cheap_calibration()
    cal = replace(cal, storage=replace(cal.storage, initial=1000.0, terminal=1000.0))
    space = cal.scenario_space(seed=0)
    policy = per_scenario_decomposition(cal.horizon, cal.storage, space)
    base = baseline_policy(cal.storage, space, hold_level=1000.0)
    assert policy.expected_cost <= base + 1e-6


def test_monthly_cost_conversion():
    assert DAYS_PER_MONTH == 30
    assert monthly_cost(100.0) == pytest.approx(30.0)
    # 49 cents/day is about $14.7/month, 42.63 about $12.79
    assert monthly_cost(49.0) == pytest.approx(14.7)
    assert round(monthly_cost(42.6333), 2) == 12.79
    with pytest.raises(ValueError):
        monthly_cost(-1.0)


# ---------------------------------------------------------------------------
# calibration profiles
# ---------------------------------------------------------------------------

def test_half_sine_profile_integrates_to_mean_times_window():
    values = half_sine_profile(195.0, (6.0, 18.0), 24)
    assert values.shape == (24,)
    assert values[:6].sum() == 0.0 and values[18:].sum() == 0.0
    assert values.sum() == pytest.approx(195.0 * 12.0, rel=1e-12)
    # symmetric about noon and peaked there
    np.testing.assert_allclose(values[6:12], values[12:18][::-1], rtol=1e-12)
    assert values.argmax() in (11, 12)
    with pytest.raises(ValueError):
        half_sine_profile(100.0, (20.0, 30.0), 24)


def test_stepped_profile_window():
    values = stepped_profile(12.0, 20.0, (12, 20), 24)
    assert set(values[:12]) == {12.0} and set(values[20:]) == {12.0}
    assert set(values[12:20]) == {20.0}


def test_default_spaces_are_valid_and_normalized():
    price = default_price_space()
    renewable = default_renewable_space()
    assert sum(s.probability for s in price.scenarios) == pytest.approx(1.0)
    assert sum(s.probability for s in renewable.scenarios) == pytest.approx(1.0)
    traffic = DEFAULT_CONFIG["traffic"]
    profiles = default_traffic_profiles(traffic["handoff_fraction"],
                                        traffic["mean_holding_min"], 24)
    assert sum(p.probability for p in profiles) == pytest.approx(1.0)
    assert len(profiles) == 5


def test_derived_loss_cost_prices_expected_decay():
    price = default_price_space()
    # mean price: 0.6 * (16h at 12 + 8h at 20)/24 + 0.4 * 12 = 13.6 cents/kWh
    coeff = derived_loss_cost(price, 0.001)
    assert coeff == pytest.approx(0.001 * 13.6 / 1000.0, rel=1e-12)


def test_derived_loss_cost_of_huge_prices_does_not_overflow():
    # the plain mean of these prices overflows to inf
    price = MarginalSpace(kind="price", scenarios=(
        MarginalScenario("huge", 1.0, np.array([1e308, 1e308])),))
    assert derived_loss_cost(price, 0.001) == pytest.approx(1e302, rel=1e-12)


def test_calibration_scenario_space_is_product_of_marginals():
    cal = cheap_calibration()
    space = cal.scenario_space(seed=0)
    assert len(space) == 2 * 2 * 1
    assert space.probabilities.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_validates_shape_and_order():
    with pytest.raises(ValueError):
        ExperimentReport(("a", "b"), ((1.0,),))
    with pytest.raises(ValueError, match="non-decreasing"):
        ExperimentReport(("a", "b"), ((2.0, 0.0), (1.0, 0.0)))
    report = ExperimentReport(("a", "b"), ((1.0, 5.0), (2.0, float("nan"))))
    np.testing.assert_array_equal(column(report, "b"), [5.0, np.nan])


def test_report_csv_formatting():
    report = ExperimentReport(("n", "v"), ((1, 0.5), (2, float("nan"))))
    assert report.csv_text() == "n,v\n1,0.500000\n2,nan\n"


def test_manifest_is_stable_and_labelled():
    a = manifest_text("deadbeef", 7)
    b = manifest_text("deadbeef", 7)
    assert a == b
    assert "config_sha256: deadbeef" in a
    assert "seed: 7" in a
    assert "bspower" in a


def test_importing_the_package_leaves_importlib_metadata_unloaded():
    # only manifest_text needs the package version, so it imports it
    code = ("import sys; before = 'importlib.metadata' in sys.modules; import bspower; "
            "print(before, 'importlib.metadata' in sys.modules)")
    src = str(Path(bspower.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    before, after = run.stdout.split()
    assert after == before, run.stdout


# ---------------------------------------------------------------------------
# sweeps (small grids; full grids run in the acceptance suite)
# ---------------------------------------------------------------------------

def test_battery_sweep_levels_off_and_orders_scalings():
    cal = cheap_calibration()
    report = sweep_battery([500.0, 2000.0, 4000.0], [1.0, 1.5], cal, seed=0)
    assert report.columns == ("capacity_wh", "renewable_scale", "monthly_cost_usd")
    assert len(report.rows) == 6
    for scale in (1.0, 1.5):
        costs = [r[2] for r in report.rows if r[1] == scale]
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:])), costs
    plain = [r[2] for r in report.rows if r[1] == 1.0]
    boosted = [r[2] for r in report.rows if r[1] == 1.5]
    assert all(b <= a + 1e-9 for a, b in zip(plain, boosted))


def test_battery_sweep_clamps_endpoints_to_small_capacities():
    cal = cheap_calibration()
    report = sweep_battery([200.0, 1000.0], [1.0], cal, seed=0)
    costs = column(report, "monthly_cost_usd")
    assert all(np.isfinite(c) for c in costs)
    assert costs[1] <= costs[0] + 1e-9


def test_merged_battery_sweep_equals_its_cells_solved_alone(solver_calls):
    # capacity 0 fixes every battery level and 300 Wh clamps the 500 Wh
    # endpoints, so each fixes other values than the other capacities and
    # gets a solve_batch call of its own. The one sweep must write what each
    # cell's own solve_policy gives
    cal = cheap_calibration()
    T = cal.horizon.T
    capacities, scalings = [0.0, 300.0, 1000.0, 1500.0], [1.0, 1.5]
    report = sweep_battery(capacities, scalings, cal, seed=0)
    calls = [call.lower[T] for call in solver_calls.batches]
    assert sorted(calls) == [0.0, 300.0, 500.0]

    consumption = cal.consumption_space(0)
    alone = []
    for cap in capacities:
        storage = replace(cal.storage, capacity=cap, initial=min(cal.storage.initial, cap),
                          terminal=min(cal.storage.terminal, cap))
        for scale in scalings:
            space = compose(cal.price, _scaled_renewable(cal.renewable, scale), consumption)
            cost = monthly_cost(solve_policy(cal.horizon, storage, space).expected_cost)
            alone.append((cap, scale, cost))
    assert report.csv_text() == ExperimentReport(report.columns, alone).csv_text()


def test_equal_traces_share_one_policy_and_a_one_bit_change_does_not(solver_calls):
    cal = default_calibration()
    trace = np.linspace(2.0, 12.0, cal.horizon.T)
    nudged = trace.copy()
    nudged[5] = np.nextafter(nudged[5], np.inf)
    policies = _solve_traces(cal, np.array([trace, nudged, trace]))
    # four price x renewable scenarios for each of the two distinct traces
    assert [len(call.rows) for call in solver_calls.batches] == [2 * 4]
    assert policies[2] is policies[0] and policies[1] is not policies[0]
    for got, occupancy in zip(policies, (trace, nudged)):
        alone = solve_policy(cal.horizon, cal.storage, compose(
            cal.price, cal.renewable,
            _single_consumption(consumption_trace(cal.params, occupancy, cal.horizon))))
        for field in ("purchase", "battery", "excess"):
            assert np.array_equal(getattr(got, field), getattr(alone, field))
        assert got.expected_cost == alone.expected_cost


def test_sweeps_solve_in_one_call_and_full_stacks(solver_calls):
    # 16 cells of 80 scenarios are 1280 programs: one solve_batch call whose
    # stacks are all as full as the budget allows, not 16 calls of two half
    # stacks. The default cac sweep's 21 thresholds repeat 12 distinct
    # traces, so it composes 12 spaces and solves their 48 programs once
    stacks = solver_calls.stacks
    rng = np.random.default_rng(5)
    T = 24

    def marginal(kind, count, low, high):
        return MarginalSpace(kind=kind, scenarios=tuple(
            MarginalScenario(f"{kind}{i}", 1.0 / count, rng.uniform(low, high, T))
            for i in range(count)))

    cal = replace(default_calibration(), price=marginal("price", 4, 8.0, 20.0),
                  renewable=marginal("renewable", 4, 0.0, 300.0),
                  consumption=marginal("consumption", 5, 250.0, 650.0))
    report = sweep_battery(DEFAULT_CONFIG["sweeps"]["battery"]["capacities_wh"],
                           DEFAULT_CONFIG["sweeps"]["battery"]["renewable_scalings"], cal)
    batches = [len(call.rows) for call in solver_calls.batches]
    assert len(report.rows) == 16 and batches == [16 * 80]
    per_stack = stacks[0][1]
    assert len(stacks) == -(-1280 // per_stack) and sum(k for k, _ in stacks) == 1280

    solver_calls.clear()
    cal = default_calibration()
    cac = DEFAULT_CONFIG["sweeps"]["cac"]
    spec = uniform_traffic(cac["load_per_min"], cal.handoff_fraction, cal.horizon.T,
                           cal.mean_holding)
    sweep_cac(cac["thresholds"], spec, cal, seed=0)
    batches = [len(call.rows) for call in solver_calls.batches]
    assert batches == [12 * 4]
    assert sum(k for k, _ in stacks) == 12 * 4


def test_battery_sweep_rejects_empty_grid():
    cal = cheap_calibration()
    with pytest.raises(ValueError):
        sweep_battery([], [1.0], cal)
    with pytest.raises(ValueError):
        sweep_battery([500.0], [], cal)


def test_cac_sweep_columns_and_reference():
    cal = cheap_calibration(replications=1)
    spec = uniform_traffic(2.0, cal.handoff_fraction, cal.horizon.T,
                           cal.mean_holding)
    report = sweep_cac([5, 25], spec, cal, seed=0)
    assert report.columns == ("threshold", "blocking", "dropping",
                              "cost_saving_pct")
    (tau_lo, b_lo, d_lo, s_lo), (tau_hi, b_hi, d_hi, s_hi) = report.rows
    assert (tau_lo, tau_hi) == (5, 25)
    assert b_lo >= b_hi and d_lo <= d_hi
    # threshold == channels is the no-reservation reference itself
    assert s_hi == pytest.approx(0.0, abs=1e-9)
    assert s_lo >= s_hi - 1e-9


@pytest.mark.parametrize("grid, runs", [
    (DEFAULT_CAC_THRESHOLDS, 21),  # threshold 25 is the open baseline too
    ((5, 10, 20), 4),
], ids=("default-grid", "grid-without-baseline"))
def test_cac_sweep_runs_each_threshold_once(monkeypatch, grid, runs):
    cal = cheap_calibration(replications=1)
    spec = uniform_traffic(0.5, cal.handoff_fraction, cal.horizon.T,
                           cal.mean_holding)
    thresholds = []

    def spy(batch, *args):
        thresholds.extend(cac.threshold for _, cac in batch)
        return simulate_replicated(batch, *args)

    monkeypatch.setattr("bspower.evaluate.simulate_replicated", spy)
    report = sweep_cac(grid, spec, cal, seed=0)
    assert len(thresholds) == runs
    assert sorted(thresholds) == sorted({*grid, cal.cac.channels})
    assert len(report.rows) == len(grid)


def test_sweeps_and_consumption_space_simulate_in_one_call(monkeypatch):
    cal = cheap_calibration(replications=1)
    calls = []

    def spy(batch, *args):
        batch = list(batch)
        calls.append(len(batch))
        return simulate_replicated(batch, *args)

    monkeypatch.setattr("bspower.evaluate.simulate_replicated", spy)
    monkeypatch.setattr("bspower.calibration.simulate_replicated", spy)
    spec = uniform_traffic(0.5, cal.handoff_fraction, cal.horizon.T, cal.mean_holding)
    sweep_cac(DEFAULT_CAC_THRESHOLDS, spec, cal, seed=0)
    sweep_arrival_rate(DEFAULT_ARRIVAL_RATES, cal, seed=0)
    replace(cal, consumption=None).consumption_space(seed=0)
    assert calls == [len(DEFAULT_CAC_THRESHOLDS), len(DEFAULT_ARRIVAL_RATES),
                     len(cal.traffic_profiles)]


def test_cac_sweep_validates_threshold_grid():
    cal = cheap_calibration(replications=1)
    spec = uniform_traffic(0.5, 0.3, cal.horizon.T)
    with pytest.raises(ValueError):
        sweep_cac([], spec, cal)
    with pytest.raises(ValueError):
        sweep_cac([0, 5], spec, cal)
    with pytest.raises(ValueError):
        sweep_cac([5, 26], spec, cal)


def test_arrival_sweep_monotone_on_small_grid():
    cal = cheap_calibration(replications=1)
    report = sweep_arrival_rate([0.2, 0.8], cal, seed=0)
    assert report.columns == ("arrival_rate_per_min", "avg_purchase_wh",
                              "avg_battery_wh")
    purchase = column(report, "avg_purchase_wh")
    battery = column(report, "avg_battery_wh")
    assert purchase[1] >= purchase[0] - 1e-9
    assert battery[1] >= battery[0] - 1e-9
    with pytest.raises(ValueError):
        sweep_arrival_rate([], cal)
    with pytest.raises(ValueError):
        sweep_arrival_rate([-0.1, 0.5], cal)


def test_arrival_sweep_zero_rate_draws_static_power_only():
    # no connections: the station draws its static 194.25 W each hour, and
    # with no renewable every Wh consumed before the final period must be
    # purchased, so the daily average spreads 23 purchased hours over 24
    cal = cheap_calibration()
    zero_renew = MarginalSpace(kind="renewable", scenarios=(
        MarginalScenario("none", 1.0, np.zeros(24)),))
    cal = replace(cal, renewable=zero_renew,
                  storage=StorageConfig(capacity=2000.0, initial=500.0,
                                        terminal=500.0))
    report = sweep_arrival_rate([0.0, 0.5], cal, seed=3)
    assert column(report, "arrival_rate_per_min")[0] == 0.0
    purchase = column(report, "avg_purchase_wh")
    assert purchase[0] == pytest.approx(194.25 * 23 / 24, rel=1e-9)
    assert purchase[1] > purchase[0]
