"""Every cost and average the package reports is summed in written order.

Each figure is held bit for bit against a plain-Python oracle. A
scenario's cost adds purchase times price / 1000 period by period from 0,
then loss times its stored Wh; an expectation is the left fold
total += p * value in scenario order. The stored Wh and a row's mean are
numpy's own row reductions, which call no BLAS, and are taken as given.
So no figure depends on the OpenBLAS kernel or thread count, and CI reruns
this module under another kernel. The horizons are odd as well as even:
misaligned odd-length rows are where a BLAS dot product reorders its sum.
"""

from dataclasses import replace

import numpy as np
import pytest

import bspower.evaluate
from bspower.calibration import default_calibration
from bspower.evaluate import baseline_policy, evaluate_policy, sweep_arrival_rate
from bspower.scenarios import MarginalScenario, MarginalSpace, compose
from bspower.stochastic import StorageConfig, solve_policy
from bspower.units import Horizon

HORIZONS = (5, 7, 11, 24)


def written_cost(purchase, price, loss, stored_wh):
    cost = 0.0
    for x, c in zip(purchase.tolist(), price.tolist()):
        cost += x * (c / 1000.0)
    return cost + loss * float(stored_wh)


def fold(probabilities, values):
    total = 0.0
    for p, value in zip(np.asarray(probabilities).tolist(), values):
        total += p * float(value)
    return total


def marginal(rng, kind, n, T, low, high):
    """n scenarios of uniform draws, all but the last sharing period 1, so
    the nonanticipative mode has groups to merge."""
    values = rng.uniform(low, high, (n, T))
    values[:-1, 0] = values[0, 0]
    probabilities = rng.dirichlet(np.ones(n))
    return MarginalSpace(kind=kind, scenarios=tuple(
        MarginalScenario(f"{kind[0]}{i}", float(p), row)
        for i, (p, row) in enumerate(zip(probabilities, values))))


def instance(T, seed):
    """A storage with a loss cost, and price and renewable marginals, of T periods."""
    rng = np.random.default_rng([T, seed])
    storage = StorageConfig(capacity=float(rng.uniform(500, 3000)), initial=300.0,
                            terminal=200.0, self_discharge=float(rng.uniform(0, 0.01)),
                            loss_cost_coeff=float(rng.uniform(1e-6, 2e-5)))
    price = marginal(rng, "price", 3, T, 5.0, 25.0)
    renewable = marginal(rng, "renewable", 2, T, 0.0, 300.0)
    return rng, storage, price, renewable


def space(T, seed):
    rng, storage, price, renewable = instance(T, seed)
    return storage, compose(price, renewable, marginal(rng, "consumption", 3, T, 100.0, 500.0))


@pytest.mark.parametrize("physical", [False, True])
@pytest.mark.parametrize("nonanticipative", [False, True])
@pytest.mark.parametrize("T", HORIZONS)
def test_expected_cost_is_the_written_order_fold(T, nonanticipative, physical):
    for seed in range(3):
        storage, scenarios = space(T, seed)
        policy = solve_policy(Horizon(T), storage, scenarios, nonanticipative, physical)
        price = scenarios.trace_matrix("price")
        costs = [written_cost(policy.purchase[w], price[w], storage.loss_cost_coeff,
                              policy.battery[w].sum()) for w in range(len(scenarios))]
        assert policy.expected_cost == fold(scenarios.probabilities, costs)


@pytest.mark.parametrize("physical", [False, True])
@pytest.mark.parametrize("T", HORIZONS)
def test_replay_costs_are_written_order_sums(T, physical):
    for seed in range(3):
        storage, scenarios = space(T, seed)
        policy = solve_policy(Horizon(T), storage, scenarios, physical_discharge=physical)
        keep = 1.0 - storage.self_discharge if physical else 1.0
        costs = evaluate_policy(policy, scenarios)
        for w, scen in enumerate(scenarios.scenarios):
            x, y = policy.purchase[w], policy.excess[w]
            path = np.empty(T)
            path[0] = storage.initial
            for t in range(T - 1):
                path[t + 1] = (keep * path[t] + x[t] + scen.renewable[t]
                               - scen.consumption[t] - y[t])
            assert costs[w] == written_cost(x, scen.price, storage.loss_cost_coeff,
                                            path.sum())


@pytest.mark.parametrize("T", HORIZONS)
def test_baseline_cost_is_the_written_order_fold(T):
    for seed in range(3):
        storage, scenarios = space(T, seed)
        level = min(1000.0, storage.capacity)
        costs = [written_cost(np.maximum(0.0, scen.consumption - scen.renewable), scen.price,
                              storage.loss_cost_coeff, level * T)
                 for scen in scenarios.scenarios]
        assert baseline_policy(storage, scenarios) == fold(scenarios.probabilities, costs)


@pytest.mark.parametrize("T", HORIZONS)
def test_arrival_sweep_averages_are_written_order_folds(T, monkeypatch):
    _, storage, price, renewable = instance(T, 0)
    cal = replace(default_calibration(), horizon=Horizon(T), storage=storage, price=price,
                  renewable=renewable, replications=2)
    solve_traces, solved = bspower.evaluate._solve_traces, []

    def recording(cal, traces):
        policies = solve_traces(cal, traces)
        solved.extend(policies)
        return policies

    monkeypatch.setattr(bspower.evaluate, "_solve_traces", recording)
    report = sweep_arrival_rate([0.7, 0.2], cal, seed=T)
    assert len(solved) == 2
    for (_, purchase, battery), policy in zip(report.rows, solved):
        assert purchase == fold(policy.probabilities, [row.mean() for row in policy.purchase])
        assert battery == fold(policy.probabilities, [row.mean() for row in policy.battery])
