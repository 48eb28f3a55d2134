"""Acceptance gate: nine end-to-end criteria with pinned tolerances.

Each test prints one `criterion N: PASS/FAIL` line with the measured
values (visible with `pytest -s` or in the captured output on failure):

  1. simplex vs vertex-enumeration oracle on 500 random LPs, 1e-8, < 30 s
  2. grouped stochastic solve vs the monolithic deterministic equivalent
     on 100 random instances, 1e-6 relative, < 60 s
  3. independent feasibility re-verification of every policy from 2 and 5
  4. flat-tariff closed form: cost == total consumption * price, 1e-9 rel
  5. default calibration: adaptive < baseline, adaptive in [9, 17] $/mo,
     baseline in [11, 19] $/mo, saving in [5, 25] %, < 60 s
  6. battery sweep: cost non-increasing, plateaus under 0.1%, extra
     renewable dominates pointwise
  7. arrival sweep: purchase and battery level non-decreasing in load
  8. admission control: shared-seed monotone QoS and saving, analytic
     agreement within 3 SE, Erlang-B special case within 1e-10
  9. CLI byte-determinism for solve and all sweeps
"""

import json
import time
from functools import lru_cache

import numpy as np

from bspower.calibration import (
    DEFAULT_ARRIVAL_RATES,
    DEFAULT_BATTERY_GRID,
    DEFAULT_CAC_THRESHOLDS,
    DEFAULT_RENEWABLE_SCALINGS,
    default_calibration,
)
from bspower.cli import main
from bspower.evaluate import (
    baseline_policy,
    monthly_cost,
    sweep_arrival_rate,
    sweep_battery,
    sweep_cac,
)
from bspower.lp import LinearProgram, solve
from bspower.scenarios import CompositeScenario, ScenarioSpace
from bspower.stochastic import (
    PolicyTable,
    StorageConfig,
    build_deterministic_equivalent,
    solve_policy,
    verify_policy,
)
from bspower.traffic import (
    CacConfig,
    uniform_traffic,
)
from bspower.units import Horizon
from analytic_traffic import analytic_guard_channel
from brute_force_lp import brute_force_solve, with_slacks
from scalar_traffic import lone_replication


def column(report, name):
    """The values of one column of a sweep report, in row order."""
    i = report.columns.index(name)
    return [row[i] for row in report.rows]


def _report(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# case generators (self-contained so the gate does not depend on other tests)
# ---------------------------------------------------------------------------

def _random_lp(rng):
    """(lp, a_ub, b_ub): equality rows and bounds, and rows a_ub @ x <= b_ub."""
    n = int(rng.integers(1, 9))
    m_eq = int(rng.integers(0, min(3, n) + 1))
    m_ub = int(rng.integers(0, 8 - m_eq + 1))
    if rng.random() < 0.5:
        a_eq = rng.integers(-3, 4, size=(m_eq, n)).astype(float)
        a_ub = rng.integers(-3, 4, size=(m_ub, n)).astype(float)
    else:
        a_eq = rng.uniform(-3, 3, size=(m_eq, n))
        a_ub = rng.uniform(-3, 3, size=(m_ub, n))
    c = rng.uniform(-5, 5, size=n)
    c[rng.random(n) < 0.2] = 0.0
    lower = np.zeros(n)
    if rng.random() < 0.3:
        lower = rng.uniform(0, 1, size=n)
    upper = np.full(n, np.inf)
    finite = rng.random(n) < 0.5
    upper[finite] = lower[finite] + rng.uniform(0.5, 6.0, size=int(finite.sum()))
    if rng.random() < 0.1:
        j = int(rng.integers(n))
        upper[j] = lower[j]
    if rng.random() < 0.7:
        span = np.where(np.isfinite(upper), upper - lower, 3.0)
        x0 = lower + rng.uniform(0, 1, size=n) * span
        b_eq = a_eq @ x0
        b_ub = a_ub @ x0 + rng.uniform(0, 3, size=m_ub)
    else:
        b_eq = rng.uniform(-4, 4, size=m_eq)
        b_ub = rng.uniform(-4, 4, size=m_ub)
    lp = LinearProgram(c=c, a_eq=a_eq if m_eq else None, b_eq=b_eq if m_eq else None,
                       lower=lower, upper=upper)
    return lp, a_ub, b_ub


def _random_instance(rng):
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


def _erlang_b(offered_erlangs, channels):
    b = 1.0
    for k in range(1, channels + 1):
        b = offered_erlangs * b / (k + offered_erlangs * b)
    return b


@lru_cache(maxsize=None)
def _calibration():
    return default_calibration()


def _monolithic_policy(horizon, storage, space, physical_discharge):
    """The oracle: one LP over all scenarios, solved without decomposition."""
    program, vmap = build_deterministic_equivalent(
        horizon, storage, space, physical_discharge=physical_discharge)
    solution = solve(program)
    assert solution.status == "optimal", solution.status
    purchase, battery, excess = vmap.unpack(solution.x)
    return PolicyTable(tuple(space.labels), space.probabilities, purchase,
                       battery, excess, solution.objective,
                       storage, physical_discharge)


@lru_cache(maxsize=None)
def _decomposition_run():
    """Criterion 2 workload; also supplies policies for criterion 3."""
    rng = np.random.default_rng(20240818)
    start = time.perf_counter()
    worst = 0.0
    certificates = []
    for _ in range(100):
        horizon, storage, space = _random_instance(rng)
        physical = bool(rng.integers(0, 2))
        grouped = solve_policy(horizon, storage, space, physical_discharge=physical)
        full = _monolithic_policy(horizon, storage, space, physical)
        denom = max(abs(full.expected_cost), abs(grouped.expected_cost), 1e-9)
        worst = max(worst, abs(full.expected_cost - grouped.expected_cost) / denom)
        certificates.append((full, horizon, space))
        certificates.append((grouped, horizon, space))
    elapsed = time.perf_counter() - start
    return worst, elapsed, certificates


@lru_cache(maxsize=None)
def _paper_scale_run():
    """Criterion 5 workload; also supplies the policy for criterion 3."""
    cal = _calibration()
    start = time.perf_counter()
    space = cal.scenario_space(seed=0)
    policy = solve_policy(cal.horizon, cal.storage, space)
    adaptive = monthly_cost(policy.expected_cost)
    baseline = monthly_cost(baseline_policy(cal.storage, space))
    elapsed = time.perf_counter() - start
    saving = 100.0 * (baseline - adaptive) / baseline
    return dict(policy=policy, space=space, adaptive=adaptive,
                baseline=baseline, saving=saving, elapsed=elapsed)


def _non_increasing(values, tol=1e-9):
    return all(b <= a + tol for a, b in zip(values, values[1:]))


def _non_decreasing(values, tol=1e-9):
    return all(b >= a - tol for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_lp_oracle_equivalence():
    rng = np.random.default_rng(20240817)
    start = time.perf_counter()
    mismatches = 0
    max_gap = 0.0
    counts = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(500):
        lp, a_ub, b_ub = _random_lp(rng)
        fast = solve(with_slacks(lp, a_ub, b_ub))
        slow = brute_force_solve(lp, a_ub, b_ub)
        if fast.status != slow.status:
            mismatches += 1
            continue
        counts[fast.status] += 1
        if fast.status == "optimal":
            max_gap = max(max_gap,
                          abs(fast.objective - slow.objective))
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and max_gap <= 1e-8 and elapsed < 30.0
    _report(1, ok,
            f"500 LPs, {mismatches} status mismatches, max objective gap "
            f"{max_gap:.2e} (tol 1e-8), statuses {counts}, {elapsed:.1f}s (< 30s)")


def test_criterion_2_decomposition_equivalence():
    worst, elapsed, certificates = _decomposition_run()
    ok = worst <= 1e-6 and elapsed < 60.0
    _report(2, ok,
            f"100 instances, max relative cost gap {worst:.2e} (tol 1e-6), "
            f"{len(certificates)} policies collected, {elapsed:.1f}s (< 60s)")


def test_criterion_3_feasibility_certificates():
    _, _, certificates = _decomposition_run()
    run = _paper_scale_run()
    cal = _calibration()
    checks = list(certificates) + [(run["policy"], cal.horizon, run["space"])]
    violations = []
    for policy, horizon, space in checks:
        violations.extend(verify_policy(policy, horizon, space))
    ok = not violations
    _report(3, ok,
            f"{len(checks)} policies re-verified (balance < 1e-6 Wh, bounds, "
            f"endpoints), {len(violations)} violations"
            + (f"; first: {violations[0]}" if violations else ""))


def test_criterion_4_flat_tariff_closed_form():
    rng = np.random.default_rng(4)
    T, p = 24, 13.25
    consumption = rng.uniform(0, 400, T)
    consumption[-1] = 0.0
    storage = StorageConfig(capacity=1400.0, initial=700.0, terminal=700.0)
    space = ScenarioSpace((CompositeScenario(
        "flat", 1.0, np.full(T, p), np.zeros(T), consumption),))
    policy = solve_policy(Horizon(T=T), storage, space)
    want = consumption.sum() * p / 1000.0
    gap = abs(policy.expected_cost - want) / want
    ok = gap <= 1e-9
    _report(4, ok,
            f"expected cost {policy.expected_cost:.9f} vs closed form "
            f"{want:.9f} cents, relative gap {gap:.2e} (tol 1e-9)")


def test_criterion_5_default_calibration_magnitudes():
    run = _paper_scale_run()
    adaptive, baseline, saving = run["adaptive"], run["baseline"], run["saving"]
    ok = (adaptive < baseline
          and 9.0 <= adaptive <= 17.0
          and 11.0 <= baseline <= 19.0
          and 5.0 <= saving <= 25.0
          and run["elapsed"] < 60.0)
    _report(5, ok,
            f"adaptive ${adaptive:.2f}/mo (in [9, 17]), baseline "
            f"${baseline:.2f}/mo (in [11, 19]), saving {saving:.1f}% "
            f"(in [5, 25]), {run['elapsed']:.1f}s (< 60s)")


def test_criterion_6_battery_sweep_shape():
    cal = _calibration()
    report = sweep_battery(DEFAULT_BATTERY_GRID, DEFAULT_RENEWABLE_SCALINGS,
                           cal, seed=0)
    curves = {
        scale: [r[2] for r in report.rows if r[1] == scale]
        for scale in DEFAULT_RENEWABLE_SCALINGS
    }
    monotone = all(_non_increasing(c) for c in curves.values())

    def plateau_start(costs):
        for k in range(len(costs) - 1):
            diffs = [abs(b - a) / max(abs(a), 1e-12)
                     for a, b in zip(costs[k:], costs[k + 1:])]
            if all(d < 1e-3 for d in diffs):
                return k
        return None

    plateaus = {s: plateau_start(c) for s, c in curves.items()}
    flat = all(p is not None for p in plateaus.values())
    lo, hi = min(DEFAULT_RENEWABLE_SCALINGS), max(DEFAULT_RENEWABLE_SCALINGS)
    dominated = all(b <= a + 1e-9 for a, b in zip(curves[lo], curves[hi]))
    ok = monotone and flat and dominated
    caps = {s: (DEFAULT_BATTERY_GRID[p] if p is not None else None)
            for s, p in plateaus.items()}
    _report(6, ok,
            f"cost non-increasing {monotone}, plateau (< 0.1% steps) from "
            f"{caps} Wh, renewable x{hi} dominates x{lo} pointwise {dominated}")


def test_criterion_7_arrival_sweep_shape():
    cal = _calibration()
    report = sweep_arrival_rate(DEFAULT_ARRIVAL_RATES, cal, seed=0)
    purchase = column(report, "avg_purchase_wh")
    battery = column(report, "avg_battery_wh")
    ok = _non_decreasing(purchase) and _non_decreasing(battery)
    _report(7, ok,
            f"avg purchase {purchase[0]:.1f} -> {purchase[-1]:.1f} Wh and "
            f"avg battery {battery[0]:.1f} -> {battery[-1]:.1f} Wh, "
            f"both non-decreasing over rates {DEFAULT_ARRIVAL_RATES}")


def test_criterion_8_admission_control_study():
    cal = _calibration()

    # (a) shared-seed sweep at a load heavy enough to exercise both QoS
    # metrics; monotonicity is exact under common random numbers
    heavy = uniform_traffic(2.0, cal.handoff_fraction, cal.horizon.T,
                            cal.mean_holding)
    report = sweep_cac(DEFAULT_CAC_THRESHOLDS, heavy, cal, seed=0)
    blocking = column(report, "blocking")
    dropping = column(report, "dropping")
    saving = column(report, "cost_saving_pct")
    monotone = (_non_increasing(blocking) and _non_decreasing(dropping)
                and _non_increasing(saving, tol=1e-7))
    nontrivial = blocking[0] > 0.0 and dropping[-1] > 0.0

    # (b) stationary run vs the birth-death oracle; standard errors come
    # from independent replications since blocking events cluster in time
    horizon = Horizon(T=240)
    spec = uniform_traffic(2.0, 0.3, periods=240)
    cac = CacConfig(25, 20)
    ref_b, ref_d, _ = analytic_guard_channel(1.4, 0.6, 10.0, cac)
    reps = 10
    sims_b, sims_d = [], []
    for i in range(reps):
        _, stats = lone_replication(spec, cac, horizon, seed=1, index=i)
        sims_b.append(stats.new_blocking_prob)
        sims_d.append(stats.handoff_dropping_prob)
    z_b = (np.mean(sims_b) - ref_b) / (np.std(sims_b, ddof=1) / np.sqrt(reps))
    z_d = (np.mean(sims_d) - ref_d) / (np.std(sims_d, ddof=1) / np.sqrt(reps))
    within_3se = abs(z_b) < 3.0 and abs(z_d) < 3.0

    # (c) no guard band and no handoffs collapse to the Erlang-B formula
    erlang_gap = 0.0
    for a, channels in ((5.0, 10), (18.0, 25), (30.0, 25)):
        analytic, _, _ = analytic_guard_channel(
            a / 10.0, 0.0, 10.0, CacConfig(channels, channels))
        erlang_gap = max(erlang_gap, abs(analytic - _erlang_b(a, channels)))

    ok = monotone and nontrivial and within_3se and erlang_gap <= 1e-10
    _report(8, ok,
            f"monotone QoS/saving over {len(report.rows)} thresholds "
            f"(blocking {blocking[0]:.3f} -> {blocking[-1]:.3f}, dropping "
            f"{dropping[0]:.2e} -> {dropping[-1]:.2e}), |z| = "
            f"{abs(z_b):.2f}/{abs(z_d):.2f} (< 3), Erlang-B gap "
            f"{erlang_gap:.1e} (tol 1e-10)")


def test_criterion_9_cli_byte_determinism(tmp_path):
    config = {
        "schema": "bspower-config-1",
        "traffic": {"replications": 2},
        "sweeps": {
            "battery": {"capacities_wh": [1000.0, 2000.0],
                        "renewable_scalings": [1.0, 1.5]},
            "cac": {"thresholds": [10, 20], "load_per_min": 0.56},
            "arrival": {"rates_per_min": [0.2, 0.6]},
        },
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config, indent=2))

    jobs = [
        (["solve"], "policy.csv"),
        (["sweep", "battery"], "battery_sweep.csv"),
        (["sweep", "cac"], "cac_sweep.csv"),
        (["sweep", "arrival"], "arrival_sweep.csv"),
    ]
    identical = []
    for k, (argv, artifact) in enumerate(jobs):
        outs = [tmp_path / f"run{k}_{i}" for i in (0, 1)]
        for out in outs:
            code = main(argv + ["--config", str(cfg), "--out", str(out),
                                "--seed", "0"])
            assert code == 0, (argv, code)
        first = (outs[0] / artifact).read_bytes()
        second = (outs[1] / artifact).read_bytes()
        manifests = ((outs[0] / "manifest.txt").read_bytes()
                     == (outs[1] / "manifest.txt").read_bytes())
        identical.append(first == second and manifests)
    ok = all(identical)
    _report(9, ok,
            f"{len(jobs)} commands rerun with fixed seed; byte-identical "
            f"artifacts {identical}")
