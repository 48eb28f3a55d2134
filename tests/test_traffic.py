"""Connection-level traffic simulation and its birth-death analytic oracle."""

import math

import numpy as np
import pytest

from bspower.calibration import default_traffic_profiles
from bspower.traffic import (
    CacConfig,
    TrafficSpec,
    _add_occupancy_minutes,
    _simulate,
    _stream,
    analytic_guard_channel,
    simulate_replicated,
    uniform_traffic,
)
from bspower.units import Horizon
from scalar_traffic import scalar_simulate

DAY = Horizon(T=24)


def erlang_b(offered_erlangs, channels):
    """Independent Erlang-B recursion: B(0) = 1, B(k) = aB/(k + aB)."""
    b = 1.0
    for k in range(1, channels + 1):
        b = offered_erlangs * b / (k + offered_erlangs * b)
    return b


# ---------------------------------------------------------------------------
# construction and trivial loads
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        TrafficSpec(new_rate=[-0.1], handoff_rate=[0.0])
    with pytest.raises(ValueError):
        TrafficSpec(new_rate=[0.1, 0.2], handoff_rate=[0.1])
    with pytest.raises(ValueError):
        TrafficSpec(new_rate=[0.1], handoff_rate=[0.1], mean_holding=0.0)
    spec = TrafficSpec(new_rate=[0.2, 0.3], handoff_rate=[0.1, 0.1])
    np.testing.assert_allclose(spec.total_rate, [0.3, 0.4])


def test_cac_validation():
    with pytest.raises(ValueError):
        CacConfig(channels=0, threshold=0)
    with pytest.raises(ValueError):
        CacConfig(channels=10, threshold=11)
    with pytest.raises(ValueError):
        CacConfig(channels=10, threshold=0)
    assert CacConfig(channels=10, threshold=10).threshold == 10


def test_uniform_traffic_split():
    spec = uniform_traffic(1.0, 0.3, periods=24)
    np.testing.assert_allclose(spec.new_rate, 0.7)
    np.testing.assert_allclose(spec.handoff_rate, 0.3)
    with pytest.raises(ValueError):
        uniform_traffic(1.0, 1.5, periods=24)
    with pytest.raises(ValueError):
        uniform_traffic(-1.0, 0.3, periods=24)


def test_zero_arrivals_produce_empty_system():
    spec = uniform_traffic(0.0, 0.3, periods=24)
    trace, stats = simulate_replicated(spec, CacConfig(25, 20), DAY,
                                       replications=1, seed=3)
    np.testing.assert_array_equal(trace, np.zeros(24))
    assert stats.offered_new == 0 and stats.offered_handoff == 0
    assert stats.new_blocking_prob == 0.0 and stats.handoff_dropping_prob == 0.0


def test_rate_trace_length_must_match_horizon():
    spec = uniform_traffic(0.5, 0.3, periods=12)
    with pytest.raises(ValueError):
        simulate_replicated(spec, CacConfig(25, 20), DAY, replications=1, seed=0)


# ---------------------------------------------------------------------------
# seeding discipline
# ---------------------------------------------------------------------------

def test_same_seed_reproduces_run_exactly():
    spec = uniform_traffic(0.56, 0.3, periods=24)
    cac = CacConfig(25, 20)
    t1, s1 = simulate_replicated(spec, cac, DAY, replications=1, seed=42)
    t2, s2 = simulate_replicated(spec, cac, DAY, replications=1, seed=42)
    np.testing.assert_array_equal(t1, t2)
    assert s1 == s2
    t3, _ = simulate_replicated(spec, cac, DAY, replications=1, seed=43)
    assert not np.array_equal(t1, t3)


def test_single_replication_equals_plain_run():
    spec = uniform_traffic(0.8, 0.3, periods=24)
    cac = CacConfig(25, 20)
    t1, s1 = _simulate(spec, cac, DAY, _stream(7, 0))
    t2, s2 = simulate_replicated(spec, cac, DAY, replications=1, seed=7)
    np.testing.assert_array_equal(t1, t2)
    assert s1 == s2


def test_replications_pool_offered_counts():
    spec = uniform_traffic(1.2, 0.3, periods=24)
    cac = CacConfig(25, 20)
    _, pooled = simulate_replicated(spec, cac, DAY, replications=4, seed=11)
    singles = [simulate_replicated(spec, cac, DAY, replications=1, seed=11)]
    # replication i consumes substream i of the same master seed, so the
    # first replication must coincide with the plain run
    assert singles[0][1].offered_new <= pooled.offered_new
    total = 0
    for i in range(4):
        _, s = _simulate(spec, cac, DAY, _stream(11, i))
        total += s.offered_new
    assert pooled.offered_new == total


def test_occupancy_stays_within_channel_count():
    spec = uniform_traffic(3.0, 0.3, periods=24)
    cac = CacConfig(10, 8)
    trace, _ = simulate_replicated(spec, cac, DAY, replications=1, seed=5)
    assert np.all(trace >= 0.0)
    assert np.all(trace <= 10.0)


def test_replication_count_must_be_positive():
    spec = uniform_traffic(0.5, 0.3, periods=24)
    with pytest.raises(ValueError):
        simulate_replicated(spec, CacConfig(25, 20), DAY, replications=0, seed=0)


def test_pooling_replications_shrinks_estimator_spread():
    # pooling R substreams should cut the blocking estimator variance by
    # roughly 1/R; measured across independent master seeds
    spec = uniform_traffic(0.5, 0.2, periods=24)
    cac = CacConfig(channels=5, threshold=4)
    single, pooled = [], []
    for seed in range(30):
        _, one = simulate_replicated(spec, cac, DAY, replications=1, seed=seed)
        _, nine = simulate_replicated(spec, cac, DAY, replications=9, seed=seed)
        single.append(one.new_blocking_prob)
        pooled.append(nine.new_blocking_prob)
    v_one = np.var(single, ddof=1)
    v_nine = np.var(pooled, ddof=1)
    assert v_nine < v_one
    assert 3.0 < v_one / v_nine < 30.0


# ---------------------------------------------------------------------------
# coupling properties under common random numbers
# ---------------------------------------------------------------------------

def test_threshold_monotonicity_is_exact_under_shared_seed():
    # raising the admission threshold can only admit more new connections,
    # so with one seed blocking counts fall and dropping counts rise
    spec = uniform_traffic(2.0, 0.3, periods=24)
    for seed in (0, 1, 2, 3):
        results = [
            simulate_replicated(spec, CacConfig(25, tau), DAY, 2, seed)[1]
            for tau in (5, 10, 15, 20, 25)
        ]
        blocked = [r.blocked_new for r in results]
        dropped = [r.dropped_handoff for r in results]
        assert blocked == sorted(blocked, reverse=True), (seed, blocked)
        assert dropped == sorted(dropped), (seed, dropped)
        offered = {(r.offered_new, r.offered_handoff) for r in results}
        assert len(offered) == 1  # arrivals are shared across thresholds


def test_heavier_arrivals_mean_pointwise_heavier_occupancy():
    cac = CacConfig(25, 20)
    for seed in (0, 4, 9):
        light = simulate_replicated(uniform_traffic(0.3, 0.3, 24), cac,
                                    DAY, 2, seed)[0]
        heavy = simulate_replicated(uniform_traffic(0.9, 0.3, 24), cac,
                                    DAY, 2, seed)[0]
        assert np.all(heavy >= light - 1e-12), seed


# ---------------------------------------------------------------------------
# analytic birth-death oracle
# ---------------------------------------------------------------------------

def test_analytic_matches_independent_erlang_b():
    # zero handoff traffic with threshold == channels removes the guard
    # band, collapsing the chain to the classical loss system
    for a, c in ((5.0, 10), (18.0, 25), (30.0, 25), (0.5, 3)):
        blocking, dropping, _ = analytic_guard_channel(
            new_rate=a / 10.0, handoff_rate=0.0, mean_holding=10.0,
            cac=CacConfig(channels=c, threshold=c))
        assert blocking == pytest.approx(erlang_b(a, c), abs=1e-12)
        assert dropping == pytest.approx(erlang_b(a, c), abs=1e-12)


def test_analytic_probabilities_are_sane():
    cac = CacConfig(25, 20)
    blocking, dropping, occupancy = analytic_guard_channel(1.4, 0.6, 10.0, cac)
    assert 0.0 < dropping < blocking < 1.0  # the guard band protects handoffs
    assert 0.0 < occupancy < 25.0


def test_analytic_blocking_monotone_in_threshold():
    prev_blocking, prev_dropping = 1.0, 0.0
    for tau in range(5, 26):
        blocking, dropping, _ = analytic_guard_channel(
            1.4, 0.6, 10.0, CacConfig(25, tau))
        assert blocking <= prev_blocking + 1e-12
        assert dropping >= prev_dropping - 1e-12
        prev_blocking, prev_dropping = blocking, dropping


def test_analytic_pure_handoff_chain():
    # no new connections: blocking is the tail mass of a handoff-only chain
    cac = CacConfig(channels=6, threshold=4)
    blocking, dropping, occupancy = analytic_guard_channel(0.0, 0.3, 10.0, cac)
    a = 0.3 * 10.0
    weights = [a ** k / math.factorial(k) for k in range(7)]
    pi = np.array(weights) / sum(weights)
    assert blocking == pytest.approx(pi[4:].sum(), abs=1e-12)
    assert dropping == pytest.approx(pi[6], abs=1e-12)
    assert occupancy == pytest.approx(np.arange(7) @ pi, abs=1e-12)


def test_analytic_light_traffic_limit():
    blocking, dropping, occupancy = analytic_guard_channel(
        1e-7, 1e-7, 10.0, CacConfig(25, 20))
    assert blocking < 1e-6 and dropping < 1e-6 and occupancy < 1e-5


def test_analytic_validation():
    with pytest.raises(ValueError):
        analytic_guard_channel(-1.0, 0.0, 10.0, CacConfig(5, 5))
    with pytest.raises(ValueError):
        analytic_guard_channel(1.0, 0.0, 0.0, CacConfig(5, 5))


def test_simulation_agrees_with_analytic_steady_state():
    # long stationary runs so the empty-system start is negligible; blocking
    # events cluster when the system is full, so the standard error comes
    # from independent replications rather than a binomial count formula
    horizon = Horizon(T=240)
    spec = uniform_traffic(2.0, 0.3, periods=240)
    cac = CacConfig(25, 20)
    blocking, dropping, occupancy = analytic_guard_channel(1.4, 0.6, 10.0, cac)

    reps = 10
    per_rep = {"blocking": [], "dropping": [], "occupancy": []}
    for i in range(reps):
        trace, stats = _simulate(spec, cac, horizon, _stream(1, i))
        per_rep["blocking"].append(stats.new_blocking_prob)
        per_rep["dropping"].append(stats.handoff_dropping_prob)
        per_rep["occupancy"].append(trace.mean())
    for name, ref in (("blocking", blocking), ("dropping", dropping),
                      ("occupancy", occupancy)):
        values = np.array(per_rep[name])
        se = values.std(ddof=1) / np.sqrt(reps)
        assert abs(values.mean() - ref) < 3 * se, (name, values.mean(), ref, se)


# ---------------------------------------------------------------------------
# vectorized simulator against the scalar event-loop oracle
# ---------------------------------------------------------------------------

def _assert_matches_oracle(spec, cac, horizon, seed):
    trace, stats = _simulate(spec, cac, horizon, _stream(seed, 0))
    ref_trace, ref_stats = scalar_simulate(spec, cac, horizon, _stream(seed, 0))
    assert np.array_equal(trace, ref_trace), (cac, horizon, seed)
    assert stats == ref_stats, (cac, horizon, seed)


# 0.6-minute and 1-minute periods make one inter-event gap cross several
# period edges, most often with a single channel (event rate 1.1/min)
@pytest.mark.parametrize("horizon", (
    DAY, Horizon(T=240, period_hours=0.01), Horizon(T=30, period_hours=1 / 60),
), ids=("60min", "0.6min", "1min"))
@pytest.mark.parametrize("cac", (
    CacConfig(1, 1), CacConfig(5, 4), CacConfig(10, 8), CacConfig(25, 20),
), ids=lambda cac: f"{cac.channels}ch{cac.threshold}")
def test_vectorized_run_matches_scalar_oracle(cac, horizon):
    for rate in (0.0, 0.4, 2.0, 7.5):
        spec = uniform_traffic(rate, 0.3, horizon.T)
        for seed in (0, 1):
            _assert_matches_oracle(spec, cac, horizon, seed)


def test_vectorized_profiles_match_scalar_oracle():
    for profile in default_traffic_profiles(0.3, 10.0, DAY.T):
        spec = TrafficSpec(new_rate=profile.new_rate,
                           handoff_rate=profile.handoff_rate,
                           mean_holding=profile.mean_holding_min)
        for seed in (0, 3):
            _assert_matches_oracle(spec, CacConfig(25, 20), DAY, seed)
            _assert_matches_oracle(spec, CacConfig(5, 4), DAY, seed)


def test_vectorized_long_run_matches_scalar_oracle():
    # several draw blocks, so the clock is carried from block to block
    _assert_matches_oracle(uniform_traffic(2.0, 0.3, 240), CacConfig(25, 20),
                           Horizon(T=240), seed=1)


def test_gap_across_a_draw_block_matches_scalar_oracle():
    # one busy channel (4 erlangs offered) and 1.1 events/min against
    # 0.6-minute periods: at seed 9 the gap from the first block's last
    # event to the second block's first one spans five period edges
    horizon = Horizon(T=12000, period_hours=0.01)
    _assert_matches_oracle(uniform_traffic(0.4, 0.3, horizon.T), CacConfig(1, 1),
                           horizon, seed=9)


def test_occupancy_minutes_split_at_every_edge_and_drop_slivers():
    starts = np.array([0.0, 0.5, 3.0 + 5e-13, 3.5])
    ends = np.array([0.5, 3.0 + 5e-13, 3.5, 3.5 + 5e-13])
    occ = np.array([2, 3, 0, 4])
    minutes = np.array([0.25, 0.0, 0.0, 0.0, 0.0])
    _add_occupancy_minutes(minutes, starts, ends, occ, period_min=1.0)
    # the second segment crosses three edges; its 5e-13 tail past 3.0 and
    # the whole last segment are within 1e-12 and count for nothing
    np.testing.assert_array_equal(
        minutes, [0.25 + 2 * 0.5 + 3 * 0.5, 3.0, 3.0, 0.0, 0.0])
