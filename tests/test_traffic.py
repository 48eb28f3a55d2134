"""Connection-level traffic simulation and its birth-death analytic oracle."""

import math

import numpy as np
import pytest

from bspower import traffic
from bspower.calibration import default_calibration, default_traffic_profiles
from bspower.traffic import (
    CacConfig,
    TrafficSpec,
    _add_occupancy_minutes,
    _stream,
    simulate_replicated,
    uniform_traffic,
)
from bspower.units import Horizon
from analytic_traffic import analytic_guard_channel
from scalar_traffic import lone_replication, scalar_replicated, scalar_simulate

DAY = Horizon(T=24)


def one_run(spec, cac, horizon, replications, seed):
    """(trace, QosStats) of a batch of one run."""
    result = simulate_replicated([(spec, cac)], horizon, replications, seed)
    return result.traces[0], result.qos[0]


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


@pytest.mark.parametrize("new, handoff", [
    ([np.nan, 0.2], [0.1, 0.1]),
    ([0.2, 0.3], [0.1, np.inf]),
    ([1e308, 0.3], [1e308, 0.1]),  # each finite, the total overflows
], ids=("nan", "inf", "overflowing-sum"))
def test_spec_rejects_rates_that_are_not_finite(new, handoff):
    with pytest.raises(ValueError, match="finite"):
        TrafficSpec(new_rate=new, handoff_rate=handoff)


@pytest.mark.parametrize("spec", [
    TrafficSpec(new_rate=np.full(24, 1.0), handoff_rate=np.zeros(24), mean_holding=1e-300),
    uniform_traffic(1e12, 0.3, 24),
], ids=("tiny-holding", "huge-rate"))
def test_run_with_too_many_events_is_refused_before_drawing(spec, monkeypatch):
    rng = _stream(0)
    before = rng.bit_generator.state
    # every stream the batch would open is this generator
    monkeypatch.setattr(traffic, "_stream", lambda seed, index=0: rng)
    with pytest.raises(ValueError, match="events"):
        simulate_replicated([(spec, CacConfig(channels=25, threshold=20))], DAY, 1, seed=0)
    assert rng.bit_generator.state == before
    monkeypatch.undo()
    with pytest.raises(ValueError, match="events"):
        simulate_replicated([(spec, CacConfig(channels=25, threshold=20))], DAY, 2, seed=0)


def test_event_budget_counts_every_run_and_replication(monkeypatch):
    # one run of 10^4 replications needs about 5.04e7 events (3.5 per minute
    # over 1440 minutes each), under the budget; two such runs are over it
    spec = uniform_traffic(0.56, 0.3, DAY.T)
    cac = CacConfig(channels=25, threshold=20)
    opened = []
    monkeypatch.setattr(traffic, "_stream",
                        lambda seed, index=0: opened.append(index))
    with pytest.raises(ValueError, match="1.01e[+]08 events"):
        simulate_replicated([(spec, cac), (spec, cac)], DAY, 10**4, seed=0)
    with pytest.raises(ValueError, match="events"):
        simulate_replicated([(spec, cac)], DAY, 10**8, seed=0)
    assert opened == []


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
    trace, stats = one_run(spec, CacConfig(25, 20), DAY, replications=1, seed=3)
    np.testing.assert_array_equal(trace, np.zeros(24))
    assert stats.offered_new == 0 and stats.offered_handoff == 0
    assert stats.new_blocking_prob == 0.0 and stats.handoff_dropping_prob == 0.0


def test_rate_trace_length_must_match_horizon():
    spec = uniform_traffic(0.5, 0.3, periods=12)
    with pytest.raises(ValueError):
        simulate_replicated([(spec, CacConfig(25, 20))], DAY, replications=1, seed=0)


# ---------------------------------------------------------------------------
# seeding discipline
# ---------------------------------------------------------------------------

def test_same_seed_reproduces_run_exactly():
    spec = uniform_traffic(0.56, 0.3, periods=24)
    cac = CacConfig(25, 20)
    t1, s1 = one_run(spec, cac, DAY, replications=1, seed=42)
    t2, s2 = one_run(spec, cac, DAY, replications=1, seed=42)
    np.testing.assert_array_equal(t1, t2)
    assert s1 == s2
    t3, _ = one_run(spec, cac, DAY, replications=1, seed=43)
    assert not np.array_equal(t1, t3)


def test_single_replication_equals_plain_run():
    spec = uniform_traffic(0.8, 0.3, periods=24)
    cac = CacConfig(25, 20)
    t1, s1 = lone_replication(spec, cac, DAY, seed=7, index=0)
    t2, s2 = one_run(spec, cac, DAY, replications=1, seed=7)
    np.testing.assert_array_equal(t1, t2)
    assert s1 == s2


def test_replications_pool_offered_counts():
    spec = uniform_traffic(1.2, 0.3, periods=24)
    cac = CacConfig(25, 20)
    _, pooled = one_run(spec, cac, DAY, replications=4, seed=11)
    singles = [one_run(spec, cac, DAY, replications=1, seed=11)]
    # replication i consumes substream i of the same master seed, so the
    # first replication must coincide with the plain run
    assert singles[0][1].offered_new <= pooled.offered_new
    total = 0
    for i in range(4):
        _, s = lone_replication(spec, cac, DAY, seed=11, index=i)
        total += s.offered_new
    assert pooled.offered_new == total


def test_occupancy_stays_within_channel_count():
    spec = uniform_traffic(3.0, 0.3, periods=24)
    cac = CacConfig(10, 8)
    trace, _ = one_run(spec, cac, DAY, replications=1, seed=5)
    assert np.all(trace >= 0.0)
    assert np.all(trace <= 10.0)


def test_replication_count_must_be_positive():
    spec = uniform_traffic(0.5, 0.3, periods=24)
    with pytest.raises(ValueError):
        simulate_replicated([(spec, CacConfig(25, 20))], DAY, replications=0, seed=0)


def test_pooling_replications_shrinks_estimator_spread():
    # pooling R substreams should cut the blocking estimator variance by
    # roughly 1/R; measured across independent master seeds
    spec = uniform_traffic(0.5, 0.2, periods=24)
    cac = CacConfig(channels=5, threshold=4)
    single, pooled = [], []
    for seed in range(30):
        _, one = one_run(spec, cac, DAY, replications=1, seed=seed)
        _, nine = one_run(spec, cac, DAY, replications=9, seed=seed)
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
            one_run(spec, CacConfig(25, tau), DAY, 2, seed)[1]
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
        light = one_run(uniform_traffic(0.3, 0.3, 24), cac, DAY, 2, seed)[0]
        heavy = one_run(uniform_traffic(0.9, 0.3, 24), cac, DAY, 2, seed)[0]
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
        trace, stats = lone_replication(spec, cac, horizon, seed=1, index=i)
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
    trace, stats = one_run(spec, cac, horizon, 1, seed)
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


def _assert_batch_matches_oracle(runs, horizon, replications, seed):
    result = simulate_replicated(runs, horizon, replications, seed)
    assert result.traces.shape == (len(runs), horizon.T)
    for j, (spec, cac) in enumerate(runs):
        ref_trace, ref_stats = scalar_replicated(spec, cac, horizon, replications, seed)
        assert np.array_equal(result.traces[j], ref_trace), (j, cac, horizon, seed)
        assert result.qos[j] == ref_stats, (j, cac, horizon, seed)
    pooled = result.pooled
    assert pooled.offered_new == sum(q.offered_new for q in result.qos)
    assert pooled.dropped_handoff == sum(q.dropped_handoff for q in result.qos)


def _mixed_runs(periods):
    # event rates from 1.1/min (rate 0, one channel) to 58/min (rate 7.5,
    # 25 channels, 0.5-minute holding), so the runs need from one to many
    # draw blocks; some runs share a spec object, some share only a rate
    idle, light, heavy = (uniform_traffic(rate, 0.3, periods) for rate in (0.0, 0.4, 7.5))
    return [
        (light, CacConfig(1, 1)),
        (idle, CacConfig(25, 20)),
        (heavy, CacConfig(25, 20)),
        (light, CacConfig(25, 20)),
        (uniform_traffic(0.4, 0.3, periods), CacConfig(25, 5)),
        (uniform_traffic(7.5, 0.3, periods, mean_holding=0.5), CacConfig(25, 20)),
        (heavy, CacConfig(5, 4)),
        (idle, CacConfig(1, 1)),
        (light, CacConfig(25, 25)),
        # codes and occupancies past one byte
        (heavy, CacConfig(300, 280)),
    ]


# a 0.012-minute horizon mostly ends before the first event of a run
@pytest.mark.parametrize("horizon", (
    DAY, Horizon(T=240, period_hours=0.01), Horizon(T=2, period_hours=1e-4),
), ids=("60min", "0.6min", "0.006min"))
def test_mixed_batch_matches_scalar_oracle_run_by_run(horizon):
    _assert_batch_matches_oracle(_mixed_runs(horizon.T), horizon, 2, seed=4)


def test_batch_result_does_not_depend_on_its_company():
    runs = _mixed_runs(DAY.T)
    together = simulate_replicated(runs, DAY, 2, seed=8)
    for j, run in enumerate(runs):
        alone = simulate_replicated([run], DAY, 2, seed=8)
        assert np.array_equal(alone.traces[0], together.traces[j])
        assert alone.qos[0] == together.qos[j]


def test_empty_batch_returns_no_runs():
    result = simulate_replicated([], DAY, 3, seed=0)
    assert result.traces.shape == (0, DAY.T)
    assert result.qos == ()
    assert result.pooled.offered_new == 0 and result.pooled.offered_handoff == 0


def test_default_consumption_space_opens_each_stream_once(monkeypatch):
    # the five default profiles share one event rate (1 + 25/10 per minute),
    # so replication i's draws are made once for all of them
    cal = default_calibration()
    opened = []

    def spy(seed, index=0):
        opened.append((seed, index))
        return _stream(seed, index)

    monkeypatch.setattr(traffic, "_stream", spy)
    cal.consumption_space(seed=0)
    assert len(cal.traffic_profiles) == 5
    assert opened == [(0, i) for i in range(cal.replications)]


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
