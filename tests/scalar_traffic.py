"""Scalar event loop of the guard-channel simulator, kept as a test oracle.

``scalar_simulate`` is the one-event-at-a-time form of one replication of
one run of ``bspower.traffic.simulate_replicated``: it draws the same
blocks in the same order, advances the clock with ``t += dt`` and adds
each occupancy piece to its period as it goes. The batched simulator must
reproduce its traces bit for bit and its QoS counts exactly, for every run
of a batch. ``scalar_replicated`` pools replications the way the batch
does, and ``lone_replication`` runs one replication of the batch by itself.
"""

from unittest import mock

import numpy as np

from bspower import traffic
from bspower.traffic import _BLOCK, CacConfig, QosStats, TrafficSpec, _stream
from bspower.units import Horizon


def scalar_simulate(spec: TrafficSpec, cac: CacConfig, horizon: Horizon,
                    rng: np.random.Generator) -> tuple[np.ndarray, QosStats]:
    T = horizon.T
    period_min = horizon.period_minutes
    total_min = T * period_min
    new = spec.new_rate
    total = spec.total_rate
    dominating = max(1.0, float(np.ceil(total.max())))
    mu = 1.0 / spec.mean_holding
    event_rate = dominating + cac.channels * mu
    p_arrival = dominating / event_rate

    occ = 0
    occ_minutes = np.zeros(T)
    offered_new = blocked_new = offered_h = dropped_h = 0

    t = 0.0
    done = False
    while not done:
        dts = rng.exponential(1.0 / event_rate, _BLOCK)
        u_type = rng.random(_BLOCK)
        u_thin = rng.random(_BLOCK)
        u_class = rng.random(_BLOCK)
        for i in range(_BLOCK):
            t_next = t + dts[i]
            seg_end = min(t_next, total_min)
            if occ and seg_end > t:
                a = t
                p = min(int(a / period_min), T - 1)
                while a < seg_end - 1e-12:
                    edge = min((p + 1) * period_min, seg_end)
                    occ_minutes[p] += occ * (edge - a)
                    a = edge
                    p = min(p + 1, T - 1)
            if t_next >= total_min:
                done = True
                break
            t = t_next
            if u_type[i] < p_arrival:
                idx = min(int(t / period_min), T - 1)
                tot = total[idx]
                if tot <= 0.0 or u_thin[i] * dominating > tot:
                    continue  # thinned out: no arrival at this candidate
                if u_class[i] * tot < spec.handoff_rate[idx]:
                    offered_h += 1
                    if occ < cac.channels:
                        occ += 1
                    else:
                        dropped_h += 1
                else:
                    offered_new += 1
                    if occ < cac.threshold:
                        occ += 1
                    else:
                        blocked_new += 1
            else:
                level = int((u_type[i] - p_arrival) * event_rate / mu)
                if occ > min(level, cac.channels - 1):
                    occ -= 1

    stats = QosStats(
        new_blocking_prob=blocked_new / offered_new if offered_new else 0.0,
        handoff_dropping_prob=dropped_h / offered_h if offered_h else 0.0,
        offered_new=offered_new,
        offered_handoff=offered_h,
        blocked_new=blocked_new,
        dropped_handoff=dropped_h,
    )
    return occ_minutes / period_min, stats


def scalar_replicated(spec: TrafficSpec, cac: CacConfig, horizon: Horizon,
                      replications: int, seed: int) -> tuple[np.ndarray, QosStats]:
    """Mean trace and summed QoS counts of replications 0..replications-1."""
    acc = np.zeros(horizon.T)
    offered_new = blocked_new = offered_h = dropped_h = 0
    for i in range(replications):
        trace, stats = scalar_simulate(spec, cac, horizon, _stream(seed, i))
        acc += trace
        offered_new += stats.offered_new
        blocked_new += stats.blocked_new
        offered_h += stats.offered_handoff
        dropped_h += stats.dropped_handoff
    stats = QosStats(
        new_blocking_prob=blocked_new / offered_new if offered_new else 0.0,
        handoff_dropping_prob=dropped_h / offered_h if offered_h else 0.0,
        offered_new=offered_new,
        offered_handoff=offered_h,
        blocked_new=blocked_new,
        dropped_handoff=dropped_h,
    )
    return acc / replications, stats


def lone_replication(spec: TrafficSpec, cac: CacConfig, horizon: Horizon,
                     seed: int, index: int) -> tuple[np.ndarray, QosStats]:
    """Replication ``index`` of one run of ``simulate_replicated``, alone.

    The batch draws replication i from ``_stream(seed, i)``. This runs a
    one-replication batch whose stream 0 is swapped for stream ``index``.
    """
    def shifted(stream_seed, i=0):
        return _stream(stream_seed, i + index)

    with mock.patch.object(traffic, "_stream", shifted):
        result = traffic.simulate_replicated([(spec, cac)], horizon, 1, seed)
    return result.traces[0], result.qos[0]
