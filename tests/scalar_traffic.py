"""Scalar event loop of the guard-channel simulator, kept as a test oracle.

This is the one-event-at-a-time form of ``bspower.traffic._simulate``: it
draws the same blocks in the same order, advances the clock with
``t += dt`` and adds each occupancy piece to its period as it goes. The
vectorized simulator must reproduce its traces bit for bit and its QoS
counts exactly.
"""

import numpy as np

from bspower.traffic import _BLOCK, CacConfig, QosStats, TrafficSpec
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
