"""Connection-level traffic simulation with guard-channel admission control.

A base station has a fixed number of channels. New connections are
admitted only while occupancy is below a guard threshold; handoff
connections are admitted while any channel is free. Arrivals are Poisson
with piecewise-constant per-period rates (connections per minute) and
holding times are exponential.

Implementation notes: arrivals are generated by thinning against a
constant dominating rate, and departures by level-indexed exponential
clocks (uniformization), which preserves the exact occupancy law. Every
event consumes the same four draws regardless of outcome, so two runs
with the same seed see identical event streams even when the admission
threshold or the arrival-rate scale differs; decision paths then differ
only through occupancy. This makes blocking/dropping exactly monotone in
the threshold and occupancy exactly monotone in the arrival rate under
common random numbers, not just in expectation.

The dominating rate is max(1, ceil(max total rate)), so runs whose peak
total rates round up to the same integer stay event-aligned. A run whose
expected number of candidate events, (dominating rate + channels / mean
holding) x horizon minutes, exceeds _MAX_EVENTS is refused with
ValueError before it draws anything; rates must be finite.

Each run is vectorized on its own, one block of draws at a time: 4096
holding gaps, then 4096 each of event-type, thinning and class uniforms,
until the clock passes the horizon, so memory does not grow with the
horizon. Event times are the cumulative sum of a block's gaps with the
previous event time prepended: ``np.cumsum`` adds left to right, so every
time equals a scalar ``t += dt`` clock bit for bit, where
``t0 + np.cumsum(dts)`` would round differently. Period index, thinning,
handoff/new class and departure level are array expressions that give
each event one integer code. The occupancy recursion is the only Python
loop: one table lookup per event, carried across blocks. Time spent at
each occupancy is cut at period edges and added to the per-period totals
with ``np.add.at`` in time order, so traces and QoS counts are identical
to a one-event-at-a-time loop.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .units import Horizon

_BLOCK = 4096
# Expected candidate events per run above which a run is refused before any
# draw: about five minutes of simulation at a few microseconds per event.
_MAX_EVENTS = 10**8


@dataclass(frozen=True)
class TrafficSpec:
    """Arrival-rate traces (connections/minute per period) and holding time."""

    new_rate: np.ndarray
    handoff_rate: np.ndarray
    mean_holding: float = 10.0  # minutes

    def __post_init__(self):
        new = np.atleast_1d(np.asarray(self.new_rate, dtype=float))
        hand = np.atleast_1d(np.asarray(self.handoff_rate, dtype=float))
        object.__setattr__(self, "new_rate", new)
        object.__setattr__(self, "handoff_rate", hand)
        if new.shape != hand.shape:
            raise ValueError("new_rate and handoff_rate must have equal length")
        with np.errstate(over="ignore"):
            total = new + hand
        if not np.all(np.isfinite(total)):
            raise ValueError("arrival rates must be finite, and so must their sum")
        if np.any(new < 0) or np.any(hand < 0):
            raise ValueError("arrival rates must be non-negative")
        if not self.mean_holding > 0:
            raise ValueError(f"mean_holding must be positive, got {self.mean_holding}")

    @property
    def total_rate(self) -> np.ndarray:
        return self.new_rate + self.handoff_rate


@dataclass(frozen=True)
class CacConfig:
    """Guard-channel admission control: threshold for new, channels for all."""

    channels: int
    threshold: int

    def __post_init__(self):
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        if not 1 <= self.threshold <= self.channels:
            raise ValueError(
                f"threshold must lie in [1, {self.channels}], got {self.threshold}"
            )


@dataclass(frozen=True)
class QosStats:
    new_blocking_prob: float
    handoff_dropping_prob: float
    offered_new: int
    offered_handoff: int
    blocked_new: int = 0
    dropped_handoff: int = 0


def uniform_traffic(total_rate: float, handoff_fraction: float, periods: int,
                    mean_holding: float = 10.0) -> TrafficSpec:
    """Stationary spec with a fixed split of total rate into new/handoff."""
    if not 0.0 <= handoff_fraction <= 1.0:
        raise ValueError(f"handoff_fraction must be in [0, 1], got {handoff_fraction}")
    if total_rate < 0:
        raise ValueError(f"total_rate must be non-negative, got {total_rate}")
    new = np.full(periods, total_rate * (1.0 - handoff_fraction))
    hand = np.full(periods, total_rate * handoff_fraction)
    return TrafficSpec(new_rate=new, handoff_rate=hand, mean_holding=mean_holding)


def _stream(seed: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _check_lengths(spec: TrafficSpec, horizon: Horizon) -> None:
    if spec.new_rate.size != horizon.T:
        raise ValueError(
            f"rate traces have {spec.new_rate.size} periods, horizon has {horizon.T}"
        )


@functools.lru_cache(maxsize=64)
def _transitions(channels: int, threshold: int) -> tuple[tuple[int, ...], ...]:
    """Next occupancy by event code and current occupancy.

    Codes 0..channels-1 are departure clocks (the connection at that level
    leaves if occupancy is above it), then a handoff arrival, a new
    arrival and a thinned candidate that changes nothing.
    """
    levels = range(channels + 1)
    departures = [tuple(k - 1 if k > d else k for k in levels)
                  for d in range(channels)]
    handoff = tuple(k + 1 if k < channels else k for k in levels)
    new = tuple(k + 1 if k < threshold else k for k in levels)
    return (*departures, handoff, new, tuple(levels))


def _add_occupancy_minutes(minutes: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                           occ: np.ndarray, period_min: float) -> None:
    """Add connection-minutes per period from piecewise-constant occupancy.

    Segment i holds ``occ[i]`` connections over [starts[i], ends[i]]. Each
    segment is cut at period edges; a remainder within 1e-12 of the
    segment end is dropped. ``np.add.at`` adds in input order onto the
    running totals, so the pieces are fed segment by segment and, within a
    segment, edge by edge: each period then sums its pieces in time order.
    """
    T = minutes.size
    seg = np.flatnonzero((occ > 0) & (ends > starts))
    a, end, occ = starts[seg], ends[seg], occ[seg]
    stop = end - 1e-12
    p = np.minimum((a / period_min).astype(np.int64), T - 1)
    owners, bins, weights = [], [], []
    keep = a < stop
    while keep.any():  # one round per period edge crossed
        seg, a, end, stop, occ, p = (x[keep] for x in (seg, a, end, stop, occ, p))
        edge = np.minimum((p + 1) * period_min, end)
        owners.append(seg)
        bins.append(p)
        weights.append(occ * (edge - a))
        a = edge
        p = np.minimum(p + 1, T - 1)
        keep = a < stop
    if owners:
        order = np.argsort(np.concatenate(owners), kind="stable")
        np.add.at(minutes, np.concatenate(bins)[order], np.concatenate(weights)[order])


def _qos(offered_new: int, blocked_new: int, offered_h: int, dropped_h: int) -> QosStats:
    return QosStats(
        new_blocking_prob=blocked_new / offered_new if offered_new else 0.0,
        handoff_dropping_prob=dropped_h / offered_h if offered_h else 0.0,
        offered_new=offered_new,
        offered_handoff=offered_h,
        blocked_new=blocked_new,
        dropped_handoff=dropped_h,
    )


def _simulate(spec: TrafficSpec, cac: CacConfig, horizon: Horizon,
              rng: np.random.Generator) -> tuple[np.ndarray, QosStats]:
    T = horizon.T
    period_min = horizon.period_minutes
    total_min = T * period_min
    total = spec.total_rate
    channels = cac.channels
    dominating = max(1.0, float(np.ceil(total.max())))
    mu = 1.0 / spec.mean_holding
    event_rate = dominating + channels * mu
    expected_events = event_rate * total_min
    if not expected_events <= _MAX_EVENTS:
        raise ValueError(
            f"a traffic run would need about {expected_events:.3g} events, more than "
            f"{_MAX_EVENTS:.0e}; check the arrival rates and the mean holding time")
    p_arrival = dominating / event_rate
    handoff_code, new_code, noop_code = channels, channels + 1, channels + 2
    step = _transitions(channels, cac.threshold)

    # One block of draws at a time until the clock passes the end; the
    # clock and the occupancy carry over from block to block.
    minutes = np.zeros(T)
    n = 0
    offered_new = blocked_new = offered_h = dropped_h = 0
    t_end = 0.0
    while t_end < total_min:
        dts = rng.exponential(1.0 / event_rate, _BLOCK)
        u_type = rng.random(_BLOCK)
        u_thin = rng.random(_BLOCK)
        u_class = rng.random(_BLOCK)
        # add.accumulate sums left to right, so each time equals the
        # running ``t += dt`` of a scalar clock bit for bit; clock[0] is
        # the previous block's last event time
        clock = np.cumsum(np.concatenate(([t_end], dts)))
        t_end = clock[-1]
        k = int(np.searchsorted(clock[1:], total_min))  # events before the end
        t, u_type, u_thin, u_class = clock[1:k + 1], u_type[:k], u_thin[:k], u_class[:k]

        idx = np.minimum((t / period_min).astype(np.int64), T - 1)
        tot = total[idx]
        thinned = (tot <= 0.0) | (u_thin * dominating > tot)
        handoff_class = u_class * tot < spec.handoff_rate[idx]
        level = ((u_type - p_arrival) * event_rate / mu).astype(np.int64)
        code = np.where(
            u_type < p_arrival,
            np.where(thinned, noop_code, np.where(handoff_class, handoff_code, new_code)),
            np.minimum(level, channels - 1))

        # The occupancy recursion is the only sequential step.
        occ = np.empty(k + 1, dtype=np.int64)  # occ[i]: occupancy before event i
        occ[0] = n
        occ[1:] = [n := step[c][n] for c in code.tolist()]
        held = occ[1:] == occ[:-1]  # an arrival that leaves occupancy unchanged was refused
        handoff = code == handoff_code
        new = code == new_code
        offered_new += int(new.sum())
        blocked_new += int((new & held).sum())
        offered_h += int(handoff.sum())
        dropped_h += int((handoff & held).sum())

        # The segment after a block's last event goes on into the next block.
        segs = min(k + 1, _BLOCK)
        _add_occupancy_minutes(minutes, clock[:segs],
                               np.minimum(clock[1:segs + 1], total_min),
                               occ[:segs], period_min)

    return minutes / period_min, _qos(offered_new, blocked_new, offered_h, dropped_h)


def simulate_replicated(spec: TrafficSpec, cac: CacConfig, horizon: Horizon,
                        replications: int, seed: int) -> tuple[np.ndarray, QosStats]:
    """Average occupancy trace and pooled QoS counts over replications.

    Replication i uses an independent substream derived from (seed, i), so
    one replication is the plain seeded run and substreams stay aligned
    across runs that vary only the admission threshold or rates.
    """
    _check_lengths(spec, horizon)
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    acc = np.zeros(horizon.T)
    offered_new = blocked_new = offered_h = dropped_h = 0
    for i in range(replications):
        trace, stats = _simulate(spec, cac, horizon, _stream(seed, i))
        acc += trace
        offered_new += stats.offered_new
        blocked_new += stats.blocked_new
        offered_h += stats.offered_handoff
        dropped_h += stats.dropped_handoff
    return acc / replications, _qos(offered_new, blocked_new, offered_h, dropped_h)

