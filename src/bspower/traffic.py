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
total rates round up to the same integer stay event-aligned.

``simulate_replicated`` takes a batch of (spec, admission control) runs
for one horizon, seed and replication count, and returns every run's
trace and QoS counts exactly as if the run were simulated alone.
Replication i of every run draws from substream (seed, i). Runs that
share the dominating rate, the channel count and the mean holding time
have one event rate, so they see the same draws, clock, period indices
and departure levels: such a group draws each block of a substream once
per replication and shares it. Before anything is drawn, the expected
number of candidate events of the whole call, replications x the sum over
runs of (dominating rate + channels / mean holding) x horizon minutes, is
checked against _MAX_EVENTS; past it the call is refused with ValueError.
Rates must be finite.

Draws come one block at a time: 4096 holding gaps, then 4096 each of
event-type, thinning and class uniforms, until the clock passes the
horizon, so memory does not grow with the horizon. Event times are the
cumulative sum of a block's gaps with the previous event time prepended:
``np.cumsum`` adds left to right, so every time equals a scalar
``t += dt`` clock bit for bit, where ``t0 + np.cumsum(dts)`` would round
differently. Thinning and the handoff/new class depend on the rates, not
on the threshold, so the event codes of a group are one (distinct specs x
events) array of small unsigned integers, one byte each up to 253
channels. The occupancy recursion is the only Python loop: per run, one
table lookup per event, carried across blocks. Time spent at each
occupancy is cut at period edges once per group and block, since the
segments are shared, and the pieces of all runs go to ``np.add.at`` over
flat bins ``run * T + period``: first the few pieces past a segment's
first period edge, each the earliest piece of its period, then every
segment's first piece, run by run in segment order. Each period so adds
its pieces in time order, and traces and QoS counts are identical to a
one-event-at-a-time loop over each run.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .units import Horizon

_BLOCK = 4096
# Expected candidate events per call, summed over runs and replications,
# above which a call is refused before any draw: about five minutes of
# simulation at a few microseconds per event.
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


class TrafficRuns(NamedTuple):
    """What one ``simulate_replicated`` call returns, in the order of its runs.

    ``traces`` and ``pooled`` keep the places of a one-run result's trace
    and counts: benchmarks/tracing.py reads item 1 as the QoS counts of a
    call. Elsewhere, counts over several runs are the sum of ``qos``.
    """

    traces: np.ndarray         # (runs, T): each run's mean occupancy per period
    pooled: QosStats           # counts summed over every run and replication
    qos: tuple[QosStats, ...]  # each run's counts, summed over its replications


def _add_occupancy_minutes(minutes: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                           occ: np.ndarray, period_min: float) -> None:
    """Add connection-minutes per period from piecewise-constant occupancy.

    Segments follow each other in time: segment i spans [starts[i], ends[i]]
    in every run, and run r holds ``occ[r, i]`` connections over it;
    ``minutes[r]`` holds run r's running per-period totals (one-dimensional
    ``minutes`` and ``occ`` are one run). Each segment is cut at period
    edges once for all runs; a remainder within 1e-12 of the segment end is
    dropped, and pieces at zero occupancy add exact zeros. ``np.add.at``
    adds in input order onto flat bins ``run * T + period``, and each
    period must sum its pieces in time order. A piece past a segment's
    first edge is the earliest piece of its period here, since every later
    segment starts after it ends, and no two such pieces share a period.
    So those pieces go in first, then every segment's first piece in
    segment order.
    """
    T = minutes.shape[-1]
    occ = occ.reshape(-1, starts.size)
    flat = minutes.reshape(-1)
    # int32 halves the bins; minutes has far fewer than 2**31 entries
    run_bins = np.arange(0, minutes.size, T, dtype=np.int32)[:, None]
    stop = ends - 1e-12
    p = np.minimum((starts / period_min).astype(np.int32), T - 1)
    edge = np.minimum((p + 1) * period_min, ends)
    seg = np.flatnonzero(edge < stop)  # segments that cross a period edge
    if seg.size:
        owners, bins, widths = [], [], []
        a, end, seg_stop, q = edge[seg], ends[seg], stop[seg], np.minimum(p[seg] + 1, T - 1)
        while seg.size:  # one round per further period edge crossed
            e = np.minimum((q + 1) * period_min, end)
            owners.append(seg)
            bins.append(q)
            widths.append(e - a)
            a = e
            q = np.minimum(q + 1, T - 1)
            keep = a < seg_stop
            seg, a, end, seg_stop, q = (x[keep] for x in (seg, a, end, seg_stop, q))
        weights = np.take(occ, np.concatenate(owners), axis=1) * np.concatenate(widths)
        np.add.at(flat, (run_bins + np.concatenate(bins)).ravel(), weights.ravel())
    widths = np.where(starts < stop, edge - starts, 0.0)
    np.add.at(flat, (run_bins + p).ravel(), (occ * widths).ravel())


def _qos(offered_new: int, blocked_new: int, offered_h: int, dropped_h: int) -> QosStats:
    return QosStats(
        new_blocking_prob=blocked_new / offered_new if offered_new else 0.0,
        handoff_dropping_prob=dropped_h / offered_h if offered_h else 0.0,
        offered_new=offered_new,
        offered_handoff=offered_h,
        blocked_new=blocked_new,
        dropped_handoff=dropped_h,
    )


def _ints(values: np.ndarray):
    """The entries of ``values`` in C order as a sequence of Python ints.

    The bytes of a uint8 array iterate as ints and need no conversion.
    """
    return values.tobytes() if values.dtype == np.uint8 else values.ravel().tolist()


def _small_array(values: list[int], dtype: np.dtype) -> np.ndarray:
    """``np.array(values, dtype)``; for bytes through ``bytearray``, ~5x faster."""
    if dtype == np.uint8:
        return np.frombuffer(bytearray(values), dtype=np.uint8)
    return np.array(values, dtype=dtype)


def _dominating(spec: TrafficSpec) -> float:
    return max(1.0, float(np.ceil(spec.total_rate.max())))


def _simulate_group(runs: list[tuple[TrafficSpec, CacConfig]], horizon: Horizon,
                    replications: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean traces (runs, T) and summed counts (runs, 4) of runs with one event rate.

    The count columns are offered new, blocked new, offered handoff and
    dropped handoff, the argument order of ``_qos``.
    """
    T = horizon.T
    period_min = horizon.period_minutes
    total_min = T * period_min
    spec, cac = runs[0]
    channels = cac.channels
    dominating = _dominating(spec)
    mu = 1.0 / spec.mean_holding
    event_rate = dominating + channels * mu
    p_arrival = dominating / event_rate
    handoff_code, new_code, noop_code = channels, channels + 1, channels + 2
    small = np.min_scalar_type(noop_code)  # holds every code and occupancy
    steps = [_transitions(channels, c.threshold) for _, c in runs]
    # event codes depend on the rates, not the threshold: one row per spec
    rows: dict[int, int] = {}
    row_of = [rows.setdefault(id(s), len(rows)) for s, _ in runs]
    specs = list({id(s): s for s, _ in runs}.values())
    total = np.stack([s.total_rate for s in specs])
    handoff_rate = np.stack([s.handoff_rate for s in specs])

    traces = np.zeros((len(runs), T))
    counts = np.zeros((len(runs), 4), dtype=np.int64)
    for i in range(replications):
        rng = _stream(seed, i)
        # One block of draws at a time until the clock passes the end; the
        # clock and each run's occupancy carry over from block to block.
        minutes = np.zeros((len(runs), T))
        occ_now = [0] * len(runs)
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
            u_type = u_type[:k]
            arrival = np.flatnonzero(u_type < p_arrival)
            idx = np.minimum((clock[1:][arrival] / period_min).astype(np.int64), T - 1)
            tot = total[:, idx]
            thinned = (tot <= 0.0) | (u_thin[arrival] * dominating > tot)
            handoff_class = u_class[arrival] * tot < handoff_rate[:, idx]
            level = ((u_type - p_arrival) * event_rate / mu).astype(np.int64)
            code = np.empty((len(specs), k), dtype=small)
            code[:] = np.clip(level, 0, channels - 1)  # arrival slots are set next
            code[:, arrival] = np.where(thinned, noop_code,
                                        np.where(handoff_class, handoff_code, new_code))
            del dts, u_type, u_thin, u_class, tot, thinned, handoff_class, level

            # The occupancy recursion is the only sequential step. occ[r] is
            # run r's occupancy at the block start and after each event.
            codes = _ints(code)
            occ = np.empty((len(runs), k + 1), dtype=small)
            for r, step in enumerate(steps):
                n = occ[r, 0] = occ_now[r]
                path = [n := step[c][n] for c in codes[row_of[r] * k:(row_of[r] + 1) * k]]
                occ[r, 1:] = _small_array(path, small)
                occ_now[r] = n
            del path, codes

            # an arrival that leaves occupancy unchanged was refused
            held = np.take(occ, arrival + 1, axis=1) == np.take(occ, arrival, axis=1)
            arrival_code = np.take(code, arrival, axis=1)[row_of]
            new = arrival_code == new_code
            handoff = arrival_code == handoff_code
            counts += np.stack([new.sum(axis=1), (new & held).sum(axis=1),
                                handoff.sum(axis=1), (handoff & held).sum(axis=1)], axis=1)

            # The segment after a block's last event goes on into the next block.
            segs = min(k + 1, _BLOCK)
            _add_occupancy_minutes(minutes, clock[:segs],
                                   np.minimum(clock[1:segs + 1], total_min),
                                   occ[:, :segs], period_min)
        traces += minutes / period_min
    return traces / replications, counts


def _check_events(runs: list[tuple[TrafficSpec, CacConfig]], horizon: Horizon,
                  replications: int) -> None:
    """Refuse runs that together would draw more than _MAX_EVENTS events."""
    rate_sum = 0.0
    for spec, cac in runs:
        rate_sum += _dominating(spec) + cac.channels * (1.0 / spec.mean_holding)
    expected_events = rate_sum * (horizon.T * horizon.period_minutes) * replications
    if not expected_events <= _MAX_EVENTS:
        raise ValueError(
            f"{len(runs)} traffic run(s) x {replications} replication(s) would need "
            f"about {expected_events:.3g} events, more than {_MAX_EVENTS:.0e}; check "
            "the arrival rates, the mean holding time and the replication count")


def simulate_replicated(runs: Iterable[tuple[TrafficSpec, CacConfig]], horizon: Horizon,
                        replications: int, seed: int) -> TrafficRuns:
    """Each run's mean occupancy trace and QoS counts pooled over replications.

    ``runs`` holds (spec, admission control) pairs. Replication i of every
    run uses an independent substream derived from (seed, i), so one
    replication is the plain seeded run and substreams stay aligned across
    runs that vary only the admission threshold or rates. Runs that share
    an event rate draw each substream once between them; every run's
    result is the one it gets alone.
    """
    runs = list(runs)
    for spec, _ in runs:
        _check_lengths(spec, horizon)
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    _check_events(runs, horizon, replications)
    groups: dict[tuple, list[int]] = {}
    for r, (spec, cac) in enumerate(runs):
        groups.setdefault((_dominating(spec), cac.channels, spec.mean_holding), []).append(r)

    traces = np.zeros((len(runs), horizon.T))
    counts = np.zeros((len(runs), 4), dtype=np.int64)
    for members in groups.values():
        traces[members], counts[members] = _simulate_group(
            [runs[r] for r in members], horizon, replications, seed)
    return TrafficRuns(traces=traces,
                       pooled=_qos(*(int(c) for c in counts.sum(axis=0))),
                       qos=tuple(_qos(*(int(c) for c in row)) for row in counts))
