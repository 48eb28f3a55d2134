"""Benchmark workloads: the CLI command sequences and their generated inputs.

Each workload is a fixed sequence of ``bspower`` commands that one client
runs back to back (a closed loop). Commands take their seed from the
benchmark's ``--seed``; the storage sweep also reads a scenario file that
``storage_document`` draws from the same seed, so the program only ever
sees the generated file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

T = 24
STATIC_W = 194.25      # default base-station draw, W
DYNAMIC_W = 24.0       # default draw per active connection, W

# Stated value ranges of the generated scenario file (per hourly period).
PRICE_BASE = (8.0, 14.0)        # cents/kWh off peak
PRICE_PEAK_EXTRA = (4.0, 10.0)  # cents/kWh added inside a 4-8 h peak window
RENEWABLE_MEAN = (60.0, 260.0)  # Wh per daylight hour (6:00-18:00) before cloud cover
CLOUD_FACTOR = (0.6, 1.0)       # per-hour multiplier on the half-sine profile
OCCUPANCY = (2.0, 20.0)         # mean active connections, so consumption is
                                # 242.25-674.25 Wh per period


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what it must write into its --out directory.

    ``metric`` names the printed per-command median (day-ahead); ``rows``
    is the number of sweep CSV rows the command writes at the default grid.
    """

    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    metric: str | None = None
    rows: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    warmup: Command  # untimed, run once before the measured passes
    needs_storage_file: bool = False
    scaling_probe: bool = False  # traced runs also time the solve paths in S


def _solve(name: str, *flags: str, metric: str | None = None) -> Command:
    return Command(name, ("solve", *flags), ("policy.csv", "manifest.txt"), metric)


def _sweep(name: str, kind: str, rows: int, *flags: str) -> Command:
    return Command(name, ("sweep", kind, *flags), (f"{kind}_sweep.csv", "manifest.txt"),
                   rows=rows)


STORAGE_FILE = "storage_scenarios.json"  # replaced by the generated file's path

WORKLOADS = {
    # The operator's path: one dense S = 20 LP dominates; the nonanticipative
    # groups [4, 4, 12] give a group decomposition something to split.
    "day-ahead": Workload("day-ahead", (
        _solve("solve", metric="plan_s"),
        _solve("solve-nonanticipative", "--nonanticipative", metric="plan_na_s"),
        Command("simulate-physical", ("simulate", "--physical-discharge"),
                ("simulate.csv", "manifest.txt"), metric="simulate_s"),
    ), warmup=_solve("solve"), scaling_probe=True),
    # The study's QoS curves: ~90% Python traffic event loop, 120 small LPs;
    # where a faster simulator shows and a faster solve should not.
    "qos-sweep": Workload("qos-sweep", (
        _sweep("sweep-cac", "cac", 21),
        _sweep("sweep-arrival", "arrival", 8),
    ), warmup=_sweep("sweep-cac", "cac", 21)),
    # 1280 tiny LPs bound by per-call overhead and no traffic: catches a
    # solve change that helps day-ahead but slows small programs. The
    # warm-up is the default-calibration battery sweep (S = 20), which is
    # also the starting-line row the roadmap quotes for `sweep battery`.
    "storage-sweep": Workload("storage-sweep", (
        _sweep("sweep-battery-s80", "battery", 16, "--scenarios", STORAGE_FILE),
    ), warmup=_sweep("sweep-battery", "battery", 16), needs_storage_file=True),
}


def _probabilities(rng: np.random.Generator, n: int) -> list[float]:
    weights = rng.integers(1, 10, size=n).astype(float)
    return list(weights / weights.sum())


def _half_sine(mean_wh: float) -> np.ndarray:
    """Hourly integrals of a half sine over 6:00-18:00 with the given mean."""
    edges = np.clip(np.arange(T + 1, dtype=float), 6.0, 18.0)
    phase = np.pi * (edges - 6.0) / 12.0
    return mean_wh * (np.pi / 2.0) * (12.0 / np.pi) * (np.cos(phase[:-1]) - np.cos(phase[1:]))


def storage_document(seed: int, n_price: int = 4, n_renewable: int = 4,
                     n_consumption: int = 5) -> dict:
    """A ``bspower-scenarios-1`` document with explicit consumption traces.

    Every trace is drawn from ``seed`` within the ranges stated above;
    each block's probabilities are integer weights normalised to sum to 1.
    The joint space has n_price * n_renewable * n_consumption scenarios.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
    hours = np.arange(T)

    def block(prefix: str, traces: list[np.ndarray]) -> dict:
        probs = _probabilities(rng, len(traces))
        return {"scenarios": [
            {"label": f"{prefix}{i}", "probability": p,
             "values": [round(float(v), 3) for v in trace]}
            for i, (p, trace) in enumerate(zip(probs, traces))]}

    prices = []
    for _ in range(n_price):
        start = int(rng.integers(8, 17))
        width = int(rng.integers(4, 9))
        trace = np.full(T, rng.uniform(*PRICE_BASE))
        trace[(hours >= start) & (hours < start + width)] += rng.uniform(*PRICE_PEAK_EXTRA)
        prices.append(trace)
    renewables = [_half_sine(rng.uniform(*RENEWABLE_MEAN)) * rng.uniform(*CLOUD_FACTOR, size=T)
                  for _ in range(n_renewable)]
    consumptions = []
    for _ in range(n_consumption):
        occupancy = rng.uniform(OCCUPANCY[0], 10.0) + np.zeros(T)
        start = int(rng.integers(6, 19))
        occupancy[start:start + int(rng.integers(2, 6))] += rng.uniform(0.0, 10.0)
        occupancy = np.clip(occupancy, *OCCUPANCY)
        consumptions.append(STATIC_W + DYNAMIC_W * occupancy)  # Wh per 1-h period
    return {
        "schema": "bspower-scenarios-1",
        "horizon": {"T": T, "period_hours": 1.0},
        "price": block("price", prices),
        "renewable": block("renewable", renewables),
        "consumption": block("consumption", consumptions),
    }


def write_storage_file(directory: Path, seed: int) -> Path:
    path = directory / STORAGE_FILE
    path.write_text(json.dumps(storage_document(seed), indent=1) + "\n")
    return path
