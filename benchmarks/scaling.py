"""Scaling probe in scenario count S (traced runs only, never gated).

Times ``per_scenario_decomposition`` in process and the monolithic
``solve_policy`` in a child process with a wall budget and an
address-space budget, on generated spaces of S = 20, 40 and 80
(2x2x5, 2x4x5 and 4x4x5 price x renewable x consumption). A child that
runs out of either budget is reported as such, not as a number.

Child usage: python3 scaling.py <src-dir> <seed> <n_price> <n_renewable>
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time
from pathlib import Path

SHAPES = ((2, 2, 5), (2, 4, 5), (4, 4, 5))
WALL_BUDGET_S = 15.0
MEMORY_BUDGET_MB = 512


def _space(seed: int, n_price: int, n_renewable: int, n_consumption: int = 5):
    from bspower.scenarios import compose, parse_scenario_document
    from workloads import storage_document

    doc = parse_scenario_document(
        storage_document(seed, n_price, n_renewable, n_consumption))
    return doc.horizon, compose(doc.price, doc.renewable, doc.consumption)


def probe(src: Path, seed: int) -> list[str]:
    """One report line per S."""
    from bspower import default_calibration, per_scenario_decomposition

    storage = default_calibration().storage
    lines = []
    for n_price, n_renewable, n_consumption in SHAPES:
        horizon, space = _space(seed, n_price, n_renewable, n_consumption)
        t0 = time.perf_counter()
        per_scenario_decomposition(horizon, storage, space)
        decomposed_ms = (time.perf_counter() - t0) * 1e3
        try:
            child = subprocess.run(
                [sys.executable, __file__, str(src), str(seed), str(n_price), str(n_renewable)],
                capture_output=True, text=True, timeout=WALL_BUDGET_S)
            monolithic = (f"{float(child.stdout):.3f} s" if child.returncode == 0
                          else f"over the {MEMORY_BUDGET_MB} MB memory budget"
                          if child.returncode == 3 else f"failed (exit {child.returncode})")
        except subprocess.TimeoutExpired:
            monolithic = f"timed out at {WALL_BUDGET_S:.0f} s"
        lines.append(f"S={len(space):3d}: per_scenario_decomposition {decomposed_ms:8.1f} ms, "
                     f"monolithic solve_policy {monolithic}")
    return lines


def _child(src: str, seed: int, n_price: int, n_renewable: int) -> int:
    limit = MEMORY_BUDGET_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.path.insert(0, src)
    from bspower import default_calibration, solve_policy

    horizon, space = _space(seed, n_price, n_renewable)
    storage = default_calibration().storage
    try:
        t0 = time.perf_counter()
        solve_policy(horizon, storage, space)
        print(time.perf_counter() - t0)
    except MemoryError:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1], *map(int, sys.argv[2:5])))
