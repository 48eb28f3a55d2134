"""Correctness gate: every command's outputs are checked before it counts.

A command fails when it exits non-zero or leaves out an output, and when
its outputs break any of these:

* ``policy.csv`` passes ``verify_policy`` at ``CSV_TOL`` and its cost
  matches the printed expected cost;
* the printed expected cost (or each battery-sweep cell) agrees with an
  independent HiGHS solve of the same deterministic equivalent
  (``scipy.optimize.linprog``) to the printed precision;
* sweeps keep the exact monotone trends the package documents;
* at ``REFERENCE_SEED`` every output hashes to the digest committed in
  ``reference_seed0.json``.

If scipy cannot be imported the HiGHS check is reported as unavailable;
it is never counted as passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np

from bspower import calibration, default_calibration
from bspower.scenarios import MarginalScenario, MarginalSpace, compose, parse_scenario_document
from bspower.stochastic import PolicyTable, build_deterministic_equivalent, verify_policy

REFERENCE_SEED = 0
REFERENCE_FILE = Path(__file__).with_name("reference_seed0.json")

# CSV floats carry six decimals (rounding error <= 5e-7 each) and a balance
# row sums five of them, so 1e-5 is four times the worst rounding residual.
CSV_TOL = 1e-5
# Printed costs carry six decimals: half a unit in the last place, plus slack
# for the two solvers' own rounding (they agree to ~1e-13 at S = 20).
PRINT_TOL = 5e-7 + 1e-9
DAYS_PER_MONTH = 30
HIGHS_OPTIONS = {"dual_feasibility_tolerance": 1e-10, "primal_feasibility_tolerance": 1e-10}

_EXPECTED = re.compile(r"expected daily cost: ([0-9.]+) cents")
_REALIZED = re.compile(r"realized mean over (\d+) days: ([0-9.]+) cents")


def digests(stdout: str, files: dict[str, bytes]) -> dict[str, str]:
    """SHA-256 of every output file and of stdout (``--out`` path masked)."""
    out = {name: hashlib.sha256(data).hexdigest() for name, data in sorted(files.items())}
    out["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    return out


def _rows(text: str, columns: str) -> list[dict[str, str]]:
    reader = csv.DictReader(io.StringIO(text))
    if ",".join(reader.fieldnames or ()) != columns:
        raise ValueError(f"header {reader.fieldnames} != {columns}")
    return list(reader)


def _floats(rows, key) -> np.ndarray:
    return np.array([float(r[key]) for r in rows])


def _non_increasing(values) -> bool:
    return bool(np.all(np.diff(values) <= 0.0))


def _non_decreasing(values) -> bool:
    return bool(np.all(np.diff(values) >= 0.0))


class Gate:
    """Checks one command's outputs against the inputs the benchmark gave it."""

    def __init__(self, seed: int, storage_document: dict | None = None):
        self.seed = seed
        self.cal = default_calibration()
        self.storage_document = storage_document
        self.reference = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
        try:
            from scipy.optimize import linprog
            from scipy.sparse import csr_array
        except ImportError:
            linprog = csr_array = None
        self._linprog = linprog
        self._csr = csr_array
        self.highs_checked = 0
        self._default_space = None

    @property
    def highs_available(self) -> bool:
        return self._linprog is not None

    def check(self, name: str, argv: tuple[str, ...], stdout: str,
              files: dict[str, bytes]) -> list[str]:
        text = {k: v.decode() for k, v in files.items()}
        try:
            if argv[0] == "solve":
                problems = self._policy(stdout, text["policy.csv"],
                                        nonanticipative="--nonanticipative" in argv)
            elif argv[0] == "simulate":
                problems = self._simulate(stdout, text["simulate.csv"])
            else:
                problems = getattr(self, f"_sweep_{argv[1]}")(
                    text[f"{argv[1]}_sweep.csv"], "--scenarios" in argv)
        except (KeyError, ValueError, IndexError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if self.seed == REFERENCE_SEED:
            expected = self.reference.get(name)
            if expected is None:
                problems.append(f"no reference digest for {name}")
            elif expected != digests(stdout, files):
                problems.append("outputs differ from the committed seed-0 digests")
        return problems

    # -- day-ahead ---------------------------------------------------------

    def _space(self):
        if self._default_space is None:
            self._default_space = self.cal.scenario_space(self.seed)
        return self._default_space

    def _highs_cost(self, space, storage, nonanticipative=False,
                    physical_discharge=False) -> float | None:
        if self._linprog is None:
            return None
        program, _ = build_deterministic_equivalent(
            self.cal.horizon, storage, space, nonanticipative, physical_discharge)
        # Probability-weighted costs of rare scenarios fall to ~1e-10, below
        # HiGHS's default dual tolerance (1e-7), which then stops early; so
        # the costs are scaled to unit max and the tolerances tightened.
        scale = 1.0 / np.abs(program.c).max()
        res = self._linprog(program.c * scale, A_eq=self._csr(program.a_eq), b_eq=program.b_eq,
                            bounds=np.column_stack([program.lower, program.upper]),
                            method="highs", options=HIGHS_OPTIONS)
        if res.status != 0:
            raise ValueError(f"HiGHS status {res.status}: {res.message}")
        self.highs_checked += 1
        return float(res.fun) / scale

    def _printed_cost(self, stdout: str) -> float:
        match = _EXPECTED.search(stdout)
        if match is None:
            raise ValueError("no expected daily cost printed")
        return float(match.group(1))

    def _cost_vs_highs(self, printed, space, **modes) -> list[str]:
        highs = self._highs_cost(space, self.cal.storage, **modes)
        if highs is not None and abs(printed - highs) > PRINT_TOL:
            return [f"printed cost {printed:.6f} != HiGHS {highs:.9f}"]
        return []

    def _policy(self, stdout: str, csv_text: str, nonanticipative: bool) -> list[str]:
        space = self._space()
        T = self.cal.horizon.T
        rows = _rows(csv_text, "scenario_label,t,x_wh,s_wh,y_wh")
        labels = [r["scenario_label"] for r in rows[::T]]
        if len(rows) != len(space) * T or labels != space.labels:
            return [f"policy.csv has {len(rows)} rows for labels {labels[:3]}..."]
        cube = np.array([[float(r["x_wh"]), float(r["s_wh"]), float(r["y_wh"])] for r in rows])
        cube = cube.reshape(len(space), T, 3)
        policy = PolicyTable(
            scenario_labels=tuple(labels), probabilities=space.probabilities,
            purchase=cube[:, :, 0], battery=cube[:, :, 1], excess=cube[:, :, 2],
            expected_cost=float("nan"), storage=self.cal.storage)
        problems = verify_policy(policy, self.cal.horizon, space, tol=CSV_TOL)
        if nonanticipative:
            groups: dict[tuple, list[int]] = {}
            for w, s in enumerate(space.scenarios):
                groups.setdefault((s.price[0], s.renewable[0], s.consumption[0]), []).append(w)
            for members in groups.values():
                first = policy.purchase[members, 0]
                if np.ptp(first) > CSV_TOL:
                    problems.append(f"first-period purchases differ within group {members}")
        printed = self._printed_cost(stdout)
        prices = space.trace_matrix("price")
        per_scenario = ((policy.purchase * prices).sum(axis=1) / 1000.0
                        + self.cal.storage.loss_cost_coeff * policy.battery.sum(axis=1))
        csv_cost = float(space.probabilities @ per_scenario)
        if abs(csv_cost - printed) > 2 * PRINT_TOL:
            problems.append(f"policy.csv costs {csv_cost:.6f}, printed {printed:.6f}")
        return problems + self._cost_vs_highs(printed, space, nonanticipative=nonanticipative)

    def _simulate(self, stdout: str, csv_text: str) -> list[str]:
        space = self._space()
        rows = _rows(csv_text, "day,scenario_label,cost_cents")
        problems = []
        days = [int(r["day"]) for r in rows]
        if days != list(range(1, len(rows) + 1)):
            problems.append("simulate.csv days are not 1..N")
        per_label: dict[str, set[str]] = {}
        for r in rows:
            per_label.setdefault(r["scenario_label"], set()).add(r["cost_cents"])
        if not set(per_label) <= set(space.labels):
            problems.append("simulate.csv names scenarios outside the space")
        if any(len(costs) != 1 for costs in per_label.values()):
            problems.append("one scenario replays to different costs")
        match = _REALIZED.search(stdout)
        if match is None or int(match.group(1)) != len(rows):
            problems.append("realized mean line missing or wrong day count")
        elif abs(float(match.group(2)) - _floats(rows, "cost_cents").mean()) > 2 * PRINT_TOL:
            problems.append("printed realized mean != mean of simulate.csv")
        return problems + self._cost_vs_highs(self._printed_cost(stdout), space,
                                              physical_discharge=True)

    # -- sweeps ------------------------------------------------------------

    def _sweep_cac(self, csv_text: str, _explicit: bool) -> list[str]:
        rows = _rows(csv_text, "threshold,blocking,dropping,cost_saving_pct")
        problems = []
        if [int(r["threshold"]) for r in rows] != list(calibration.DEFAULT_CAC_THRESHOLDS):
            problems.append("cac thresholds differ from the configured grid")
        blocking, dropping = _floats(rows, "blocking"), _floats(rows, "dropping")
        if not np.all(np.isfinite(_floats(rows, "cost_saving_pct"))):
            problems.append("cac cost saving is not finite")
        if not _non_increasing(blocking):
            problems.append("blocking increases with the threshold")
        if not _non_decreasing(dropping):
            problems.append("dropping decreases with the threshold")
        return problems

    def _sweep_arrival(self, csv_text: str, _explicit: bool) -> list[str]:
        rows = _rows(csv_text, "arrival_rate_per_min,avg_purchase_wh,avg_battery_wh")
        problems = []
        if list(_floats(rows, "arrival_rate_per_min")) != list(calibration.DEFAULT_ARRIVAL_RATES):
            problems.append("arrival rates differ from the configured grid")
        for key in ("avg_purchase_wh", "avg_battery_wh"):
            if not _non_decreasing(_floats(rows, key)):
                problems.append(f"{key} decreases with the arrival rate")
        return problems

    def _sweep_battery(self, csv_text: str, explicit: bool) -> list[str]:
        rows = _rows(csv_text, "capacity_wh,renewable_scale,monthly_cost_usd")
        grid = list(product(calibration.DEFAULT_BATTERY_GRID,
                            calibration.DEFAULT_RENEWABLE_SCALINGS))
        cells = [(float(r["capacity_wh"]), float(r["renewable_scale"])) for r in rows]
        if cells != grid:
            return ["battery sweep grid differs from the configured grid"]
        cost = _floats(rows, "monthly_cost_usd")
        if not np.all(np.isfinite(cost)):
            return ["battery sweep has NaN cells"]
        problems = []
        by_scale = cost.reshape(len(calibration.DEFAULT_BATTERY_GRID), -1)
        for j, scale in enumerate(calibration.DEFAULT_RENEWABLE_SCALINGS):
            if not _non_increasing(by_scale[:, j]):
                problems.append(f"cost rises with capacity at renewable scale {scale}")
        base = self.cal.storage
        if explicit:
            doc = parse_scenario_document(self.storage_document)
            price, renewable, consumption = doc.price, doc.renewable, doc.consumption
            # the CLI prices self-discharge at the scenario file's mean price
            base = replace(base, loss_cost_coeff=calibration.derived_loss_cost(
                price, base.self_discharge))
        else:
            price, renewable = self.cal.price, self.cal.renewable
            consumption = self.cal.consumption_space(self.seed)
        for (cap, scale), usd in zip(cells, cost):
            scaled = MarginalSpace("renewable", tuple(
                MarginalScenario(s.label, s.probability, s.values * scale)
                for s in renewable.scenarios))
            storage = replace(base, capacity=cap, initial=min(base.initial, cap),
                              terminal=min(base.terminal, cap))
            highs = self._highs_cost(compose(price, scaled, consumption), storage)
            if highs is not None and abs(usd - highs * DAYS_PER_MONTH / 100.0) > PRINT_TOL:
                problems.append(f"cell ({cap}, {scale}): ${usd:.6f} != HiGHS "
                                f"${highs * DAYS_PER_MONTH / 100.0:.9f}")
        return problems
