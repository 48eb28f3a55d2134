"""Finite scenario spaces for price, renewable generation, and consumption.

A marginal space holds the per-source alternatives (e.g. peak vs normal
price day) with probabilities estimated from observation counts. The three
marginals are composed into the joint space of composite scenarios, one per
combination, assuming the sources are independent. A fully joint space can
also be constructed directly when correlation matters.

Scenario documents are JSON with a versioned ``schema`` key; see
``load_scenario_file`` for the layout. Unknown keys are rejected rather
than ignored, and every value must have the JSON type the layout gives it
(a number written as a string such as "inf" is refused).
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .units import Horizon

PROB_TOL = 1e-9

SCENARIO_SCHEMA = "bspower-scenarios-1"

MARGINAL_KINDS = ("price", "renewable", "consumption")


@dataclass(frozen=True)
class MarginalScenario:
    """One alternative trace for a single uncertainty source."""

    label: str
    probability: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


@dataclass(frozen=True)
class MarginalSpace:
    """All alternatives for one source; kind is price, renewable, or consumption."""

    kind: str
    scenarios: tuple[MarginalScenario, ...]

    def __post_init__(self):
        object.__setattr__(self, "scenarios", tuple(self.scenarios))

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([s.probability for s in self.scenarios])


@dataclass(frozen=True)
class CompositeScenario:
    """A joint realization: price, renewable, and consumption traces plus Pr."""

    label: str
    probability: float
    price: np.ndarray        # cents/kWh per period
    renewable: np.ndarray    # Wh per period
    consumption: np.ndarray  # Wh per period

    def __post_init__(self):
        for name in ("price", "renewable", "consumption"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))


@dataclass(frozen=True)
class ScenarioSpace:
    """The finite joint scenario set the stochastic program is solved over."""

    scenarios: tuple[CompositeScenario, ...]

    def __post_init__(self):
        object.__setattr__(self, "scenarios", tuple(self.scenarios))

    def __len__(self) -> int:
        return len(self.scenarios)

    @property
    def labels(self) -> list[str]:
        return [s.label for s in self.scenarios]

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([s.probability for s in self.scenarios])

    def trace_matrix(self, name: str) -> np.ndarray:
        """Stack one trace kind into a (num scenarios, T) matrix."""
        return np.vstack([getattr(s, name) for s in self.scenarios])


def estimate_probabilities(counts: Sequence[float]) -> np.ndarray:
    """Empirical probabilities from observation counts: count_i / total.

    The classic estimator for a finite scenario set observed over many
    days; invariant under uniform scaling of the counts.
    """
    arr = np.asarray(counts, dtype=float)
    if arr.size == 0:
        raise ValueError("counts must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("counts must be finite")
    if np.any(arr < 0):
        raise ValueError("counts must be non-negative")
    peak = arr.max()
    if peak <= 0:
        raise ValueError("at least one count must be positive")
    # scaled to a largest count of 1 first, so the sum cannot overflow
    scaled = arr / peak
    return scaled / scaled.sum()


def check_marginal_space(space: MarginalSpace, horizon: Horizon | None = None) -> list[str]:
    """Diagnostics for one marginal space; empty list means valid."""
    problems: list[str] = []
    if space.kind not in MARGINAL_KINDS:
        problems.append(f"unknown marginal kind {space.kind!r}")
    if not space.scenarios:
        problems.append(f"{space.kind}: no scenarios")
        return problems
    lengths = {len(s.values) for s in space.scenarios}
    if len(lengths) > 1:
        problems.append(f"{space.kind}: traces have mixed lengths {sorted(lengths)}")
    if horizon is not None:
        for s in space.scenarios:
            if len(s.values) != horizon.T:
                problems.append(
                    f"{space.kind}/{s.label}: trace length {len(s.values)} != T={horizon.T}"
                )
    for s in space.scenarios:
        if not 0.0 <= s.probability <= 1.0:
            problems.append(f"{space.kind}/{s.label}: probability {s.probability} outside [0, 1]")
        if np.any(s.values < 0):
            problems.append(f"{space.kind}/{s.label}: negative trace values")
    mass = float(space.probabilities.sum())
    if abs(mass - 1.0) > PROB_TOL:
        problems.append(f"{space.kind}: probability mass {mass:.12g} != 1")
    labels = [s.label for s in space.scenarios]
    if len(set(labels)) != len(labels):
        problems.append(f"{space.kind}: duplicate scenario labels")
    return problems


def compose(
    price: MarginalSpace,
    renewable: MarginalSpace,
    consumption: MarginalSpace,
) -> ScenarioSpace:
    """Cartesian product of the three marginals under independence.

    Pr of each composite is the product of its marginal probabilities, so
    total mass is preserved. Composite labels join the marginal labels
    with '|'.
    """
    spaces = {"price": price, "renewable": renewable, "consumption": consumption}
    problems = []
    for kind, space in spaces.items():
        if space.kind != kind:
            problems.append(f"expected a {kind} space, got kind {space.kind!r}")
        problems.extend(check_marginal_space(space))
    lengths = {len(space.scenarios[0].values) for space in spaces.values() if space.scenarios}
    if len(lengths) > 1:
        problems.append(f"marginal trace lengths differ: {sorted(lengths)}")
    if problems:
        raise ValueError("cannot compose scenario spaces:\n  " + "\n  ".join(problems))

    composites = []
    for p, r, c in itertools.product(price.scenarios, renewable.scenarios, consumption.scenarios):
        composites.append(
            CompositeScenario(
                label=f"{p.label}|{r.label}|{c.label}",
                probability=p.probability * r.probability * c.probability,
                price=p.values,
                renewable=r.values,
                consumption=c.values,
            )
        )
    return ScenarioSpace(tuple(composites))


def validate(space: ScenarioSpace, horizon: Horizon) -> list[str]:
    """Diagnostics for a joint scenario space; empty list means valid."""
    problems: list[str] = []
    if not space.scenarios:
        problems.append("scenario space is empty")
        return problems
    names = ("price", "renewable", "consumption")
    traces = [[getattr(s, name) for name in names] for s in space.scenarios]
    # one check over the stacked traces when every trace has length T
    negative = None
    if all(trace.shape == (horizon.T,) for row in traces for trace in row):
        negative = (np.array(traces) < 0).any(axis=2)
    for w, s in enumerate(space.scenarios):
        for i, name in enumerate(names):
            trace = traces[w][i]
            if len(trace) != horizon.T:
                problems.append(
                    f"{s.label}: {name} trace length {len(trace)} != T={horizon.T}"
                )
            if negative[w, i] if negative is not None else np.any(trace < 0):
                problems.append(f"{s.label}: negative {name} values")
        if not 0.0 < s.probability <= 1.0:
            problems.append(f"{s.label}: probability {s.probability} outside (0, 1]")
    mass = float(space.probabilities.sum())
    if abs(mass - 1.0) > PROB_TOL:
        problems.append(f"probability mass {mass:.12g} != 1")
    labels = space.labels
    if len(set(labels)) != len(labels):
        problems.append("duplicate composite scenario labels")
    return problems


# ---------------------------------------------------------------------------
# Scenario documents (JSON)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateProfile:
    """A traffic scenario given as arrival-rate profiles instead of Wh.

    Rates are connections per minute, one entry per period; conversion to a
    consumption trace goes through the traffic simulator and power model
    (see calibration.consumption_space_from_profiles). A mean holding time
    of None takes the config's ``traffic.mean_holding_min``
    (calibration.calibration_from_config fills it in).
    """

    label: str
    probability: float
    new_rate: np.ndarray
    handoff_rate: np.ndarray
    mean_holding_min: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "new_rate", np.asarray(self.new_rate, dtype=float))
        object.__setattr__(self, "handoff_rate", np.asarray(self.handoff_rate, dtype=float))


@dataclass
class ScenarioDocument:
    """Parsed scenario file: horizon, price/renewable marginals, and either
    consumption traces or traffic rate profiles."""

    horizon: Horizon
    price: MarginalSpace
    renewable: MarginalSpace
    consumption: MarginalSpace | None = None
    traffic: list[RateProfile] = field(default_factory=list)


class ScenarioFileError(ValueError):
    """Raised when a scenario document is malformed; message names the key."""


def json_kind(value) -> str:
    """JSON type of a parsed value, telling integers from other numbers."""
    for kind, cls in (("boolean", bool), ("integer", int), ("number", float),
                      ("string", str), ("array", list), ("null", type(None))):
        if isinstance(value, cls):
            return kind
    return "object"


NUMBER_KINDS = frozenset({"integer", "number"})


def find_non_finite(value, where: str = "") -> str | None:
    """Path of the first NaN or infinite number in parsed JSON, or None.

    Python's json module accepts NaN and Infinity, reads 1e999 as inf and
    a 400-digit integer as an int no float can hold, and range checks such
    as ``trace < 0`` are false for NaN, so files are scanned for
    non-finite numbers once, where they are read.
    """
    if json_kind(value) in NUMBER_KINDS:
        return None if abs(value) <= sys.float_info.max else where
    if isinstance(value, dict):
        items = ((f"{where}.{k}" if where else str(k), v) for k, v in value.items())
    elif isinstance(value, list):
        items = ((f"{where}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    for path, item in items:
        found = find_non_finite(item, path)
        if found is not None:
            return found
    return None


def _expect(value, kinds, wording: str, where: str):
    """value itself, if its JSON kind is one of kinds."""
    if json_kind(value) not in kinds:
        raise ScenarioFileError(f"{where}: expected {wording}, got {json_kind(value)}")
    return value


def _number(value, where: str) -> float:
    return float(_expect(value, NUMBER_KINDS, "a number", where))


def _numbers(value, where: str) -> list:
    _expect(value, {"array"}, "an array of numbers", where)
    return [_number(item, f"{where}[{i}]") for i, item in enumerate(value)]


def _entries(obj, allowed: set[str], required: set[str], where: str) -> list:
    """The scenario entries of a block {"scenarios": [...]}, each checked
    to be an object with the allowed and required keys."""
    _require_keys(obj, {"scenarios"}, {"scenarios"}, where)
    entries = _expect(obj["scenarios"], {"array"}, "an array", f"{where}.scenarios")
    for i, entry in enumerate(entries):
        _require_keys(entry, allowed, required, f"{where}.scenarios[{i}]")
    return entries


def _require_keys(obj, allowed: set[str], required: set[str], where: str) -> None:
    _expect(obj, {"object"}, "an object", where)
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioFileError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ScenarioFileError(f"{where}: missing key(s) {sorted(missing)}")


def _parse_marginal(obj, kind: str) -> MarginalSpace:
    keys = {"label", "probability", "values"}
    scenarios = []
    for i, entry in enumerate(_entries(obj, keys, keys, kind)):
        where = f"{kind}.scenarios[{i}]"
        scenarios.append(
            MarginalScenario(
                label=_expect(entry["label"], {"string"}, "a string", f"{where}.label"),
                probability=_number(entry["probability"], f"{where}.probability"),
                values=_numbers(entry["values"], f"{where}.values"),
            )
        )
    return MarginalSpace(kind=kind, scenarios=tuple(scenarios))


def _parse_traffic(obj) -> list[RateProfile]:
    required = {"label", "probability", "new_rate", "handoff_rate"}
    profiles = []
    for i, entry in enumerate(_entries(obj, required | {"mean_holding_min"}, required,
                                       "traffic")):
        where = f"traffic.scenarios[{i}]"
        profiles.append(
            RateProfile(
                label=_expect(entry["label"], {"string"}, "a string", f"{where}.label"),
                probability=_number(entry["probability"], f"{where}.probability"),
                new_rate=_numbers(entry["new_rate"], f"{where}.new_rate"),
                handoff_rate=_numbers(entry["handoff_rate"], f"{where}.handoff_rate"),
                mean_holding_min=(_number(entry["mean_holding_min"], f"{where}.mean_holding_min")
                                  if "mean_holding_min" in entry else None),
            )
        )
    return profiles


def parse_scenario_document(doc: dict) -> ScenarioDocument:
    if not isinstance(doc, dict):
        raise ScenarioFileError("scenario document must be a JSON object")
    bad = find_non_finite(doc)
    if bad is not None:
        raise ScenarioFileError(f"{bad}: non-finite number")
    _require_keys(
        doc,
        {"schema", "horizon", "price", "renewable", "consumption", "traffic"},
        {"schema", "horizon", "price", "renewable"},
        "document",
    )
    if doc["schema"] != SCENARIO_SCHEMA:
        raise ScenarioFileError(
            f"schema: expected {SCENARIO_SCHEMA!r}, got {doc['schema']!r}"
        )
    _require_keys(doc["horizon"], {"T", "period_hours"}, {"T"}, "horizon")
    horizon = Horizon(
        T=_expect(doc["horizon"]["T"], {"integer"}, "an integer", "horizon.T"),
        period_hours=_number(doc["horizon"].get("period_hours", 1.0), "horizon.period_hours"),
    )
    if "consumption" not in doc and "traffic" not in doc:
        raise ScenarioFileError("document: needs either 'consumption' or 'traffic'")
    if "consumption" in doc and "traffic" in doc:
        raise ScenarioFileError("document: 'consumption' and 'traffic' are exclusive")
    return ScenarioDocument(
        horizon=horizon,
        price=_parse_marginal(doc["price"], "price"),
        renewable=_parse_marginal(doc["renewable"], "renewable"),
        consumption=(
            _parse_marginal(doc["consumption"], "consumption")
            if "consumption" in doc else None
        ),
        traffic=_parse_traffic(doc["traffic"]) if "traffic" in doc else [],
    )


def load_scenario_file(path: str | Path) -> ScenarioDocument:
    """Read and validate a scenario JSON document."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFileError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return parse_scenario_document(doc)


def scenario_document_dict(document: ScenarioDocument) -> dict:
    """Inverse of parse_scenario_document; round-trips losslessly."""
    out: dict = {
        "schema": SCENARIO_SCHEMA,
        "horizon": {"T": document.horizon.T, "period_hours": document.horizon.period_hours},
    }
    for kind in MARGINAL_KINDS:
        space: MarginalSpace | None = getattr(document, kind)
        if space is not None:
            out[kind] = {
                "scenarios": [
                    {"label": s.label, "probability": s.probability,
                     "values": list(map(float, s.values))}
                    for s in space.scenarios
                ]
            }
    if document.traffic:
        out["traffic"] = {
            "scenarios": [
                {
                    "label": p.label,
                    "probability": p.probability,
                    "new_rate": list(map(float, p.new_rate)),
                    "handoff_rate": list(map(float, p.handoff_rate)),
                    # absent, the config's holding time applies
                    **({} if p.mean_holding_min is None
                       else {"mean_holding_min": p.mean_holding_min}),
                }
                for p in document.traffic
            ]
        }
    return out

