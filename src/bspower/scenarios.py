"""Finite scenario spaces for price, renewable generation, and consumption.

A marginal space holds the per-source alternatives (e.g. peak vs normal
price day) with probabilities estimated from observation counts. The three
marginals are composed into the joint space of composite scenarios, one per
combination, assuming the sources are independent. A fully joint space can
also be constructed directly when correlation matters.

Scenario documents are JSON with a versioned ``schema`` key; see
``SCENARIO_SPEC`` for the layout. ``read_document`` is the one reader of
every input file (scenario, config and counts): unknown or missing keys
are rejected, and every value must have the JSON type the layout gives it
(a number written as a string such as "inf" is refused). A MarginalSpace
or ScenarioSpace checks itself once, when built, with ``_check_block``:
distinct labels free of CSV delimiters (comma, double quote, CR, LF),
probabilities in (0, 1] of mass 1, and finite, non-negative,
one-dimensional traces of one length, each bad key named in a ValueError.
Trace length against T is checked where a horizon is known.
"""

from __future__ import annotations

import itertools
import json
import math
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
        kind = [] if self.kind in MARGINAL_KINDS else [
            f"kind: unknown marginal kind {self.kind!r}"]
        _refuse("invalid marginal space",
                kind + _check_block(self.kind, self.scenarios, ("values",)))


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
        _refuse("invalid scenario space", _check_block("", self.scenarios, MARGINAL_KINDS))

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


def _refuse(what: str, problems: list[str]) -> None:
    """Raise ValueError listing problems, one per line, if there are any."""
    if problems:
        raise ValueError(f"{what}:\n  " + "\n  ".join(problems))


def _check_block(kind: str, scenarios, traces: tuple[str, ...]) -> list[str]:
    """Diagnostics for one block of alternatives (see the module docstring),
    each led by its key path ``kind.scenarios[i].field``, or
    ``scenarios[i].field`` for a joint space, whose kind is ""."""
    where, tag = (f"{kind}.scenarios", f"{kind}/") if kind else ("scenarios", "")
    if not scenarios:
        return [f"{where}: no scenarios"]
    flat = [getattr(s, name) for s in scenarios for name in traces]
    shapes = [trace.shape for trace in flat]
    bent = np.array([len(shape) != 1 for shape in shapes])  # not one-dimensional
    if len(set(shapes)) == 1:  # one comparison over (scenarios x traces) rows
        stacked = np.array(flat).reshape(len(flat), math.prod(shapes[0]))
        negative, finite = (stacked < 0).any(axis=1), np.isfinite(stacked).all(axis=1)
    else:
        negative = np.array([np.any(trace < 0) for trace in flat], dtype=bool)
        finite = np.array([np.all(np.isfinite(trace)) for trace in flat], dtype=bool)
    first: dict = {}  # each label's first index
    duplicate = np.array([first.setdefault(s.label, i) != i for i, s in enumerate(scenarios)])
    # a label is written unquoted into the output CSVs
    unsafe = np.array([any(c in s.label for c in ',"\r\n') for s in scenarios])
    probabilities = np.array([s.probability for s in scenarios], dtype=float)
    outside = ~((probabilities > 0.0) & (probabilities <= 1.0))
    flagged = (bent | negative | ~finite).reshape(len(scenarios), len(traces)).any(axis=1)
    lengths = sorted({shape[0] for shape in shapes if len(shape) == 1})
    problems = [f"{where}: traces have mixed lengths {lengths}"] if len(lengths) > 1 else []
    for i in np.flatnonzero(duplicate | unsafe | outside | flagged).tolist():
        s, entry = scenarios[i], f"{where}[{i}]"
        if duplicate[i]:
            problems.append(f"{entry}.label: duplicate scenario label {s.label!r}")
        if unsafe[i]:
            problems.append(f"{entry}.label: label {s.label!r} holds a comma, quote or line break")
        if outside[i]:
            problems.append(f"{entry}.probability: {tag}{s.label}: probability "
                            f"{s.probability} outside (0, 1]")
        for j, name in enumerate(traces, start=i * len(traces)):
            lead = f"{entry}.{name}: {tag}{s.label}:"
            if bent[j]:
                problems.append(f"{lead} trace must be one-dimensional, got shape {shapes[j]}")
            if negative[j]:
                problems.append(f"{lead} negative trace values")
            if not finite[j]:
                problems.append(f"{lead} non-finite trace values")
    mass = float(probabilities.sum())
    if abs(mass - 1.0) > PROB_TOL:
        problems.append(f"{where}: probability mass {mass:.12g} != 1")
    return problems


def _length_problems(kind: str, scenarios, traces: tuple[str, ...], T: int) -> list[str]:
    """The rule that needs a horizon: one diagnostic per one-dimensional
    trace of a block whose length is not T, keyed as in _check_block."""
    return [f"{kind}.scenarios[{i}].{name}: {kind}/{s.label}: trace length "
            f"{len(getattr(s, name))} != T={T}"
            for i, s in enumerate(scenarios) for name in traces
            if np.ndim(getattr(s, name)) == 1 and len(getattr(s, name)) != T]


def compose(
    price: MarginalSpace,
    renewable: MarginalSpace,
    consumption: MarginalSpace,
) -> ScenarioSpace:
    """Cartesian product of the three marginals under independence.

    Pr of each composite is the product of its marginal probabilities, so
    total mass is preserved up to rounding. Composite labels join the
    marginal labels with '|'. A space in the wrong slot raises ValueError,
    and so does a product that is not a valid ScenarioSpace, such as one
    whose labels collide through the join ('a|b' + 'c', 'a' + 'b|c').
    """
    spaces = (price, renewable, consumption)
    _refuse("cannot compose scenario spaces", [
        f"expected a {kind} space, got kind {space.kind!r}"
        for kind, space in zip(MARGINAL_KINDS, spaces) if space.kind != kind])
    return ScenarioSpace(tuple(
        CompositeScenario(f"{p.label}|{r.label}|{c.label}",
                          p.probability * r.probability * c.probability,
                          price=p.values, renewable=r.values, consumption=c.values)
        for p, r, c in itertools.product(*(space.scenarios for space in spaces))))


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
    consumption traces or traffic rate profiles.

    The marginals checked themselves when built; the document checks
    their trace lengths against the horizon's T, and the traffic profiles
    with the same rules as a marginal block plus a holding time above 0.
    Each bad value raises ValueError naming its key
    (``price.scenarios[0].values``).
    """

    horizon: Horizon
    price: MarginalSpace
    renewable: MarginalSpace
    consumption: MarginalSpace | None = None
    traffic: list[RateProfile] = field(default_factory=list)

    def __post_init__(self):
        T, rates = self.horizon.T, ("new_rate", "handoff_rate")
        problems = [p for space in (self.price, self.renewable, self.consumption)
                    if space is not None
                    for p in _length_problems(space.kind, space.scenarios, ("values",), T)]
        if self.consumption is None:
            problems += _check_block("traffic", self.traffic, rates)
            problems += _length_problems("traffic", self.traffic, rates, T)
            problems += [f"traffic.scenarios[{i}].mean_holding_min: traffic/{p.label}: "
                         f"mean holding time {p.mean_holding_min} must be positive"
                         for i, p in enumerate(self.traffic)
                         if p.mean_holding_min is not None and not p.mean_holding_min > 0]
        _refuse("invalid scenario document", problems)


class ScenarioFileError(ValueError):
    """Raised when an input document (scenario, config or counts file) does
    not have its layout; the message names the key."""


def _json_kind(value) -> str:
    """JSON type of a parsed value, telling integers from other numbers."""
    for kind, cls in (("boolean", bool), ("integer", int), ("number", float),
                      ("string", str), ("array", list), ("null", type(None))):
        if isinstance(value, cls):
            return kind
    return "object"


_NUMBER_KINDS = frozenset({"integer", "number"})

# The JSON kinds a leaf spec accepts, and how a message words them
_LEAF_SPECS = {
    int: ({"integer"}, "an integer"),
    float: (_NUMBER_KINDS, "a number"),
    None: (_NUMBER_KINDS | {"null"}, "a number or null"),
    str: ({"string"}, "a string"),
}


def check_document(doc, spec, where: str = ""):
    """doc itself, if it has the layout spec describes.

    A spec is a dict for an object (a key ending in "?" may be left out,
    every other key must be there, and no other key may), a one-item list
    for an array of such items, ``int`` for an integer, ``float`` for any
    number, ``None`` for a number or null, ``str`` for any string, and a
    string value for that exact string. Numbers must be finite: Python's
    json module accepts NaN and Infinity, reads 1e999 as inf and a
    400-digit integer as an int no float can hold, and range checks such
    as ``trace < 0`` are false for NaN. The first mismatch raises
    ScenarioFileError naming its key path below ``where``.
    """
    name = where or "document"
    if isinstance(spec, str):
        if doc != spec:
            raise ScenarioFileError(f"{name}: expected {spec!r}, got {doc!r}")
        return doc
    if isinstance(spec, dict):
        kinds, wording = {"object"}, "a JSON object"
    elif isinstance(spec, list):
        kinds, wording = {"array"}, "a JSON array"
    else:
        kinds, wording = _LEAF_SPECS[spec]
    kind = _json_kind(doc)
    if kind not in kinds:
        raise ScenarioFileError(f"{name}: expected {wording}, got {kind}")
    if kind in _NUMBER_KINDS and not abs(doc) <= sys.float_info.max:
        raise ScenarioFileError(f"{name}: non-finite number")
    if kind == "array":
        for i, item in enumerate(doc):
            check_document(item, spec[0], f"{where}[{i}]")
    elif kind == "object":
        keys = {key.removesuffix("?"): key for key in spec}
        unknown = doc.keys() - keys
        if unknown:
            raise ScenarioFileError(f"{name}: unknown key(s) {sorted(unknown)}")
        missing = [key for key in spec if not key.endswith("?") and key not in doc]
        if missing:
            raise ScenarioFileError(f"{name}: missing key(s) {sorted(missing)}")
        for key, value in doc.items():
            check_document(value, spec[keys[key]], f"{where}.{key}" if where else key)
    return doc


def read_json(path: str | Path):
    """The JSON document in a file; a decode error names its line or byte."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioFileError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioFileError(f"{path}: not UTF-8 at byte {exc.start}") from exc


def read_document(path: str | Path, spec, where: str = ""):
    """The JSON document in a file, checked against spec (see check_document)."""
    return check_document(read_json(path), spec, where)


_ENTRY = {"label": str, "probability": float, "values": [float]}
_PROFILE = {"label": str, "probability": float, "new_rate": [float],
            "handoff_rate": [float], "mean_holding_min?": float}

SCENARIO_SPEC = {
    "schema": SCENARIO_SCHEMA,
    "horizon": {"T": int, "period_hours?": float},
    "price": {"scenarios": [_ENTRY]},
    "renewable": {"scenarios": [_ENTRY]},
    "consumption?": {"scenarios": [_ENTRY]},
    "traffic?": {"scenarios": [_PROFILE]},
}


def _marginal(doc: dict, kind: str) -> MarginalSpace:
    return MarginalSpace(kind=kind, scenarios=tuple(
        MarginalScenario(e["label"], float(e["probability"]), e["values"])
        for e in doc[kind]["scenarios"]))


def _scenario_document(doc: dict) -> ScenarioDocument:
    """The ScenarioDocument of a document that has SCENARIO_SPEC's layout."""
    if "consumption" not in doc and "traffic" not in doc:
        raise ScenarioFileError("document: needs either 'consumption' or 'traffic'")
    if "consumption" in doc and "traffic" in doc:
        raise ScenarioFileError("document: 'consumption' and 'traffic' are exclusive")
    return ScenarioDocument(
        # Horizon's own default period length applies when the key is absent
        horizon=Horizon(T=doc["horizon"]["T"], **{key: float(value) for key, value
                                                   in doc["horizon"].items() if key != "T"}),
        price=_marginal(doc, "price"),
        renewable=_marginal(doc, "renewable"),
        consumption=_marginal(doc, "consumption") if "consumption" in doc else None,
        traffic=[RateProfile(e["label"], float(e["probability"]), e["new_rate"],
                             e["handoff_rate"], float(e["mean_holding_min"])
                             if "mean_holding_min" in e else None)
                 for e in doc["traffic"]["scenarios"]] if "traffic" in doc else [],
    )


def parse_scenario_document(doc: dict) -> ScenarioDocument:
    """The ScenarioDocument of a parsed JSON document; a layout error raises
    ScenarioFileError and a bad value ValueError, each naming its key."""
    return _scenario_document(check_document(doc, SCENARIO_SPEC))


def load_scenario_file(path: str | Path) -> ScenarioDocument:
    """Read and validate a scenario JSON document."""
    return _scenario_document(read_document(path, SCENARIO_SPEC))


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

