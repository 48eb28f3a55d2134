"""Command-line interface: configuration ingestion, runs, CSV emission.

Subcommands: solve, simulate, sweep {battery,cac,arrival}, estimate-probs.
Shared flags: --config, --scenarios, --out, --seed, --nonanticipative,
--physical-discharge. Exit codes: 0 success, 2 usage error, 3 infeasible
program, 4 I/O or file-format error (including non-finite numbers), 5
solver failure.

The config file is JSON with schema "bspower-config-1"; unknown keys are
rejected, and each value must have the JSON type of its default (a number
given as a string such as "inf" exits 4). A scenario file (schema
"bspower-scenarios-1") replaces the default price/renewable marginals and
either the consumption marginals or the traffic profiles. Outputs are
byte-deterministic for a fixed config and seed: fixed-format CSVs plus
a manifest recording the config digest, seed, and package version.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .calibration import (DEFAULT_ARRIVAL_RATES, DEFAULT_BATTERY_GRID,
                          DEFAULT_CAC_THRESHOLDS, DEFAULT_RENEWABLE_SCALINGS,
                          Calibration, default_calibration,
                          default_price_space, default_renewable_space,
                          default_traffic_profiles, derived_loss_cost)
from .evaluate import (RealizedDay, evaluate_policy, manifest_text,
                       monthly_cost, sweep_arrival_rate, sweep_battery,
                       sweep_cac)
from .power_model import BaseStationParams
from .scenarios import (ScenarioDocument, ScenarioFileError, check_marginal_space,
                        estimate_probabilities, find_non_finite,
                        load_scenario_file, scenario_document_dict)
from .stochastic import (InfeasibleProgramError, StorageConfig, policy_csv_text,
                         solve_policy)
from .traffic import CacConfig, uniform_traffic
from .units import Horizon

CONFIG_SCHEMA = "bspower-config-1"


class UsageError(ValueError):
    """Bad invocation or unusable parameter values; exits with code 2."""


class ConfigError(ValueError):
    """Malformed config file content; exits with code 4."""


_DEFAULT_CONFIG = {
    "schema": CONFIG_SCHEMA,
    "seed": 0,
    "battery": {
        "capacity_wh": 2000.0,
        "initial_wh": 500.0,
        "terminal_wh": 500.0,
        "self_discharge": 0.001,
        "loss_cost_coeff": None,  # None derives it from mean price
    },
    "base_station": {
        "static_w": 194.25,
        "dynamic_w": 24.0,
        "max_connections": 25,
    },
    "cac": {"channels": 25, "threshold": 20},
    "traffic": {
        "handoff_fraction": 0.3,
        "mean_holding_min": 10.0,
        "replications": 5,
    },
    "simulate": {"days": 1000},
    "sweeps": {
        "battery": {
            "capacities_wh": list(DEFAULT_BATTERY_GRID),
            "renewable_scalings": list(DEFAULT_RENEWABLE_SCALINGS),
        },
        "cac": {
            "thresholds": list(DEFAULT_CAC_THRESHOLDS),
            "load_per_min": 0.56,
        },
        "arrival": {"rates_per_min": list(DEFAULT_ARRIVAL_RATES)},
    },
}


def _json_kind(value) -> str:
    """JSON type of a parsed value, telling integers from other numbers."""
    for kind, cls in (("boolean", bool), ("integer", int), ("number", float),
                      ("string", str), ("array", list), ("null", type(None))):
        if isinstance(value, cls):
            return kind
    return "object"


# The JSON kinds a config leaf accepts, by the kind of its default. A null
# default (loss_cost_coeff) means "derive it", so a number may replace it.
_LEAF_KINDS = {
    "integer": ({"integer"}, "an integer"),
    "number": ({"integer", "number"}, "a number"),
    "null": ({"integer", "number", "null"}, "a number or null"),
    "string": ({"string"}, "a string"),
    "array": ({"array"}, "an array"),
}


def _check_leaf(default, value, where):
    """A leaf must have the JSON kind of its default; strings never pass as numbers."""
    accepted, wording = _LEAF_KINDS[_json_kind(default)]
    if _json_kind(value) not in accepted:
        raise ConfigError(f"{where}: expected {wording}, got {_json_kind(value)}")
    if isinstance(value, list):
        for i, item in enumerate(value):
            _check_leaf(default[0], item, f"{where}[{i}]")


def _merge(defaults, override, where):
    if not isinstance(override, dict):
        raise ConfigError(f"{where}: expected an object, got {type(override).__name__}")
    unknown = set(override) - set(defaults)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    merged = copy.deepcopy(defaults)
    for key, value in override.items():
        if isinstance(defaults[key], dict):
            merged[key] = _merge(defaults[key], value, f"{where}.{key}")
        else:
            _check_leaf(defaults[key], value, f"{where}.{key}")
            merged[key] = value
    return merged


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return copy.deepcopy(_DEFAULT_CONFIG)
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != CONFIG_SCHEMA:
        raise ConfigError(f"{path}: expected schema {CONFIG_SCHEMA!r}")
    bad = find_non_finite(doc, "config")
    if bad is not None:
        raise ConfigError(f"{path}: {bad}: non-finite number")
    return _merge(_DEFAULT_CONFIG, doc, "config")


@dataclass
class RunConfig:
    calibration: Calibration
    seed: int
    out_dir: Path
    nonanticipative: bool
    physical_discharge: bool
    sim_days: int
    sweeps: dict
    config_hash: str


def _build_run_config(args) -> RunConfig:
    cfg = _load_config_file(getattr(args, "config", None))
    scen_doc: ScenarioDocument | None = None
    if getattr(args, "scenarios", None):
        scen_doc = load_scenario_file(args.scenarios)

    horizon = scen_doc.horizon if scen_doc else Horizon(T=24)
    price = scen_doc.price if scen_doc else default_price_space(horizon.T)
    renewable = scen_doc.renewable if scen_doc else default_renewable_space(horizon.T)

    tr = cfg["traffic"]
    if scen_doc and scen_doc.traffic:
        profiles = tuple(scen_doc.traffic)
        consumption = None
    elif scen_doc and scen_doc.consumption is not None:
        profiles = ()
        consumption = scen_doc.consumption
    else:
        profiles = default_traffic_profiles(
            handoff_fraction=float(tr["handoff_fraction"]),
            mean_holding=float(tr["mean_holding_min"]),
            periods=horizon.T)
        consumption = None

    bat = cfg["battery"]
    loss_coeff = bat["loss_cost_coeff"]
    if loss_coeff is None:
        # checked first, so a bad price trace is named as such rather than
        # as the coefficient derived from it
        problems = check_marginal_space(price)
        if problems:
            raise UsageError("invalid price scenarios:\n  " + "\n  ".join(problems))
        loss_coeff = derived_loss_cost(price, float(bat["self_discharge"]))
    storage = StorageConfig(
        capacity=float(bat["capacity_wh"]),
        initial=float(bat["initial_wh"]),
        terminal=float(bat["terminal_wh"]),
        self_discharge=float(bat["self_discharge"]),
        loss_cost_coeff=float(loss_coeff),
    )
    bs = cfg["base_station"]
    calibration = Calibration(
        horizon=horizon,
        params=BaseStationParams(
            e_static_w=float(bs["static_w"]),
            e_dynamic_w=float(bs["dynamic_w"]),
            max_connections=int(bs["max_connections"])),
        storage=storage,
        cac=CacConfig(channels=int(cfg["cac"]["channels"]),
                      threshold=int(cfg["cac"]["threshold"])),
        price=price,
        renewable=renewable,
        traffic_profiles=profiles,
        handoff_fraction=float(tr["handoff_fraction"]),
        mean_holding=float(tr["mean_holding_min"]),
        replications=int(tr["replications"]),
        consumption=consumption,
    )

    seed = args.seed if args.seed is not None else int(cfg["seed"])
    digest_doc = {
        "config": cfg,
        "scenarios": scenario_document_dict(scen_doc) if scen_doc else None,
        "seed": seed,
        "nonanticipative": bool(getattr(args, "nonanticipative", False)),
        "physical_discharge": bool(getattr(args, "physical_discharge", False)),
    }
    digest = hashlib.sha256(
        json.dumps(digest_doc, sort_keys=True).encode()).hexdigest()
    return RunConfig(
        calibration=calibration,
        seed=seed,
        out_dir=Path(getattr(args, "out", "out")),
        nonanticipative=bool(getattr(args, "nonanticipative", False)),
        physical_discharge=bool(getattr(args, "physical_discharge", False)),
        sim_days=int(cfg["simulate"]["days"]),
        sweeps=cfg["sweeps"],
        config_hash=digest,
    )


def _write_outputs(rc: RunConfig, files: dict[str, str]) -> None:
    rc.out_dir.mkdir(parents=True, exist_ok=True)
    files = dict(files)
    files["manifest.txt"] = manifest_text(rc.config_hash, rc.seed)
    for name, text in files.items():
        (rc.out_dir / name).write_text(text)


def cmd_solve(rc: RunConfig) -> int:
    cal = rc.calibration
    space = cal.scenario_space(rc.seed)
    policy = solve_policy(cal.horizon, cal.storage, space,
                          nonanticipative=rc.nonanticipative,
                          physical_discharge=rc.physical_discharge)
    _write_outputs(rc, {"policy.csv": policy_csv_text(policy)})
    print(f"scenarios: {len(space)}")
    print(f"expected daily cost: {policy.expected_cost:.6f} cents")
    print(f"expected monthly cost: ${monthly_cost(policy.expected_cost):.2f}")
    return 0


def cmd_simulate(rc: RunConfig) -> int:
    cal = rc.calibration
    space = cal.scenario_space(rc.seed)
    policy = solve_policy(cal.horizon, cal.storage, space,
                          nonanticipative=rc.nonanticipative,
                          physical_discharge=rc.physical_discharge)
    if rc.sim_days < 1:
        raise UsageError("simulate.days must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(rc.seed, spawn_key=(101,)))
    draws = rng.choice(len(space), size=rc.sim_days, p=space.probabilities)
    per_scenario = [
        evaluate_policy(policy, RealizedDay.from_scenario(s)).cost_cents
        for s in space.scenarios
    ]
    costs = np.array([per_scenario[i] for i in draws])
    lines = ["day,scenario_label,cost_cents"]
    lines.extend(f"{d + 1},{space.labels[i]},{per_scenario[i]:.6f}"
                 for d, i in enumerate(draws))
    _write_outputs(rc, {"simulate.csv": "\n".join(lines) + "\n"})
    mean = float(costs.mean())
    se = float(costs.std(ddof=1) / np.sqrt(len(costs))) if len(costs) > 1 else 0.0
    print(f"expected daily cost: {policy.expected_cost:.6f} cents")
    print(f"realized mean over {rc.sim_days} days: {mean:.6f} cents (se {se:.6f})")
    print(f"realized monthly cost: ${monthly_cost(mean):.2f}")
    return 0


def cmd_sweep(rc: RunConfig, kind: str) -> int:
    cal = rc.calibration
    grids = rc.sweeps[kind]
    if kind == "battery":
        report = sweep_battery(grids["capacities_wh"], grids["renewable_scalings"],
                               cal, rc.seed)
    elif kind == "cac":
        spec = uniform_traffic(float(grids["load_per_min"]), cal.handoff_fraction,
                               cal.horizon.T, cal.mean_holding)
        report = sweep_cac(grids["thresholds"], spec, cal, rc.seed)
    else:
        report = sweep_arrival_rate(grids["rates_per_min"], cal, rc.seed)
    _write_outputs(rc, {f"{kind}_sweep.csv": report.csv_text()})
    print(f"{kind} sweep: {len(report.rows)} rows -> {rc.out_dir / (kind + '_sweep.csv')}")
    return 0


def cmd_estimate_probs(counts_path: str) -> int:
    try:
        doc = json.loads(Path(counts_path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{counts_path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    counts = doc.get("counts") if isinstance(doc, dict) else doc
    if not isinstance(counts, list) or not counts:
        raise UsageError("counts file must hold a non-empty JSON array "
                         "(or an object with a 'counts' array)")
    bad = find_non_finite(counts, "counts")
    if bad is not None:
        raise ConfigError(f"{counts_path}: {bad}: non-finite number")
    try:
        probs = estimate_probabilities([float(c) for c in counts])
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    print(" ".join(f"{p:g}" for p in probs))
    return 0


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file (schema bspower-config-1)")
    shared.add_argument("--scenarios",
                        help="JSON scenario file (schema bspower-scenarios-1)")
    shared.add_argument("--out", default="out", help="output directory (default: out)")
    shared.add_argument("--seed", type=_seed, default=None,
                        help="RNG seed; overrides the config file")
    shared.add_argument("--nonanticipative", action="store_true",
                        help="force the first-period purchase to be scenario-independent")
    shared.add_argument("--physical-discharge", action="store_true",
                        help="apply self-discharge inside the balance dynamics")

    parser = argparse.ArgumentParser(
        prog="bspower",
        description="Adaptive power purchase/storage planning for a "
                    "renewable-assisted base station")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[shared],
                   help="solve the stochastic program and write the policy CSV")
    sub.add_parser("simulate", parents=[shared],
                   help="replay the policy over sampled days")
    sweep = sub.add_parser("sweep", parents=[shared], help="run a parameter sweep")
    sweep.add_argument("kind", choices=("battery", "cac", "arrival"))
    probs = sub.add_parser("estimate-probs",
                           help="empirical scenario probabilities from counts")
    probs.add_argument("counts_file")
    return parser


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "estimate-probs":
            return cmd_estimate_probs(args.counts_file)
        rc = _build_run_config(args)
        if args.command == "solve":
            return cmd_solve(rc)
        if args.command == "simulate":
            return cmd_simulate(rc)
        return cmd_sweep(rc, args.kind)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleProgramError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 5
    except (OSError, ConfigError, ScenarioFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
