"""Command-line interface: configuration ingestion, runs, CSV emission.

Subcommands: solve, simulate, sweep {battery,cac,arrival}, estimate-probs.
Shared flags: --config, --scenarios, --out, --seed; solve and simulate
also take --nonanticipative and --physical-discharge. Exit codes: 0
success, 2 usage error (including a bad value in a scenario file, named
by key), 4 I/O or file-format error (a decode error, an unknown or
missing key, a non-finite number or a value of the wrong JSON type), 5
solver failure (a block without a finite optimum, such as trace values
so large that its optimal cost overflows: every program the model builds
is feasible and bounded, see stochastic.solve_policies).

Every input file goes through scenarios.read_document. The config file is
JSON with schema "bspower-config-1", its layout read off DEFAULT_CONFIG:
unknown keys are rejected, and each value must have the JSON type of its
default (a number given as a string such as "inf" exits 4). A scenario
file (schema "bspower-scenarios-1", layout scenarios.SCENARIO_SPEC)
replaces the default price/renewable marginals and either the consumption
marginals or the traffic profiles. Outputs are byte-deterministic for a
fixed config and seed: fixed-format CSVs plus a manifest recording the
config digest, seed, and package version.
"""

from __future__ import annotations

import argparse
import copy
import functools
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .calibration import (CONFIG_SCHEMA, DEFAULT_CONFIG, Calibration, _keyed,
                          calibration_from_config)
from .evaluate import (_uniform_load, evaluate_policy, manifest_text, monthly_cost,
                       sweep_arrival_rate, sweep_battery, sweep_cac)
from .scenarios import (ScenarioDocument, ScenarioFileError, check_document,
                        estimate_probabilities, load_scenario_file, read_document,
                        read_json, scenario_document_dict)
from .stochastic import policy_csv_text, solve_policy


def _override_spec(default):
    """The layout of a config file, read off DEFAULT_CONFIG: any key may be
    left out, and each value has the JSON kind of its default. A null default
    (loss_cost_coeff) means "derive it", so a number may replace it."""
    if isinstance(default, dict):
        return {f"{key}?": _override_spec(value) for key, value in default.items()}
    if isinstance(default, list):
        return [_override_spec(default[0])]
    return default if default is None or isinstance(default, str) else type(default)


CONFIG_SPEC = {**_override_spec(DEFAULT_CONFIG), "schema": CONFIG_SCHEMA}
del CONFIG_SPEC["schema?"]


def _merge(defaults, override):
    """defaults with the leaves a checked override gives replaced."""
    if not isinstance(defaults, dict):
        return override
    merged = copy.deepcopy(defaults)
    for key, value in override.items():
        merged[key] = _merge(defaults[key], value)
    return merged


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    return _merge(DEFAULT_CONFIG, read_document(path, CONFIG_SPEC, "config"))


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


# simulate keeps every sampled day in memory and writes one CSV row per day
_MAX_SIM_DAYS = 100_000


def _check_ranges(cfg: dict) -> None:
    """Refuse out-of-range config values by key, before any work is done."""
    traffic, connections = cfg["traffic"], cfg["base_station"]["max_connections"]
    for key, value, ok, rule in (
            ("seed", cfg["seed"], cfg["seed"] >= 0, "be non-negative"),
            ("traffic.handoff_fraction", traffic["handoff_fraction"],
             0.0 <= traffic["handoff_fraction"] <= 1.0, "be in [0, 1]"),
            ("traffic.mean_holding_min", traffic["mean_holding_min"],
             traffic["mean_holding_min"] > 0.0, "be positive"),
            ("traffic.replications", traffic["replications"],
             traffic["replications"] >= 1, "be >= 1"),
            ("simulate.days", cfg["simulate"]["days"],
             1 <= cfg["simulate"]["days"] <= _MAX_SIM_DAYS, f"be in [1, {_MAX_SIM_DAYS}]"),
            ("cac.channels", cfg["cac"]["channels"], cfg["cac"]["channels"] <= connections,
             f"be at most config.base_station.max_connections ({connections})")):
        if not ok:
            raise ValueError(f"config.{key} must {rule}, got {value}")


def _build_run_config(args) -> RunConfig:
    cfg = _load_config_file(getattr(args, "config", None))
    _check_ranges(cfg)
    scen_doc: ScenarioDocument | None = None
    if getattr(args, "scenarios", None):
        scen_doc = load_scenario_file(args.scenarios)
    calibration = calibration_from_config(cfg, scen_doc)

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
    rng = np.random.default_rng(np.random.SeedSequence(rc.seed, spawn_key=(101,)))
    draws = rng.choice(len(space), size=rc.sim_days, p=space.probabilities)
    per_scenario = evaluate_policy(policy, space)
    costs = per_scenario[draws]
    rows = [f"{label},{cost:.6f}" for label, cost in zip(space.labels, per_scenario)]
    lines = ["day,scenario_label,cost_cents"]
    lines.extend(f"{d + 1},{rows[i]}" for d, i in enumerate(draws))
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
        spec = _keyed("sweeps.cac.load_per_min", _uniform_load, cal=cal,
                      rate=float(grids["load_per_min"]))
        report = sweep_cac(grids["thresholds"], spec, cal, rc.seed)
    else:
        report = sweep_arrival_rate(grids["rates_per_min"], cal, rc.seed)
    _write_outputs(rc, {f"{kind}_sweep.csv": report.csv_text()})
    print(f"{kind} sweep: {len(report.rows)} rows -> {rc.out_dir / (kind + '_sweep.csv')}")
    return 0


def cmd_estimate_probs(counts_path: str) -> int:
    doc = read_json(counts_path)
    if not isinstance(doc, dict):
        doc = {"counts": doc}
    elif "counts" not in doc:
        raise ValueError("counts file must hold a JSON array "
                         "(or an object with a 'counts' array)")
    counts = check_document(doc, {"counts": [float]})["counts"]
    print(" ".join(f"{p:g}" for p in estimate_probabilities(counts)))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file (schema bspower-config-1)")
    shared.add_argument("--scenarios",
                        help="JSON scenario file (schema bspower-scenarios-1)")
    shared.add_argument("--out", default="out", help="output directory (default: out)")
    shared.add_argument("--seed", type=_seed, default=None,
                        help="RNG seed; overrides the config file")
    modes = argparse.ArgumentParser(add_help=False)
    modes.add_argument("--nonanticipative", action="store_true",
                       help="force the first-period purchase to be scenario-independent")
    modes.add_argument("--physical-discharge", action="store_true",
                       help="apply self-discharge inside the balance dynamics")

    parser = argparse.ArgumentParser(
        prog="bspower",
        description="Adaptive power purchase/storage planning for a "
                    "renewable-assisted base station")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[shared, modes],
                   help="solve the stochastic program and write the policy CSV")
    sub.add_parser("simulate", parents=[shared, modes],
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
    except RuntimeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 5
    except (OSError, ScenarioFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
