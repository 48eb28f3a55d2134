"""Command-line interface: subcommands, config ingestion, and exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bspower import scenarios as scenarios_mod
from bspower.calibration import DEFAULT_CONFIG
from bspower.cli import build_parser, main
from bspower.scenarios import MarginalSpace, ScenarioDocument, ScenarioSpace

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"

TINY_SCENARIOS = {
    "schema": "bspower-scenarios-1",
    "horizon": {"T": 4},
    "price": {"scenarios": [
        {"label": "flat", "probability": 1.0, "values": [12.0, 12.0, 20.0, 12.0]},
    ]},
    "renewable": {"scenarios": [
        {"label": "none", "probability": 1.0, "values": [130.0, 290.0, 0.0, 0.0]},
    ]},
    "consumption": {"scenarios": [
        {"label": "steady", "probability": 1.0, "values": [200.0, 230.0, 240.0, 0.0]},
    ]},
}

TWO_DAY_SCENARIOS = {
    "schema": "bspower-scenarios-1",
    "horizon": {"T": 3},
    "price": {"scenarios": [
        {"label": "hi", "probability": 0.5, "values": [20.0, 20.0, 20.0]},
        {"label": "lo", "probability": 0.5, "values": [10.0, 10.0, 10.0]},
    ]},
    "renewable": {"scenarios": [
        {"label": "none", "probability": 1.0, "values": [0.0, 0.0, 0.0]},
    ]},
    "consumption": {"scenarios": [
        {"label": "steady", "probability": 1.0, "values": [100.0, 100.0, 0.0]},
    ]},
}


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


@pytest.fixture
def tiny(tmp_path):
    return write_json(tmp_path / "tiny.json", TINY_SCENARIOS)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_singleton_scenario_file(tiny, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["solve", "--scenarios", tiny, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "scenarios: 1" in printed
    assert "expected monthly cost: $" in printed

    lines = (out / "policy.csv").read_text().splitlines()
    assert lines[0] == "scenario_label,t,x_wh,s_wh,y_wh"
    assert len(lines) == 1 + 4
    # cheapest plan: cover the expensive hour-3 deficit by buying at hour 2
    assert lines[2] == "flat|none|steady,2,250.000000,430.000000,0.000000"

    manifest = (out / "manifest.txt").read_text()
    assert "config_sha256:" in manifest and "seed: 0" in manifest


def test_solve_default_config_covers_the_full_scenario_space(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["solve", "--out", str(out)]) == 0
    assert "scenarios: 20" in capsys.readouterr().out
    lines = (out / "policy.csv").read_text().splitlines()
    # 2 price x 2 renewable x 5 traffic scenarios over 24 hourly periods
    assert lines[0] == "scenario_label,t,x_wh,s_wh,y_wh"
    assert len(lines) == 1 + 20 * 24


def test_default_config_digest_is_pinned(tmp_path, capsys):
    # the manifest digest hashes the default config document: a changed key,
    # value or JSON type there moves it
    out = tmp_path / "run"
    assert main(["solve", "--seed", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    assert ("config_sha256: 1fde68275a7ce6f7bcece44a0af2cc68239c3fb35cf368db72afed6f61dceeae"
            in (out / "manifest.txt").read_text().splitlines())


def test_solve_writes_byte_identical_outputs(tiny, tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--scenarios", tiny, "--out", str(out1)]) == 0
    assert main(["solve", "--scenarios", tiny, "--out", str(out2)]) == 0
    capsys.readouterr()
    for name in ("policy.csv", "manifest.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_mode_flags_change_the_manifest_hash(tiny, tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--scenarios", tiny, "--out", str(out1)]) == 0
    assert main(["solve", "--scenarios", tiny, "--out", str(out2),
                 "--physical-discharge"]) == 0
    capsys.readouterr()
    assert (out1 / "manifest.txt").read_text() != (out2 / "manifest.txt").read_text()


def test_solve_rejects_malformed_scenario_file(tmp_path, capsys):
    doc = dict(TINY_SCENARIOS, bogus=1)
    path = write_json(tmp_path / "bad.json", doc)
    assert main(["solve", "--scenarios", path, "--out", str(tmp_path / "o")]) == 4
    assert "bogus" in capsys.readouterr().err


def test_solve_missing_scenario_file_is_io_error(tmp_path, capsys):
    assert main(["solve", "--scenarios", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 4
    capsys.readouterr()


def test_negative_price_traces_name_the_price_scenario(tmp_path, capsys):
    # a negative mean price would otherwise surface as the loss coefficient
    # derived from it, which the user never set
    doc = json.loads(json.dumps(TINY_SCENARIOS))
    doc["price"]["scenarios"][0]["values"] = [-5.0, -5.0, -5.0, -5.0]
    path = write_json(tmp_path / "negative.json", doc)
    out = tmp_path / "o"
    assert main(["solve", "--scenarios", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "price/flat: negative trace values" in err
    assert "loss_cost_coeff" not in err
    assert not (out / "policy.csv").exists()


def test_solve_rejects_nan_in_scenario_trace(tmp_path, capsys):
    doc = json.loads(json.dumps(TINY_SCENARIOS))
    doc["price"]["scenarios"][0]["values"][1] = float("nan")
    path = write_json(tmp_path / "nan.json", doc)
    out = tmp_path / "o"
    assert main(["solve", "--scenarios", path, "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert "price.scenarios[0].values[1]" in captured.err
    assert "nan" not in captured.out
    assert not (out / "policy.csv").exists()


def test_zero_price_probability_is_refused_once_by_key(tmp_path, capsys):
    # each block is checked where it is parsed, so the bad entry is named
    # once, not once per composite scenario that contains it
    doc = json.loads(json.dumps(TWO_DAY_SCENARIOS))
    doc["renewable"]["scenarios"].append(
        {"label": "some", "probability": 0.5, "values": [5.0, 5.0, 5.0]})
    doc["renewable"]["scenarios"][0]["probability"] = 0.5
    doc["price"]["scenarios"][0]["probability"] = 0.0
    doc["price"]["scenarios"][1]["probability"] = 1.0
    path = write_json(tmp_path / "zero.json", doc)
    out = tmp_path / "o"
    assert main(["solve", "--scenarios", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("price.scenarios[0].probability") == 1
    assert "outside (0, 1]" in err and "|" not in err
    assert not out.exists()


def test_label_with_a_csv_delimiter_is_refused_by_key(tmp_path, capsys):
    # labels are written unquoted into policy.csv and simulate.csv
    doc = json.loads(json.dumps(TWO_DAY_SCENARIOS))
    doc["price"]["scenarios"][0]["label"] = "peak,hi"
    path = write_json(tmp_path / "comma.json", doc)
    out = tmp_path / "o"
    assert main(["solve", "--scenarios", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert ("price.scenarios[0].label: label 'peak,hi' holds a comma, quote or line break"
            in captured.err)
    assert captured.out == ""
    assert not (out / "policy.csv").exists()


TRAFFIC_BLOCK = {"scenarios": [
    {"label": "busy", "probability": 1.0,
     "new_rate": [0.7, 1.4, 1.4, 0.7], "handoff_rate": [0.3, 0.6, 0.6, 0.3]},
]}


def tiny_with(path, value):
    """TINY_SCENARIOS with the entry at path (keys and indices) set to value;
    a path into "traffic" first swaps the consumption block for TRAFFIC_BLOCK."""
    doc = json.loads(json.dumps(TINY_SCENARIOS))
    if path[0] == "traffic":
        del doc["consumption"]
        doc["traffic"] = json.loads(json.dumps(TRAFFIC_BLOCK))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


VALUES = ("price", "scenarios", 0, "values")


@pytest.mark.parametrize("command, doc, key", [
    ("solve", tiny_with(("consumption", "scenarios", 0, "values"), ["inf", 5, 5, 5]),
     "consumption.scenarios[0].values[0]"),
    ("solve", tiny_with(VALUES, ["nan", 1, 1, 1]), "price.scenarios[0].values[0]"),
    ("solve", tiny_with(VALUES, 5), "price.scenarios[0].values"),
    ("solve", tiny_with(VALUES, [[1], [1], [1], [1]]), "price.scenarios[0].values[0]"),
    ("solve", tiny_with(VALUES, [True, False, True, False]), "price.scenarios[0].values[0]"),
    ("solve", tiny_with(VALUES, [10 ** 400, 1, 1, 1]), "price.scenarios[0].values[0]"),
    ("solve", tiny_with(("price", "scenarios", 0, "probability"), "1.0"),
     "price.scenarios[0].probability"),
    ("solve", tiny_with(("price", "scenarios", 0, "label"), 5), "price.scenarios[0].label"),
    ("solve", tiny_with(("renewable", "scenarios"), 5), "renewable.scenarios"),
    ("solve", tiny_with(("renewable", "scenarios", 0), 7), "renewable.scenarios[0]"),
    ("solve", tiny_with(("horizon",), 3), "horizon"),
    ("solve", tiny_with(("horizon", "T"), 2.5), "horizon.T"),
    ("solve", tiny_with(("horizon", "period_hours"), "1"), "horizon.period_hours"),
    ("solve", tiny_with(("traffic", "scenarios", 0, "new_rate"), ["1", 1, 1, 1]),
     "traffic.scenarios[0].new_rate[0]"),
    ("solve", tiny_with(("traffic", "scenarios", 0, "mean_holding_min"), "3"),
     "traffic.scenarios[0].mean_holding_min"),
    ("simulate", tiny_with(("consumption", "scenarios", 0, "values"), ["inf", 5, 5, 5]),
     "consumption.scenarios[0].values[0]"),
    ("estimate-probs", {"counts": ["inf", 1]}, "counts[0]"),
    ("estimate-probs", [15, True], "counts[1]"),
], ids=("string-inf-trace", "string-nan-trace", "number-for-trace", "nested-trace",
        "bool-trace", "huge-integer", "string-probability", "number-label",
        "number-for-entries", "number-entry", "number-for-horizon", "float-T",
        "string-period", "string-rate", "string-holding", "simulate-string-inf",
        "string-count", "bool-count"))
def test_file_value_of_the_wrong_json_type_is_refused_by_key(tmp_path, capsys,
                                                             command, doc, key):
    path = write_json(tmp_path / "in.json", doc)
    out = tmp_path / "o"
    argv = ([command, path] if command == "estimate-probs"
            else [command, "--scenarios", path, "--out", str(out)])
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert key in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_sweep_whose_scaled_renewable_overflows_is_refused_by_key(tmp_path, capsys,
                                                                  recursion_calls):
    cfg = write_json(tmp_path / "cfg.json", {
        "schema": "bspower-config-1",
        "sweeps": {"battery": {"renewable_scalings": [1e308]}}})
    out = tmp_path / "o"
    assert main(["sweep", "battery", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "renewable.scenarios[0].values: renewable/" in err
    assert "non-finite trace values" in err
    assert recursion_calls == [] and not out.exists()


@pytest.mark.parametrize("kind, grids, message", [
    ("battery", {"capacities_wh": [500.0, -1.0]},
     "config.sweeps.battery.capacities_wh[1]: capacity must be >= 0, got -1.0"),
    ("battery", {"renewable_scalings": [-1.0]},
     "config.sweeps.battery.renewable_scalings[0]: renewable scale must be non-negative"),
    ("cac", {"thresholds": [0]},
     "config.sweeps.cac.thresholds[0]: threshold must lie in [1, 25], got 0"),
    ("cac", {"thresholds": [5, 99]},
     "config.sweeps.cac.thresholds[1]: threshold must lie in [1, 25], got 99"),
    ("cac", {"load_per_min": -1.0},
     "config.sweeps.cac.load_per_min: total_rate must be non-negative, got -1.0"),
    ("arrival", {"rates_per_min": [-0.5]},
     "config.sweeps.arrival.rates_per_min[0]: total_rate must be non-negative, got -0.5"),
    ("arrival", {"rates_per_min": [0.5, 1e9]},
     "config.sweeps.arrival.rates_per_min[1]: 1 traffic run(s) x 1 replication(s) would "
     "need about"),
], ids=("capacity", "scaling", "threshold-low", "threshold-high", "load", "rate",
        "rate-past-budget"))
def test_bad_sweep_grid_value_is_refused_by_key(tmp_path, capsys, recursion_calls, kind, grids,
                                                message):
    cfg = write_json(tmp_path / "cfg.json", {"schema": "bspower-config-1",
                                             "sweeps": {kind: grids}})
    out = tmp_path / "o"
    assert main(["sweep", kind, "--config", cfg, "--out", str(out)]) == 2
    assert f"usage error: {message}" in capsys.readouterr().err
    assert recursion_calls == [] and not out.exists()


# every number is finite, but buying 1e300 Wh at 1e305 cents/Wh costs more
# than a float holds
OVERFLOWING_SCENARIOS = {
    "schema": "bspower-scenarios-1", "horizon": {"T": 2},
    "price": {"scenarios": [{"label": "p", "probability": 1.0, "values": [1e308, 1e307]}]},
    "renewable": {"scenarios": [{"label": "r", "probability": 1.0, "values": [0.0, 0.0]}]},
    "consumption": {"scenarios": [{"label": "c", "probability": 1.0,
                                   "values": [1e300, 1e300]}]}}


def test_non_finite_optimal_cost_is_a_solver_failure(tmp_path):
    # the CLI runs in its own process, as a user runs it, without the test
    # suite's filter that turns numpy warnings into errors
    path = write_json(tmp_path / "huge.json", OVERFLOWING_SCENARIOS)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "bspower.cli", "solve", "--scenarios", path,
                          "--out", str(tmp_path / "o")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 5, run.stderr
    assert "solver failure" in run.stderr and "'p|r|c'" in run.stderr
    assert "inf" not in run.stdout and "nan" not in run.stdout
    assert "nan" not in run.stderr


def test_traffic_profile_with_an_overflowing_rate_is_a_usage_error(tmp_path, capsys):
    doc = json.loads(json.dumps(TINY_SCENARIOS))
    del doc["consumption"]
    doc["traffic"] = {"scenarios": [
        {"label": "flood", "probability": 1.0,
         "new_rate": [1e308, 1.0, 1.0, 1.0], "handoff_rate": [1e308, 0.5, 0.5, 0.5]},
    ]}
    path = write_json(tmp_path / "flood.json", doc)
    assert main(["solve", "--scenarios", path, "--out", str(tmp_path / "o")]) == 2
    assert "arrival rates must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o" / "policy.csv").exists()


@pytest.mark.parametrize("path, value, key", [
    (("traffic", "scenarios", 0, "probability"), 0.0, "traffic.scenarios[0].probability"),
    (("traffic", "scenarios", 0, "probability"), -0.5, "traffic.scenarios[0].probability"),
    (("traffic", "scenarios", 0, "new_rate"), [0.7, -1.0, 1.4, 0.7],
     "traffic.scenarios[0].new_rate"),
    (("traffic", "scenarios", 0, "handoff_rate"), [0.3, 0.6, 0.6],
     "traffic.scenarios[0].handoff_rate"),
    (("traffic", "scenarios", 0, "mean_holding_min"), 0.0,
     "traffic.scenarios[0].mean_holding_min"),
    (("traffic", "scenarios", 0, "mean_holding_min"), -2.5,
     "traffic.scenarios[0].mean_holding_min"),
    (("traffic", "scenarios", 0, "label"), "busy\nday", "traffic.scenarios[0].label"),
], ids=("zero-probability", "negative-probability", "negative-rate", "short-rate",
        "zero-holding", "negative-holding", "line-break-label"))
def test_bad_traffic_profile_is_refused_by_key_before_any_simulation(
        tmp_path, capsys, monkeypatch, path, value, key):
    def no_simulation(*args, **kwargs):
        raise AssertionError("traffic was simulated")

    monkeypatch.setattr("bspower.calibration.simulate_replicated", no_simulation)
    scenarios = write_json(tmp_path / "traffic.json", tiny_with(path, value))
    out = tmp_path / "o"
    assert main(["solve", "--scenarios", scenarios, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert key in captured.err and captured.out == ""
    assert not out.exists()


def test_empty_traffic_block_is_refused_not_replaced_by_defaults(tmp_path, capsys):
    scenarios = write_json(tmp_path / "traffic.json",
                           tiny_with(("traffic", "scenarios"), []))
    assert main(["solve", "--scenarios", scenarios, "--out", str(tmp_path / "o")]) == 2
    assert "traffic.scenarios: no scenarios" in capsys.readouterr().err


def test_traffic_profile_without_holding_time_takes_the_config_value(tmp_path, capsys):
    doc = json.loads(json.dumps(TINY_SCENARIOS))
    del doc["consumption"]
    doc["traffic"] = {"scenarios": [
        {"label": "busy", "probability": 1.0,
         "new_rate": [0.7, 1.4, 1.4, 0.7], "handoff_rate": [0.3, 0.6, 0.6, 0.3]},
    ]}
    scenarios = write_json(tmp_path / "traffic.json", doc)
    costs = []
    for holding in (1.0, 30.0):
        cfg = write_json(tmp_path / f"cfg{holding}.json",
                         {"schema": "bspower-config-1",
                          "traffic": {"mean_holding_min": holding}})
        assert main(["solve", "--config", cfg, "--scenarios", scenarios,
                     "--out", str(tmp_path / f"o{holding}")]) == 0
        costs.append(next(line for line in capsys.readouterr().out.splitlines()
                          if line.startswith("expected daily cost")))
    # 1 vs 30 erlangs per connection/minute: the longer calls cost more
    assert costs[0] != costs[1]


def test_traffic_run_with_too_many_events_is_a_usage_error(tmp_path, capsys):
    # mean_holding_min 1e-300 asks for ~1e304 departure events; the run is
    # refused before it draws instead of running without end
    cfg = write_json(tmp_path / "cfg.json", {"schema": "bspower-config-1",
                                             "traffic": {"mean_holding_min": 1e-300}})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "events" in capsys.readouterr().err
    assert not (tmp_path / "o" / "policy.csv").exists()


def test_replication_count_past_the_event_budget_is_a_usage_error(tmp_path, capsys):
    # each default run needs ~5040 events per replication, so 1e8
    # replications of the five profiles are refused before any draw instead
    # of running without end
    cfg = write_json(tmp_path / "cfg.json", {"schema": "bspower-config-1",
                                             "traffic": {"replications": 100_000_000}})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "events" in capsys.readouterr().err
    assert not (tmp_path / "o" / "policy.csv").exists()


def test_solver_failure_exits_with_code_5(tmp_path, capsys):
    # finite traces whose optimum overflows: a block without a finite
    # optimum is a solver failure, named by its first scenario, whichever
    # command solves it
    path = write_json(tmp_path / "huge.json", OVERFLOWING_SCENARIOS)
    for command in (["solve"], ["solve", "--nonanticipative"], ["sweep", "battery"]):
        out = tmp_path / "-".join(command)
        assert main([*command, "--scenarios", path, "--out", str(out)]) == 5, command
        captured = capsys.readouterr()
        assert ("solver failure: the scenario group of 'p|r|c' has no finite optimum"
                in captured.err), command
        assert "nan" not in captured.err and captured.out == "", command
        assert not out.exists(), command


def test_nonanticipative_flag_accepted(tiny, tmp_path, capsys):
    out = tmp_path / "na"
    assert main(["solve", "--scenarios", tiny, "--out", str(out),
                 "--nonanticipative"]) == 0
    capsys.readouterr()
    assert (out / "policy.csv").exists()


def test_one_parser_serves_every_call_of_a_process():
    # main builds its parser once; a parse leaves nothing behind that
    # changes the next
    parser = build_parser()
    first = parser.parse_args(["solve", "--seed", "3"])
    assert vars(parser.parse_args(["sweep", "battery", "--out", "x"]))["kind"] == "battery"
    assert build_parser() is parser
    assert parser.parse_args(["solve", "--seed", "3"]) == first
    assert vars(first) == {"command": "solve", "config": None, "scenarios": None, "out": "out",
                           "seed": 3, "nonanticipative": False, "physical_discharge": False}


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_samples_days_from_the_scenario_law(tmp_path, capsys):
    scen = write_json(tmp_path / "two.json", TWO_DAY_SCENARIOS)
    cfg = write_json(tmp_path / "cfg.json", {
        "schema": "bspower-config-1",
        "simulate": {"days": 40},
        # free storage so each day costs exactly its 200 Wh of purchases
        "battery": {"self_discharge": 0.0, "loss_cost_coeff": 0.0},
    })
    out = tmp_path / "sim"
    assert main(["simulate", "--scenarios", scen, "--config", cfg,
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "realized mean over 40 days" in printed

    lines = (out / "simulate.csv").read_text().splitlines()
    assert lines[0] == "day,scenario_label,cost_cents"
    assert len(lines) == 1 + 40
    # every realized day must be one of the two scenarios, priced exactly
    costs = {line.split(",")[2] for line in lines[1:]}
    assert costs <= {"4.000000", "2.000000"}
    assert len(costs) == 2  # with 40 draws both days appear


def test_simulate_realized_mean_converges_to_expected(tmp_path, capsys):
    scen = write_json(tmp_path / "two.json", TWO_DAY_SCENARIOS)
    cfg = write_json(tmp_path / "cfg.json", {
        "schema": "bspower-config-1",
        "simulate": {"days": 1000},
        "battery": {"self_discharge": 0.0, "loss_cost_coeff": 0.0},
    })
    assert main(["simulate", "--scenarios", scen, "--config", cfg,
                 "--out", str(tmp_path / "sim")]) == 0
    printed = capsys.readouterr().out
    expected = float(printed.split("expected daily cost: ")[1].split(" cents")[0])
    tail = printed.split("realized mean over 1000 days: ")[1]
    mean = float(tail.split(" cents")[0])
    se = float(tail.split("(se ")[1].split(")")[0])
    assert se > 0.0
    assert abs(mean - expected) <= 3.0 * se


def test_simulate_is_deterministic(tmp_path, capsys):
    scen = write_json(tmp_path / "two.json", TWO_DAY_SCENARIOS)
    cfg = write_json(tmp_path / "cfg.json",
                     {"schema": "bspower-config-1", "simulate": {"days": 12}})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["simulate", "--scenarios", scen, "--config", cfg,
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out1 / "simulate.csv").read_bytes() == (out2 / "simulate.csv").read_bytes()


def test_simulate_rejects_nonpositive_days(tmp_path, capsys):
    scen = write_json(tmp_path / "two.json", TWO_DAY_SCENARIOS)
    cfg = write_json(tmp_path / "cfg.json",
                     {"schema": "bspower-config-1", "simulate": {"days": 0}})
    assert main(["simulate", "--scenarios", scen, "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_battery_with_reduced_grid(tiny, tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {
        "schema": "bspower-config-1",
        "sweeps": {"battery": {"capacities_wh": [1000.0, 2000.0],
                               "renewable_scalings": [1.0]}},
    })
    out = tmp_path / "sw"
    assert main(["sweep", "battery", "--scenarios", tiny, "--config", cfg,
                 "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "battery_sweep.csv").read_text().splitlines()
    assert lines[0] == "capacity_wh,renewable_scale,monthly_cost_usd"
    assert len(lines) == 1 + 2


def storage_scenarios():
    """A 24-period scenario file with explicit consumption whose joint
    space has 4 x 4 x 5 = 80 scenarios."""
    rng = np.random.default_rng(3)
    doc = {"schema": "bspower-scenarios-1", "horizon": {"T": 24}}
    for kind, count, high in (("price", 4, 20.0), ("renewable", 4, 300.0),
                              ("consumption", 5, 650.0)):
        doc[kind] = {"scenarios": [
            {"label": f"{kind}{i}", "probability": 1.0 / count,
             "values": rng.uniform(0.0, high, 24).round(3).tolist()}
            for i in range(count)]}
    return doc


@pytest.mark.parametrize("command, doc", [
    (["sweep", "battery"], storage_scenarios()),
    (["sweep", "cac"], None),
    (["solve"], dict({k: v for k, v in TINY_SCENARIOS.items() if k != "consumption"},
                     traffic=TRAFFIC_BLOCK)),
], ids=("battery-80", "cac", "solve-traffic"))
def test_each_scenario_space_is_checked_once(tmp_path, capsys, monkeypatch, command, doc):
    # one block check per MarginalSpace or ScenarioSpace built, and one per
    # traffic block of a scenario document; no other place checks again
    built, checks = [], []
    real_check = scenarios_mod._check_block
    monkeypatch.setattr(scenarios_mod, "_check_block",
                        lambda *args: checks.append(args[0]) or real_check(*args))
    for cls in (MarginalSpace, ScenarioSpace, ScenarioDocument):
        def counted(self, real=cls.__post_init__):
            real(self)
            if not isinstance(self, ScenarioDocument) or self.consumption is None:
                built.append(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    files = ["--scenarios", write_json(tmp_path / "s.json", doc)] if doc else []
    assert main([*command, *files, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert len(checks) == len(built) >= 4


def test_sweep_cac_with_reduced_grid(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {
        "schema": "bspower-config-1",
        "traffic": {"replications": 1},
        "sweeps": {"cac": {"thresholds": [10, 25], "load_per_min": 2.0}},
    })
    out = tmp_path / "sw"
    assert main(["sweep", "cac", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "cac_sweep.csv").read_text().splitlines()
    assert lines[0] == "threshold,blocking,dropping,cost_saving_pct"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["10", "25"]
    assert float(rows[0][1]) >= float(rows[1][1])  # blocking falls
    assert float(rows[0][2]) <= float(rows[1][2])  # dropping rises


def test_sweep_arrival_with_reduced_grid(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {
        "schema": "bspower-config-1",
        "traffic": {"replications": 1},
        "sweeps": {"arrival": {"rates_per_min": [0.2, 0.6]}},
    })
    out = tmp_path / "sw"
    assert main(["sweep", "arrival", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "arrival_sweep.csv").read_text().splitlines()
    assert lines[0] == "arrival_rate_per_min,avg_purchase_wh,avg_battery_wh"
    first, second = (line.split(",") for line in lines[1:])
    assert float(second[1]) >= float(first[1]) - 1e-9


def test_sweep_empty_grid_is_usage_error(tiny, tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {
        "schema": "bspower-config-1",
        "sweeps": {"battery": {"capacities_wh": []}},
    })
    assert main(["sweep", "battery", "--scenarios", tiny, "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert "usage error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# estimate-probs
# ---------------------------------------------------------------------------

def test_estimate_probs_worked_example(tmp_path, capsys):
    path = write_json(tmp_path / "counts.json", [15, 45])
    assert main(["estimate-probs", path]) == 0
    assert capsys.readouterr().out.strip() == "0.25 0.75"


def test_estimate_probs_accepts_counts_object(tmp_path, capsys):
    path = write_json(tmp_path / "counts.json", {"counts": [60]})
    assert main(["estimate-probs", path]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_estimate_probs_zero_counts_is_usage_error(tmp_path, capsys):
    path = write_json(tmp_path / "counts.json", [0, 0])
    assert main(["estimate-probs", path]) == 2
    assert "usage error" in capsys.readouterr().err


def test_estimate_probs_huge_counts_do_not_overflow(tmp_path, capsys):
    # the plain sum of these counts overflows to inf
    path = write_json(tmp_path / "counts.json", {"counts": [1e308, 1e308]})
    assert main(["estimate-probs", path]) == 0
    assert capsys.readouterr().out.strip() == "0.5 0.5"


def test_estimate_probs_rejects_non_finite_counts(tmp_path, capsys):
    path = tmp_path / "counts.json"
    path.write_text('{"counts": [15, Infinity]}')
    assert main(["estimate-probs", str(path)]) == 4
    assert "counts[1]" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["estimate-probs"], ["solve", "--scenarios"],
                                     ["solve", "--config"]], ids=" ".join)
def test_input_file_that_is_not_utf8_is_a_decode_error(tmp_path, capsys, command):
    path = tmp_path / "in.json"
    path.write_bytes(b'{"counts": [1, 2]}\n\xff')
    assert main([*command, str(path)]) == 4
    assert f"{path}: not UTF-8 at byte 19" in capsys.readouterr().err


def test_estimate_probs_missing_file(tmp_path, capsys):
    assert main(["estimate-probs", str(tmp_path / "nope.json")]) == 4
    capsys.readouterr()


def test_estimate_probs_refuses_unknown_keys(tmp_path, capsys):
    path = write_json(tmp_path / "counts.json", {"counts": [1, 3], "count": [9, 9]})
    assert main(["estimate-probs", path]) == 4
    captured = capsys.readouterr()
    assert "unknown key(s) ['count']" in captured.err
    assert captured.out == ""


def test_estimate_probs_rejects_non_array(tmp_path, capsys):
    path = write_json(tmp_path / "counts.json", {"not_counts": [1]})
    assert main(["estimate-probs", path]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def test_config_unknown_key_is_rejected(tiny, tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json",
                     {"schema": "bspower-config-1", "batteries": {}})
    assert main(["solve", "--scenarios", tiny, "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 4
    assert "batteries" in capsys.readouterr().err


def test_config_wrong_schema_is_rejected(tiny, tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"schema": "v999"})
    assert main(["solve", "--scenarios", tiny, "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 4
    capsys.readouterr()


def test_config_invalid_json_reports_line(tiny, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{\n  broken\n}\n")
    assert main(["solve", "--scenarios", tiny, "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 4
    assert "line 2" in capsys.readouterr().err


def test_config_infinite_capacity_is_rejected(tiny, tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {
        "schema": "bspower-config-1",
        "battery": {"capacity_wh": float("inf")},
    })
    assert main(["solve", "--scenarios", tiny, "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 4
    assert "config.battery.capacity_wh" in capsys.readouterr().err


@pytest.mark.parametrize("override, key", [
    ({"battery": {"capacity_wh": "inf"}}, "config.battery.capacity_wh"),
    ({"traffic": {"replications": "2"}}, "config.traffic.replications"),
    ({"traffic": {"replications": 2.5}}, "config.traffic.replications"),
    ({"battery": {"initial_wh": True}}, "config.battery.initial_wh"),
    ({"battery": {"loss_cost_coeff": "0"}}, "config.battery.loss_cost_coeff"),
    ({"sweeps": {"cac": {"thresholds": [10, "20"]}}}, "config.sweeps.cac.thresholds[1]"),
], ids=("string-inf", "string-int", "float-for-int", "bool", "string-null-default",
        "string-in-grid"))
def test_config_value_of_the_wrong_json_type_is_rejected(tiny, tmp_path, capsys,
                                                         override, key):
    cfg = write_json(tmp_path / "cfg.json", {"schema": "bspower-config-1", **override})
    assert main(["solve", "--scenarios", tiny, "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 4
    assert key in capsys.readouterr().err


def test_config_seed_flag_overrides_file(tiny, tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json",
                     {"schema": "bspower-config-1", "seed": 5})
    out = tmp_path / "o"
    assert main(["solve", "--scenarios", tiny, "--config", cfg,
                 "--out", str(out), "--seed", "9"]) == 0
    capsys.readouterr()
    assert "seed: 9" in (out / "manifest.txt").read_text()


@pytest.mark.parametrize("override, message", [
    ({"battery": {"initial_wh": 3000.0}},
     "config.battery: initial level 3000.0 outside [0, capacity=2000.0]"),
    ({"battery": {"self_discharge": 1.0}},
     "config.battery: self_discharge must be in [0, 1), got 1.0"),
    ({"cac": {"channels": 25, "threshold": 30}},
     "config.cac: threshold must lie in [1, 25], got 30"),
    ({"cac": {"channels": 0}}, "config.cac: channels must be >= 1, got 0"),
    ({"base_station": {"static_w": -1.0}},
     "config.base_station: power coefficients must be non-negative"),
], ids=("initial", "self-discharge", "threshold", "channels", "static"))
def test_config_block_refusal_names_its_block(tiny, tmp_path, capsys, override, message):
    cfg = write_json(tmp_path / "cfg.json", {"schema": "bspower-config-1", **override})
    out = tmp_path / "o"
    assert main(["solve", "--scenarios", tiny, "--config", cfg, "--out", str(out)]) == 2
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_config_bad_battery_values_are_usage_errors(tiny, tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {
        "schema": "bspower-config-1",
        "battery": {"initial_wh": 5000.0},  # exceeds the 2000 Wh capacity
    })
    assert main(["solve", "--scenarios", tiny, "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("override, key", [
    ({"seed": -1}, "config.seed"),
    ({"traffic": {"handoff_fraction": 2}}, "config.traffic.handoff_fraction"),
    ({"simulate": {"days": 0}}, "config.simulate.days"),
    ({"simulate": {"days": 1000000000000}}, "config.simulate.days"),
    ({"cac": {"channels": 40, "threshold": 40}}, "config.cac.channels"),
    ({"traffic": {"mean_holding_min": 0}}, "config.traffic.mean_holding_min"),
    ({"traffic": {"replications": 0}}, "config.traffic.replications"),
], ids=("seed", "handoff-fraction", "days", "days-cap", "channels", "holding",
        "replications"))
@pytest.mark.parametrize("command", [
    ["solve"], ["simulate"], ["sweep", "battery"], ["sweep", "cac"], ["sweep", "arrival"],
], ids=" ".join)
def test_config_out_of_range_value_is_refused_by_key_before_any_work(
        tmp_path, capsys, monkeypatch, override, key, command):
    def no_work(*args, **kwargs):
        raise AssertionError("the calibration was built")

    monkeypatch.setattr("bspower.cli.calibration_from_config", no_work)
    cfg = write_json(tmp_path / "cfg.json", {"schema": "bspower-config-1", **override})
    assert main([*command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"usage error: {key} must be" in err
    if key == "config.cac.channels":
        assert "config.base_station.max_connections" in err


def _assert_same_leaves(doc, default, where):
    if isinstance(default, dict):
        assert isinstance(doc, dict) and doc.keys() == default.keys(), where
        for name in default:
            _assert_same_leaves(doc[name], default[name], f"{where}.{name}")
    elif isinstance(default, list) and "..." in doc:
        # an elided list shows its first and last entries
        assert len(doc) == 3 and doc[1] == "...", where
        _assert_same_leaves([doc[0], doc[-1]], [default[0], default[-1]], where)
    elif isinstance(default, list):
        assert isinstance(doc, list) and len(doc) == len(default), where
        for i, (item, expected) in enumerate(zip(doc, default)):
            _assert_same_leaves(item, expected, f"{where}[{i}]")
    else:
        assert type(doc) is type(default) and doc == default, (where, doc, default)


def test_readme_config_example_matches_the_defaults():
    section = README.read_text().split("## Configuration file", 1)[1]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    _assert_same_leaves(json.loads(example), DEFAULT_CONFIG, "config")


def test_negative_seed_rejected_by_parser(tiny, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--scenarios", tiny, "--seed", "-1"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--nonanticipative", "--physical-discharge"])
def test_sweep_rejects_mode_flags_in_parser(tiny, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "battery", "--scenarios", tiny, flag])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_missing_subcommand_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()
