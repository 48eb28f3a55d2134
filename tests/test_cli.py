"""Command-line interface: subcommands, config ingestion, and exit codes."""

import json

import numpy as np
import pytest

from bspower.cli import main

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


def test_traffic_run_with_too_many_events_is_a_usage_error(tmp_path, capsys):
    # mean_holding_min 1e-300 asks for ~1e304 departure events; the run is
    # refused before it draws instead of running without end
    cfg = write_json(tmp_path / "cfg.json", {"schema": "bspower-config-1",
                                             "traffic": {"mean_holding_min": 1e-300}})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "events" in capsys.readouterr().err
    assert not (tmp_path / "o" / "policy.csv").exists()


def test_solver_failure_exits_with_code_5(tiny, tmp_path, capsys, monkeypatch):
    def broken(program, c, b_eq):
        raise RuntimeError("simplex iteration cap exceeded")

    monkeypatch.setattr("bspower.stochastic.lp_mod.solve_batch", broken)
    assert main(["solve", "--scenarios", tiny, "--out", str(tmp_path / "o")]) == 5
    assert "solver failure: simplex iteration cap exceeded" in capsys.readouterr().err


def test_nonanticipative_flag_accepted(tiny, tmp_path, capsys):
    out = tmp_path / "na"
    assert main(["solve", "--scenarios", tiny, "--out", str(out),
                 "--nonanticipative"]) == 0
    capsys.readouterr()
    assert (out / "policy.csv").exists()


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


def test_estimate_probs_missing_file(tmp_path, capsys):
    assert main(["estimate-probs", str(tmp_path / "nope.json")]) == 4
    capsys.readouterr()


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


def test_config_bad_battery_values_are_usage_errors(tiny, tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {
        "schema": "bspower-config-1",
        "battery": {"initial_wh": 5000.0},  # exceeds the 2000 Wh capacity
    })
    assert main(["solve", "--scenarios", tiny, "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert "usage error" in capsys.readouterr().err


def test_negative_seed_rejected_by_parser(tiny, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--scenarios", tiny, "--seed", "-1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_missing_subcommand_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()
