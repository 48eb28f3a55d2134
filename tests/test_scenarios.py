"""Scenario spaces: probability estimation, composition, and JSON documents."""

import json

import numpy as np
import pytest

from bspower.scenarios import (
    CompositeScenario,
    MarginalScenario,
    MarginalSpace,
    RateProfile,
    ScenarioDocument,
    ScenarioFileError,
    ScenarioSpace,
    check_marginal_space,
    compose,
    dump_scenario_file,
    estimate_probabilities,
    load_scenario_file,
    parse_scenario_document,
    scenario_document_dict,
    validate,
)
from bspower.units import Horizon


def _marginal(kind, labelled_probs, T=4, scale=1.0):
    rng = np.random.default_rng(sum(map(ord, kind)))
    return MarginalSpace(kind=kind, scenarios=tuple(
        MarginalScenario(label, p, rng.uniform(0, 10, T) * scale)
        for label, p in labelled_probs))


# ---------------------------------------------------------------------------
# estimate_probabilities
# ---------------------------------------------------------------------------

def test_probabilities_from_counts_worked_example():
    # 15 days of one kind, 45 of the other, over a 60-day observation window
    np.testing.assert_allclose(estimate_probabilities([15, 45]), [0.25, 0.75])


def test_probabilities_single_count():
    np.testing.assert_allclose(estimate_probabilities([60]), [1.0])


def test_probabilities_three_way_split():
    np.testing.assert_allclose(estimate_probabilities([1, 1, 2]),
                               [0.25, 0.25, 0.5])


def test_probabilities_scale_invariant_and_normalized():
    rng = np.random.default_rng(11)
    for _ in range(50):
        counts = rng.uniform(0, 100, size=rng.integers(1, 8))
        counts[rng.integers(counts.size)] += 1.0  # keep total positive
        p = estimate_probabilities(counts)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(estimate_probabilities(counts * 7.3), p, rtol=1e-12)


def test_probabilities_from_counts_whose_sum_overflows():
    np.testing.assert_allclose(estimate_probabilities([1e308, 1e308, 5e307]),
                               [0.4, 0.4, 0.2])
    np.testing.assert_allclose(estimate_probabilities([1e308, 0.0]), [1.0, 0.0])


def test_probabilities_reject_bad_counts():
    with pytest.raises(ValueError):
        estimate_probabilities([])
    with pytest.raises(ValueError):
        estimate_probabilities([0.0, 0.0])
    with pytest.raises(ValueError):
        estimate_probabilities([3.0, -1.0])
    with pytest.raises(ValueError, match="finite"):
        estimate_probabilities([3.0, float("nan")])
    with pytest.raises(ValueError, match="finite"):
        estimate_probabilities([3.0, float("inf")])


# ---------------------------------------------------------------------------
# marginal and joint space validation
# ---------------------------------------------------------------------------

def test_valid_marginal_space_has_no_diagnostics():
    space = _marginal("price", [("a", 0.25), ("b", 0.75)])
    assert check_marginal_space(space, Horizon(T=4)) == []


def test_marginal_space_diagnostics():
    bad_kind = _marginal("weather", [("a", 1.0)])
    assert any("weather" in p for p in check_marginal_space(bad_kind))

    mass = _marginal("price", [("a", 0.5), ("b", 0.4)])
    assert any("mass" in p for p in check_marginal_space(mass))

    dup = _marginal("price", [("a", 0.5), ("a", 0.5)])
    assert any("duplicate" in p for p in check_marginal_space(dup))

    mixed = MarginalSpace(kind="price", scenarios=(
        MarginalScenario("a", 0.5, np.ones(3)),
        MarginalScenario("b", 0.5, np.ones(4))))
    assert any("mixed lengths" in p for p in check_marginal_space(mixed))

    neg = MarginalSpace(kind="price", scenarios=(
        MarginalScenario("a", 1.0, np.array([1.0, -2.0, 3.0])),))
    assert any("negative" in p for p in check_marginal_space(neg))

    short = _marginal("price", [("a", 1.0)], T=3)
    assert any("T=4" in p for p in check_marginal_space(short, Horizon(T=4)))


def test_compose_builds_the_product_space():
    price = _marginal("price", [("hi", 0.6), ("lo", 0.4)])
    renew = _marginal("renewable", [("sun", 0.7), ("cloud", 0.3)])
    cons = _marginal("consumption", [("busy", 0.2), ("quiet", 0.5), ("idle", 0.3)])
    space = compose(price, renew, cons)
    assert len(space) == 2 * 2 * 3
    assert space.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    assert "hi|sun|busy" in space.labels
    w = space.labels.index("lo|cloud|quiet")
    scen = space.scenarios[w]
    assert scen.probability == pytest.approx(0.4 * 0.3 * 0.5)
    np.testing.assert_array_equal(scen.price, price.scenarios[1].values)
    np.testing.assert_array_equal(scen.renewable, renew.scenarios[1].values)
    np.testing.assert_array_equal(scen.consumption, cons.scenarios[1].values)


def test_compose_two_by_two_probability_products():
    price = _marginal("price", [("hi", 0.6), ("lo", 0.4)])
    renew = _marginal("renewable", [("sun", 0.6), ("cloud", 0.4)])
    cons = _marginal("consumption", [("only", 1.0)])
    probs = compose(price, renew, cons).probabilities
    np.testing.assert_allclose(sorted(probs, reverse=True),
                               [0.36, 0.24, 0.24, 0.16], rtol=1e-12)


def test_compose_singletons_give_one_certain_scenario():
    space = compose(_marginal("price", [("p", 1.0)]),
                    _marginal("renewable", [("r", 1.0)]),
                    _marginal("consumption", [("c", 1.0)]))
    assert len(space) == 1
    assert space.scenarios[0].probability == 1.0
    assert space.labels == ["p|r|c"]


def test_compose_probability_mass_on_random_marginals():
    rng = np.random.default_rng(17)
    for _ in range(20):
        sizes = rng.integers(1, 5, size=3)
        spaces = []
        for kind, k in zip(("price", "renewable", "consumption"), sizes):
            probs = rng.dirichlet(np.ones(k))
            spaces.append(MarginalSpace(kind=kind, scenarios=tuple(
                MarginalScenario(f"{kind}{i}", float(probs[i]), rng.uniform(0, 5, 6))
                for i in range(k))))
        space = compose(*spaces)
        assert len(space) == int(np.prod(sizes))
        assert space.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
        assert validate(space, Horizon(T=6)) == []


def test_compose_rejects_inconsistent_marginals():
    price = _marginal("price", [("a", 1.0)])
    renew = _marginal("renewable", [("b", 1.0)])
    cons = _marginal("consumption", [("c", 1.0)])
    with pytest.raises(ValueError):
        compose(renew, price, cons)  # kinds in the wrong slots
    short = _marginal("consumption", [("c", 1.0)], T=3)
    with pytest.raises(ValueError, match="lengths"):
        compose(price, renew, short)
    bad_mass = _marginal("price", [("a", 0.5)])
    with pytest.raises(ValueError, match="mass"):
        compose(bad_mass, renew, cons)


def test_validate_flags_tampered_spaces():
    horizon = Horizon(T=4)
    good = CompositeScenario("w", 1.0, np.ones(4), np.ones(4), np.ones(4))
    assert validate(ScenarioSpace((good,)), horizon) == []

    wrong_len = CompositeScenario("w", 1.0, np.ones(3), np.ones(4), np.ones(4))
    assert any("w" in p and "price" in p
               for p in validate(ScenarioSpace((wrong_len,)), horizon))

    neg = CompositeScenario("w", 1.0, np.ones(4), -np.ones(4), np.ones(4))
    assert any("negative renewable" in p
               for p in validate(ScenarioSpace((neg,)), horizon))

    zero_prob = CompositeScenario("w", 0.0, np.ones(4), np.ones(4), np.ones(4))
    whole = CompositeScenario("v", 1.0, np.ones(4), np.ones(4), np.ones(4))
    assert any("probability" in p
               for p in validate(ScenarioSpace((zero_prob, whole)), horizon))

    dup = ScenarioSpace((good, CompositeScenario("w", 0.0001, np.ones(4),
                                                 np.ones(4), np.ones(4))))
    problems = validate(dup, horizon)
    assert any("duplicate" in p for p in problems)

    assert validate(ScenarioSpace(()), horizon) == ["scenario space is empty"]


def test_validate_lists_mixed_violations_in_order():
    # every message and its order, with all traces of length T (checked
    # stacked) and with some of another length (checked trace by trace)
    horizon = Horizon(T=4)
    v = np.array([1.0, 2.0, 0.0, 3.0])
    same = ScenarioSpace((
        CompositeScenario("a", 0.5, np.array([1.0, -2.0, 0.0, 3.0]), v, v),
        CompositeScenario("b", 0.0, v, -v, np.array([0.0, 0.0, -1e-300, 0.0])),
        CompositeScenario("c", 0.25, v, v, np.array([np.nan, 1.0, 1.0, 1.0])),
        CompositeScenario("a", 1.5, v, v, -v),
    ))
    assert validate(same, horizon) == [
        "a: negative price values",
        "b: negative renewable values",
        "b: negative consumption values",
        "b: probability 0.0 outside (0, 1]",
        "a: negative consumption values",
        "a: probability 1.5 outside (0, 1]",
        "probability mass 2.25 != 1",
        "duplicate composite scenario labels",
    ]
    mixed = ScenarioSpace((
        CompositeScenario("a", 0.5, np.array([1.0, -2.0, 0.0]), v, v),
        CompositeScenario("b", 0.25, v, np.ones(5), -v),
        CompositeScenario("c", 0.25, np.array([np.nan, 1.0, 1.0, 1.0]), v, np.zeros(0)),
    ))
    assert validate(mixed, horizon) == [
        "a: price trace length 3 != T=4",
        "a: negative price values",
        "b: renewable trace length 5 != T=4",
        "b: negative consumption values",
        "c: consumption trace length 0 != T=4",
    ]


def test_trace_matrix_stacks_scenarios_in_order():
    a = CompositeScenario("a", 0.5, np.array([1.0, 2.0]), np.zeros(2), np.ones(2))
    b = CompositeScenario("b", 0.5, np.array([3.0, 4.0]), np.zeros(2), np.ones(2))
    space = ScenarioSpace((a, b))
    np.testing.assert_array_equal(space.trace_matrix("price"),
                                  [[1.0, 2.0], [3.0, 4.0]])
    assert space.trace_matrix("consumption").shape == (2, 2)


# ---------------------------------------------------------------------------
# scenario documents
# ---------------------------------------------------------------------------

def _document_with_consumption():
    return ScenarioDocument(
        horizon=Horizon(T=4),
        price=_marginal("price", [("hi", 0.6), ("lo", 0.4)]),
        renewable=_marginal("renewable", [("sun", 1.0)]),
        consumption=_marginal("consumption", [("busy", 0.3), ("quiet", 0.7)]),
    )


def _document_with_traffic():
    return ScenarioDocument(
        horizon=Horizon(T=4),
        price=_marginal("price", [("flat", 1.0)]),
        renewable=_marginal("renewable", [("none", 1.0)], scale=0.0),
        traffic=[RateProfile("steady", 1.0, np.full(4, 0.2), np.full(4, 0.1),
                             mean_holding_min=8.0)],
    )


def test_document_roundtrip_consumption(tmp_path):
    doc = _document_with_consumption()
    path = tmp_path / "scen.json"
    dump_scenario_file(doc, path)
    back = load_scenario_file(path)
    assert back.horizon == doc.horizon
    assert back.consumption is not None and back.traffic == []
    for kind in ("price", "renewable", "consumption"):
        orig, new = getattr(doc, kind), getattr(back, kind)
        assert [s.label for s in new.scenarios] == [s.label for s in orig.scenarios]
        for s_orig, s_new in zip(orig.scenarios, new.scenarios):
            assert s_new.probability == s_orig.probability
            np.testing.assert_allclose(s_new.values, s_orig.values, rtol=1e-15)


def test_document_roundtrip_traffic(tmp_path):
    doc = _document_with_traffic()
    path = tmp_path / "scen.json"
    dump_scenario_file(doc, path)
    back = load_scenario_file(path)
    assert back.consumption is None
    assert len(back.traffic) == 1
    profile = back.traffic[0]
    assert profile.label == "steady"
    assert profile.mean_holding_min == 8.0
    np.testing.assert_allclose(profile.new_rate, 0.2)
    np.testing.assert_allclose(profile.handoff_rate, 0.1)


def test_document_requires_exactly_one_demand_section():
    base = scenario_document_dict(_document_with_consumption())
    with_both = dict(base, traffic={"scenarios": []})
    with pytest.raises(ScenarioFileError, match="exclusive"):
        parse_scenario_document(with_both)
    neither = {k: v for k, v in base.items() if k != "consumption"}
    with pytest.raises(ScenarioFileError, match="consumption.*traffic"):
        parse_scenario_document(neither)


def test_document_rejects_unknown_and_missing_keys():
    base = scenario_document_dict(_document_with_consumption())
    with pytest.raises(ScenarioFileError, match="bogus"):
        parse_scenario_document(dict(base, bogus=1))
    no_price = {k: v for k, v in base.items() if k != "price"}
    with pytest.raises(ScenarioFileError, match="price"):
        parse_scenario_document(no_price)
    bad_entry = json.loads(json.dumps(base))
    bad_entry["price"]["scenarios"][0]["typo"] = 1
    with pytest.raises(ScenarioFileError, match=r"price\.scenarios\[0\].*typo"):
        parse_scenario_document(bad_entry)


def test_document_rejects_wrong_schema():
    base = scenario_document_dict(_document_with_consumption())
    with pytest.raises(ScenarioFileError, match="schema"):
        parse_scenario_document(dict(base, schema="something-else"))
    with pytest.raises(ScenarioFileError, match="JSON object"):
        parse_scenario_document(["not", "a", "mapping"])


def test_load_reports_json_syntax_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": "bspower-scenarios-1",\n  "horizon": }\n')
    with pytest.raises(ScenarioFileError, match="line 2"):
        load_scenario_file(path)
