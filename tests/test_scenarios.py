"""Scenario spaces: probability estimation, composition, and JSON documents."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from bspower.scenarios import (
    MARGINAL_KINDS,
    CompositeScenario,
    MarginalScenario,
    MarginalSpace,
    RateProfile,
    ScenarioDocument,
    ScenarioFileError,
    ScenarioSpace,
    check_document,
    compose,
    estimate_probabilities,
    load_scenario_file,
    parse_scenario_document,
    scenario_document_dict,
)
from bspower.units import Horizon


def _marginal(kind, labelled_probs, T=4, scale=1.0):
    rng = np.random.default_rng(sum(map(ord, kind)))
    return MarginalSpace(kind=kind, scenarios=tuple(
        MarginalScenario(label, p, rng.uniform(0, 10, T) * scale)
        for label, p in labelled_probs))


def refused(build, heading):
    """The diagnostics, one per line, of the ValueError that build() raises
    under heading."""
    with pytest.raises(ValueError) as info:
        build()
    first, *lines = str(info.value).splitlines()
    assert first == f"{heading}:"
    return [line.strip() for line in lines]


def marginal_refused(kind, scenarios):
    return refused(lambda: MarginalSpace(kind, scenarios), "invalid marginal space")


def space_refused(*scenarios):
    return refused(lambda: ScenarioSpace(scenarios), "invalid scenario space")


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
# marginal and joint spaces check themselves when built
# ---------------------------------------------------------------------------

def test_valid_marginal_space_has_no_diagnostics():
    space = _marginal("price", [("a", 0.25), ("b", 0.75)])
    assert [s.label for s in space.scenarios] == ["a", "b"]
    assert [s.probability for s in space.scenarios] == [0.25, 0.75]


def test_marginal_space_diagnostics():
    one = np.ones(3)
    assert marginal_refused("weather", (MarginalScenario("a", 1.0, one),)) == [
        "kind: unknown marginal kind 'weather'"]
    assert marginal_refused("price", (MarginalScenario("a", 0.5, one),
                                      MarginalScenario("b", 0.4, one))) == [
        "price.scenarios: probability mass 0.9 != 1"]
    assert marginal_refused("price", (MarginalScenario("a", 0.5, one),
                                      MarginalScenario("a", 0.5, one))) == [
        "price.scenarios[1].label: duplicate scenario label 'a'"]
    assert marginal_refused("price", (MarginalScenario("a", 0.5, one),
                                      MarginalScenario("b", 0.5, np.ones(4)))) == [
        "price.scenarios: traces have mixed lengths [3, 4]"]
    assert marginal_refused("renewable", (MarginalScenario("a", 1.0, [1.0, -2.0, np.nan]),)) == [
        "renewable.scenarios[0].values: renewable/a: negative trace values",
        "renewable.scenarios[0].values: renewable/a: non-finite trace values"]
    assert marginal_refused("price", ()) == ["price.scenarios: no scenarios"]
    # without a horizon, any one length is valid; the document checks it against T
    short = _marginal("price", [("a", 1.0)], T=3)
    assert refused(lambda: replace(_document_with_consumption(), price=short),
                   "invalid scenario document") == [
        "price.scenarios[0].values: price/a: trace length 3 != T=4"]


@pytest.mark.parametrize("label", ("peak,hi", 'say "hi"', "a\rb", "a\nb"),
                         ids=("comma", "quote", "cr", "lf"))
def test_a_label_must_not_hold_csv_delimiters(label):
    one = np.ones(3)
    assert marginal_refused("price", (MarginalScenario("a", 0.5, one),
                                      MarginalScenario(label, 0.5, one))) == [
        f"price.scenarios[1].label: label {label!r} holds a comma, quote or line break"]
    assert space_refused(CompositeScenario(label, 1.0, one, one, one)) == [
        f"scenarios[0].label: label {label!r} holds a comma, quote or line break"]


@pytest.mark.parametrize("bent", (5.0, np.ones((3, 2))), ids=("0-d", "2-d"))
def test_a_trace_must_be_one_dimensional(recursion_calls, bent):
    shape = np.shape(bent)
    assert marginal_refused("price", (MarginalScenario("a", 0.5, np.ones(3)),
                                      MarginalScenario("b", 0.5, bent))) == [
        f"price.scenarios[1].values: price/b: trace must be one-dimensional, got shape {shape}"]
    one = np.ones(3)
    assert space_refused(CompositeScenario("w", 1.0, bent, one, one)) == [
        f"scenarios[0].price: w: trace must be one-dimensional, got shape {shape}"]
    # every trace of one shape is checked stacked
    assert space_refused(CompositeScenario("w", 1.0, bent, bent, -bent)) == [
        f"scenarios[0].{name}: w: trace must be one-dimensional, got shape {shape}"
        for name in MARGINAL_KINDS] + ["scenarios[0].consumption: w: negative trace values"]
    assert recursion_calls == []


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


def test_compose_rejects_inconsistent_marginals():
    price = _marginal("price", [("a", 1.0)])
    renew = _marginal("renewable", [("b", 1.0)])
    cons = _marginal("consumption", [("c", 1.0)])
    assert refused(lambda: compose(renew, price, cons), "cannot compose scenario spaces") == [
        "expected a price space, got kind 'renewable'",
        "expected a renewable space, got kind 'price'"]
    short = _marginal("consumption", [("c", 1.0)], T=3)
    assert refused(lambda: compose(price, renew, short), "invalid scenario space") == [
        "scenarios: traces have mixed lengths [3, 4]"]
    # each marginal can be built, their product cannot: labels that join
    # into one, probabilities that underflow to 0, a mass that drifts
    for entries, message in (
            ([[("a|b", 0.5), ("a", 0.5)], [("c", 0.5), ("b|c", 0.5)], [("d", 1.0)]],
             "scenarios[3].label: duplicate scenario label 'a|b|c|d'"),
            ([[("a", 1e-200), ("b", 1.0)]] * 3,
             "scenarios[0].probability: a|a|a: probability 0.0 outside (0, 1]"),
            ([[("a", 0.5 + 4.5e-10), ("b", 0.5 + 4.5e-10)]] * 3,
             "scenarios: probability mass 1.0000000027 != 1")):
        with pytest.raises(ValueError, match=re.escape(message)):
            compose(*map(_marginal, MARGINAL_KINDS, entries))


def test_space_construction_flags_tampered_spaces():
    good = CompositeScenario("w", 1.0, np.ones(4), np.ones(4), np.ones(4))
    assert ScenarioSpace((good,)).labels == ["w"]

    wrong_len = CompositeScenario("w", 1.0, np.ones(3), np.ones(4), np.ones(4))
    assert space_refused(wrong_len) == ["scenarios: traces have mixed lengths [3, 4]"]

    neg = CompositeScenario("w", 1.0, np.ones(4), -np.ones(4), np.ones(4))
    assert space_refused(neg) == ["scenarios[0].renewable: w: negative trace values"]

    zero_prob = CompositeScenario("w", 0.0, np.ones(4), np.ones(4), np.ones(4))
    whole = CompositeScenario("v", 1.0, np.ones(4), np.ones(4), np.ones(4))
    assert space_refused(zero_prob, whole) == [
        "scenarios[0].probability: w: probability 0.0 outside (0, 1]"]

    assert space_refused(good, CompositeScenario("w", 0.0001, np.ones(4),
                                                 np.ones(4), np.ones(4))) == [
        "scenarios[1].label: duplicate scenario label 'w'",
        "scenarios: probability mass 1.0001 != 1"]

    assert space_refused() == ["scenarios: no scenarios"]


def test_space_construction_lists_mixed_violations_in_order():
    # every message and its order, with all traces of one length (checked
    # stacked) and with some of another length (checked trace by trace)
    v = np.array([1.0, 2.0, 0.0, 3.0])
    same = (
        CompositeScenario("a", 0.5, np.array([1.0, -2.0, 0.0, 3.0]), v, v),
        CompositeScenario("b", 0.0, v, -v, np.array([0.0, 0.0, -1e-300, 0.0])),
        CompositeScenario("c", 0.25, v, v, np.array([np.nan, 1.0, 1.0, 1.0])),
        CompositeScenario("a", 1.5, v, np.array([1.0, np.inf, 0.0, 0.0]), -v),
    )
    assert space_refused(*same) == [
        "scenarios[0].price: a: negative trace values",
        "scenarios[1].probability: b: probability 0.0 outside (0, 1]",
        "scenarios[1].renewable: b: negative trace values",
        "scenarios[1].consumption: b: negative trace values",
        "scenarios[2].consumption: c: non-finite trace values",
        "scenarios[3].label: duplicate scenario label 'a'",
        "scenarios[3].probability: a: probability 1.5 outside (0, 1]",
        "scenarios[3].renewable: a: non-finite trace values",
        "scenarios[3].consumption: a: negative trace values",
        "scenarios: probability mass 2.25 != 1",
    ]
    mixed = (
        CompositeScenario("a", 0.5, np.array([1.0, -2.0, 0.0]), v, v),
        CompositeScenario("b", 0.25, v, np.ones(5), -v),
        CompositeScenario("c", 0.25, np.array([np.nan, 1.0, 1.0, 1.0]),
                          np.array([-np.inf, 1.0, 1.0, 1.0]), np.zeros(0)),
    )
    assert space_refused(*mixed) == [
        "scenarios: traces have mixed lengths [0, 3, 4, 5]",
        "scenarios[0].price: a: negative trace values",
        "scenarios[1].consumption: b: negative trace values",
        "scenarios[2].price: c: non-finite trace values",
        "scenarios[2].renewable: c: negative trace values",
        "scenarios[2].renewable: c: non-finite trace values",
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
    path.write_text(json.dumps(scenario_document_dict(doc)))
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
    path.write_text(json.dumps(scenario_document_dict(doc)))
    back = load_scenario_file(path)
    assert back.consumption is None
    assert len(back.traffic) == 1
    profile = back.traffic[0]
    assert profile.label == "steady"
    assert profile.mean_holding_min == 8.0
    np.testing.assert_allclose(profile.new_rate, 0.2)
    np.testing.assert_allclose(profile.handoff_rate, 0.1)


def test_traffic_profile_without_holding_time_stays_unset(tmp_path):
    doc = _document_with_traffic()
    doc.traffic[0] = replace(doc.traffic[0], mean_holding_min=None)
    text = scenario_document_dict(doc)
    assert "mean_holding_min" not in text["traffic"]["scenarios"][0]
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(text))
    assert load_scenario_file(path).traffic[0].mean_holding_min is None


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


def test_document_checks_each_block_by_key_where_it_is_built():
    doc = _document_with_consumption()
    with pytest.raises(ValueError, match=r"price\.scenarios\[0\]\.probability: price/hi"):
        _marginal("price", [("hi", 0.0), ("lo", 1.0)])
    short = _marginal("consumption", [("busy", 1.0)], T=3)
    with pytest.raises(ValueError, match=r"consumption\.scenarios\[0\]\.values: .*T=4"):
        replace(doc, consumption=short)
    traffic = _document_with_traffic()
    with pytest.raises(ValueError, match=r"traffic\.scenarios: no scenarios"):
        replace(traffic, traffic=[])
    twin = [traffic.traffic[0], replace(traffic.traffic[0], probability=0.0)]
    with pytest.raises(ValueError, match=r"traffic\.scenarios\[1\]\.label: duplicate"):
        replace(traffic, traffic=twin)


SPEC = {"name": str, "count": int, "scale?": float, "limit?": None,
        "tag": "v1", "items?": [{"x": float}]}


def test_check_document_accepts_its_layout_and_returns_the_document():
    doc = {"name": "a", "count": 3, "tag": "v1", "limit": None,
           "items": [{"x": 1}, {"x": 2.5}]}
    assert check_document(doc, SPEC) is doc
    assert check_document(dict(doc, limit=2), SPEC) is not None
    with pytest.raises(ScenarioFileError, match=r"document: missing key\(s\) \['count'\]"):
        check_document({"name": "a", "tag": "v1"}, SPEC)
    with pytest.raises(ScenarioFileError, match=r"cfg\.count: expected an integer"):
        check_document(dict(doc, count="3"), SPEC, "cfg")


@pytest.mark.parametrize("change, message", [
    ({"count": 3.0}, "count: expected an integer, got number"),
    ({"count": True}, "count: expected an integer, got boolean"),
    ({"scale": "1"}, "scale: expected a number, got string"),
    ({"limit": "0"}, "limit: expected a number or null, got string"),
    ({"tag": "v2"}, "tag: expected 'v1', got 'v2'"),
    ({"items": {"x": 1}}, "items: expected a JSON array, got object"),
    ({"items": [{"x": 1}, 5]}, r"items\[1\]: expected a JSON object, got integer"),
    ({"items": [{"x": 1e999}]}, r"items\[0\]\.x: non-finite number"),
    ({"items": [{"x": -10 ** 400}]}, r"items\[0\]\.x: non-finite number"),
    ({"items": [{"x": 1, "y": 2}]}, r"items\[0\]: unknown key\(s\) \['y'\]"),
    ({"items": [{}]}, r"items\[0\]: missing key\(s\) \['x'\]"),
    ({"extra": 1}, r"document: unknown key\(s\) \['extra'\]"),
])
def test_check_document_names_the_first_mismatch_by_key(change, message):
    doc = dict({"name": "a", "count": 3, "tag": "v1"}, **change)
    with pytest.raises(ScenarioFileError, match=message):
        check_document(doc, SPEC)
