"""Per-module spans recorded from outside the package.

``Tracer.installed()`` replaces public bspower functions with timing
wrappers at every name their callers look up (``bspower.lp.solve`` for
``stochastic``, ``bspower.evaluate.simulate_replicated`` for the sweeps,
``bspower.cli.solve_policy`` for the CLI, and so on) and restores them on
exit. Spans are kept in memory with their parent, so a layer's self time
is its span time minus the time of the spans it caused.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    layer: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def _lp_counts(args, kwargs, solution):
    program = args[0] if args else kwargs["lp"]
    return {"iterations": solution.iterations, "vars": program.n_vars,
            "eq_rows": program.a_eq.shape[0]}


def _traffic_counts(args, kwargs, result):
    stats = result[1]
    return {"offered": stats.offered_new + stats.offered_handoff}


def _sweep_counts(args, kwargs, report):
    return {"cells": len(report.rows)}


# (layer, module, attribute, counter). A "Class.method" attribute wraps the
# method on the class; a plain name is wrapped in every bspower module that
# binds the same function object.
TARGETS = (
    ("cli", "bspower.cli", "main", None),
    ("lp", "bspower.lp", "solve", _lp_counts),
    ("stochastic.build", "bspower.stochastic", "build_deterministic_equivalent", None),
    ("stochastic.solve", "bspower.stochastic", "solve_policy", None),
    ("stochastic.solve", "bspower.stochastic", "per_scenario_decomposition", None),
    ("stochastic.csv", "bspower.stochastic", "policy_csv_text", None),
    ("traffic", "bspower.traffic", "simulate_replicated", _traffic_counts),
    ("calibration", "bspower.calibration", "Calibration.scenario_space", None),
    ("calibration", "bspower.calibration", "Calibration.consumption_space", None),
    ("calibration", "bspower.calibration", "consumption_space_from_profiles", None),
    ("calibration", "bspower.calibration", "default_price_space", None),
    ("calibration", "bspower.calibration", "default_renewable_space", None),
    ("calibration", "bspower.calibration", "default_traffic_profiles", None),
    ("calibration", "bspower.calibration", "derived_loss_cost", None),
    ("power_model", "bspower.power_model", "consumption_trace", None),
    ("scenarios.compose", "bspower.scenarios", "compose", None),
    ("scenarios.load", "bspower.scenarios", "load_scenario_file", None),
    ("scenarios.load", "bspower.scenarios", "scenario_document_dict", None),
    ("evaluate.replay", "bspower.evaluate", "evaluate_policy", None),
    ("evaluate.sweep", "bspower.evaluate", "sweep_battery", _sweep_counts),
    ("evaluate.sweep", "bspower.evaluate", "sweep_cac", _sweep_counts),
    ("evaluate.sweep", "bspower.evaluate", "sweep_arrival_rate", _sweep_counts),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _wrap(self, layer, original, counter):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(layer, time.perf_counter())
            self._stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1].child_s += span.end - span.start
                self.spans.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        patched = []
        try:
            for layer, module_name, attr, counter in TARGETS:
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owners = [getattr(module, cls_name)]
                    original = owners[0].__dict__[attr]
                else:
                    original = getattr(module, attr)
                    owners = [m for name, m in list(sys.modules.items())
                              if name.split(".")[0] == "bspower"
                              and getattr(m, attr, None) is original]
                wrapper = self._wrap(layer, original, counter)
                for owner in owners:
                    setattr(owner, attr, wrapper)
                    patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)


def layer_metrics(spans: list[Span], passes: int, output_bytes: float) -> dict[str, tuple[float, str]]:
    """Per-pass layer metrics from the spans of ``passes`` traced passes."""
    def pick(layer):
        return [s for s in spans if s.layer == layer]

    def self_s(layer):
        return sum(s.self_s for s in pick(layer)) / passes

    def calls(layer):
        return len(pick(layer)) / passes

    def total(layer, key):
        return sum(s.counts.get(key, 0) for s in pick(layer)) / passes

    def per_unit(seconds, count, scale):
        return seconds / count * scale if count else 0.0

    lp = pick("lp")
    lp_ms = [(s.end - s.start) * 1e3 for s in lp]
    return {
        "lp.calls": (calls("lp"), "count"),
        "lp.self_s": (self_s("lp"), "s"),
        "lp.iterations": (total("lp", "iterations"), "count"),
        "lp.us_per_iteration": (per_unit(self_s("lp"), total("lp", "iterations"), 1e6), "us"),
        "lp.call_ms.p50": (float(np.percentile(lp_ms, 50)) if lp_ms else 0.0, "ms"),
        "lp.call_ms.p90": (float(np.percentile(lp_ms, 90)) if lp_ms else 0.0, "ms"),
        "lp.max_vars": (max((s.counts["vars"] for s in lp), default=0), "count"),
        "lp.max_eq_rows": (max((s.counts["eq_rows"] for s in lp), default=0), "count"),
        "stochastic.build.calls": (calls("stochastic.build"), "count"),
        "stochastic.build.self_s": (self_s("stochastic.build"), "s"),
        "stochastic.solve.self_s": (self_s("stochastic.solve"), "s"),
        "stochastic.csv.self_s": (self_s("stochastic.csv"), "s"),
        "traffic.calls": (calls("traffic"), "count"),
        "traffic.self_s": (self_s("traffic"), "s"),
        "traffic.offered": (total("traffic", "offered"), "count"),
        "traffic.us_per_offered": (per_unit(self_s("traffic"), total("traffic", "offered"), 1e6), "us"),
        "calibration.self_s": (self_s("calibration"), "s"),
        "power_model.calls": (calls("power_model"), "count"),
        "power_model.self_s": (self_s("power_model"), "s"),
        "scenarios.compose.calls": (calls("scenarios.compose"), "count"),
        "scenarios.compose.self_s": (self_s("scenarios.compose"), "s"),
        "scenarios.load.self_s": (self_s("scenarios.load"), "s"),
        "evaluate.replay.calls": (calls("evaluate.replay"), "count"),
        "evaluate.replay.self_s": (self_s("evaluate.replay"), "s"),
        "evaluate.sweep.self_s": (self_s("evaluate.sweep"), "s"),
        "evaluate.cells": (total("evaluate.sweep", "cells"), "count"),
        "cli.self_s": (self_s("cli"), "s"),
        "cli.output_bytes": (output_bytes, "B"),
    }


LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))


def shares(spans: list[Span], passes: int, pass_s: float) -> list[tuple[str, float, float]]:
    """(layer, self seconds per pass, share of the traced pass wall time)."""
    out = []
    for layer in LAYERS:
        s = sum(sp.self_s for sp in spans if sp.layer == layer) / passes
        out.append((layer, s, s / pass_s if pass_s else 0.0))
    return out
