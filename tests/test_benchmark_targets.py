"""Every name the benchmark's tracer looks up still resolves in the package.

``benchmarks/tracing.py`` wraps the functions of its ``TARGETS`` by module
and attribute name and counts what some of them return, so deleting or
renaming one of them breaks only a traced benchmark run. These tests load
that file as the benchmark does and check each name and counter against
the package. Skipped when the checkout has no ``benchmarks/`` directory.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import bspower.cli  # noqa: F401  (the tracer runs after the CLI is imported)
from bspower.lp import LinearProgram, solve
from bspower.traffic import CacConfig, simulate_replicated, uniform_traffic
from bspower.units import Horizon

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"

if not TRACING.is_file():
    pytest.skip("no benchmarks/ directory in this checkout", allow_module_level=True)


def _tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


TRACER = _tracing()


@pytest.mark.parametrize("module, attr", [(module, attr) for _, module, attr, _ in TRACER.TARGETS],
                         ids=[f"{module}.{attr}" for _, module, attr, _ in TRACER.TARGETS])
def test_each_traced_name_resolves(module, attr):
    assert module in sys.modules
    owner = sys.modules[module]
    for name in attr.split("."):
        owner = getattr(owner, name)
    assert callable(owner)


def test_the_lp_counter_reads_a_solve():
    lp = LinearProgram(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    assert TRACER._lp_counts((lp,), {}, solve(lp)) == {"iterations": 0, "vars": 2, "eq_rows": 1}


def test_the_traffic_counter_reads_a_simulation():
    # item 1 of the result holds the call's QoS counts, with offered_new
    result = simulate_replicated([(uniform_traffic(2.0, 0.3, 2), CacConfig(8, 6))],
                                 Horizon(T=2), replications=1, seed=0)
    offered = result[1].offered_new + result[1].offered_handoff
    assert TRACER._traffic_counts((), {}, result) == {"offered": offered}
    assert offered > 0
