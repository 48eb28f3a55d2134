"""Fixtures shared by the test modules."""

from dataclasses import dataclass, field

import numpy as np
import pytest

import bspower.lp as lp_mod


@dataclass
class BatchCall:
    """One lp.solve_batch call: its shared matrix and lower bounds, row
    tables and index triples."""

    a_eq: np.ndarray
    lower: np.ndarray
    c: np.ndarray
    b_eq: np.ndarray
    upper: np.ndarray
    rows: np.ndarray


@dataclass
class SolverCalls:
    """The lp.solve_batch calls made, in order, and for each lp._solve_stack
    call its program count and how many programs the stack budget fits, and
    how many lp._run_simplex calls it made."""

    batches: list[BatchCall] = field(default_factory=list)
    stacks: list[tuple[int, int]] = field(default_factory=list)
    simplex_runs: list[int] = field(default_factory=list)

    def shapes(self) -> list[tuple[int, int]]:
        """(variables per program, programs) of every solve_batch call."""
        return [(call.lower.size, len(call.rows)) for call in self.batches]

    def clear(self):
        self.batches.clear()
        self.stacks.clear()
        self.simplex_runs.clear()


@pytest.fixture
def solver_calls(monkeypatch) -> SolverCalls:
    """Record every lp.solve_batch, lp._solve_stack and lp._run_simplex call
    of the test."""
    calls = SolverCalls()
    real_batch, real_stack, real_run = lp_mod.solve_batch, lp_mod._solve_stack, lp_mod._run_simplex

    def batch(a_eq, lower, c, b_eq, upper, rows):
        calls.batches.append(BatchCall(*map(np.asarray, (a_eq, lower, c, b_eq, upper, rows))))
        return real_batch(a_eq, lower, c, b_eq, upper, rows)

    def stack(body, rhs, c, up, crash):
        tableau_bytes = 8 * (rhs.shape[1] + 1) * (c.shape[1] + 1)
        calls.stacks.append((len(rhs), lp_mod._BATCH_BYTES // tableau_bytes))
        calls.simplex_runs.append(0)
        return real_stack(body, rhs, c, up, crash)

    def run(*args):
        calls.simplex_runs[-1] += 1
        return real_run(*args)

    monkeypatch.setattr(lp_mod, "solve_batch", batch)
    monkeypatch.setattr(lp_mod, "_solve_stack", stack)
    monkeypatch.setattr(lp_mod, "_run_simplex", run)
    return calls
