"""Fixtures shared by the test modules."""

from dataclasses import dataclass

import numpy as np
import pytest

import bspower.stochastic as stochastic


@dataclass
class RecursionCall:
    """One stochastic._storage_recursion call: its programs' rows and the
    groups that share a first purchase."""

    price: np.ndarray
    net_load: np.ndarray
    keep: np.ndarray
    loss: np.ndarray
    capacity: np.ndarray
    initial: np.ndarray
    terminal: np.ndarray
    probabilities: np.ndarray
    groups: list


@pytest.fixture
def recursion_calls(monkeypatch) -> list[RecursionCall]:
    """Record every stochastic._storage_recursion call of the test, the one
    solver of every policy."""
    calls = []
    real = stochastic._storage_recursion

    def spy(*args):
        calls.append(RecursionCall(*args))
        return real(*args)

    monkeypatch.setattr(stochastic, "_storage_recursion", spy)
    return calls
