"""Adaptive power management for a renewable-assisted wireless base station.

Plans day-ahead grid purchases and battery storage against price,
renewable-generation, and traffic uncertainty, modeled as a finite
scenario space. The resulting linear program is solved exactly by a
backward recursion over battery levels. Includes a connection-level
traffic simulator with guard-channel admission control,
policy evaluation against a constant-level baseline, and reproducible
experiment sweeps.
"""

from .calibration import Calibration, default_calibration
from .evaluate import (ExperimentReport, ReplayError, baseline_policy,
                       evaluate_policy, monthly_cost, sweep_arrival_rate,
                       sweep_battery, sweep_cac)
from .lp import LinearProgram
from .power_model import BaseStationParams, consumption_trace
from .scenarios import (CompositeScenario, MarginalScenario, MarginalSpace,
                        RateProfile, ScenarioDocument, ScenarioFileError,
                        ScenarioSpace, compose, estimate_probabilities,
                        load_scenario_file)
from .stochastic import (PolicyTable, StorageConfig, VariableMap,
                         build_deterministic_equivalent,
                         per_scenario_decomposition, policy_csv_text,
                         solve_policies, solve_policy, verify_policy)
from .traffic import (CacConfig, QosStats, TrafficSpec, simulate_replicated,
                      uniform_traffic)
from .units import Horizon

__version__ = "0.1.0"

__all__ = [
    "BaseStationParams", "CacConfig", "Calibration", "CompositeScenario",
    "ExperimentReport", "Horizon", "LinearProgram", "MarginalScenario",
    "MarginalSpace", "PolicyTable", "QosStats", "RateProfile", "ReplayError",
    "ScenarioDocument", "ScenarioFileError", "ScenarioSpace", "StorageConfig",
    "TrafficSpec", "VariableMap", "baseline_policy",
    "build_deterministic_equivalent", "compose", "consumption_trace",
    "default_calibration", "estimate_probabilities",
    "evaluate_policy", "load_scenario_file", "monthly_cost",
    "per_scenario_decomposition", "policy_csv_text", "simulate_replicated",
    "solve_policies", "solve_policy",
    "sweep_arrival_rate", "sweep_battery", "sweep_cac", "uniform_traffic",
    "verify_policy",
]
