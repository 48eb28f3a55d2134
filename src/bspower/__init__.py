"""Adaptive power management for a renewable-assisted wireless base station.

Plans day-ahead grid purchases and battery storage against price,
renewable-generation, and traffic uncertainty, modeled as a finite
scenario space and solved as a linear program. Includes a
connection-level traffic simulator with guard-channel admission control,
policy evaluation against a constant-level baseline, and reproducible
experiment sweeps.
"""

from .calibration import Calibration, default_calibration
from .evaluate import (EvaluationResult, ExperimentReport, RealizedDay,
                       ReplayError, baseline_policy, evaluate_policy,
                       monthly_cost, sweep_arrival_rate, sweep_battery,
                       sweep_cac)
from .lp import LinearProgram, LpSolution, brute_force_solve, lp_text, solve
from .power_model import BaseStationParams, consumption, consumption_trace
from .scenarios import (CompositeScenario, MarginalScenario, MarginalSpace,
                        RateProfile, ScenarioDocument, ScenarioFileError,
                        ScenarioSpace, compose, dump_scenario_file,
                        estimate_probabilities, load_scenario_file, validate)
from .stochastic import (InfeasibleProgramError, PolicyTable, StorageConfig,
                         VariableMap, build_deterministic_equivalent,
                         per_scenario_decomposition, policy_csv_text,
                         solve_policy, verify_policy)
from .traffic import (CacConfig, QosStats, TrafficSpec, analytic_guard_channel,
                      simulate_replicated, uniform_traffic)
from .units import Horizon, cents_to_dollars, energy_cost

__version__ = "0.1.0"

__all__ = [
    "BaseStationParams", "CacConfig", "Calibration", "CompositeScenario",
    "EvaluationResult", "ExperimentReport", "Horizon", "InfeasibleProgramError",
    "LinearProgram", "LpSolution", "MarginalScenario", "MarginalSpace",
    "PolicyTable", "QosStats", "RateProfile", "RealizedDay", "ReplayError",
    "ScenarioDocument", "ScenarioFileError", "ScenarioSpace", "StorageConfig",
    "TrafficSpec", "VariableMap", "analytic_guard_channel", "baseline_policy",
    "brute_force_solve", "build_deterministic_equivalent", "cents_to_dollars",
    "compose", "consumption", "consumption_trace", "default_calibration",
    "dump_scenario_file", "energy_cost", "estimate_probabilities",
    "evaluate_policy", "load_scenario_file", "lp_text", "monthly_cost",
    "per_scenario_decomposition", "policy_csv_text", "simulate_replicated",
    "solve", "solve_policy",
    "sweep_arrival_rate", "sweep_battery", "sweep_cac", "uniform_traffic",
    "validate", "verify_policy",
]
