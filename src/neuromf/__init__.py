"""Interacting neuron network SDE simulator with mean-field tooling.

Simulates finite populations of FitzHugh-Nagumo / Hodgkin-Huxley neurons
coupled through stochastic chemical synapses, solves the associated
mean-field limit self-consistently, and measures how fast the finite
network converges to that limit through an exact shared-noise coupling.
"""

from .chaos import CouplingReport, CouplingRun, estimate_distance, fit_rate, run_coupled, sweep
from .errors import ConfigError, SimulationDiverged, VariantMismatchError
from .meanfield import (
    MeanFieldSolution,
    simulate_limit_given_ybar,
    solve_causal,
    solve_fixed_point,
    ybar_from_ms,
)
from .model import (
    CurrentSpec,
    CutoffSpec,
    FhnMembrane,
    GateRates,
    HhMembrane,
    PairParams,
    PopulationParams,
    SigmoidParams,
    eval_cutoff,
    eval_membrane_drift,
    eval_sigmoid,
)
from .network import (
    Conductance,
    Dist,
    InitialLaw,
    MeanCurve,
    NetworkConfig,
    PathEnsemble,
    population_sums,
    simulate,
)
from .rng import Component
from .stepping import TimeGrid, step_cir, step_euler_confined

__version__ = "0.1.0"

__all__ = [
    "Component", "ConfigError", "Conductance", "CouplingReport",
    "CouplingRun", "CurrentSpec", "CutoffSpec", "Dist", "FhnMembrane", "GateRates",
    "HhMembrane", "InitialLaw", "MeanCurve", "MeanFieldSolution", "NetworkConfig",
    "PairParams", "PathEnsemble", "PopulationParams", "SigmoidParams",
    "SimulationDiverged", "TimeGrid", "VariantMismatchError", "estimate_distance",
    "eval_cutoff", "eval_membrane_drift", "eval_sigmoid", "fit_rate",
    "population_sums", "run_coupled", "simulate", "simulate_limit_given_ybar",
    "solve_causal", "solve_fixed_point", "step_cir", "step_euler_confined", "sweep",
    "ybar_from_ms",
]
