"""Spectral simulator and verification toolkit for the stochastic coupled
nonlinear Schrodinger system with multiplicative phase noise."""

from ._version import __version__

from .grid import Grid
from .noise import NoiseModel, NoiseSpec, build_noise_model, sample_increments, stratonovich_phase
from .dynamics import Coupling, SystemState, TrajectoryResult, evolve, nonlinear_phase, strang_step
from .observables import (
    CriterionResult,
    EnergyBudget,
    TrajectoryRecord,
    TrajectoryRecorder,
    blowup_criterion,
    corollary_energy_bound,
    criterion_lhs,
    energy_budget,
    hamiltonian,
    mass,
    momentum_G,
    variance,
    virial_residuals,
)
from .groundstate import (
    GroundStateError,
    GroundStatePair,
    critical_threshold,
    gn_ratio,
    solve_ground_state,
)
from .config import ConfigError, InitialSpec, RunConfig, load_config, parse_config
from .harness import (
    BlowupDetector,
    EnsembleResult,
    HarnessError,
    criterion_sweep,
    ground_state_report,
    path_seed,
    run_ensemble,
    run_single,
    splitmix64,
    threshold_study,
    verify,
)

__all__ = [
    "__version__",
    "Grid",
    "NoiseModel", "NoiseSpec", "build_noise_model", "sample_increments", "stratonovich_phase",
    "Coupling", "SystemState", "TrajectoryResult", "evolve", "nonlinear_phase", "strang_step",
    "CriterionResult", "EnergyBudget", "TrajectoryRecord", "TrajectoryRecorder",
    "blowup_criterion", "corollary_energy_bound", "criterion_lhs", "energy_budget",
    "hamiltonian", "mass", "momentum_G", "variance", "virial_residuals",
    "GroundStateError", "GroundStatePair", "critical_threshold", "gn_ratio",
    "solve_ground_state",
    "ConfigError", "InitialSpec", "RunConfig", "load_config", "parse_config",
    "BlowupDetector", "EnsembleResult", "HarnessError", "criterion_sweep", "ground_state_report",
    "path_seed", "run_ensemble", "run_single", "splitmix64", "threshold_study", "verify",
]
