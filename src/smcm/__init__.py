"""Stochastic multicloud cloud-fraction dynamics, three ways.

A four-state Markov model of sky cover (clear, congestus, deep,
stratiform) evolved deterministically, by lattice Monte Carlo, and by a
four-qubit circuit built from a uniform four-unitary decomposition of
the one-step matrix, simulated exactly and read out by shot sampling.
"""

from .core import (
    CloudState,
    EnvParams,
    TimescaleTable,
    deterministic_step,
    saturation,
    stationary_fractions,
    transition_matrix,
    transition_rates,
    uniform_fractions,
)
from .lcu import LcuDecomposition, decompose
from .qsim import (
    decode_fractions,
    quantum_step,
    quantum_step_exact,
    sample_shots,
    step_operator,
)
from .experiments import (
    ExperimentConfig,
    TimeSeries,
    ScalingResult,
    fit_power_law,
    fluctuation_rms,
    run_simulation,
    scaling_scan,
    shot_gap,
)

__version__ = "0.1.0"
