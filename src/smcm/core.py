"""Four-state cloud-cover Markov model of a convective domain.

The domain is pictured as a lattice of sites, each of which is clear sky
or carries one of three cloud types (congestus, deep convective,
stratiform anvil). Sites switch state independently, with per-hour rates
driven by two dimensionless environmental numbers: CAPE and a
mid-troposphere dryness ratio. This module holds the rate formulas, the
one-step column-stochastic transition matrix, the deterministic evolution
of the domain-mean area fractions, and the closed-form equilibrium.

Conventions
-----------
* ``rates[l, k]`` is the rate (per hour) of jumping *from* state ``l``
  *to* state ``k``; the diagonal is zero.
* The one-step matrix is column-stochastic: ``p[k, l]`` is the
  probability of ``l -> k`` over one step, so columns index the source
  state and ``p @ sigma`` advances a fraction vector.
* Fraction vectors live on the probability simplex: non-negative
  components summing to one.
* Stochastic engines draw step ``t`` of a run from
  :func:`step_generator`, a Philox stream keyed by the run seed with
  ``t`` in the top counter word, so any step can be replayed from
  ``(seed, t)`` alone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

__all__ = [
    "CloudState",
    "DegenerateRatesError",
    "EnvParams",
    "SIMPLEX_TOL",
    "StepSizeError",
    "TimescaleTable",
    "deterministic_step",
    "saturation",
    "stationary_fractions",
    "step_generator",
    "transition_matrix",
    "transition_rates",
    "uniform_fractions",
    "validate_simplex",
    "validate_stochastic",
]

N_STATES = 4

#: Tolerance on simplex / column-sum normalisation checks.
SIMPLEX_TOL = 1e-12


class CloudState(enum.IntEnum):
    """Per-site sky state. The integer codes index matrices and vectors."""

    CLEAR_SKY = 0
    CONGESTUS = 1
    DEEP = 2
    STRATIFORM = 3


class StepSizeError(ValueError):
    """The time step would drive a stay-probability negative."""


class DegenerateRatesError(ValueError):
    """The rate graph does not single out a unique equilibrium."""


@dataclass(frozen=True)
class EnvParams:
    """Environmental drivers: CAPE and mid-troposphere dryness, dimensionless."""

    cape: float
    dryness: float

    def __post_init__(self):
        for name in ("cape", "dryness"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


@dataclass(frozen=True)
class TimescaleTable:
    """Cloud formation/decay/conversion timescales, in hours.

    ``tau_lk`` is the timescale entering the ``l -> k`` rate. Defaults are
    the values used by the bundled experiments.
    """

    tau_01: float = 1.0  # clear sky -> congestus
    tau_10: float = 5.0  # congestus decay
    tau_12: float = 1.0  # congestus -> deep
    tau_02: float = 2.0  # clear sky -> deep
    tau_23: float = 3.0  # deep -> stratiform
    tau_20: float = 5.0  # deep decay
    tau_30: float = 5.0  # stratiform decay

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


def saturation(x: float) -> float:
    """Monotone saturation ``1 - exp(-x)`` for ``x > 0``, zero otherwise.

    Shapes how strongly the environment activates a transition; the value
    always lies in ``[0, 1)``.
    """
    if not math.isfinite(x):
        raise ValueError(f"saturation argument must be finite, got {x!r}")
    if x <= 0:
        return 0.0
    return -math.expm1(-x)


def transition_rates(env: EnvParams, taus: TimescaleTable) -> np.ndarray:
    """Per-hour transition-rate matrix ``rates[l, k]`` for jump ``l -> k``.

    Congestus forms from clear sky when both CAPE and dryness are high;
    deep convection forms (from clear sky or congestus) when CAPE is high
    but the mid troposphere is moist; deep cloud converts to stratiform
    and the decays are environment-independent. All other transitions,
    including any direct route into congestus from above, are forbidden
    and stay exactly zero.
    """
    act_c = saturation(env.cape)
    act_d = saturation(env.dryness)
    rates = np.zeros((N_STATES, N_STATES))
    rates[0, 1] = act_c * act_d / taus.tau_01
    rates[0, 2] = act_c * (1.0 - act_d) / taus.tau_02
    rates[1, 0] = act_d / taus.tau_10
    rates[1, 2] = act_c * (1.0 - act_d) / taus.tau_12
    rates[2, 0] = (1.0 - act_c) / taus.tau_20
    rates[2, 3] = 1.0 / taus.tau_23
    rates[3, 0] = 1.0 / taus.tau_30
    return rates


def transition_matrix(rates: np.ndarray, dt: float) -> np.ndarray:
    """First-order one-step matrix: ``p[k, l] = rates[l, k] * dt`` off the
    diagonal, with each diagonal entry absorbing the remainder so that
    every column sums to one.

    ``dt`` must be small enough that every state's total leave
    probability stays at or below one; ``dt = 0`` yields the identity.
    """
    rates = np.asarray(rates, dtype=float)
    if not math.isfinite(dt) or dt < 0:
        raise ValueError(f"dt must be finite and non-negative, got {dt!r}")
    leave = rates.sum(axis=1) * dt
    if leave.max() > 1.0:
        state = CloudState(int(np.argmax(leave)))
        raise StepSizeError(
            f"dt={dt} gives leave probability {leave.max():.6f} > 1 for state "
            f"{state.name}; reduce the step size"
        )
    p = rates.T * dt
    np.fill_diagonal(p, 1.0 - leave)
    return p


def step_generator(seed: int, step: int) -> Generator:
    """Counter-based generator for one step of a run: Philox keyed by
    ``seed``, counter ``[0, 0, 0, step]``."""
    return Generator(Philox(key=seed, counter=[0, 0, 0, step]))


def uniform_fractions() -> np.ndarray:
    """Equal-area starting point: one quarter in each state."""
    return np.full(N_STATES, 0.25)


def validate_simplex(sigma: np.ndarray) -> np.ndarray:
    """Check that ``sigma`` is a valid fraction vector and return it as float."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (N_STATES,):
        raise ValueError(f"expected {N_STATES} fractions, got shape {sigma.shape}")
    if not np.all(np.isfinite(sigma)) or (sigma < 0).any():
        raise ValueError(f"fractions must be finite and non-negative, got {sigma}")
    if abs(sigma.sum() - 1.0) > SIMPLEX_TOL:
        raise ValueError(f"fractions must sum to 1 within {SIMPLEX_TOL}, got sum {sigma.sum()!r}")
    return sigma


def validate_stochastic(p: np.ndarray) -> np.ndarray:
    """Check that ``p`` is column-stochastic with entries in [0, 1]."""
    p = np.asarray(p, dtype=float)
    if p.shape != (N_STATES, N_STATES):
        raise ValueError(f"expected a {N_STATES}x{N_STATES} matrix, got shape {p.shape}")
    if not np.all(np.isfinite(p)) or (p < 0).any() or (p > 1).any():
        raise ValueError("transition probabilities must lie in [0, 1]")
    sums = p.sum(axis=0)
    if np.abs(sums - 1.0).max() > SIMPLEX_TOL:
        raise ValueError(f"columns must sum to 1 within {SIMPLEX_TOL}, got {sums}")
    return p


def deterministic_step(p: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Advance the domain-mean fractions one step: ``sigma' = p @ sigma``.

    Column-stochasticity of ``p`` keeps the output on the simplex.
    """
    p = validate_stochastic(p)
    sigma = validate_simplex(sigma)
    return p @ sigma


def stationary_fractions(rates: np.ndarray) -> np.ndarray:
    """Equilibrium fractions: the normalised null vector of the generator.

    Solves the stationary balance equations directly, so the result is
    independent of any step size. Raises :class:`DegenerateRatesError`
    when the rate graph admits more than one invariant distribution
    (e.g. both CAPE and dryness zero, which freezes clear sky and
    congestus separately).
    """
    rates = np.asarray(rates, dtype=float)
    generator = rates.T - np.diag(rates.sum(axis=1))
    if np.linalg.matrix_rank(generator) < N_STATES - 1:
        raise DegenerateRatesError(
            "rate matrix does not connect all states; equilibrium is not unique"
        )
    system = np.vstack([generator, np.ones(N_STATES)])
    rhs = np.zeros(N_STATES + 1)
    rhs[-1] = 1.0
    sigma, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    sigma = np.clip(sigma, 0.0, None)  # round-off can leave tiny negatives
    return sigma / sigma.sum()
