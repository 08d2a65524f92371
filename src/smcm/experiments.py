"""Experiment harness: full runs, fluctuation statistics, scaling sweeps.

A run integrates the cloud fractions from a uniform start to ``t_end``
with one of three engines: the deterministic matrix iteration, the
lattice Monte Carlo, or the sampled quantum step (``n_shots = 0`` selects
the exact infinite-shot decode, which reproduces the deterministic series
and serves as the end-to-end cross-check). Fluctuation size is the
root-mean-square of stochastic-minus-deterministic differences, pooled
over all four components, restricted to times after a spin-up window so
only stationary fluctuations are measured. Sweeps repeat runs over a
grid of lattice sizes or shot counts and fit ``rms = prefactor * n**exponent``
by least squares in log-log space.

CSV formats
-----------
* time series: header ``time_h,sigma_cs,sigma_c,sigma_d,sigma_s``, one
  row per step, 15 significant digits.
* scan: header ``n,rms_mean,rms_std,repeats``, one row per sweep value.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    EnvParams,
    TimescaleTable,
    transition_matrix,
    transition_rates,
    uniform_fractions,
)
from . import core, montecarlo, qsim
from .lcu import decompose

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "GridMismatchError",
    "MODES",
    "ScalingResult",
    "TimeSeries",
    "dump_scan",
    "dump_timeseries",
    "fit_power_law",
    "fluctuation_rms",
    "read_scan",
    "read_timeseries",
    "run_simulation",
    "scaling_scan",
    "shot_gap",
]

MODES = ("deterministic", "montecarlo", "quantum")

TIMESERIES_HEADER = "time_h,sigma_cs,sigma_c,sigma_d,sigma_s"
SCAN_HEADER = "n,rms_mean,rms_std,repeats"


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class GridMismatchError(ValueError):
    """Two time series do not share a time grid."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs; also the unit of reproducibility.

    ``n_sites`` applies to the Monte Carlo engine and ``n_shots`` to the
    quantum engine (0 meaning the exact infinite-shot decode); the other
    engines ignore them. ``spinup`` marks where fluctuation statistics
    start counting.
    """

    mode: str = "deterministic"
    cape: float = 0.25
    dryness: float = 0.75
    taus: TimescaleTable = TimescaleTable()
    dt: float = 0.1
    t_end: float = 100.0
    n_sites: int = 400
    n_shots: int = 40000
    seed: int = 0
    spinup: float = 20.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigError(f"dt must be positive, got {self.dt!r}")
        if not (math.isfinite(self.t_end) and self.t_end >= self.dt):
            raise ConfigError(f"t_end must be at least dt, got {self.t_end!r}")
        steps = self.t_end / self.dt
        if not math.isfinite(steps):
            raise ConfigError(f"t_end / dt overflows, got t_end={self.t_end!r}, dt={self.dt!r}")
        if not math.isclose(steps, round(steps), rel_tol=1e-9):
            raise ConfigError(
                f"t_end must be a whole number of dt steps, got t_end={self.t_end!r}, "
                f"dt={self.dt!r}"
            )
        if not (math.isfinite(self.spinup) and 0 <= self.spinup < self.t_end):
            raise ConfigError(f"spinup must lie in [0, t_end), got {self.spinup!r}")
        if not 1 <= self.n_sites < 2**63:
            raise ConfigError(f"n_sites must lie in [1, 2**63), got {self.n_sites}")
        if not 0 <= self.n_shots < 2**63:
            raise ConfigError(f"n_shots must lie in [0, 2**63), got {self.n_shots}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit non-negative integer, got {self.seed}")
        try:
            EnvParams(self.cape, self.dryness)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Times in hours and the fraction vector recorded at each."""

    times: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        sigmas = np.asarray(self.sigmas, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "sigmas", sigmas)
        if times.ndim != 1 or sigmas.shape != (times.size, 4):
            raise ValueError(f"shape mismatch: times {times.shape}, sigmas {sigmas.shape}")
        if times.size > 1 and (np.diff(times) <= 0).any():
            raise ValueError("times must be strictly increasing")


@dataclass(frozen=True, eq=False)
class ScalingResult:
    """Seed-averaged fluctuation RMS per sweep value plus the log-log fit."""

    x: np.ndarray
    rms_mean: np.ndarray
    rms_std: np.ndarray
    repeats: int
    exponent: float
    prefactor: float


def run_simulation(cfg: ExperimentConfig) -> TimeSeries:
    """Integrate one configuration from the uniform start to ``t_end``.

    The environment is constant, so rates, the one-step matrix, its check
    and the compiled quantum step are built once. Every step is recorded,
    the initial state included. The Monte Carlo engine steps the four state
    counts (:func:`montecarlo.count_step`), starting from their exact
    largest-remainder apportionment. The step from row ``i`` to row
    ``i + 1`` draws its Monte Carlo counts or its shots from
    ``core.step_generator(seed, i)``; errors number steps from 1.
    """
    rates = transition_rates(EnvParams(cfg.cape, cfg.dryness), cfg.taus)
    p = transition_matrix(rates, cfg.dt)
    n_steps = cfg.n_steps
    times = np.arange(n_steps + 1) * cfg.dt
    sigmas = np.empty((n_steps + 1, 4))
    core.validate_stochastic(p)

    if cfg.mode == "deterministic":
        sigma = uniform_fractions()
        sigmas[0] = sigma
        for i in range(n_steps):
            sigma = p @ sigma
            sigmas[i + 1] = sigma
    elif cfg.mode == "montecarlo":
        counts = montecarlo.init_counts(cfg.n_sites, uniform_fractions())
        sigmas[0] = counts / cfg.n_sites
        for i in range(n_steps):
            counts = montecarlo.count_step(counts, p, core.step_generator(cfg.seed, i))
            sigmas[i + 1] = counts / cfg.n_sites
    else:
        operator = qsim.step_operator(decompose(p))
        sigma = uniform_fractions()
        sigmas[0] = sigma
        for i in range(n_steps):
            if cfg.n_shots == 0:
                sigma = qsim.quantum_step_exact(sigma, operator)
            else:
                rng = core.step_generator(cfg.seed, i)
                try:
                    sigma = qsim.quantum_step(sigma, operator, cfg.n_shots, rng)
                except qsim.InsufficientShotsError as exc:
                    raise qsim.InsufficientShotsError(f"step {i + 1} of {n_steps}: {exc}") from exc
            sigmas[i + 1] = sigma

    return TimeSeries(times=times, sigmas=sigmas)


def fluctuation_rms(stochastic: TimeSeries, deterministic: TimeSeries, spinup: float) -> float:
    """Pooled RMS of stochastic-minus-deterministic fractions after spin-up.

    Pooled means the mean square runs over all retained times *and* all
    four components, so a constant offset on one component contributes a
    quarter of its square.
    """
    if not np.array_equal(stochastic.times, deterministic.times):
        raise GridMismatchError("time grids differ; series must share dt and t_end")
    keep = stochastic.times > spinup
    if not keep.any():
        raise ValueError(f"no samples after spinup {spinup}")
    diff = stochastic.sigmas[keep] - deterministic.sigmas[keep]
    return float(np.sqrt(np.mean(diff**2)))


def fit_power_law(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares fit of ``y = prefactor * x**exponent`` in log-log space."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two matching points to fit")
    if (x <= 0).any() or (y <= 0).any():
        raise ValueError("power-law fit needs positive data")
    exponent, log_prefactor = np.polyfit(np.log(x), np.log(y), 1)
    return float(exponent), float(math.exp(log_prefactor))


def _run_seed(base_seed: int, value_index: int, repeat: int) -> int:
    """Derived per-run seed, deterministic in (base seed, sweep point, repeat)."""
    ss = np.random.SeedSequence((base_seed, value_index, repeat))
    return int(ss.generate_state(1, np.uint64)[0])


def scaling_scan(cfg: ExperimentConfig, values, repeats: int) -> ScalingResult:
    """Sweep the stochastic-resolution knob and fit the fluctuation decay.

    ``values`` are lattice sizes (Monte Carlo mode) or shot counts
    (quantum mode); at least three values spanning 1.5 decades and three
    repeats per value are required for a meaningful fit. Runs are ordered
    by sweep value then repeat, with per-run seeds derived from the
    config seed, so output is independent of execution interleaving.
    """
    if cfg.mode == "deterministic":
        raise ConfigError("scaling scans need a stochastic mode (montecarlo or quantum)")
    values = sorted(int(v) for v in values)
    if len(values) < 3:
        raise ConfigError(f"need at least 3 sweep values, got {values}")
    if len(set(values)) != len(values):
        raise ConfigError(f"sweep values must be distinct, got {values}")
    if values[0] < 1:
        raise ConfigError(f"sweep values must be positive, got {values}")
    if math.log10(values[-1] / values[0]) < 1.5:
        raise ConfigError(f"sweep values {values} span less than 1.5 decades")
    if repeats < 3:
        raise ConfigError(f"need at least 3 repeats per value, got {repeats}")

    field = "n_sites" if cfg.mode == "montecarlo" else "n_shots"
    run_cfgs = [  # built first, so a bad value fails before any run starts
        [dataclasses.replace(cfg, **{field: value}, seed=_run_seed(cfg.seed, i, r))
         for r in range(repeats)]
        for i, value in enumerate(values)
    ]
    det = run_simulation(dataclasses.replace(cfg, mode="deterministic"))
    rms = np.array(
        [[fluctuation_rms(run_simulation(c), det, cfg.spinup) for c in row] for row in run_cfgs]
    )
    means, stds = rms.mean(axis=1), rms.std(axis=1, ddof=1)
    exponent, prefactor = fit_power_law(values, means)
    return ScalingResult(
        x=np.array(values, dtype=float),
        rms_mean=means,
        rms_std=stds,
        repeats=repeats,
        exponent=exponent,
        prefactor=prefactor,
    )


def shot_gap(mc_result: ScalingResult, quantum_result: ScalingResult) -> float:
    """Ratio of fitted fluctuation prefactors, quantum over Monte Carlo.

    Meaningful only when both sweeps follow the inverse-square-root law,
    so a fit exponent far from -1/2 triggers a warning.
    """
    for name, result in (("montecarlo", mc_result), ("quantum", quantum_result)):
        if abs(result.exponent + 0.5) > 0.15:
            warnings.warn(
                f"{name} sweep exponent {result.exponent:.3f} is far from -0.5; "
                "the prefactor ratio may not be comparable",
                RuntimeWarning,
                stacklevel=2,
            )
    return quantum_result.prefactor / mc_result.prefactor


def dump_timeseries(series: TimeSeries, fh) -> None:
    fh.write(TIMESERIES_HEADER + "\n")
    for t, row in zip(series.times, series.sigmas):
        fh.write(f"{t:.15g}," + ",".join(f"{v:.15g}" for v in row) + "\n")


def read_timeseries(path) -> TimeSeries:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != TIMESERIES_HEADER:
            raise ValueError(f"unexpected header {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return TimeSeries(times=data[:, 0], sigmas=data[:, 1:5])


def dump_scan(result: ScalingResult, fh) -> None:
    fh.write(SCAN_HEADER + "\n")
    for n, mean, std in zip(result.x, result.rms_mean, result.rms_std):
        fh.write(f"{int(n)},{mean:.15g},{std:.15g},{result.repeats}\n")


def read_scan(path) -> ScalingResult:
    """Load a scan CSV and refit the power law from its rows."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != SCAN_HEADER:
            raise ValueError(f"unexpected header {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    x, means, stds, repeats = data[:, 0], data[:, 1], data[:, 2], data[:, 3]
    exponent, prefactor = fit_power_law(x, means)
    return ScalingResult(
        x=x,
        rms_mean=means,
        rms_std=stds,
        repeats=int(repeats[0]),
        exponent=exponent,
        prefactor=prefactor,
    )
