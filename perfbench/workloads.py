"""The benchmark's workloads and the correctness checks on their outputs.

Every workload is a list of ``smcm`` command lines, the same ``run`` and
``scan`` commands the README gives users, driven in-process through
``smcm.cli.main``. Sizes sit at the default operating point (CAPE 0.25,
dryness 0.75, dt 0.1 h). Runs are closed-loop: one CLI call at a time, the
next starting when the previous returns. The benchmark seed only picks the
``--seed`` of each call; the program receives nothing else from it.

Checks read the CSVs the CLI wrote. They are statistical where the output
is random, so a change of random stream that keeps the sampled law does
not count as a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DT = 0.1  # the CLI's default step, hours


@dataclass(frozen=True)
class Call:
    """One CLI invocation, without ``--seed`` and ``--out``.

    ``steps`` counts engine steps it advances; ``samples`` counts sample
    steps: one per lattice site or shot per step, one per step for the
    deterministic and exact-decode engines.
    """

    argv: tuple[str, ...]
    out: str
    steps: int
    samples: int


def run_call(mode: str, size: int | None, out: str, t_end: float = 100.0) -> Call:
    """``smcm run`` in one mode; ``size`` is sites (montecarlo) or shots (quantum)."""
    argv = ["run", "--mode", mode, "--t-end", f"{t_end:g}"]
    if mode == "montecarlo":
        argv += ["--sites", str(size)]
    elif mode == "quantum":
        argv += ["--shots", str(size)]
    steps = round(t_end / DT)
    return Call(tuple(argv), out, steps, steps * max(1, size or 1))


def scan_call(mode: str, values: tuple[int, ...], repeats: int, t_end: float, out: str) -> Call:
    """``smcm scan``: one deterministic reference run plus ``repeats`` runs per value."""
    argv = ["scan", "--mode", mode, "--values", ",".join(map(str, values)),
            "--repeats", str(repeats), "--t-end", f"{t_end:g}"]
    steps = round(t_end / DT)
    return Call(tuple(argv), out, steps * (1 + repeats * len(values)),
                steps * (1 + repeats * sum(values)))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple[Call, ...]
    # ``smcm run`` argv of one step of each engine configuration the body uses
    setup: tuple[tuple[str, ...], ...]
    # refit-exponent band for scan workloads, as (low, high)
    exponent_band: tuple[float, float] | None = None

    @property
    def steps(self) -> int:
        return sum(c.steps for c in self.calls)

    @property
    def samples(self) -> int:
        return sum(c.samples for c in self.calls)


def one_step(mode: str, size: int | None = None) -> tuple[str, ...]:
    return run_call(mode, size, "", t_end=DT).argv


def _band(mean: float, sd: float) -> tuple[float, float]:
    """Band around -0.5 covering the measured mean's bias plus six measured
    seed-to-seed standard deviations."""
    half = abs(mean + 0.5) + 6.0 * sd
    return (-0.5 - half, -0.5 + half)


# Seed-to-seed spread of the refit exponent (mean, sample standard
# deviation), measured by `exponent_spread.py` before any optimisation:
# 20 scans with --seed 1000..1019 at each scan workload's sizes.
MC_EXPONENT_SPREAD = (-0.5106, 0.0305)
QUANTUM_EXPONENT_SPREAD = (-0.4956, 0.0486)

# timeseries: the paper's time-evolution figure, the README's four `smcm run`
# lines at the default 100 h. Cost is per step, not per sample: the circuit
# rebuild and 9-gate statevector of the exact run, inverse-CDF sampling at
# 4e4 shots, the MC per-call cost at 400 sites. No repeats, so batching
# sweep repeats bypasses it.
TIMESERIES = Workload(
    name="timeseries",
    why="the paper's four 100 h runs; per-step overhead (circuit rebuild, 4e4-shot "
        "sampling, MC per-call cost) with no repeats to batch",
    calls=(
        run_call("deterministic", None, "det.csv"),
        run_call("montecarlo", 400, "mc.csv"),
        run_call("quantum", 40_000, "q.csv"),
        run_call("quantum", 0, "exact.csv"),
    ),
    setup=(one_step("deterministic"), one_step("montecarlo", 400),
           one_step("quantum", 40_000), one_step("quantum", 0)),
)

# scan-mc: the lattice fluctuation-scaling sweep. 400 sites sit in the
# per-call-overhead regime, 102 400 in the per-site regime (Philox draw
# plus interval advance), so the sweep isolates `montecarlo`; `qsim` is idle.
# 30 h keeps one body near 2.5 s on one core.
SCAN_MC = Workload(
    name="scan-mc",
    why="MC scaling sweep at 400/6400/102400 sites; isolates the lattice engine "
        "(per-call and per-site cost), qsim idle",
    calls=(scan_call("montecarlo", (400, 6_400, 102_400), 3, 30.0, "scan_mc.csv"),),
    setup=(one_step("deterministic"), *(one_step("montecarlo", n) for n in (400, 6_400, 102_400))),
    exponent_band=_band(*MC_EXPONENT_SPREAD),
)

# scan-quantum: the shot-count fluctuation-scaling sweep. Sampling is O(shots),
# over 95% of the time at 1e6 shots, so the sweep isolates the sampler;
# `montecarlo` is idle. 5 h keeps one body near 3.3 s on one core.
SCAN_QUANTUM = Workload(
    name="scan-quantum",
    why="quantum scaling sweep at 1e4/1e5/1e6 shots; isolates O(shots) sampling, "
        "montecarlo idle",
    calls=(scan_call("quantum", (10_000, 100_000, 1_000_000), 3, 5.0, "scan_q.csv"),),
    setup=(one_step("deterministic"), *(one_step("quantum", n) for n in (10_000, 100_000, 1_000_000))),
    exponent_band=_band(*QUANTUM_EXPONENT_SPREAD),
)

WORKLOADS = {w.name: w for w in (TIMESERIES, SCAN_MC, SCAN_QUANTUM)}


def cli_seed(seed: int, iteration: int) -> int:
    """The ``--seed`` given to every call of one pass of a workload body."""
    return (seed * 1_000_003 + iteration) % 2**63


# --- correctness checks ---------------------------------------------------

SIMPLEX_TOL = 1e-9        # rows are written with 15 significant digits
EXACT_TOL = 1e-10         # exact decode against the deterministic step
EQUILIBRIUM_TOL = 1e-6    # deterministic end state at 100 h against the fixed point


def check_outputs(workload: Workload, outdir: Path) -> list[tuple[str, bool, str]]:
    """Run every check of ``workload`` on the CSVs in ``outdir``.

    Returns ``(check, passed, detail)`` per check; a check that raises
    counts as failed.
    """
    results = []
    for name, check in _checks(workload, outdir):
        try:
            passed, detail = check()
        except Exception as exc:  # a malformed or missing CSV is a failed check
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, bool(passed), detail))
    return results


def _checks(workload: Workload, outdir: Path):
    from smcm.experiments import read_scan, read_timeseries

    for call in workload.calls:
        path = outdir / call.out
        if call.argv[0] == "run":
            yield f"simplex:{call.out}", lambda p=path, c=call: _on_simplex(read_timeseries(p), c)
        else:
            yield f"exponent:{call.out}", lambda p=path: _exponent_in_band(
                read_scan(p), workload.exponent_band)
    if workload is TIMESERIES:
        yield "exact-equals-deterministic", lambda: _exact_matches(
            read_timeseries(outdir / "exact.csv"), read_timeseries(outdir / "det.csv"))
        yield "deterministic-at-equilibrium", lambda: _at_equilibrium(
            read_timeseries(outdir / "det.csv"))


def _on_simplex(series, call: Call):
    rows = series.sigmas
    worst = max(np.abs(rows.sum(axis=1) - 1.0).max(), -rows.min(initial=0.0))
    ok = rows.shape[0] == call.steps + 1 and worst <= SIMPLEX_TOL
    return ok, f"{rows.shape[0]} rows, worst simplex violation {worst:.3g}"


def _exact_matches(exact, det):
    gap = np.abs(exact.sigmas - det.sigmas).max()
    return gap <= EXACT_TOL, f"max |exact - deterministic| = {gap:.3g}"


def _at_equilibrium(det):
    from smcm.core import EnvParams, TimescaleTable, stationary_fractions, transition_rates

    target = stationary_fractions(transition_rates(EnvParams(0.25, 0.75), TimescaleTable()))
    gap = np.abs(det.sigmas[-1] - target).max()
    return gap <= EQUILIBRIUM_TOL, f"max |sigma(t_end) - equilibrium| = {gap:.3g}"


def _exponent_in_band(result, band):
    low, high = band
    ok = math.isfinite(result.exponent) and low <= result.exponent <= high
    return ok, f"exponent {result.exponent:.4f}, band [{low:.3f}, {high:.3f}]"
