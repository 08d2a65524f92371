"""Per-layer tracing for the smcm benchmark, applied from outside the package.

The tracer wraps public functions of the ``smcm`` modules by replacing the
module attribute their callers look up, so nothing under ``src/`` changes.
Each wrapped call is a span; spans nest through a stack, and a span's self
time is its duration minus the time its direct children cover.

The wrapped functions are listed in ``TARGETS``. A target whose module or
attribute is gone (renamed, deleted) is skipped and reports ``calls = 0``;
every patched attribute is restored when the ``installed`` block exits,
also on error.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced function.

    ``name`` is the metric prefix (``<module>.<function>``). ``attr`` is
    patched in each of ``sites``, the ``smcm`` modules whose callers look
    it up. ``per_step`` functions run once or more per engine step and get
    ``p50_us``/``p99_us``; ``split`` maps a call's arguments to the lattice
    size or shot count that sizes it, and ``splits`` lists the values the
    workloads drive, each reported on its own. ``observe`` maps a call's
    result to a value whose mean is reported as ``observe_name``.
    """

    name: str
    attr: str
    sites: tuple[str, ...]
    per_step: bool = False
    p50_only: bool = False
    split: Callable | None = None
    splits: tuple[int, ...] = ()
    observe: Callable | None = None
    observe_name: str = ""
    calls_only: bool = False


def _arg(index: int, keyword: str):
    """Split key read from one positional-or-keyword argument."""

    def key(args, kwargs):
        value = args[index] if len(args) > index else kwargs[keyword]
        return int(getattr(value, "n_sites", value))

    return key


SHOTS = (10_000, 40_000, 100_000, 1_000_000)
SITES = (400, 6_400, 102_400)

TARGETS = (
    # qsim: circuit build, statevector, sampler, decode
    Target("qsim.sample_shots", "sample_shots", ("qsim",), per_step=True,
           split=_arg(1, "n_shots"), splits=SHOTS),
    Target("qsim.build_step_circuit", "build_step_circuit", ("qsim",), per_step=True),
    Target("qsim.apply_gate", "apply_gate", ("qsim",), per_step=True),
    Target("qsim.born_probabilities", "born_probabilities", ("qsim",), per_step=True),
    Target("qsim.decode_fractions", "decode_fractions", ("qsim",), per_step=True,
           observe=lambda result: float(result[1]), observe_name="qsim.postselect_ratio"),
    # linalg, looked up by its callers in qsim and lcu
    Target("linalg.unitary_completion", "unitary_completion", ("qsim",), per_step=True),
    Target("linalg.spectral_norm", "spectral_norm", ("lcu",)),
    Target("linalg.sqrt_psd", "sqrt_psd", ("lcu",)),
    Target("lcu.decompose", "decompose", ("experiments",), p50_only=True),
    # montecarlo: site advance, Philox draw, lattice set-up and read-out
    Target("montecarlo.mc_step", "mc_step", ("montecarlo",), per_step=True,
           split=_arg(0, "lattice"), splits=SITES),
    Target("montecarlo.step_uniforms", "step_uniforms", ("montecarlo",), per_step=True,
           split=_arg(2, "n_sites"), splits=SITES),
    Target("montecarlo.init_lattice", "init_lattice", ("montecarlo",)),
    Target("montecarlo.fractions", "fractions", ("montecarlo",), per_step=True),
    Target("montecarlo.validate_stochastic", "validate_stochastic", ("montecarlo",),
           calls_only=True),
    # core
    Target("core.deterministic_step", "deterministic_step", ("core",), per_step=True),
    Target("core.transition_matrix", "transition_matrix", ("experiments",)),
    Target("core.validate_stochastic", "validate_stochastic", ("core",), calls_only=True),
    # experiments: orchestration and CSV output
    Target("experiments.run_simulation", "run_simulation", ("experiments", "cli")),
    Target("experiments.scaling_scan", "scaling_scan", ("cli",)),
    Target("experiments.fluctuation_rms", "fluctuation_rms", ("experiments",)),
    Target("experiments.write_timeseries", "write_timeseries", ("cli",)),
    Target("experiments.write_scan", "write_scan", ("cli",)),
    # cli
    Target("cli.main", "main", ("cli",)),
)


def metric_units(targets=TARGETS) -> dict[str, str]:
    """Every per-layer metric name the targets produce, with its unit."""
    units: dict[str, str] = {}
    for t in targets:
        units[f"{t.name}.calls"] = "count"
        if t.calls_only:
            continue
        units[f"{t.name}.self_s"] = "s"
        if t.p50_only:
            units[f"{t.name}.p50_us"] = "us"
        elif t.per_step and not t.splits:
            units[f"{t.name}.p50_us"] = "us"
            units[f"{t.name}.p99_us"] = "us"
        for n in t.splits:
            for stat, unit in (("calls", "count"), ("self_s", "s"), ("p50_us", "us"), ("p99_us", "us")):
                units[f"{t.name}.n{n}.{stat}"] = unit
        if t.observe_name:
            units[t.observe_name] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    units["trace.unattributed_s"] = "s"
    return units


@dataclass
class Stat:
    """Calls, summed self time and every span duration of one function."""

    calls: int = 0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)

    def add(self, duration: float, self_time: float) -> None:
        self.calls += 1
        self.self_s += self_time
        self.durations.append(duration)


class Tracer:
    """Span recorder for one traced pass of a workload body."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.observed: dict[str, list[float]] = {}
        self.top_level_s = 0.0  # summed duration of spans with no parent
        self._stack: list[list[float]] = []  # child time covered, per open span

    def stat(self, key: str) -> Stat:
        return self.stats.setdefault(key, Stat())

    def wrap(self, target: Target, fn: Callable) -> Callable:
        """``fn`` recording a span under ``target.name`` on every call."""
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append([0.0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self_time = duration - stack.pop()[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    self.top_level_s += duration
                self.stat(target.name).add(duration, self_time)
                if target.split is not None:
                    try:
                        n = target.split(args, kwargs)
                    except (IndexError, KeyError, TypeError, ValueError):
                        n = None
                    if n is not None:
                        self.stat(f"{target.name}.n{n}").add(duration, self_time)
            if target.observe is not None:
                try:
                    value = target.observe(result)
                except (IndexError, KeyError, TypeError, ValueError):
                    value = None
                if value is not None:
                    self.observed.setdefault(target.observe_name, []).append(value)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets=TARGETS, package: str = "smcm"):
        """Patch every target that still exists; restore all on exit."""
        saved = []
        try:
            for target in targets:
                for site in target.sites:
                    try:
                        module = importlib.import_module(f"{package}.{site}")
                    except ImportError:
                        continue
                    original = getattr(module, target.attr, None)
                    if not callable(original):
                        continue
                    saved.append((module, target.attr, original))
                    setattr(module, target.attr, self.wrap(target, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


PERCENTILES = {"p50_us": 50, "p99_us": 99}


def _percentile_us(durations: list[float], q: int) -> float:
    """Percentile ``q`` of span durations in microseconds; 0 with no spans."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e6
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e6


def per_layer_metrics(tracers: list[Tracer], traced_walls: list[float],
                      untraced_walls: list[float], targets=TARGETS) -> dict[str, float]:
    """Per-layer metrics over several traced passes of one workload.

    Calls and self time are per pass (median over passes); percentiles
    pool every span of every pass.
    """

    def per_pass(key: str, attr: str) -> float:
        return statistics.median(getattr(t.stats.get(key, Stat()), attr) for t in tracers)

    def pooled(key: str) -> list[float]:
        return [d for t in tracers for d in t.stats.get(key, Stat()).durations]

    values: dict[str, float] = {}
    for name in metric_units(targets):
        stem, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s"):
            values[name] = per_pass(stem, stat)
        elif stat in PERCENTILES:
            values[name] = _percentile_us(pooled(stem), PERCENTILES[stat])
    for t in targets:
        if t.observe_name:
            observed = [v for tr in tracers for v in tr.observed.get(t.observe_name, [])]
            values[t.observe_name] = statistics.fmean(observed) if observed else 0.0
    values["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    )
    values["trace.unattributed_s"] = statistics.median(
        wall - t.top_level_s for wall, t in zip(traced_walls, tracers)
    )
    return values
