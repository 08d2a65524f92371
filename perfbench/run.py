"""The smcm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; nothing needs installing, since
the package is imported from ``src/``. Every workload runs in its own
fresh single-threaded process with BLAS threads pinned to 1.

``--trace 0`` prints the end-to-end metrics: ``setup_s``, the median of
several fresh interpreters importing ``smcm`` and stepping each engine
configuration once; ``wall_s``, the median time of one workload body;
``steps_per_s`` and ``sample_steps_per_s``, engine steps and sample steps
(sites or shots advanced one step) per second of ``wall_s``, which are the
site-steps rate on ``scan-mc`` and the shot-steps rate on ``scan-quantum``;
and ``peak_rss_mb``, the workload process's peak resident memory.
``failed / attempted`` is the failed fraction, counted over CLI calls and
correctness checks. ``--trace 1`` prints the per-layer metrics of
``tracer.py`` and the baseline layer timings found in them.

Without ``--workload`` every workload runs untraced and traced, and every
metric of every workload is printed. The last line of standard output is
always one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the machine and a readable table.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from tracer import metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = "1"
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 11  # measured fresh starts, after one unmeasured start that compiles bytecode
RUN_LIMIT_S = 170.0  # every process of one run ends within this

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "sample_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# The ROADMAP's baseline layer table, read from the traced run by name.
BASELINE = (
    ("sample_shots, 10^4 shots", "qsim.sample_shots.n10000"),
    ("sample_shots, 10^5 shots", "qsim.sample_shots.n100000"),
    ("sample_shots, 10^6 shots", "qsim.sample_shots.n1000000"),
    ("decompose", "lcu.decompose"),
    ("mc_step, 102400 sites", "montecarlo.mc_step.n102400"),
    ("step_uniforms (Philox draw), 102400 sites", "montecarlo.step_uniforms.n102400"),
    ("deterministic_step", "core.deterministic_step"),
)


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return caches


def _blas() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return "unknown"


def machine_info(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def _worker(args: list[str], deadline: float) -> dict:
    env = {**os.environ, **{name: BLAS_THREADS for name in THREAD_ENV}}
    env.pop("PYTHONPATH", None)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchmarkError(f"worker timed out after {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload: a result with metrics, and what produced it."""
    deadline = time.monotonic() + RUN_LIMIT_S
    scratch = ROOT / ".perfbench_tmp" / f"{os.getpid()}-{workload}-{int(trace)}"
    scratch.mkdir(parents=True, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--scratch", str(scratch)]
    try:
        attempted = failed = 0
        metrics = {}
        if not trace:
            probes = [_worker([*common, "--setup"], deadline) for _ in range(SETUP_PROBES + 1)]
            for probe in probes:
                attempted += probe["attempted"]
                failed += probe["failed"]
            metrics["setup_s"] = statistics.median(p["setup_s"] for p in probes[1:])
        body = _worker([*common, "--seconds", str(seconds), "--trace", str(int(trace))], deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            scratch.parent.rmdir()
    attempted += body["attempted"]
    failed += body["failed"]
    metrics.update(body["metrics"])
    units = metric_units() if trace else END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "info": {"passes": body["passes"], "traced_passes": body["traced_passes"]},
    }


def _print_table(workload: str, result: dict) -> None:
    info = result["info"]
    print(f"{workload}: {info['passes']} untraced, {info['traced_passes']} traced passes; "
          f"failed {result['failed']}/{result['attempted']} "
          f"= failed_frac {result['failed'] / result['attempted']:.4g}")
    for name, metric in result["metrics"].items():
        print(f"  {workload:<13} {name:<44} {metric['value']:>14.6g} {metric['unit']}")


def _print_self_shares(workload: str, metrics: dict) -> None:
    """The layers with the most self time, as shares of all traced time."""
    selfs = {name[:-len(".self_s")]: m["value"] for name, m in metrics.items()
             if name.endswith(".self_s") and name.count(".") == 2}
    total = sum(selfs.values()) + metrics["trace.unattributed_s"]["value"]
    top = sorted(selfs.items(), key=lambda kv: -kv[1])[:3]
    print(f"{workload}: self-time share " + ", ".join(
        f"{name} {value / total:.1%}" for name, value in top))


def _print_baseline(traced: list[dict]) -> None:
    """Median µs per call of each ROADMAP baseline layer, from the first
    traced workload that ran it."""
    rows = []
    for label, stem in BASELINE:
        ran = [m for m in traced if m[f"{stem}.calls"]["value"]]
        if ran:
            rows.append((label, ran[0][f"{stem}.p50_us"]["value"]))
    if rows:
        print("baseline layer timings (median us per call):")
        for label, value in rows:
            print(f"  {label:<44} {value:>12.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: every workload, untraced and traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "smcm" / "__init__.py").is_file():
        print(f"error: no smcm sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    print("machine " + json.dumps(machine_info(args.seed)))
    runs = ([(args.workload, bool(args.trace))] if args.workload
            else [(w, t) for w in WORKLOADS for t in (False, True)])
    results = {}
    try:
        for workload, trace in runs:
            results[workload, trace] = measure(workload, args.seed, args.seconds, trace)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for (workload, trace), result in results.items():
        _print_table(workload, result)
        if trace:
            _print_self_shares(workload, result["metrics"])
    _print_baseline([r["metrics"] for (_, trace), r in results.items() if trace])

    if args.workload:
        metrics = results[args.workload, bool(args.trace)]["metrics"]
    else:
        metrics = {f"{w}:{'trace' if t else 'e2e'}:{name}": m
                   for (w, t), r in results.items() for name, m in r["metrics"].items()}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
