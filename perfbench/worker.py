"""One workload in one fresh process; started by ``run.py``, not by hand.

``--setup`` times a fresh interpreter's ``import smcm`` plus a one-step run
of each engine configuration the workload uses. Otherwise the workload
body runs pass after pass until ``--seconds`` have elapsed, each pass with
its own ``--seed`` and output directory, and the CSVs of every pass are
checked after its timing stops. With ``--trace 1`` passes alternate
between untraced and traced, so one run gives the per-layer metrics and
the tracing overhead.

The process prints one JSON line with its measurements.
"""

import time

_T0 = time.perf_counter()  # before numpy and smcm are imported, for --setup

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, check_outputs, cli_seed  # noqa: E402


def _call(cli, argv) -> bool:
    """One CLI call; False when it fails. ``cli.main`` is looked up on every
    call so that the traced pass sees the patched attribute."""
    try:
        return cli.main(argv) == 0
    except Exception:  # a crash is a failed operation, and the run goes on
        traceback.print_exc(file=sys.stderr)
        return False


def setup(cli, workload, seed: int, scratch: Path) -> dict:
    # a fresh file per call: truncating a just-written file can wait for a disk flush
    outs = [scratch / f"setup-{os.getpid()}-{i}.csv" for i in range(len(workload.setup))]
    ok = [_call(cli, [*argv, "--seed", str(cli_seed(seed, 0)), "--out", str(out)])
          for argv, out in zip(workload.setup, outs)]
    return {"setup_s": time.perf_counter() - _T0, "attempted": len(ok), "failed": ok.count(False)}


def measure(cli, workload, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    from tracer import Tracer, per_layer_metrics

    walls, traced_walls, tracers = [], [], []
    attempted = failed = 0
    sink = io.StringIO()  # `smcm scan --out` prints its fit line
    start = time.perf_counter()
    passes = 0
    while passes < (2 if trace else 1) or time.perf_counter() - start < seconds:
        outdir = scratch / f"pass{passes}"
        outdir.mkdir()
        argvs = [
            [*call.argv, "--seed", str(cli_seed(seed, passes)), "--out", str(outdir / call.out)]
            for call in workload.calls
        ]
        tracer = Tracer() if trace and passes % 2 else None
        with tracer.installed() if tracer else contextlib.nullcontext(), \
                contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            ok = [_call(cli, argv) for argv in argvs]
            wall = time.perf_counter() - t0
        sink.seek(0)
        sink.truncate()
        if tracer:
            traced_walls.append(wall)
            tracers.append(tracer)
        else:
            walls.append(wall)

        checks = check_outputs(workload, outdir)
        for name, passed, detail in checks:
            if not passed:
                print(f"check failed: {workload.name} pass {passes} {name}: {detail}", file=sys.stderr)
        attempted += len(ok) + len(checks)
        failed += ok.count(False) + sum(not passed for _, passed, _ in checks)
        shutil.rmtree(outdir)
        passes += 1

    if trace:
        metrics = per_layer_metrics(tracers, traced_walls, walls)
    else:
        wall_s = statistics.median(walls)
        metrics = {
            "wall_s": wall_s,
            "steps_per_s": workload.steps / wall_s,
            "sample_steps_per_s": workload.samples / wall_s,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "passes": len(walls),
        "traced_passes": len(traced_walls),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--scratch", required=True, help="directory for the CSVs")
    args = parser.parse_args(argv)

    import smcm.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported smcm from {cli.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    scratch = Path(args.scratch)
    if args.setup:
        result = setup(cli, workload, args.seed, scratch)
    else:
        result = measure(cli, workload, args.seed, args.seconds, bool(args.trace), scratch)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
