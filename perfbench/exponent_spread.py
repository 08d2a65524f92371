"""Seed-to-seed spread of the refit exponent of each scan workload.

    python3 perfbench/exponent_spread.py [--seeds 20]

Runs each scan workload's ``smcm scan`` call with ``--seed 1000`` upwards
and prints the mean and sample standard deviation of the exponent that
``read_scan`` refits. ``workloads.py`` derives its exponent bands from
these two numbers.
"""

import argparse
import contextlib
import io
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import smcm.cli as cli  # noqa: E402
from smcm.experiments import read_scan  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS.values():
            if workload.exponent_band is None:
                continue
            (call,) = workload.calls
            out = str(Path(tmp) / call.out)
            exponents = []
            for seed in range(1000, 1000 + args.seeds):
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main([*call.argv, "--seed", str(seed), "--out", out]) != 0:
                        raise SystemExit(f"{workload.name}: scan failed at seed {seed}")
                exponents.append(read_scan(out).exponent)
            print(f"{workload.name}: mean {statistics.fmean(exponents):.4f} "
                  f"sd {statistics.stdev(exponents):.4f} over {len(exponents)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
