"""Command-line interface.

Subcommands: ``run`` integrates one configuration and writes the time
series CSV; ``scan`` sweeps lattice sizes or shot counts and writes the
fluctuation-scaling CSV; ``report`` refits scan CSVs and prints the
exponents and the quantum/Monte-Carlo prefactor ratio. Flags may also be
given in a ``key = value`` config file; explicit flags win.

Exit codes: 0 success, 2 configuration error (a run too large to
allocate, an unreadable config file and an unwritable ``--out`` path
included), 3 numerical error, 4 insufficient shots, 141 standard
output closed early (as a process ended by SIGPIPE reports it, 128 + 13).
"""

from __future__ import annotations

import argparse
import os
import sys

from .core import DegenerateRatesError, StepSizeError
from .experiments import (
    MODES,
    ConfigError,
    ExperimentConfig,
    dump_scan,
    dump_timeseries,
    read_scan,
    run_simulation,
    scaling_scan,
    shot_gap,
)
from .lcu import SubnormalizationError
from .linalg import NotPsdError
from .qsim import InsufficientShotsError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_SHOTS = 4
EXIT_BROKEN_PIPE = 141

DEFAULT_SCAN_VALUES = "100,400,1600,6400"
DEFAULT_REPEATS = 5

_CONFIG_KEYS = {
    "mode": str,
    "cape": float,
    "dryness": float,
    "dt": float,
    "t_end": float,
    "sites": int,
    "shots": int,
    "seed": int,
    "spinup": float,
}
_RUN_KEYS = {**_CONFIG_KEYS, "out": str}
_SCAN_KEYS = {**_RUN_KEYS, "values": str, "repeats": int}
# option name -> ExperimentConfig field, where the two differ
_FIELD_NAMES = {"sites": "n_sites", "shots": "n_shots"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smcm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = ExperimentConfig

    def add_common(p):
        p.add_argument("--config", help="key = value file; explicit flags override it")
        p.add_argument("--mode", choices=MODES, help=f"engine (default {defaults.mode})")
        p.add_argument("--cape", type=float, help=f"CAPE driver (default {defaults.cape:g})")
        p.add_argument(
            "--dryness", type=float, help=f"dryness driver (default {defaults.dryness:g})"
        )
        p.add_argument("--dt", type=float, help=f"step size in hours (default {defaults.dt:g})")
        p.add_argument(
            "--t-end", type=float, help=f"integration length in hours (default {defaults.t_end:g})"
        )
        p.add_argument(
            "--sites", type=int, help=f"lattice sites for montecarlo (default {defaults.n_sites})"
        )
        p.add_argument(
            "--shots",
            type=int,
            help=f"shots per step for quantum; 0 = exact decode (default {defaults.n_shots})",
        )
        p.add_argument("--seed", type=int, help=f"run seed (default {defaults.seed})")
        p.add_argument(
            "--spinup",
            type=float,
            help=f"hours to drop before statistics (default min({defaults.spinup:g}, 0.2*t-end))",
        )
        p.add_argument("--out", help="output CSV path (default: stdout)")

    run = sub.add_parser("run", help="integrate one configuration, write the time series")
    add_common(run)

    scan = sub.add_parser("scan", help="sweep sites/shots, write fluctuation RMS per value")
    add_common(scan)
    scan.add_argument(
        "--values", help=f"comma-separated sweep values (default {DEFAULT_SCAN_VALUES})"
    )
    scan.add_argument(
        "--repeats", type=int, help=f"seeds per sweep value (default {DEFAULT_REPEATS})"
    )

    report = sub.add_parser("report", help="refit scan CSVs and print exponents and ratio")
    report.add_argument("--mc", help="scan CSV from a montecarlo sweep")
    report.add_argument("--quantum", help="scan CSV from a quantum sweep")
    return parser


def _read_config_file(path: str, allowed: dict) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
                key = key.strip().replace("-", "_")
                if key not in allowed:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    values[key] = allowed[key](value.strip())
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _merge_options(args: argparse.Namespace, allowed: dict) -> dict:
    merged = {}
    if getattr(args, "config", None):
        merged.update(_read_config_file(args.config, allowed))
    for key in allowed:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _build_config(options: dict) -> ExperimentConfig:
    fields = {_FIELD_NAMES.get(k, k): v for k, v in options.items() if k in _CONFIG_KEYS}
    if "spinup" not in fields:
        # keep the default spin-up usable for short runs
        t_end = fields.get("t_end", ExperimentConfig.t_end)
        fields["spinup"] = min(ExperimentConfig.spinup, 0.2 * t_end)
    return ExperimentConfig(**fields)


def _emit(dump, result, out: str | None) -> None:
    """Write ``result`` through ``dump`` to the ``out`` path, or to stdout."""
    if out is None:
        dump(result, sys.stdout)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            dump(result, fh)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc


def _parse_values(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad sweep values {text!r}: {exc}") from exc


def _cmd_run(args) -> int:
    options = _merge_options(args, _RUN_KEYS)
    series = run_simulation(_build_config(options))
    _emit(dump_timeseries, series, options.get("out"))
    return EXIT_OK


def _cmd_scan(args) -> int:
    options = _merge_options(args, _SCAN_KEYS)
    cfg = _build_config(options)
    values = _parse_values(options.get("values", DEFAULT_SCAN_VALUES))
    result = scaling_scan(cfg, values, options.get("repeats", DEFAULT_REPEATS))
    out = options.get("out")
    _emit(dump_scan, result, out)
    if out is not None:
        print(f"{cfg.mode}: exponent={result.exponent:.4f} prefactor={result.prefactor:.6g}")
    return EXIT_OK


def _cmd_report(args) -> int:
    if not args.mc and not args.quantum:
        raise ConfigError("report needs --mc and/or --quantum scan files")
    results = {}
    for label, path in (("montecarlo", args.mc), ("quantum", args.quantum)):
        if path:
            try:
                results[label] = read_scan(path)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot read scan file {path}: {exc}") from exc
            result = results[label]
            print(f"{label}: exponent={result.exponent:.4f} prefactor={result.prefactor:.6g}")
    if len(results) == 2:
        ratio = shot_gap(results["montecarlo"], results["quantum"])
        print(f"prefactor ratio (quantum / montecarlo): {ratio:.4f}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "scan": _cmd_scan, "report": _cmd_report}
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early (`smcm run | head`); point stdout at devnull
        # so the interpreter's shutdown flush does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: out of memory, reduce t_end: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SubnormalizationError, NotPsdError, StepSizeError, DegenerateRatesError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except InsufficientShotsError as exc:
        print(f"insufficient shots: {exc}", file=sys.stderr)
        return EXIT_SHOTS
