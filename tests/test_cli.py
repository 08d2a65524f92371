import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcm import cli, experiments
from smcm.cli import EXIT_BROKEN_PIPE, EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_SHOTS, main
from smcm.core import EnvParams, TimescaleTable, transition_rates
from smcm.experiments import (
    MODES,
    ExperimentConfig,
    dump_timeseries,
    read_scan,
    read_timeseries,
    run_simulation,
)


def test_run_writes_timeseries(tmp_path):
    out = tmp_path / "det.csv"
    rc = main(["run", "--mode", "deterministic", "--t-end", "2", "--out", str(out)])
    assert rc == EXIT_OK
    series = read_timeseries(out)
    assert series.times[-1] == pytest.approx(2.0)
    assert np.abs(series.sigmas.sum(axis=1) - 1.0).max() < 1e-12


@pytest.mark.parametrize("mode", MODES)
def test_run_defaults_match_config_defaults(mode, tmp_path):
    out, expected = tmp_path / "cli.csv", io.StringIO()
    argv = ["run", "--mode", mode, "--t-end", "2", "--seed", "1", "--out", str(out)]
    assert main(argv) == EXIT_OK
    dump_timeseries(
        run_simulation(ExperimentConfig(mode=mode, t_end=2, spinup=0.4, seed=1)), expected
    )
    assert out.read_bytes() == expected.getvalue().encode()


def test_run_defaults_to_stdout(capsys):
    rc = main(["run", "--t-end", "1"])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "time_h,sigma_cs,sigma_c,sigma_d,sigma_s"
    assert len(lines) == 12  # header + 11 steps


def test_run_is_bit_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["run", "--mode", "montecarlo", "--sites", "50", "--t-end", "3", "--seed", "4"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# short monte carlo run\n"
        "mode = montecarlo\n"
        "sites = 25\n"
        "t-end = 2\n"
        "seed = 1\n"
    )
    from_file = tmp_path / "file.csv"
    overridden = tmp_path / "override.csv"
    assert main(["run", "--config", str(cfg), "--out", str(from_file)]) == EXIT_OK
    assert (
        main(["run", "--config", str(cfg), "--seed", "2", "--out", str(overridden)])
        == EXIT_OK
    )
    assert from_file.read_bytes() != overridden.read_bytes()  # seed override took


def test_unknown_config_key_is_config_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sites = 25\nturbo = yes\n")
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG


def test_missing_config_file_is_config_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == EXIT_CONFIG


def test_non_utf8_config_file_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("# r\xe9glage\nsites = 25\n".encode("latin-1"))
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config file") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, runs",
    [
        (["run", "--t-end", "1"], 1),
        (
            ["scan", "--mode", "montecarlo", "--t-end", "1", "--values", "10,60,360", "--repeats", "3"],
            0,  # the directory is checked before the sweep starts
        ),
    ],
    ids=["run", "scan"],
)
def test_out_in_missing_directory_is_config_error(argv, runs, tmp_path, capsys, monkeypatch):
    calls = []

    def counting_run(cfg):
        calls.append(cfg)
        return run_simulation(cfg)

    monkeypatch.setattr(cli, "run_simulation", counting_run)
    monkeypatch.setattr(experiments, "run_simulation", counting_run)
    assert main(argv + ["--out", str(tmp_path / "absent" / "out.csv")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert len(calls) == runs


def test_t_end_off_the_step_grid_is_config_error(capsys):
    assert main(["run", "--t-end", "1.05"]) == EXIT_CONFIG
    assert "whole number of dt steps" in capsys.readouterr().err


# The run asks for one array larger than a 48-bit address space (2^48 bytes,
# 256 TiB), so the allocation fails at once without touching memory.
@pytest.mark.parametrize(
    "argv",
    [["run", "--t-end", "1e15"]],  # 1e16 steps: 8e16-byte time grid
    ids=["steps"],
)
def test_run_too_large_to_allocate_is_config_error(argv, capsys):
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1


def test_huge_lattice_runs_on_the_simplex(capsys):
    # 1e14 sites: the Monte Carlo engine steps state counts, so a lattice far
    # beyond memory costs no more than a small one
    argv = ["run", "--mode", "montecarlo", "--sites", str(10**14), "--t-end", "1"]
    assert main(argv) == EXIT_OK
    rows = np.loadtxt(io.StringIO(capsys.readouterr().out), delimiter=",", skiprows=1)
    assert rows.shape == (11, 5)
    sigmas = rows[:, 1:]
    assert (sigmas >= 0).all() and np.abs(sigmas.sum(axis=1) - 1.0).max() < 1e-12
    assert np.array_equal(sigmas[0], [0.25] * 4)


@pytest.mark.parametrize("mode", ["deterministic", "montecarlo"])
def test_pipe_closed_early_exits_quietly(mode):
    # 10 001 rows overrun any pipe buffer, so the writer is still writing when
    # the reader closes the pipe after the header
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "smcm", "run", "--mode", mode, "--t-end", "1000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    header = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert header == b"time_h,sigma_cs,sigma_c,sigma_d,sigma_s\n"
    assert err == b""


@pytest.mark.parametrize(
    "argv, field",
    [
        (["run", "--mode", "quantum", "--shots", str(10**20), "--t-end", "0.1"], "n_shots"),
        (["run", "--mode", "montecarlo", "--sites", str(10**20), "--t-end", "0.1"], "n_sites"),
    ],
    ids=["shots", "sites"],
)
def test_count_beyond_int64_is_config_error(argv, field, capsys):
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must lie in") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["run", "--dt", "1e-300", "--t-end", "1e300"], ["run", "--dt", "1e-320", "--t-end", "1"]],
    ids=["huge-t-end", "subnormal-dt"],
)
def test_overflowing_step_count_is_config_error(argv, capsys):
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: t_end / dt overflows") and err.count("\n") == 1


def test_oversized_dt_is_numeric_error(capsys):
    rc = main(["run", "--dt", "10"])
    assert rc == EXIT_NUMERIC
    assert "numerical error" in capsys.readouterr().err


def _run_rows(argv) -> np.ndarray:
    """Rows of ``smcm`` run with ``argv``, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == EXIT_OK
    return np.loadtxt(io.StringIO(out.getvalue()), delimiter=",", skiprows=1, ndmin=2)


def _check_every_engine(argv):
    """Every engine runs ``argv`` and the exact decode equals deterministic."""
    det = _run_rows(argv)
    for mode in ("montecarlo", "quantum"):
        assert _run_rows(argv + ["--mode", mode]).shape == det.shape
    exact = _run_rows(argv + ["--mode", "quantum", "--shots", "0"])
    assert np.abs(exact - det).max() < 1e-10


def test_quantum_runs_a_step_of_large_norm():
    # dt 2 h gives a one-step matrix of spectral norm 1.13
    _check_every_engine(["run", "--dt", "2", "--t-end", "20", "--spinup", "2"])


@settings(max_examples=50, deadline=None)
@given(
    cape=st.floats(0, 20),
    dryness=st.floats(0, 20),
    dt_fraction=st.floats(0, 1, exclude_min=True),
)
def test_every_admissible_step_runs_in_every_engine(cape, dryness, dt_fraction):
    # dt anywhere in (0, dt_max], the largest step transition_matrix accepts;
    # at most 20 steps and 2 h
    rates = transition_rates(EnvParams(cape, dryness), TimescaleTable())
    leave_rate = float(rates.sum(axis=1).max())
    dt = dt_fraction / leave_rate
    while leave_rate * dt > 1.0:  # the division can round dt past dt_max
        dt = math.nextafter(dt, 0.0)
    n_steps = int(max(1, min(20, 2.0 // dt)))
    _check_every_engine([
        "run", "--cape", str(cape), "--dryness", str(dryness), "--dt", str(dt),
        "--t-end", str(n_steps * dt), "--spinup", "0",
    ])


def test_starved_quantum_run_is_shot_error(capsys):
    rc = main(
        ["run", "--mode", "quantum", "--shots", "1", "--t-end", "0.1", "--seed", "0"]
    )
    assert rc == EXIT_SHOTS
    err = capsys.readouterr().err
    assert "insufficient shots" in err
    assert "step 1 of 1" in err and "no shot of 1 landed" in err


def test_invalid_choice_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--mode", "nonsense"])
    assert exc.value.code == EXIT_CONFIG


def test_scan_and_report(tmp_path, capsys):
    scan_out = tmp_path / "scan.csv"
    rc = main(
        [
            "scan",
            "--mode",
            "montecarlo",
            "--t-end",
            "10",
            "--spinup",
            "2",
            "--values",
            "10,60,360",
            "--repeats",
            "3",
            "--seed",
            "11",
            "--out",
            str(scan_out),
        ]
    )
    assert rc == EXIT_OK
    result = read_scan(scan_out)
    assert result.x.tolist() == [10.0, 60.0, 360.0]
    capsys.readouterr()

    rc = main(["report", "--mc", str(scan_out), "--quantum", str(scan_out)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "montecarlo: exponent=" in out
    assert "quantum: exponent=" in out
    assert "prefactor ratio (quantum / montecarlo): 1.0000" in out


def test_scan_defaults_to_stdout(capsys):
    rc = main(
        [
            "scan",
            "--mode",
            "montecarlo",
            "--t-end",
            "5",
            "--spinup",
            "1",
            "--values",
            "10,60,360",
            "--repeats",
            "3",
        ]
    )
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,rms_mean,rms_std,repeats"
    assert len(lines) == 4


def test_report_without_inputs_is_config_error():
    assert main(["report"]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "rows",
    [
        ["10,0.1,0.01,3", "60,0.04,0.01,3", "360,nan,0.01,3"],
        ["10,0.1,0.01,3", "60,0.04,0.01,3", "360,inf,0.01,3"],
        ["10,0.1,0.01,3", "nan,0.04,0.01,3", "360,0.02,0.01,3"],
    ],
    ids=["nan-rms", "inf-rms", "nan-n"],
)
def test_report_on_non_finite_scan_is_config_error(rows, tmp_path, capfd):
    scan = tmp_path / "scan.csv"
    scan.write_text("\n".join(["n,rms_mean,rms_std,repeats", *rows]) + "\n")
    assert main(["report", "--mc", str(scan)]) == EXIT_CONFIG
    out, err = capfd.readouterr()  # file descriptors, so LAPACK's own prints count too
    assert out == ""
    assert err.startswith("error: cannot read scan file") and err.count("\n") == 1


def test_scan_with_deterministic_mode_is_config_error():
    assert main(["scan", "--mode", "deterministic", "--values", "10,100,1000"]) == EXIT_CONFIG
