"""Golden outputs: the CSVs of the README command lines, pinned.

Each case runs ``smcm`` in-process over a short ``t_end`` and compares its
standard output with a committed fixture under ``tests/golden/``:

* Monte Carlo and sampled-quantum time series are exact functions of
  integer counts, so their rows must match byte for byte.
* Deterministic and exact-decode rows are floating-point matrix products
  that may move in the last printed digit across BLAS builds; they, and the
  scan rows (whose RMS subtracts the deterministic reference), are compared
  at a relative tolerance of ``RTOL = 1e-13`` with the header, row count
  and integer columns exact. Any change to a random stream moves an RMS by
  far more than that.

Rule: a fixture may be regenerated only together with a random-stream
announcement in CHANGES.md. To regenerate, run
``PYTHONPATH=src python tests/test_golden.py``.

The fixtures were generated with numpy 2.4.6. NumPy does not promise that
``Generator`` streams stay the same across versions (NEP 19), so a
mismatch of the sampled cases under another numpy is a finding about
reproducibility, not a reason to loosen this comparison.
"""

import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

from smcm.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-13
T_END = ["--t-end", "5"]

# fixture name -> (argv without --t-end, compared byte for byte)
CASES = {
    "run_deterministic": (["run", "--mode", "deterministic"], False),
    "run_montecarlo": (["run", "--mode", "montecarlo", "--sites", "400", "--seed", "1"], True),
    "run_quantum": (["run", "--mode", "quantum", "--shots", "40000", "--seed", "1"], True),
    "run_exact": (["run", "--mode", "quantum", "--shots", "0"], False),
    "run_montecarlo_max_sites": (
        ["run", "--mode", "montecarlo", "--sites", str(2**63 - 1), "--seed", "1"],
        True,
    ),
    "scan_montecarlo": (
        ["scan", "--mode", "montecarlo", "--values", "100,400,1600,6400", "--repeats", "5",
         "--seed", "2024"],
        False,
    ),
    "scan_quantum": (
        ["scan", "--mode", "quantum", "--values", "10000,100000,1000000", "--repeats", "5",
         "--seed", "2024"],
        False,
    ),
}


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv + T_END) == EXIT_OK
    return out.getvalue()


@pytest.mark.parametrize("name", CASES)
def test_output_matches_fixture(name):
    argv, exact = CASES[name]
    actual = _run(argv)
    expected = (GOLDEN / f"{name}.csv").read_bytes().decode()
    if exact:
        assert actual == expected
        return
    actual_lines, expected_lines = actual.splitlines(), expected.splitlines()
    assert actual_lines[0] == expected_lines[0]
    assert len(actual_lines) == len(expected_lines)
    got = np.loadtxt(actual_lines[1:], delimiter=",", ndmin=2)
    want = np.loadtxt(expected_lines[1:], delimiter=",", ndmin=2)
    if name.startswith("scan"):  # columns n, rms_mean, rms_std, repeats
        assert np.array_equal(got[:, [0, 3]], want[:, [0, 3]])
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, _) in CASES.items():
        (GOLDEN / f"{name}.csv").write_bytes(_run(argv).encode())
