"""Uniform four-term unitary decomposition of a one-step transition matrix.

A real matrix ``A`` splits into its symmetric part ``B`` and
antisymmetric part ``K`` (``A = B + K``). A Hermitian contraction ``h``
with eigendecomposition ``h = V diag(x) V^dagger`` generates the
conjugate pair of unitaries

    V diag(x + i*sqrt(1 - x^2)) V^dagger,   V diag(x - i*sqrt(1 - x^2)) V^dagger,

that is ``h +- i*sqrt(I - h^2)``, which average back to ``h``. ``B`` is
such an ``h`` and gives ``U1, U2 = B +- i*sqrt(I - B^2)``. ``i*K`` is
Hermitian with ``(i*K)^2 = -K^2``, so ``-i`` times its pair gives
``U4, U3 = K +- sqrt(I + K^2)``. The average of the four recovers the
matrix: ``(U1 + U2 + U3 + U4) / 2 = B + K = A``. A circuit that applies
the four unitaries in uniform ancilla superposition therefore applies
``A`` on the ancilla-00 branch.

A part is a contraction when every eigenvalue has ``1 - x^2 >= 0``.
Values down to ``-1e-10`` are round-off and clamped to zero; below that
the part is not sub-normalised and :class:`SubnormalizationError` is
raised rather than a root fabricated.

Column-stochastic matrices always carry a singular value of at least one
(they have eigenvalue one), and asymmetric ones exceed it, so the exact
matrix generally cannot be encoded directly. The decomposition instead
encodes ``A / scale`` with ``scale = max(1, ||A||)`` recorded on the
result. Downstream readout renormalises the decoded fractions, which
makes the simulated dynamics independent of the scale; only the
postselection probability shrinks, by ``scale**-2``. A 4x4
column-stochastic matrix has ``||A|| <= sqrt(||A||_1 ||A||_inf) <= 2``,
so every one-step matrix is encodable; a large norm costs only
postselection rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LcuDecomposition",
    "SubnormalizationError",
    "build_unitaries",
    "decompose",
    "hermitian_split",
]

#: Relative headroom applied when rescaling so the eigenvalues of the
#: parts stay clear of the round-off clamp.
_SCALE_MARGIN = 1e-12
#: Tolerance on (anti)symmetry, relative to the largest entry.
_SYMMETRY_TOL = 1e-12
#: Round-off clamp on ``1 - x^2`` for an eigenvalue ``x`` of a part.
_CLAMP = 1e-10


class SubnormalizationError(ValueError):
    """Spectral norm too large for the unitary construction."""


@dataclass(frozen=True, eq=False)
class LcuDecomposition:
    """Four unitaries averaging to ``matrix / scale``, with the measured
    spectral ``norm`` of ``matrix`` and the recorded ``scale``.

    ``unitaries`` are ordered to match ancilla values 00, 01, 10, 11 of
    the step circuit.
    """

    norm: float
    scale: float
    unitaries: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _finite_square(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix entries must be finite")
    return matrix


def hermitian_split(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a real matrix into symmetric and antisymmetric parts.

    Returns ``(sym, skew)`` with ``matrix = sym + skew`` exactly. Both
    halves are contractions of the input (their spectral norms never
    exceed the input's), so sub-normalising the input covers them too.
    """
    matrix = _finite_square(matrix)
    sym = 0.5 * (matrix + matrix.T)
    skew = matrix - sym
    return sym, skew


def _conjugate_pair(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``h + i*sqrt(I - h^2)`` and ``h - i*sqrt(I - h^2)`` for a Hermitian
    contraction ``h``, from one eigendecomposition."""
    x, v = np.linalg.eigh(h)
    gap = 1.0 - x * x
    if gap.min() < -_CLAMP:
        raise SubnormalizationError(
            f"matrix not sub-normalized: spectral norm {np.abs(x).max():.6g} exceeds 1"
        )
    root = 1j * np.sqrt(np.maximum(gap, 0.0))
    vh = v.conj().T
    return (v * (x + root)) @ vh, (v * (x - root)) @ vh


def build_unitaries(
    sym: np.ndarray, skew: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four unitaries generated by contraction parts ``sym`` and ``skew``.

    ``sym`` must be symmetric and ``skew`` antisymmetric, to a relative
    1e-12, or a ``ValueError`` is raised. Each must have spectral norm at
    most one (up to round-off); otherwise the square roots do not exist
    and a :class:`SubnormalizationError` is raised. The first pair is
    complex-conjugate, the second pair real orthogonal up to round-off;
    each pair averages back to its generating part (``sym`` and ``skew``
    respectively) and all four commute with their generator.
    """
    sym, skew = _finite_square(sym), _finite_square(skew)
    if sym.shape != skew.shape:
        raise ValueError(f"part shapes differ: {sym.shape} and {skew.shape}")
    for part, sign, name in ((sym, 1.0, "symmetric"), (skew, -1.0, "antisymmetric")):
        if np.abs(part - sign * part.T).max() > _SYMMETRY_TOL * max(1.0, np.abs(part).max()):
            raise ValueError(f"part is not {name} within tolerance")
    u1, u2 = _conjugate_pair(sym)
    plus, minus = _conjugate_pair(1j * skew)  # sqrt(I + skew^2) = sqrt(I - (i*skew)^2)
    return u1, u2, -1j * minus, -1j * plus


def decompose(matrix: np.ndarray) -> LcuDecomposition:
    """Decompose a one-step matrix into four unitaries plus a recorded scale.

    The spectral norm is measured; a norm above one is renormalised into
    the recorded ``scale``, and genuinely contractive input is encoded
    as-is with ``scale = 1``. A non-square or non-finite matrix raises
    ``ValueError``; the caller validates the rest (a run checks the matrix
    once with ``core.validate_stochastic``).
    """
    matrix = _finite_square(matrix)
    norm = float(np.linalg.norm(matrix, 2))
    scale = norm * (1.0 + _SCALE_MARGIN) if norm > 1.0 else 1.0
    unitaries = build_unitaries(*hermitian_split(matrix / scale))
    return LcuDecomposition(norm=norm, scale=scale, unitaries=unitaries)
