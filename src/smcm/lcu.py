"""Uniform four-term unitary decomposition of a one-step transition matrix.

A real matrix ``A`` splits into its symmetric part ``B`` and
antisymmetric part ``K`` (``A = B + K``). When both parts are
contractions, each generates a conjugate pair of unitaries,

    U1 = B + i*sqrt(I - B^2),   U2 = B - i*sqrt(I - B^2),
    U3 = K - sqrt(I + K^2),     U4 = K + sqrt(I + K^2),

and the average of the four recovers the matrix:
``(U1 + U2 + U3 + U4) / 2 = B + K = A``. A circuit that applies the four
unitaries in uniform ancilla superposition therefore applies ``A`` on the
ancilla-00 branch.

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

from .linalg import NotPsdError, spectral_norm, sqrt_psd

__all__ = [
    "LcuDecomposition",
    "SubnormalizationError",
    "build_unitaries",
    "decompose",
    "hermitian_split",
]

#: Relative headroom applied when rescaling so the PSD square-root
#: operands stay clear of the round-off clamp.
_SCALE_MARGIN = 1e-12


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


def hermitian_split(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a real matrix into symmetric and antisymmetric parts.

    Returns ``(sym, skew)`` with ``matrix = sym + skew`` exactly. Both
    halves are contractions of the input (their spectral norms never
    exceed the input's), so sub-normalising the input covers them too.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix entries must be finite")
    sym = 0.5 * (matrix + matrix.T)
    skew = matrix - sym
    return sym, skew


def build_unitaries(
    sym: np.ndarray, skew: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four unitaries generated by contraction parts ``sym`` and ``skew``.

    ``sym`` must be symmetric and ``skew`` antisymmetric, each with
    spectral norm at most one (up to round-off); otherwise the square
    roots do not exist and a :class:`SubnormalizationError` is raised.
    The first pair is complex-conjugate, the second pair real orthogonal;
    each pair averages back to its generating part (``sym`` and ``skew``
    respectively) and all four commute with their generator.
    """
    eye = np.eye(sym.shape[0])
    try:
        root_sym = sqrt_psd(eye - sym @ sym)
        root_skew = sqrt_psd(eye + skew @ skew)  # skew^2 is NSD, so this is I - |skew|^2
    except NotPsdError as exc:
        raise SubnormalizationError(
            f"matrix not sub-normalized: spectral norm exceeds 1 ({exc})"
        ) from exc
    u1 = sym + 1j * root_sym
    u2 = sym - 1j * root_sym
    u3 = skew - root_skew
    u4 = skew + root_skew
    return u1, u2, u3.astype(complex), u4.astype(complex)


def decompose(matrix: np.ndarray) -> LcuDecomposition:
    """Decompose a one-step matrix into four unitaries plus a recorded scale.

    The spectral norm is measured; a norm above one is renormalised into
    the recorded ``scale``, and genuinely contractive input is encoded
    as-is with ``scale = 1``. The caller validates the matrix itself (a
    run checks it once with ``core.validate_stochastic``).
    """
    matrix = np.asarray(matrix, dtype=float)
    norm = spectral_norm(matrix)
    scale = norm * (1.0 + _SCALE_MARGIN) if norm > 1.0 else 1.0
    unitaries = build_unitaries(*hermitian_split(matrix / scale))
    return LcuDecomposition(norm=norm, scale=scale, unitaries=unitaries)
