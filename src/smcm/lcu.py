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
postselection probability shrinks, by ``scale**-2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import NotPsdError, spectral_norm, sqrt_psd

__all__ = [
    "LcuDecomposition",
    "MAX_ENCODABLE_NORM",
    "SubnormalizationError",
    "build_unitaries",
    "decompose",
    "hermitian_split",
]

#: Hard ceiling on the spectral norm accepted for encoding. One-step
#: matrices sit barely above 1 (excess vanishing with dt); anything far
#: beyond that signals a wrong input rather than round-off or a too-large
#: step, so it is rejected instead of rescaled away.
MAX_ENCODABLE_NORM = 1.1

#: Relative headroom applied when rescaling so the PSD square-root
#: operands stay clear of the round-off clamp.
_SCALE_MARGIN = 1e-12


class SubnormalizationError(ValueError):
    """Spectral norm too large for the unitary construction."""


@dataclass(frozen=True, eq=False)
class LcuDecomposition:
    """Four unitaries averaging to ``source / scale``, plus the split parts.

    ``unitaries`` are ordered to match ancilla values 00, 01, 10, 11 of
    the step circuit. ``sym_part``/``skew_part`` are the symmetric and
    antisymmetric halves of the encoded (rescaled) matrix; the Hermitian
    pair behind the construction is ``(sym_part, -1j * skew_part)``.
    """

    source: np.ndarray
    norm: float
    scale: float
    sym_part: np.ndarray
    skew_part: np.ndarray
    unitaries: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    @property
    def encoded(self) -> np.ndarray:
        """The matrix the unitaries actually average to: ``source / scale``."""
        return self.source / self.scale

    def reconstruct(self) -> np.ndarray:
        """Rebuild the source matrix from the unitaries and the scale."""
        return self.scale * 0.5 * sum(self.unitaries)


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

    The spectral norm is measured; values above :data:`MAX_ENCODABLE_NORM`
    are rejected with advice to shrink the time step, values in ``(1,
    MAX_ENCODABLE_NORM]`` are renormalised into the recorded ``scale``, and
    genuinely contractive input is encoded as-is with ``scale = 1``.
    """
    matrix = np.asarray(matrix, dtype=float)
    norm = spectral_norm(matrix)
    if norm > MAX_ENCODABLE_NORM:
        raise SubnormalizationError(
            f"spectral norm {norm:.6f} exceeds the encodable ceiling {MAX_ENCODABLE_NORM}; "
            "reduce the step size"
        )
    scale = norm * (1.0 + _SCALE_MARGIN) if norm > 1.0 else 1.0
    sym, skew = hermitian_split(matrix / scale)
    unitaries = build_unitaries(sym, skew)
    return LcuDecomposition(
        source=matrix,
        norm=norm,
        scale=scale,
        sym_part=sym,
        skew_part=skew,
        unitaries=unitaries,
    )
