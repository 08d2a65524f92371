"""Dense linear algebra for the small matrices used here.

The PSD square root and the spectral norm are thin wrappers around
LAPACK (``numpy.linalg``) that add the input checks and the round-off
policy the unitary construction relies on.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NotPsdError",
    "spectral_norm",
    "sqrt_psd",
]

_TOL = 1e-12  # on symmetry, relative to the largest entry
_PSD_CLAMP = 1e-10


class NotPsdError(ValueError):
    """An eigenvalue fell below the round-off clamp for a PSD operand."""


def _check_symmetric(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    n, m = matrix.shape
    if n != m:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix entries must be finite")
    scale = max(1.0, np.abs(matrix).max())
    if np.abs(matrix - matrix.T).max() > _TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return matrix


def sqrt_psd(matrix: np.ndarray) -> np.ndarray:
    """Principal square root of a symmetric PSD matrix.

    Eigenvalues in ``[-1e-10, 0)`` are treated as round-off and clamped
    to zero; anything below ``-1e-10`` aborts, since fabricating a root
    there would silently hide a non-contractive operand upstream.
    """
    w, v = np.linalg.eigh(_check_symmetric(matrix))
    if w.min() < -_PSD_CLAMP:
        raise NotPsdError(f"matrix is not PSD within tolerance: min eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.T
    return 0.5 * (root + root.T)  # kill symmetry drift from round-off


def spectral_norm(matrix: np.ndarray) -> float:
    """Largest singular value of a real or complex matrix."""
    matrix = np.asarray(matrix)
    if not np.all(np.isfinite(matrix.real)) or not np.all(np.isfinite(matrix.imag)):
        raise ValueError("matrix entries must be finite")
    return float(np.linalg.norm(matrix, 2))

