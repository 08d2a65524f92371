"""The cloud-fraction step circuit, compiled to one isometry, and its readout.

The circuit uses four qubits: two ancillas ``a0, a1`` that index which of
the four decomposition unitaries acts, and two data qubits ``q0, q1``
that carry the fraction amplitudes. Basis states are written
``|a0 a1 q0 q1>`` and stored at index ``8*a0 + 4*a1 + 2*q0 + q1``
(``a0`` most significant); equivalently, qubit ``i`` carries bit weight
``2**(3-i)``. On the data register, ``|00>, |01>, |10>, |11>`` encode
clear sky, congestus, deep, and stratiform in that order, so statevector
indices 0-3 hold the postselected fraction amplitudes.

One step runs: Hadamards on both ancillas and an initialiser placing the
unit-normalised fraction vector in the data register; the four
ancilla-controlled unitaries; Hadamards again. The ancilla-00 block of
the result is ``(matrix / scale) @ sigma_hat / 2``; sampling, postselecting
on ancilla 00, square-rooting the counts, and renormalising to unit sum
recovers the advanced fractions. The square-root/renormalise readout
makes the decoded step independent of both the input's L2 norm and the
decomposition's recorded scale.

Only the initialiser depends on the fractions, so a run compiles the rest
of the circuit once: :func:`step_operator` returns the 16x4 isometry ``W``
with final state ``W @ sigma_hat``, in closed form from the four
unitaries and the ancilla Hadamards. Each step is one matrix-vector
product and one multinomial draw of the shot counts, whatever the shot
count; the counts are a plain int64 array, checked once, by
:func:`decode_fractions`. The gate-level circuit that ``W`` is tested
against lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .core import validate_simplex
from .lcu import LcuDecomposition

__all__ = [
    "ANCILLA_QUBITS",
    "DATA_QUBITS",
    "HADAMARD",
    "InsufficientShotsError",
    "N_QUBITS",
    "born_probabilities",
    "decode_fractions",
    "quantum_step",
    "quantum_step_exact",
    "sample_shots",
    "step_operator",
]

N_QUBITS = 4
DIM = 1 << N_QUBITS
ANCILLA_QUBITS = (0, 1)
DATA_QUBITS = (2, 3)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

_NORM_TOL = 1e-10


class InsufficientShotsError(RuntimeError):
    """No shot landed in the postselected ancilla block; nothing to decode."""


def step_operator(decomposition: LcuDecomposition) -> np.ndarray:
    """Compile the step circuit into the isometry ``W`` (16x4, complex).

    The initialiser only maps data ``|00>`` to ``|sigma_hat>`` and commutes
    with the ancilla Hadamards, so the circuit's final state is
    ``W @ sigma_hat``, where column ``k`` of ``W`` is the other eight gates
    run on ``|00>|k>``. The opening Hadamards give every ancilla value
    ``a`` amplitude 1/2, the controlled gates turn branch ``a`` into
    ``U_a|k>``, and the closing Hadamards mix the branches, so ancilla
    block ``b`` of ``W`` is ``0.5 * sum_a (H x H)[b, a] * U_a``.
    """
    branches = np.stack(decomposition.unitaries).reshape(4, DIM)
    return 0.5 * (np.kron(HADAMARD, HADAMARD) @ branches).reshape(DIM, 4)


def born_probabilities(state: np.ndarray) -> np.ndarray:
    """Measurement probabilities ``|amplitude|**2`` for each basis state."""
    state = np.asarray(state, dtype=complex)
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > _NORM_TOL:
        raise ValueError(f"state is not normalised (norm {norm!r})")
    return np.abs(state) ** 2


def sample_shots(state: np.ndarray, n_shots: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n_shots`` independent measurements as one multinomial count
    vector: int64, one entry per basis state, non-negative and summing to
    ``n_shots`` by construction. Identical generator state yields identical
    counts."""
    if n_shots < 1:
        raise ValueError(f"n_shots must be at least 1, got {n_shots}")
    probs = born_probabilities(state)
    # born_probabilities allows a norm error of 1e-10, numpy's multinomial
    # rejects probabilities summing above 1 + 1e-12
    return rng.multinomial(n_shots, probs / probs.sum())


def decode_fractions(weights: np.ndarray) -> tuple[np.ndarray, float]:
    """Recover fractions from measurement statistics.

    ``weights`` is a length-16 array of non-negative weights: the shot
    counts of :func:`sample_shots`, or the exact Born probabilities for the
    infinite-shot limit. Only the ancilla-00 block (indices 0-3) is used:
    its square roots, renormalised to unit sum, are the decoded fractions.
    Also returns the postselection rate, the weight fraction that landed in
    that block. These checks are the only guard on sampled counts.
    """
    weights = np.asarray(weights)
    total = weights.sum()
    if weights.shape != (DIM,):
        raise ValueError(f"expected {DIM} weights, got shape {weights.shape}")
    if (weights < 0).any() or not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite and non-negative")
    if total <= 0:
        raise ValueError("total weight must be positive")

    block = weights[:4]
    block_sum = block.sum()
    if block_sum <= 0.0:
        # integer counts keep an integer total, so the shot count prints exactly
        raise InsufficientShotsError(
            f"no shot of {total} landed in the ancilla-00 block; increase the shot count"
        )
    amplitudes = np.sqrt(block)
    return amplitudes / amplitudes.sum(), block_sum / total


def _step_state(sigma: np.ndarray, operator: np.ndarray) -> np.ndarray:
    sigma = validate_simplex(sigma)
    return operator @ (sigma / np.linalg.norm(sigma))


def quantum_step(
    sigma: np.ndarray,
    operator: np.ndarray,
    n_shots: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One sampled fraction update through the compiled step
    (:func:`step_operator`): evolve, measure, decode."""
    counts = sample_shots(_step_state(sigma, operator), n_shots, rng)
    fractions, _ = decode_fractions(counts)
    return fractions


def quantum_step_exact(sigma: np.ndarray, operator: np.ndarray) -> np.ndarray:
    """Infinite-shot limit of :func:`quantum_step`: decode the exact Born
    probabilities instead of sampled counts."""
    fractions, _ = decode_fractions(born_probabilities(_step_state(sigma, operator)))
    return fractions
