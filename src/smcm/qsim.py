"""Exact statevector simulation of the cloud-fraction step circuit.

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
the result is ``encoded_matrix @ sigma_hat / 2``; sampling, postselecting
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
:func:`decode_fractions`. The gate-level path (:class:`GateOp`,
:func:`apply_gate`, :func:`run_statevector`, :func:`build_step_circuit`)
is no part of a run; it is the independent oracle that ``W`` is tested
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import validate_simplex
from .lcu import LcuDecomposition
from .linalg import unitary_completion

__all__ = [
    "ANCILLA_QUBITS",
    "DATA_QUBITS",
    "GateOp",
    "HADAMARD",
    "InsufficientShotsError",
    "N_QUBITS",
    "apply_gate",
    "born_probabilities",
    "build_step_circuit",
    "decode_fractions",
    "quantum_step",
    "quantum_step_exact",
    "run_statevector",
    "sample_shots",
    "step_operator",
    "zero_state",
]

N_QUBITS = 4
DIM = 1 << N_QUBITS
ANCILLA_QUBITS = (0, 1)
DATA_QUBITS = (2, 3)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

_NORM_TOL = 1e-10
_UNITARY_TOL = 1e-9


class InsufficientShotsError(RuntimeError):
    """No shot landed in the postselected ancilla block; nothing to decode."""


@dataclass(frozen=True, eq=False)
class GateOp:
    """A unitary on ``targets``, optionally conditioned on ancilla bits.

    ``matrix`` acts on the target qubits with ``targets[0]`` as the most
    significant bit of the matrix index. ``controls`` is a tuple of
    ``(qubit, bit)`` pairs; the gate acts only on basis states whose
    control qubits carry exactly those bit values, which is how the
    circuit diagram's filled/open control dots are expressed here.
    """

    matrix: np.ndarray
    targets: tuple[int, ...]
    controls: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=complex)
        targets = tuple(int(t) for t in self.targets)
        controls = tuple((int(q), int(b)) for q, b in self.controls)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "controls", controls)

        k = len(targets)
        if matrix.shape != (1 << k, 1 << k):
            raise ValueError(f"matrix shape {matrix.shape} does not fit {k} target qubit(s)")
        if len(set(targets)) != k:
            raise ValueError(f"target qubits must be distinct, got {targets}")
        ctrl_qubits = [q for q, _ in controls]
        if len(set(ctrl_qubits)) != len(ctrl_qubits):
            raise ValueError(f"control qubits must be distinct, got {controls}")
        if set(ctrl_qubits) & set(targets):
            raise ValueError("control qubits must be disjoint from targets")
        if any(b not in (0, 1) for _, b in controls):
            raise ValueError(f"control bits must be 0 or 1, got {controls}")
        residual = np.abs(matrix @ matrix.conj().T - np.eye(1 << k)).max()
        if residual > _UNITARY_TOL:
            raise ValueError(f"gate matrix is not unitary (residual {residual:.3e})")


def zero_state() -> np.ndarray:
    state = np.zeros(DIM, dtype=complex)
    state[0] = 1.0
    return state


def apply_gate(state: np.ndarray, gate: GateOp) -> np.ndarray:
    """Apply one gate and return the new statevector.

    The state is reshaped to one axis per qubit; control qubits are
    sliced down to the matching bit values and the gate matrix is
    contracted against the target axes of that block. Norm preservation
    is checked to guard against indexing mistakes.
    """
    state = np.asarray(state, dtype=complex)
    n = state.size.bit_length() - 1
    if 1 << n != state.size:
        raise ValueError(f"state length {state.size} is not a power of two")
    for q in (*gate.targets, *(q for q, _ in gate.controls)):
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for {n}-qubit state")

    psi = state.copy().reshape([2] * n)
    index: list = [slice(None)] * n
    for q, bit in gate.controls:
        index[q] = bit
    block = psi[tuple(index)]

    ctrl_set = {q for q, _ in gate.controls}
    remaining = [q for q in range(n) if q not in ctrl_set]
    axes = [remaining.index(t) for t in gate.targets]
    k = len(gate.targets)
    gate_tensor = gate.matrix.reshape([2] * (2 * k))
    moved = np.tensordot(gate_tensor, block, axes=(list(range(k, 2 * k)), axes))
    psi[tuple(index)] = np.moveaxis(moved, range(k), axes)

    out = psi.reshape(-1)
    in_norm = np.linalg.norm(state)
    drift = abs(np.linalg.norm(out) - in_norm)
    if drift > _NORM_TOL * max(1.0, in_norm):
        raise RuntimeError(f"gate application changed the state norm by {drift:.3e}")
    return out


def run_statevector(gates) -> np.ndarray:
    """Evolve ``|0000>`` through the gate sequence."""
    state = zero_state()
    for gate in gates:
        state = apply_gate(state, gate)
    return state


def build_step_circuit(sigma: np.ndarray, decomposition: LcuDecomposition) -> list[GateOp]:
    """Gate sequence for one fraction-update step.

    Order: Hadamard on each ancilla and the data-register initialiser
    (whose first column is the unit-normalised fraction vector), the four
    controlled unitaries selected by ancilla values 00, 01, 10, 11, then
    the closing ancilla Hadamards. Always nine gates.
    """
    sigma = validate_simplex(sigma)
    sigma_hat = sigma / np.linalg.norm(sigma)
    initialiser = unitary_completion(sigma_hat)

    a0, a1 = ANCILLA_QUBITS
    gates = [
        GateOp(HADAMARD, (a0,)),
        GateOp(HADAMARD, (a1,)),
        GateOp(initialiser, DATA_QUBITS),
    ]
    for value, unitary in enumerate(decomposition.unitaries):
        controls = ((a0, (value >> 1) & 1), (a1, value & 1))
        gates.append(GateOp(unitary, DATA_QUBITS, controls))
    gates.append(GateOp(HADAMARD, (a0,)))
    gates.append(GateOp(HADAMARD, (a1,)))
    return gates


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
