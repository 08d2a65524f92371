"""Reference implementations the run path is tested against.

No run uses these. Each is an independent, slower route to a result the
package computes another way, kept so tests can compare the two:

* the gate-level circuit (:class:`GateOp`, :func:`apply_gate`,
  :func:`run_statevector`, :func:`build_step_circuit`, with the
  Householder :func:`unitary_completion` as its data-register
  initialiser) is the oracle for ``qsim.step_operator``'s closed-form
  isometry ``W``;
* the per-site Monte Carlo engine (:class:`Lattice`, :func:`init_lattice`,
  :func:`step_table`, :func:`mc_step`, :func:`step_uniforms`,
  :func:`fractions`) is the oracle for ``montecarlo.count_step``'s count
  chain. If a model couples neighbouring sites, the count law no longer
  holds and this engine returns to ``src/smcm/montecarlo.py`` as the run
  path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from smcm.core import N_STATES, step_generator, validate_simplex, validate_stochastic
from smcm.lcu import LcuDecomposition
from smcm.montecarlo import init_counts
from smcm.qsim import _NORM_TOL, ANCILLA_QUBITS, DATA_QUBITS, DIM, HADAMARD

# --- gate-level circuit ----------------------------------------------------

_UNITARY_TOL = 1e-9
_UNIT_TOL = 1e-12  # on the length of the vector to complete


def unitary_completion(vector: np.ndarray) -> np.ndarray:
    """Real orthogonal matrix whose first column is the given unit vector.

    Built as the Householder reflection through ``e0 - v``, which maps
    ``e0`` to ``v`` exactly and is orthogonal by construction; the
    degenerate case ``v = e0`` returns the identity. The remaining
    columns are whatever the reflection yields.
    """
    v = np.asarray(vector, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > _UNIT_TOL:
        raise ValueError(f"vector must have unit length within {_UNIT_TOL}, got norm {norm!r}")
    n = v.shape[0]
    w = -v.copy()
    w[0] += 1.0  # w = e0 - v
    w_sq = w @ w
    if w_sq < 1e-24:
        return np.eye(n)
    u = np.eye(n) - (2.0 / w_sq) * np.outer(w, w)
    u[:, 0] = v  # pin the contract column; reflection already matches to round-off
    return u


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


# --- per-site Monte Carlo engine --------------------------------------------
#
# Each site draws one uniform per step and walks the cumulative transition
# probabilities of its current state: the unit interval is partitioned into
# the jump probabilities (target states in ascending order) followed by the
# stay remainder, and the draw picks the interval. The uniform of site ``i``
# at step ``t`` is position ``i`` of a Philox stream keyed by the seed with
# ``t`` in the top counter word (:func:`step_uniforms`), so it depends only
# on ``(seed, t, i)``. :func:`step_table` validates the matrix and builds the
# interval table once; :func:`mc_step` then advances every site through one
# flat integer code per site, ``state * N_STATES + interval``: one comparison
# per column of the interval table adds the interval to the code, and a
# 16-entry table maps each code to the next state.

#: Counter block reserved for initialisation, far above any step index.
_INIT_BLOCK = 1 << 62

#: Row ``l``: the states a site in state ``l`` can jump to, ascending.
_JUMP_TARGETS = np.array(
    [[k for k in range(N_STATES) if k != l] for l in range(N_STATES)], dtype=np.int64
)

#: Entry ``l * N_STATES + j``: the next state of a site in state ``l`` whose
#: uniform fell in interval ``j`` - the jump targets of ``l``, then ``l`` (the stay).
_NEXT = np.column_stack([_JUMP_TARGETS, np.arange(N_STATES)]).ravel()


def step_uniforms(seed: int, step: int, n_sites: int) -> np.ndarray:
    """Per-site uniforms for one step; element ``i`` is site ``i``'s draw."""
    return step_generator(seed, step).random(n_sites)


def init_rng(seed: int) -> Generator:
    """Generator for initial-condition shuffling, on a counter block
    disjoint from every step."""
    return step_generator(seed, _INIT_BLOCK)


@dataclass(frozen=True, eq=False)
class Lattice:
    """Site states, each an integer cloud-state code."""

    sites: np.ndarray

    def __post_init__(self):
        sites = np.asarray(self.sites)
        if not np.issubdtype(sites.dtype, np.integer):
            raise ValueError(f"site states must be integer codes, got dtype {sites.dtype}")
        if sites.ndim != 1 or sites.size < 1:
            raise ValueError("lattice needs at least one site")
        if sites.min() < 0 or sites.max() >= N_STATES:
            raise ValueError(f"site states must lie in 0..{N_STATES - 1}")
        object.__setattr__(self, "sites", sites.astype(np.int64, copy=False))

    @property
    def n_sites(self) -> int:
        return self.sites.size


def init_lattice(n_sites: int, sigma0: np.ndarray, rng: Generator) -> Lattice:
    """Sites whose state counts are ``montecarlo.init_counts``, in shuffled order."""
    sites = np.repeat(np.arange(N_STATES), init_counts(n_sites, sigma0))
    return Lattice(sites=rng.permutation(sites))


def step_table(p: np.ndarray) -> np.ndarray:
    """Validate ``p`` and return its ``(4, 3)`` interval table for :func:`mc_step`.

    ``edges[l, j]`` is the cumulative probability of the first ``j + 1``
    jump targets of state ``l``; the rest of the unit interval is the stay.
    """
    p = validate_stochastic(p)
    return np.cumsum(p[_JUMP_TARGETS, np.arange(N_STATES)[:, None]], axis=1)


def mc_step(lattice: Lattice, edges: np.ndarray, uniforms: np.ndarray) -> Lattice:
    """Advance every site one step: site ``i`` picks the interval of its
    state's row of ``edges`` (:func:`step_table`) that holds ``uniforms[i]``.

    The interval is the number of the row's edges at or below the uniform
    (a draw on an edge moves to the next interval), accumulated column by
    column into the flat code ``state * N_STATES + interval``; the code
    indexes the next state in ``_NEXT``.
    """
    if uniforms.shape != (lattice.n_sites,):
        raise ValueError(
            f"expected {lattice.n_sites} uniforms, one per site, got shape {uniforms.shape}"
        )
    sites = lattice.sites
    code = sites * N_STATES
    for column in edges.T:
        code += uniforms >= column.take(sites)
    return Lattice(_NEXT.take(code))


def fractions(lattice: Lattice) -> np.ndarray:
    """Empirical per-state fractions.

    The underlying counts are exact integers summing to the site total;
    the float divisions leave the sum within an ulp of one.
    """
    return np.bincount(lattice.sites, minlength=N_STATES) / lattice.n_sites
