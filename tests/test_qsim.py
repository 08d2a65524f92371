import mpmath
import numpy as np
import pytest

from smcm.core import deterministic_step, stationary_fractions, uniform_fractions
from smcm.lcu import decompose
from smcm.qsim import (
    DATA_QUBITS,
    HADAMARD,
    InsufficientShotsError,
    born_probabilities,
    decode_fractions,
    quantum_step,
    quantum_step_exact,
    sample_shots,
    step_operator,
)
from conftest import random_simplex
from oracles import GateOp, apply_gate, build_step_circuit, run_statevector, zero_state

X = np.array([[0, 1], [1, 0]], dtype=complex)


def normalized(v):
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


def chi_square_p_value(counts, probs):
    """Goodness-of-fit p-value of ``counts`` against ``probs`` over the cells
    expecting at least five counts, conditioned on those cells' total."""
    keep = probs * counts.sum() >= 5
    observed = counts[keep]
    expected = observed.sum() * probs[keep] / probs[keep].sum()
    statistic = float(((observed - expected) ** 2 / expected).sum())
    df = int(keep.sum()) - 1
    return float(mpmath.gammainc(df / 2, statistic / 2, mpmath.inf, regularized=True))


@pytest.fixture(scope="module")
def reference_lcu(reference_matrix):
    return decompose(reference_matrix)


@pytest.fixture(scope="module")
def reference_operator(reference_lcu):
    return step_operator(reference_lcu)


class TestGateOp:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            GateOp(np.array([[1, 1], [0, 1]]), (0,))

    def test_rejects_duplicate_targets(self):
        with pytest.raises(ValueError, match="distinct"):
            GateOp(np.eye(4), (2, 2))

    def test_rejects_control_on_target(self):
        with pytest.raises(ValueError, match="disjoint"):
            GateOp(X, (1,), ((1, 0),))

    def test_rejects_bad_control_bit(self):
        with pytest.raises(ValueError, match="0 or 1"):
            GateOp(X, (1,), ((0, 2),))


class TestApplyGate:
    def test_hadamard_on_data_qubit(self):
        state = apply_gate(zero_state(), GateOp(HADAMARD, (2,)))
        expected = np.zeros(16, dtype=complex)
        expected[0] = expected[2] = 1 / np.sqrt(2)
        assert np.abs(state - expected).max() < 1e-15

    def test_identity_gate_is_noop(self):
        rng = np.random.default_rng(0)
        state = normalized(rng.normal(size=16) + 1j * rng.normal(size=16))
        out = apply_gate(state, GateOp(np.eye(4), DATA_QUBITS))
        assert np.abs(out - state).max() < 1e-15

    def test_controlled_x_respects_pattern(self):
        gate = GateOp(X, (3,), ((0, 1), (1, 1)))
        src = np.zeros(16, dtype=complex)
        src[0b1100] = 1.0
        out = apply_gate(src, gate)
        assert out[0b1101] == pytest.approx(1.0)
        untouched = apply_gate(zero_state(), gate)
        assert untouched[0] == pytest.approx(1.0)

    def test_norm_preserved_on_random_circuits(self):
        rng = np.random.default_rng(1)
        state = zero_state()
        for _ in range(200):
            q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            target = int(rng.integers(4))
            controls = ()
            if rng.random() < 0.5:
                others = [q2 for q2 in range(4) if q2 != target]
                controls = ((int(rng.choice(others)), int(rng.integers(2))),)
            state = apply_gate(state, GateOp(q, (target,), controls))
            assert abs(np.linalg.norm(state) - 1.0) < 1e-10

    def test_out_of_range_qubit_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_gate(zero_state(), GateOp(X, (7,)))


class TestRunStatevector:
    def test_empty_circuit(self):
        assert np.array_equal(run_statevector([]), zero_state())

    def test_ancilla_hadamards_only(self):
        state = run_statevector([GateOp(HADAMARD, (0,)), GateOp(HADAMARD, (1,))])
        expected = np.zeros(16, dtype=complex)
        expected[[0, 4, 8, 12]] = 0.5  # uniform ancilla superposition, data |00>
        assert np.abs(state - expected).max() < 1e-15


class TestStepCircuit:
    def test_nine_gates_in_fixed_order(self, reference_lcu):
        gates = build_step_circuit(uniform_fractions(), reference_lcu)
        assert len(gates) == 9
        assert gates[0].targets == (0,) and gates[1].targets == (1,)
        assert gates[2].targets == DATA_QUBITS and gates[2].controls == ()
        patterns = [g.controls for g in gates[3:7]]
        assert patterns == [
            ((0, 0), (1, 0)),
            ((0, 0), (1, 1)),
            ((0, 1), (1, 0)),
            ((0, 1), (1, 1)),
        ]
        for gate, unitary in zip(gates[3:7], reference_lcu.unitaries):
            assert np.array_equal(gate.matrix, unitary)
        assert gates[7].targets == (0,) and gates[8].targets == (1,)

    def test_identity_dynamics_returns_input_block(self):
        dec = decompose(np.eye(4))
        sigma = np.array([0.4, 0.3, 0.2, 0.1])
        state = run_statevector(build_step_circuit(sigma, dec))
        block = state[:4]
        assert np.abs(block - 0.5 * normalized(sigma)).max() < 1e-12

    def test_intermediate_states(self, reference_matrix, reference_lcu):
        sigma = uniform_fractions()
        sigma_hat = normalized(sigma)
        gates = build_step_circuit(sigma, reference_lcu)
        after_init = run_statevector(gates[:3])
        after_controlled = run_statevector(gates[:7])
        final = run_statevector(gates)

        # uniform ancilla superposition tensor the data vector
        expected1 = np.kron(np.full(4, 0.5), sigma_hat)
        assert np.abs(after_init - expected1).max() < 1e-12

        # each ancilla block now carries its own unitary's action
        expected2 = np.concatenate(
            [0.5 * (u @ sigma_hat) for u in reference_lcu.unitaries]
        )
        assert np.abs(after_controlled - expected2).max() < 1e-10

        # ancilla-00 block averages the unitaries: encoded matrix over 2
        expected_block = 0.5 * (reference_matrix / reference_lcu.scale @ sigma_hat)
        assert np.abs(final[:4] - expected_block).max() < 1e-10


class TestStepOperator:
    def test_matches_gate_level_circuit(self, reference_lcu, reference_operator):
        rng = np.random.default_rng(8)
        for _ in range(200):
            sigma = random_simplex(rng)
            state = run_statevector(build_step_circuit(sigma, reference_lcu))
            assert np.abs(reference_operator @ normalized(sigma) - state).max() < 1e-14

    def test_is_isometry(self, reference_operator):
        assert reference_operator.shape == (16, 4)
        gram = reference_operator.conj().T @ reference_operator
        assert np.abs(gram - np.eye(4)).max() < 1e-12


class TestBornProbabilities:
    def test_basis_state(self):
        probs = born_probabilities(zero_state())
        assert probs[0] == 1.0 and probs[1:].sum() == 0.0

    def test_cat_state(self):
        state = np.zeros(16, dtype=complex)
        state[0] = state[15] = 1 / np.sqrt(2)
        probs = born_probabilities(state)
        assert probs[0] == pytest.approx(0.5) and probs[15] == pytest.approx(0.5)

    def test_normalisation_required(self):
        with pytest.raises(ValueError):
            born_probabilities(np.ones(16))

    def test_closed_form_against_deterministic_update(self, reference_matrix, reference_lcu):
        # |amplitude|^2 on the postselected block, in terms of the advanced
        # fractions: (sigma'_k)^2 / (4 * scale^2 * |sigma|^2)
        rng = np.random.default_rng(3)
        for _ in range(50):
            sigma = random_simplex(rng)
            probs = born_probabilities(
                run_statevector(build_step_circuit(sigma, reference_lcu))
            )
            advanced = deterministic_step(reference_matrix, sigma)
            denom = 4.0 * reference_lcu.scale**2 * (sigma @ sigma)
            assert np.abs(probs[:4] - advanced**2 / denom).max() < 1e-10
            # conditional distribution within the block is scale-free
            conditional = probs[:4] / probs[:4].sum()
            assert np.abs(conditional - advanced**2 / (advanced @ advanced)).max() < 1e-10

    def test_closed_form_at_equilibrium(self, reference_rates, reference_lcu):
        # at the fixed point the advanced fractions equal the input, so the
        # block probabilities reduce to the input's own normalised squares
        sigma = stationary_fractions(reference_rates)
        probs = born_probabilities(
            run_statevector(build_step_circuit(sigma, reference_lcu))
        )
        expected = sigma**2 / (4.0 * reference_lcu.scale**2 * (sigma @ sigma))
        assert np.abs(probs[:4] - expected).max() < 1e-12


class TestSampling:
    def test_deterministic_state(self):
        counts = sample_shots(zero_state(), 1000, np.random.default_rng(0))
        assert counts[0] == 1000 and counts[1:].sum() == 0

    def test_uniform_state_within_binomial_bounds(self):
        state = np.full(16, 0.25, dtype=complex)
        n = 160000
        counts = sample_shots(state, n, np.random.default_rng(1))
        p = 1 / 16
        bound = 5 * np.sqrt(n * p * (1 - p))
        assert np.abs(counts - n * p).max() < bound

    def test_seed_reproducibility(self):
        state = run_statevector([GateOp(HADAMARD, (0,)), GateOp(HADAMARD, (2,))])
        a = sample_shots(state, 5000, np.random.default_rng(42))
        b = sample_shots(state, 5000, np.random.default_rng(42))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("alpha", [None, 0.3], ids=["uniform-start", "skewed"])
    def test_counts_follow_born_law(self, reference_operator, alpha):
        rng = np.random.default_rng(12)
        sigma = uniform_fractions() if alpha is None else rng.dirichlet(np.full(4, alpha))
        state = reference_operator @ normalized(sigma)
        counts = sample_shots(state, 200_000, rng)
        assert chi_square_p_value(counts, born_probabilities(state)) > 1e-3

    def test_chi_square_rejects_swapped_outcomes(self, reference_operator):
        state = reference_operator @ normalized(uniform_fractions())
        probs = born_probabilities(state)
        swapped = state.copy()
        swapped[[0, 2]] = state[[2, 0]]  # probabilities 0.066 and 0.058
        counts = sample_shots(swapped, 200_000, np.random.default_rng(13))
        assert chi_square_p_value(counts, probs) < 1e-6

    @pytest.mark.parametrize("n_shots", [1, 7, 40_000, 10**15])
    def test_counts_are_int64_summing_to_shots(self, reference_operator, n_shots):
        state = reference_operator @ normalized(uniform_fractions())
        counts = sample_shots(state, n_shots, np.random.default_rng(5))
        assert counts.dtype == np.int64 and counts.shape == (16,)
        assert (counts >= 0).all() and counts.sum() == n_shots

    def test_counts_invariants(self):
        with pytest.raises(ValueError):
            sample_shots(zero_state(), 0, np.random.default_rng(0))


class TestDecode:
    def test_equal_counts(self):
        counts = np.zeros(16, dtype=int)
        counts[:4] = 100
        sigma, rate = decode_fractions(counts)
        assert np.array_equal(sigma, np.full(4, 0.25))
        assert rate == 1.0

    def test_square_root_weighting(self):
        counts = np.zeros(16, dtype=int)
        counts[0], counts[1] = 400, 100
        counts[4:] = np.repeat(500 // 12, 12)
        counts[15] += 500 - counts[4:].sum()
        sigma, rate = decode_fractions(counts)
        assert np.abs(sigma - [2 / 3, 1 / 3, 0, 0]).max() < 1e-15
        assert rate == 0.5

    def test_empty_block_raises(self):
        for n_shots in (10, 10**6):  # the count prints as an integer, never as 1e+06
            counts = np.zeros(16, dtype=int)
            counts[5] = n_shots
            with pytest.raises(InsufficientShotsError, match=f"no shot of {n_shots} landed"):
                decode_fractions(counts)

    @pytest.mark.parametrize(
        "weights",
        [
            np.ones(15),
            np.ones((4, 4)),
            np.r_[np.ones(15), -1.0],
            np.r_[np.ones(15), np.nan],
            np.r_[np.ones(15), np.inf],
            np.zeros(16),
            np.zeros(16, dtype=np.int64),
        ],
        ids=["short", "matrix", "negative", "nan", "inf", "all-zero", "all-zero-counts"],
    )
    def test_invalid_weights_rejected(self, weights):
        with pytest.raises(ValueError):
            decode_fractions(weights)

    def test_exact_probabilities_reproduce_deterministic_step(
        self, reference_matrix, reference_lcu
    ):
        rng = np.random.default_rng(4)
        for _ in range(100):
            sigma = random_simplex(rng)
            state = run_statevector(build_step_circuit(sigma, reference_lcu))
            decoded, rate = decode_fractions(born_probabilities(state))
            expected = deterministic_step(reference_matrix, sigma)
            assert np.abs(decoded - expected).max() < 1e-10
            assert 0.0 < rate <= 1.0


class TestQuantumStep:
    def test_exact_step_equals_deterministic(self, reference_matrix, reference_lcu):
        sigma = uniform_fractions()
        assert np.abs(
            quantum_step_exact(sigma, step_operator(reference_lcu))
            - deterministic_step(reference_matrix, sigma)
        ).max() < 1e-10

    def test_decoded_step_is_scale_free(self, reference_matrix, reference_lcu):
        # encoding half the matrix must decode to the same fractions
        halved = decompose(0.5 * np.asarray(reference_matrix))
        assert halved.scale == 1.0
        sigma = np.array([0.3, 0.3, 0.2, 0.2])
        assert np.abs(
            quantum_step_exact(sigma, step_operator(halved))
            - quantum_step_exact(sigma, step_operator(reference_lcu))
        ).max() < 1e-12

    def test_identity_dynamics_with_many_shots(self):
        dec = decompose(np.eye(4))
        sigma = np.array([0.4, 0.3, 0.2, 0.1])
        out = quantum_step(sigma, step_operator(dec), 200000, np.random.default_rng(5))
        assert np.abs(out - sigma).max() < 0.01

    def test_sampled_step_reproducible(self, reference_lcu):
        sigma = uniform_fractions()
        a = quantum_step(sigma, step_operator(reference_lcu), 1000, np.random.default_rng(9))
        b = quantum_step(sigma, step_operator(reference_lcu), 1000, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_postselection_rate_near_quarter(self, reference_lcu):
        state = run_statevector(build_step_circuit(uniform_fractions(), reference_lcu))
        counts = sample_shots(state, 100000, np.random.default_rng(6))
        _, rate = decode_fractions(counts)
        assert abs(rate - 0.25) < 0.02
