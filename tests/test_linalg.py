import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcm.linalg import NotPsdError, spectral_norm, sqrt_psd
from oracles import unitary_completion


def random_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestSqrtPsd:
    def test_identity(self):
        assert np.allclose(sqrt_psd(np.eye(4)), np.eye(4), atol=1e-14)

    def test_zero(self):
        assert np.allclose(sqrt_psd(np.zeros((4, 4))), 0.0, atol=1e-14)

    def test_diagonal(self):
        root = sqrt_psd(np.diag([4.0, 1.0, 0.0, 9.0]))
        assert np.allclose(root, np.diag([2.0, 1.0, 0.0, 3.0]), atol=1e-14)

    def test_square_recovers_input(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = rng.normal(size=(4, 4))
            s = m.T @ m / 4.0
            root = sqrt_psd(s)
            assert np.abs(root @ root - s).max() < 1e-9
            assert np.abs(root - root.T).max() == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=10, max_size=10))
    def test_hypothesis_square_recovers_input(self, entries):
        s = np.zeros((4, 4))
        s[np.triu_indices(4)] = entries
        s = s + np.triu(s, 1).T
        p = s @ s / max(1.0, np.abs(s).max())  # PSD, entries at most 400
        root = sqrt_psd(p)
        scale = max(1.0, np.abs(p).max())
        assert np.abs(root @ root - p).max() < 1e-10 * scale

    @pytest.mark.parametrize(
        "matrix",
        [
            np.arange(16.0).reshape(4, 4),
            np.diag([1.0, np.nan, 1.0, 1.0]),
            np.diag([1.0, 1.0, np.inf, 1.0]),
            np.eye(4)[:3],
        ],
        ids=["asymmetric", "nan", "inf", "non-square"],
    )
    def test_invalid_input_rejected(self, matrix):
        with pytest.raises(ValueError):
            sqrt_psd(matrix)

    def test_round_off_negatives_clamped(self):
        s = np.diag([1.0, 0.5, -5e-11, 0.0])
        root = sqrt_psd(s)
        assert root[2, 2] == 0.0

    def test_clearly_negative_rejected(self):
        with pytest.raises(NotPsdError):
            sqrt_psd(np.diag([1.0, 1.0, -1e-3, 1.0]))


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_scaled_identity(self):
        assert spectral_norm(2.0 * np.eye(4)) == pytest.approx(2.0, abs=1e-12)

    def test_unitary_has_unit_norm(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            assert spectral_norm(random_unitary(rng)) == pytest.approx(1.0, abs=1e-10)

    def test_matches_svd(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = rng.normal(size=(4, 4))
            assert spectral_norm(m) == pytest.approx(
                np.linalg.svd(m, compute_uv=False)[0], abs=1e-10
            )
        for _ in range(50):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            assert spectral_norm(m) == pytest.approx(
                np.linalg.svd(m, compute_uv=False)[0], abs=1e-9
            )

    def test_unitarily_invariant(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            u, v = random_unitary(rng), random_unitary(rng)
            assert spectral_norm(u @ a @ v) == pytest.approx(spectral_norm(a), abs=1e-9)


class TestUnitaryCompletion:
    def test_basis_vector_gives_identity(self):
        assert np.array_equal(unitary_completion(np.array([1.0, 0, 0, 0])), np.eye(4))

    def test_uniform_vector(self):
        u = unitary_completion(np.full(4, 0.5))
        assert np.array_equal(u[:, 0], np.full(4, 0.5))
        assert np.abs(u.T @ u - np.eye(4)).max() < 1e-12

    def test_random_unit_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            v = rng.dirichlet(np.ones(4))
            v = np.sqrt(v)  # unit L2 norm with non-negative entries
            u = unitary_completion(v)
            assert np.array_equal(u[:, 0], v)
            assert np.abs(u.T @ u - np.eye(4)).max() < 1e-12

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            unitary_completion(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_nearly_aligned_vector_stays_orthogonal(self):
        v = np.array([1.0 - 1e-13, 0.0, 0.0, 0.0])
        v = v / np.linalg.norm(v)
        u = unitary_completion(v)
        assert np.abs(u.T @ u - np.eye(4)).max() < 1e-12
