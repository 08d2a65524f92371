import itertools

import numpy as np
import pytest

from smcm.core import transition_matrix
from smcm.lcu import (
    SubnormalizationError,
    build_unitaries,
    decompose,
    hermitian_split,
)
from conftest import random_rate_matrix

EYE = np.eye(4)


def random_symmetric_doubly_stochastic(rng):
    """Convex mix of permutation matrices, symmetrised; spectral norm is
    exactly one, so these are encodable without rescaling."""
    perms = [np.eye(4)[list(p)] for p in itertools.permutations(range(4))]
    weights = rng.dirichlet(np.ones(len(perms)))
    mix = sum(w * p for w, p in zip(weights, perms))
    return 0.5 * (mix + mix.T)


def random_step_matrix(rng):
    """One-step matrix from random rates at a random admissible dt."""
    rates = random_rate_matrix(rng)
    dt = rng.uniform(0.01, 1.0) / max(rates.sum(axis=1).max(), 1e-9)
    return transition_matrix(rates, dt)


def max_unitarity_residual(unitaries):
    return max(np.abs(u @ u.conj().T - EYE).max() for u in unitaries)


def reconstruct(dec):
    """The matrix the unitaries of ``dec`` average to, times its scale."""
    return dec.scale * 0.5 * sum(dec.unitaries)


class TestHermitianSplit:
    def test_identity(self):
        sym, skew = hermitian_split(EYE)
        assert np.array_equal(sym, EYE)
        assert np.array_equal(skew, np.zeros((4, 4)))

    def test_symmetric_input_has_zero_skew(self):
        m = np.array([[1.0, 2, 3, 4], [2, 5, 6, 7], [3, 6, 8, 9], [4, 7, 9, 0]])
        _, skew = hermitian_split(m)
        assert np.array_equal(skew, np.zeros((4, 4)))

    def test_parts_recombine_exactly(self, reference_matrix):
        sym, skew = hermitian_split(reference_matrix)
        assert np.abs(sym + skew - reference_matrix).max() < 1e-14
        assert np.array_equal(sym, sym.T)
        assert np.array_equal(skew, -skew.T)

    def test_hermitian_pair(self, reference_matrix):
        # the complex matrix -i*skew is Hermitian with imaginary entries,
        # and sym + i*(-i*skew) rebuilds the input
        sym, skew = hermitian_split(reference_matrix)
        herm = -1j * skew
        assert np.abs(herm - herm.conj().T).max() < 1e-15
        assert np.abs(herm.real).max() == 0.0
        assert np.abs(sym + 1j * herm - reference_matrix).max() < 1e-14


class TestBuildUnitaries:
    def test_identity_parts(self):
        u1, u2, u3, u4 = build_unitaries(EYE, np.zeros((4, 4)))
        assert np.allclose(u1, EYE, atol=1e-14)
        assert np.allclose(u2, EYE, atol=1e-14)
        assert np.allclose(u3, -EYE, atol=1e-14)
        assert np.allclose(u4, EYE, atol=1e-14)
        assert np.allclose((u1 + u2 + u3 + u4) / 2, EYE, atol=1e-14)

    def test_zero_parts(self):
        zero = np.zeros((4, 4))
        u1, u2, u3, u4 = build_unitaries(zero, zero)
        assert np.allclose(u1, 1j * EYE, atol=1e-14)
        assert np.allclose(u2, -1j * EYE, atol=1e-14)
        assert np.allclose(u3, -EYE, atol=1e-14)
        assert np.allclose(u4, EYE, atol=1e-14)
        assert np.abs(sum((u1, u2, u3, u4))).max() < 1e-14

    def test_pairs_average_to_parts(self, reference_matrix):
        dec = decompose(reference_matrix)
        sym, skew = hermitian_split(reference_matrix / dec.scale)
        u1, u2, u3, u4 = dec.unitaries
        assert np.abs((u1 + u2) / 2 - sym).max() < 1e-9
        assert np.abs((u3 + u4) / 2 - skew).max() < 1e-9

    def test_first_pair_conjugate_and_commuting(self, reference_matrix):
        dec = decompose(reference_matrix)
        u1, u2 = dec.unitaries[:2]
        assert np.abs(u1 - u2.conj().T).max() < 1e-12
        assert np.abs(u1 @ u2 - u2 @ u1).max() < 1e-9

    def test_oversized_part_rejected(self):
        with pytest.raises(SubnormalizationError):
            build_unitaries(1.5 * EYE, np.zeros((4, 4)))


class TestDecompose:
    def test_identity(self):
        dec = decompose(EYE)
        assert dec.scale == 1.0
        assert dec.norm == pytest.approx(1.0, abs=1e-12)
        assert np.abs(reconstruct(dec) - EYE).max() < 1e-12

    def test_reference_matrix(self, reference_matrix):
        dec = decompose(reference_matrix)
        # column-stochastic with asymmetry: norm sits just above one and
        # is absorbed into the recorded scale
        assert np.linalg.svd(reference_matrix, compute_uv=False)[0] == pytest.approx(
            dec.norm, abs=1e-10
        )
        assert dec.norm > 1.0
        assert dec.scale >= dec.norm
        assert max_unitarity_residual(dec.unitaries) < 1e-9
        assert np.abs(reconstruct(dec) - reference_matrix).max() < 1e-10

    def test_norm_two_is_rescaled(self):
        # norm 2: the bound on the norm of any 4x4 column-stochastic matrix
        dec = decompose(2.0 * EYE)
        assert dec.scale == pytest.approx(2.0, rel=1e-11)
        assert max_unitarity_residual(dec.unitaries) < 1e-9
        assert np.abs(reconstruct(dec) - 2.0 * EYE).max() < 1e-12

    def test_symmetric_doubly_stochastic_family(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            m = random_symmetric_doubly_stochastic(rng)
            dec = decompose(m)
            # spectral norm is one up to round-off, so essentially no rescale
            assert dec.scale == pytest.approx(1.0, abs=1e-9)
            assert max_unitarity_residual(dec.unitaries) < 1e-9
            assert np.abs(reconstruct(dec) - m).max() < 1e-9

    def test_step_matrix_family(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            m = random_step_matrix(rng)
            dec = decompose(m)
            assert max_unitarity_residual(dec.unitaries) < 1e-9
            assert np.abs(reconstruct(dec) - m).max() < 1e-9
