import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmrobust.asymmetry import roc
from povmrobust.errors import InvalidArgument, NotHermitian, NotSquare
from povmrobust.measurement import validate_povm
from povmrobust.numerics import (
    check_hermitian,
    eig_hermitian,
    haar_random_unitary,
    hermitian_basis,
    is_psd,
    operator_norm,
)

from conftest import random_hermitian

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def reconstruct(dec):
    """``V diag(w) V^dag`` from an eigendecomposition, for each member of a stack."""
    v = dec.eigenvectors
    return (v * dec.eigenvalues[..., None, :]) @ v.conj().swapaxes(-1, -2)


class TestEigHermitian:
    def test_identity(self):
        dec = eig_hermitian(np.eye(2))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0])
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)

    def test_pauli_z_ascending(self):
        dec = eig_hermitian(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0])

    def test_random_reconstruction(self):
        # Oracle: rebuild V diag(w) V+ and compare entrywise.
        rng = np.random.default_rng(11)
        h = random_hermitian(4, rng)
        dec = eig_hermitian(h)
        assert np.abs(reconstruct(dec) - h).max() <= 1e-9 * max(1.0, np.abs(h).max())

    def test_matches_numpy(self):
        rng = np.random.default_rng(3)
        for d in (2, 3, 4, 7):
            h = random_hermitian(d, rng)
            np.testing.assert_allclose(
                eig_hermitian(h).eigenvalues, np.linalg.eigvalsh(h), atol=1e-10
            )

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(21)
        stack = np.stack([random_hermitian(3, rng) for _ in range(5)])
        dec = eig_hermitian(stack)
        assert dec.eigenvalues.shape == (5, 3) and dec.eigenvectors.shape == (5, 3, 3)
        for h, w, v in zip(stack, dec.eigenvalues, dec.eigenvectors):
            single = eig_hermitian(h)
            np.testing.assert_allclose(w, single.eigenvalues, atol=1e-12)
            # columns agree up to phase for these nondegenerate spectra
            overlaps = np.abs(np.einsum("ik,ik->k", v.conj(), single.eigenvectors))
            np.testing.assert_allclose(overlaps, 1.0, atol=1e-10)
        np.testing.assert_allclose(reconstruct(dec), stack, atol=1e-10)

    def test_stack_rejects_one_non_hermitian_member(self):
        stack = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
        with pytest.raises(NotHermitian):
            eig_hermitian(stack)

    def test_entries_near_the_largest_float_do_not_overflow(self):
        # halving after the sum would overflow 1e308 + 1e308 to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            dec = eig_hermitian(np.diag([1e308, -1e308]))
        np.testing.assert_array_equal(dec.eigenvalues, [-1e308, 1e308])

    def test_rejects_non_square(self):
        with pytest.raises(NotSquare):
            eig_hermitian(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**9), st.integers(2, 6))
    def test_trace_is_eigenvalue_sum(self, seed, d):
        h = random_hermitian(d, np.random.default_rng(seed))
        dec = eig_hermitian(h)
        trace = np.trace(h).real
        assert abs(dec.eigenvalues.sum() - trace) <= 1e-9 * max(1.0, abs(trace))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**9))
    def test_revaluation_is_stable(self, seed):
        h = random_hermitian(4, np.random.default_rng(seed))
        first = eig_hermitian(h)
        again = eig_hermitian(reconstruct(first))
        np.testing.assert_allclose(again.eigenvalues, first.eigenvalues, atol=1e-8)


class TestOperatorNorm:
    def test_diagonal(self):
        assert operator_norm(np.diag([0.75, 0.25])) == pytest.approx(0.75)

    def test_projector(self):
        v = np.array([1.0, 1j, -1.0]) / np.sqrt(3.0)
        assert operator_norm(np.outer(v, v.conj())) == pytest.approx(1.0)

    def test_shifted_pauli(self):
        # Eigenvalues (1 +- 0.6) / 2, largest 0.8.
        h = 0.5 * (np.eye(2) + 0.6 * SIGMA_X)
        assert operator_norm(h) == pytest.approx(0.8, abs=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(4, rng)
        u = haar_random_unitary(4, 99)
        assert operator_norm(u @ h @ u.conj().T) == pytest.approx(
            operator_norm(h), abs=1e-9
        )


class TestIsPsd:
    def test_zero_matrix(self):
        assert is_psd(np.zeros((3, 3)))

    def test_tiny_negative_within_floor(self):
        assert is_psd(np.diag([1.0, -1e-12]))

    def test_clearly_negative(self):
        assert not is_psd(np.diag([1.0, -0.1]))

    def test_gate_at_1e_9(self):
        assert is_psd(np.diag([1.0, -5e-10]))
        assert not is_psd(np.diag([1.0, -2e-9]))


class TestHaarRandomUnitary:
    def test_scalar_case(self):
        u = haar_random_unitary(1, 0)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_deterministic(self):
        np.testing.assert_array_equal(
            haar_random_unitary(3, 42), haar_random_unitary(3, 42)
        )

    def test_unitarity(self):
        u = haar_random_unitary(4, 7)
        assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-10

    def test_rejects_dimension_zero(self):
        with pytest.raises(ValueError):
            haar_random_unitary(0, 1)

    def test_rejects_a_negative_seed(self):
        with pytest.raises(InvalidArgument):
            haar_random_unitary(2, -1)


@pytest.mark.parametrize("call", [
    lambda: check_hermitian(np.zeros((0, 0))),
    lambda: roc(np.zeros((0, 0))),
    lambda: validate_povm([np.zeros((0, 0))]),
])
def test_a_zero_size_matrix_is_an_invalid_argument(call):
    with pytest.raises(InvalidArgument, match="at least 1 x 1"):
        call()


def test_hermitian_basis_orthonormal():
    # orthonormal Hermitian matrices spanning every Hermitian matrix, the d
    # diagonal units first: roc and the robustness SDP slice their spans off it
    for d in range(1, 7):
        basis = hermitian_basis(d)
        assert basis.shape == (d * d, d, d)
        np.testing.assert_array_equal(basis[:d], np.eye(d)[:, :, None] * np.eye(d))
        np.testing.assert_array_equal(basis, basis.conj().swapaxes(1, 2))
        gram = np.einsum("aij,bji->ab", basis, basis)
        np.testing.assert_allclose(gram, np.eye(d * d), atol=1e-15)
        h = random_hermitian(d, np.random.default_rng(d))
        coords = np.einsum("aij,ji->a", basis, h).real
        np.testing.assert_allclose(np.einsum("a,aij->ij", coords, basis), h, atol=1e-12)
