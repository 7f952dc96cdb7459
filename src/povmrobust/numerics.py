"""Dense complex-matrix kernels.

Hermitian eigendecomposition, operator norms, positivity checks,
Haar-random unitaries and the matrix-unit basis that symmetric spans are
twirled from, all on plain ``numpy`` arrays of ``complex128``.
Eigendecompositions are LAPACK's, through ``np.linalg.eigh``, and take a
single matrix or a whole stack ``(..., d, d)`` (the elements of a POVM,
say) in one call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgument, NotHermitian, NotSquare

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-9


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _complex_stack(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NotSquare(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if m.shape[-1] == 0:
        raise InvalidArgument(f"matrices must be at least 1 x 1, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidArgument("matrix entries must be finite")
    return m


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a square complex128 matrix, rejecting NaN/Inf entries."""
    m = _complex_stack(a)
    if m.ndim != 2:
        raise NotSquare(f"expected a square matrix, got shape {m.shape}")
    return m


def _matrix_stack(mats, error, noun: str) -> np.ndarray:
    """A list of square matrices, each read by ``as_complex_matrix``, as one
    ``(n, d, d)`` stack; ``error`` when the list is empty or the sizes differ."""
    mats = [as_complex_matrix(m) for m in mats]
    shapes = sorted({m.shape for m in mats})
    if len(shapes) != 1:
        raise error(f"need one or more {noun} of one size, got shapes {shapes}")
    return np.stack(mats)


def check_hermitian(a) -> np.ndarray:
    """Validate Hermiticity of a matrix or a stack ``(..., d, d)`` (max
    entrywise deviation from the conjugate transpose, at most
    ``HERMITIAN_TOL``) and return it as complex128."""
    m = _complex_stack(a)
    deviation = np.abs(m - _dagger(m)).max() if m.size else 0.0
    if deviation > HERMITIAN_TOL:
        raise NotHermitian(f"matrix deviates from Hermitian symmetry by {deviation:.3e} "
                           f"(tol {HERMITIAN_TOL:.1e})")
    return m


def eig_hermitian(h):
    """Full eigendecomposition of a Hermitian matrix or of each matrix in a
    stack ``(..., d, d)``: the ``EighResult`` of ``np.linalg.eigh`` on the
    Hermitian part, eigenvalues ascending with matching orthonormal columns."""
    a = check_hermitian(h)
    return np.linalg.eigh(0.5 * (a + _dagger(a)))


def operator_norm(h) -> float:
    """Largest absolute eigenvalue of a Hermitian matrix."""
    return float(np.abs(eig_hermitian(h).eigenvalues).max())


def is_psd(h) -> bool:
    """True when the smallest eigenvalue is at least ``-PSD_TOL``."""
    return bool(eig_hermitian(h).eigenvalues[0] >= -PSD_TOL)


def _check_seeded(seed: int, *sizes: int) -> None:
    """``InvalidArgument`` unless each size is at least 1 and the seed nonnegative."""
    if min(sizes) < 1 or seed < 0:
        raise InvalidArgument(f"sizes must be at least 1 and the seed nonnegative, "
                              f"got sizes {sizes} and seed {seed}")


def haar_random_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-distributed random unitary, deterministic in the seed.

    QR decomposition of a complex Gaussian matrix, with the phases of the
    R diagonal folded into Q so the distribution is exactly Haar.
    """
    _check_seeded(seed, d)
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def frozen_copy(a, dtype) -> np.ndarray:
    """An owned, read-only, C-ordered copy of ``a`` as ``dtype``."""
    arr = np.array(a, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


def hermitian_basis(d: int) -> np.ndarray:
    """The matrix-unit basis of the Hermitian ``d x d`` matrices, shape
    ``(d*d, d, d)`` and orthonormal in the Hilbert-Schmidt inner product: the
    ``d`` diagonal units ``E_jj`` (``[:d]`` spans the diagonal matrices), then
    ``(E_jk + E_kj) / sqrt(2)`` and ``i (E_jk - E_kj) / sqrt(2)`` for each
    ``j < k`` in row-major order."""
    if d < 1:
        raise InvalidArgument(f"dimension must be at least 1, got {d}")
    j, k = np.triu_indices(d, 1)
    sym = d + 2 * np.arange(len(j))
    diag = np.arange(d)
    basis = np.zeros((d * d, d, d), dtype=np.complex128)
    basis[diag, diag, diag] = 1.0
    basis[sym, j, k] = basis[sym, k, j] = 1.0 / math.sqrt(2.0)
    basis[sym + 1, j, k], basis[sym + 1, k, j] = 1j / math.sqrt(2.0), -1j / math.sqrt(2.0)
    return basis
