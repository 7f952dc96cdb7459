"""Dense complex-matrix kernels.

Hermitian eigendecomposition, operator norms, positivity checks and
Haar-random unitaries, all on plain ``numpy`` arrays of ``complex128``.
Matrices here are small (dimension a few dozen at most), so the
eigensolver is a cyclic Jacobi iteration with complex Givens rotations:
dependency-free, deterministic, and accurate at this scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NotHermitian, NotSquare
from .tolerances import resolve

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-9
JACOBI_OFF_TOL = 1e-12
_MAX_SWEEPS = 60


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a square complex128 matrix, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise InvalidArgument("matrix entries must be finite")
    return m


def check_hermitian(a, tol: float | None = None) -> np.ndarray:
    """Validate Hermiticity (max entrywise deviation from the conjugate
    transpose) and return the matrix as complex128."""
    m = as_complex_matrix(a)
    tol = resolve(HERMITIAN_TOL) if tol is None else tol
    deviation = np.abs(m - m.conj().T).max() if m.size else 0.0
    if deviation > tol:
        raise NotHermitian(
            f"matrix deviates from Hermitian symmetry by {deviation:.3e} (tol {tol:.1e})"
        )
    return m


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in ascending order with matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def eig_hermitian(h, tol: float | None = None) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix.

    Uses cyclic Jacobi sweeps: each off-diagonal entry is phased to a real
    number and annihilated by a plane rotation, until the off-diagonal
    Frobenius mass falls below ``JACOBI_OFF_TOL`` times the matrix norm.
    """
    a = check_hermitian(h, tol)
    a = 0.5 * (a + a.conj().T)
    d = a.shape[0]
    v = np.eye(d, dtype=np.complex128)
    if d == 1:
        return EigenDecomposition(np.array([a[0, 0].real]), v)
    _jacobi(a, v)
    w = np.diag(a).real.copy()
    order = np.argsort(w, kind="stable")
    return EigenDecomposition(w[order], np.ascontiguousarray(v[:, order]))


def _jacobi(a: np.ndarray, v: np.ndarray) -> None:
    d = a.shape[0]
    fro = np.linalg.norm(a)
    if fro == 0.0:
        return
    stop = JACOBI_OFF_TOL * fro
    element_floor = stop / d
    upper = np.triu(np.ones((d, d), dtype=bool), k=1)
    for _ in range(_MAX_SWEEPS):
        off = math.sqrt(2.0) * np.linalg.norm(a[upper])
        if off <= stop:
            return
        for p in range(d - 1):
            for q in range(p + 1, d):
                if abs(a[p, q]) > element_floor:
                    _rotate(a, v, p, q)
    raise ArithmeticError("Jacobi iteration failed to converge")


def _rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    apq = a[p, q]
    r = abs(apq)
    phase = apq / r
    tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
    if tau >= 0.0:
        t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
    else:
        t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    sp = s * phase
    spc = s * phase.conjugate()

    cp = a[:, p].copy()
    cq = a[:, q].copy()
    a[:, p] = c * cp - spc * cq
    a[:, q] = s * cp + c * phase.conjugate() * cq
    rp = a[p, :].copy()
    rq = a[q, :].copy()
    a[p, :] = c * rp - sp * rq
    a[q, :] = s * rp + c * phase * rq
    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real

    vp = v[:, p].copy()
    vq = v[:, q].copy()
    v[:, p] = c * vp - spc * vq
    v[:, q] = s * vp + c * phase.conjugate() * vq


def operator_norm(h, tol: float | None = None) -> float:
    """Largest absolute eigenvalue of a Hermitian matrix."""
    dec = eig_hermitian(h, tol)
    return float(np.abs(dec.eigenvalues).max())


def is_psd(h, tol: float | None = None) -> bool:
    """True when the smallest eigenvalue is above ``-tol``."""
    tol = resolve(PSD_TOL) if tol is None else tol
    dec = eig_hermitian(h)
    return bool(dec.eigenvalues[0] >= -tol)


def haar_random_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-distributed random unitary, deterministic in the seed.

    QR decomposition of a complex Gaussian matrix, with the phases of the
    R diagonal folded into Q so the distribution is exactly Haar.
    """
    if d < 1:
        raise InvalidArgument(f"dimension must be at least 1, got {d}")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal Hermitian operator basis (identity plus generalized
    Gell-Mann matrices), shape ``(d*d, d, d)``.

    The identity component comes first; all other elements are traceless.
    Orthonormality is under the Hilbert-Schmidt inner product.
    """
    if d < 1:
        raise InvalidArgument(f"dimension must be at least 1, got {d}")
    mats = [np.eye(d, dtype=np.complex128) / math.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=np.complex128)
            sym[j, k] = sym[k, j] = 1.0 / math.sqrt(2.0)
            mats.append(sym)
            anti = np.zeros((d, d), dtype=np.complex128)
            anti[j, k] = -1j / math.sqrt(2.0)
            anti[k, j] = 1j / math.sqrt(2.0)
            mats.append(anti)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -float(l)
        mats.append(np.diag(diag).astype(np.complex128) / math.sqrt(l * (l + 1)))
    return np.stack(mats)
