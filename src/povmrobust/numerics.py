"""Dense complex-matrix kernels, and one reader per kind of argument.

Hermitian eigendecomposition (LAPACK's, through ``np.linalg.eigh``, on a matrix
or a whole stack ``(..., d, d)`` in one call), Haar-random unitaries and the
matrix-unit basis that symmetric spans are twirled from, on ``complex128``
arrays.  The array, integer and real readers refuse a wrong kind with a package error,
and every builder of a complex ``(n, d, d)`` stack checks it against one memory budget.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import InvalidArgument, NotHermitian, NotSquare, ResourceLimit

HERMITIAN_TOL = 1e-10
MAX_STACK_BYTES = 2**28  # one complex (n, d, d) stack that a builder makes


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _read_array(a, dtype, error=InvalidArgument) -> np.ndarray:
    """``np.asarray(a, dtype)``, with numpy's ``TypeError`` or ``ValueError``
    (a string, a ragged nest) raised as ``error``."""
    try:
        return np.asarray(a, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise error(f"cannot read {type(a).__name__} as an array: {exc}") from exc


def _read_integer(value, name: str, least: int = 1) -> int:
    """``value`` as an int of at least ``least``: an integer or a numpy integer,
    never a bool, a float or a string; ``InvalidArgument`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise InvalidArgument(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)


def _read_real(value, name: str, high: float = math.inf, error=InvalidArgument) -> float:
    """``value`` as a finite float in ``[0, high]``; ``error`` for anything
    else, a bool or a string included."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
            0.0 <= value <= high and math.isfinite(value)):
        bound = "" if high == math.inf else f" and at most {high}"
        raise error(f"{name} must be finite and nonnegative{bound}, got {value!r}")
    return float(value)


def _check_stack_bytes(n: int, d: int) -> None:
    """``ResourceLimit`` if a complex ``(n, d, d)`` stack needs over ``MAX_STACK_BYTES``."""
    if 16 * n * d * d > MAX_STACK_BYTES:
        raise ResourceLimit(f"{n} matrices at dimension {d} need over {MAX_STACK_BYTES} bytes")


def _complex_stack(a) -> np.ndarray:
    m = _read_array(a, np.complex128)
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
    ``(n, d, d)`` stack; ``error`` when it is empty, no list, or the sizes differ."""
    mats = [as_complex_matrix(m) for m in (mats if np.iterable(mats) else ())]
    shapes = sorted({m.shape for m in mats})
    if len(shapes) != 1:
        raise error(f"need one or more {noun} of one size, got shapes {shapes}")
    return np.stack(mats)


def check_hermitian(a) -> np.ndarray:
    """Validate Hermiticity of a matrix or a stack ``(..., d, d)`` (max
    entrywise deviation from the conjugate transpose, at most
    ``HERMITIAN_TOL``) and return it as complex128."""
    m = _complex_stack(a)
    with np.errstate(over="ignore"):  # finite entries whose difference overflows deviate by inf
        deviation = np.abs(m - _dagger(m)).max(initial=0.0)
    if deviation > HERMITIAN_TOL:
        raise NotHermitian(f"matrix deviates from Hermitian symmetry by {deviation:.3e} "
                           f"(tol {HERMITIAN_TOL:.1e})")
    return m


def eig_hermitian(h):
    """Full eigendecomposition of a Hermitian matrix or of each matrix in a
    stack ``(..., d, d)``: the ``EighResult`` of ``np.linalg.eigh`` on the
    Hermitian part, eigenvalues ascending with matching orthonormal columns.
    The halves are taken before the sum, which cannot then overflow."""
    half = 0.5 * check_hermitian(h)
    return np.linalg.eigh(half + _dagger(half))


def haar_random_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-distributed random unitary, deterministic in the seed.

    QR decomposition of a complex Gaussian matrix, with the phases of the
    R diagonal folded into Q so the distribution is exactly Haar.
    """
    d, seed = _read_integer(d, "dimension"), _read_integer(seed, "seed", 0)
    _check_stack_bytes(1, d)
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def frozen_copy(a, dtype) -> np.ndarray:
    """An owned, read-only, C-ordered copy of ``a`` as ``dtype``."""
    arr = _read_array(a, dtype).copy()
    arr.setflags(write=False)
    return arr


def frozen_stack(a, error) -> np.ndarray:
    """``frozen_copy`` of ``a`` as complex128, refused with ``error`` unless it
    is a nonempty ``(n, d, d)`` stack of square matrices."""
    arr = frozen_copy(a, np.complex128)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or 0 in arr.shape:
        raise error(f"expected shape (n, d, d) with n, d >= 1, got {arr.shape}")
    return arr


def hermitian_basis(d: int) -> np.ndarray:
    """The matrix-unit basis of the Hermitian ``d x d`` matrices, shape
    ``(d*d, d, d)`` and orthonormal in the Hilbert-Schmidt inner product: the
    ``d`` diagonal units ``E_jj`` (``[:d]`` spans the diagonal matrices), then
    ``(E_jk + E_kj) / sqrt(2)`` and ``i (E_jk - E_kj) / sqrt(2)`` for each
    ``j < k`` in row-major order."""
    d = _read_integer(d, "dimension")
    _check_stack_bytes(d * d, d)
    j, k = np.triu_indices(d, 1)
    sym = d + 2 * np.arange(len(j))
    diag = np.arange(d)
    basis = np.zeros((d * d, d, d), dtype=np.complex128)
    basis[diag, diag, diag] = 1.0
    basis[sym, j, k] = basis[sym, k, j] = 1.0 / math.sqrt(2.0)
    basis[sym + 1, j, k], basis[sym + 1, k, j] = 1j / math.sqrt(2.0), -1j / math.sqrt(2.0)
    return basis
