"""Benchmark inputs, drawn with plain numpy from a seed.

Nothing here calls the package's own random constructors, so a change to
``random_povm`` or ``random_ensemble`` cannot shift what the benchmark
feeds the program.  Each generator takes a ``numpy.random.Generator`` and
returns arrays only.
"""

from __future__ import annotations

import math

import numpy as np


def gaussian_matrix(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def wishart_povm(rng: np.random.Generator, d: int, o: int) -> np.ndarray:
    """Full-rank POVM, shape ``(o, d, d)``: Wishart blocks ``W_a = G_a G_a^+``
    conjugated by the inverse square root of their sum."""
    g = gaussian_matrix(rng, o, d, d)
    w = g @ np.conj(np.swapaxes(g, 1, 2))
    vals, vecs = np.linalg.eigh(w.sum(axis=0))
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    m = inv_sqrt @ w @ inv_sqrt
    return 0.5 * (m + np.conj(np.swapaxes(m, 1, 2)))


def mixed_state(rng: np.random.Generator, d: int) -> np.ndarray:
    """Full-rank density matrix ``G G^+ / tr(G G^+)`` with Gaussian ``G``."""
    g = gaussian_matrix(rng, d, d)
    w = g @ g.conj().T
    return w / np.trace(w).real


def pure_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    v = gaussian_matrix(rng, d)
    return v / np.linalg.norm(v)


def priors(rng: np.random.Generator, n: int) -> np.ndarray:
    """Flat-Dirichlet prior distribution."""
    return rng.dirichlet(np.ones(n))


def stochastic_map(rng: np.random.Generator, n_in: int, n_out: int) -> np.ndarray:
    """Row-stochastic ``p(b | a)``, rows drawn from a flat Dirichlet."""
    return rng.dirichlet(np.ones(n_out), size=n_in)


def post_process(elements: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``M'_b = sum_a p(b|a) M_a``."""
    return np.einsum("ab,aij->bij", p, elements)


def depolarize(elements: np.ndarray, eta: float) -> np.ndarray:
    """``(1 - eta) M_a + eta tr[M_a] I / d``; its robustness is ``(1 - eta) R``."""
    d = elements.shape[-1]
    traces = np.einsum("aii->a", elements).real
    return (1.0 - eta) * elements + eta * traces[:, None, None] * np.eye(d) / d


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(gaussian_matrix(rng, d, d))
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def qubit_z_x(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Qubit Z and X measurements in a common random frame."""
    u = haar_unitary(rng, 2)
    z = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    x = h @ z @ h
    rotate = lambda m: u @ m @ u.conj().T
    return rotate(z), rotate(x)


def cyclic_shift_group(d: int) -> np.ndarray:
    """The d powers of the cyclic shift ``|j> -> |j+1 mod d>``."""
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    return np.stack([np.linalg.matrix_power(shift, k) for k in range(d)])
