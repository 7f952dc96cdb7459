"""POVM data model, validation, constructors and classical post-processing.

A measurement is a finite list of positive semidefinite operators summing
to the identity.  Outcome order is significant everywhere: outcome labels
are list indices and are preserved by every operation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CompletenessViolation,
    EtaOutOfRange,
    InvalidDistribution,
    InvalidPovm,
    NotOrthonormal,
    NotPsd,
    ShapeMismatch,
    SizeMismatch,
    type_gate,
)
from .numerics import (UNITARY_TOL, _check_bytes, _check_stack_bytes, _matrix_stack,
                       _read_array, _read_integer, _read_real, eig_hermitian, frozen_copy,
                       frozen_stack)

PSD_TOL = 1e-9
COMPLETENESS_TOL = 1e-8
DISTRIBUTION_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Povm:
    """A positive operator-valued measure as an ``(o, d, d)`` array.

    Instances are immutable and own a read-only copy of their elements.  Use
    :func:`validate_povm` to build one from untrusted input; the constructors
    in this module produce valid measurements by construction.
    """

    elements: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "elements", frozen_stack(self.elements, ShapeMismatch))

    @property
    def outcomes(self) -> int:
        return self.elements.shape[0]

    @property
    def dimension(self) -> int:
        return self.elements.shape[1]

    @functools.cached_property
    def eig(self):
        """Eigendecomposition of every element, computed on first use and
        kept read-only: the elements are immutable, so it never goes stale."""
        dec = eig_hermitian(self.elements)
        for arr in dec:
            arr.setflags(write=False)
        return dec

    def __len__(self) -> int:
        return self.outcomes

    def __getitem__(self, a: int) -> np.ndarray:
        return self.elements[a]

    def __iter__(self):
        return iter(self.elements)


@dataclass(frozen=True, eq=False)
class StochasticMap:
    """Conditional probabilities ``p(out | in)`` with shape (inputs, outputs).

    Each row is a distribution over outputs, checked on construction by
    ``_check_distribution`` row by row.
    """

    probabilities: np.ndarray

    def __post_init__(self):
        p = frozen_copy(self.probabilities, float)
        if p.ndim != 2:
            raise ShapeMismatch(f"expected a 2-D array, got shape {p.shape}")
        object.__setattr__(self, "probabilities", _check_distribution(p, ndim=2, axis=1))

    @property
    def n_inputs(self) -> int:
        return self.probabilities.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.probabilities.shape[1]


def _check_distribution(p, error=InvalidDistribution, ndim: int = 1, axis=None) -> np.ndarray:
    """Probabilities as a nonempty float array with ``ndim`` axes, finite,
    nonnegative and summing to 1 within ``DISTRIBUTION_TOL``, in total or
    along ``axis``; raises ``error`` otherwise, naming the worst sum."""
    p = _read_array(p, float, error)
    if p.ndim != ndim or p.size == 0:
        raise error(f"expected a nonempty {ndim}-D array of probabilities, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise error("probabilities must be finite")
    if p.min() < -DISTRIBUTION_TOL:
        raise error(f"negative probability {p.min():.3e}")
    with np.errstate(over="ignore"):  # finite entries whose sum overflows: sum inf
        sums = np.atleast_1d(p.sum(axis=axis))
    worst = float(sums[np.abs(sums - 1.0).argmax()])
    if abs(worst - 1.0) > DISTRIBUTION_TOL:
        raise error(f"probabilities sum to {worst}, not 1")
    return p


def validate_povm(candidate) -> Povm:
    """Check a list of matrices for POVM validity and wrap it.

    ``PSD_TOL`` bounds the allowed negativity of element eigenvalues,
    ``COMPLETENESS_TOL`` the entrywise deviation of the element sum from
    the identity.  The result keeps, as ``eig``, the decomposition that
    the positivity check took.
    """
    povm = Povm(_matrix_stack(candidate, ShapeMismatch, "POVM elements"))
    smallest = povm.eig.eigenvalues[:, 0]
    bad = np.flatnonzero(smallest < -PSD_TOL)
    if bad.size:
        a = int(bad[0])
        raise NotPsd(
            f"element {a} has eigenvalue {smallest[a]:.3e} below -{PSD_TOL:.1e}", index=a
        )
    with np.errstate(over="ignore"):  # finite elements whose sum overflows deviate by inf
        deviation = np.abs(povm.elements.sum(axis=0) - np.eye(povm.dimension)).max()
    if deviation > COMPLETENESS_TOL:
        raise CompletenessViolation(
            f"elements sum to identity only within {deviation:.3e}", deviation=deviation
        )
    return povm


def trivial_povm(q, d: int) -> Povm:
    """Measurement whose outcome distribution ignores the input state:
    elements ``q(a) * I``."""
    q, d = _check_distribution(q), _read_integer(d, "dimension")
    _check_stack_bytes(len(q), d)
    return Povm(q[:, None, None] * np.eye(d))


def projective_povm(basis) -> Povm:
    """Rank-1 projective measurement onto an orthonormal basis.

    ``basis`` holds the vectors as rows; there must be exactly as many
    vectors as the dimension.
    """
    vecs = _read_array(basis, np.complex128)
    if vecs.ndim != 2 or vecs.size == 0 or len(vecs) != vecs.shape[1]:
        raise NotOrthonormal(f"need d vectors of dimension d >= 1, got shape {vecs.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # huge or NaN entries deviate by inf or NaN
        deviation = np.abs(vecs.conj() @ vecs.T - np.eye(len(vecs))).max()
    if not deviation <= UNITARY_TOL:
        raise NotOrthonormal(f"basis fails orthonormality by {deviation:.3e}")
    return Povm(np.stack([np.outer(v, v.conj()) for v in vecs]))


def rank_one_povm(weights, states) -> Povm:
    """Weighted rank-1 measurement with elements ``alpha_a |psi_a><psi_a|``.

    Completeness is checked, not enforced: the weighted projectors must
    already sum to the identity.
    """
    weights, states = _read_array(weights, float), _read_array(states, np.complex128)
    if states.ndim != 2 or weights.ndim != 1 or len(weights) != len(states) or not states.size:
        raise ShapeMismatch("need a nonempty list of state vectors, one weight per vector")
    with np.errstate(over="ignore", invalid="ignore"):  # validate_povm refuses what overflows
        elements = np.stack([w * np.outer(v, v.conj()) for w, v in zip(weights, states)])
    return validate_povm(elements)


def post_process(m: Povm, stochastic: StochasticMap) -> Povm:
    """Classically relabel outcomes: ``M'_b = sum_a p(b|a) M_a``."""
    m, stochastic = _require_povm(m), _require_map(stochastic)
    if stochastic.n_inputs != m.outcomes:
        raise SizeMismatch(
            f"map expects {stochastic.n_inputs} inputs, measurement has {m.outcomes} outcomes"
        )
    elements = np.einsum("ab,aij->bij", stochastic.probabilities, m.elements)
    return Povm(elements)


def depolarize_povm(m: Povm, eta: float) -> Povm:
    """Mix each element with white noise of the same weight:
    ``(1 - eta) M_a + eta tr[M_a] I / d``."""
    m, eta = _require_povm(m), _read_real(eta, "eta", 1, EtaOutOfRange)
    d = m.dimension
    traces = np.einsum("aii->a", m.elements).real
    eye = np.eye(d, dtype=np.complex128)
    elements = (1.0 - eta) * m.elements + eta * traces[:, None, None] * eye / d
    return Povm(elements)


def random_povm(d: int, o: int, seed: int) -> Povm:
    """Full-rank random measurement, deterministic in the seed.

    Wishart matrices ``W_a = G_a G_a^dag`` are normalized by the inverse
    square root of their sum, which is complete by construction.  A complex
    ``(o, d, d)`` stack above ``MAX_STACK_BYTES`` is a ``ResourceLimit``.
    """
    d, o = _read_integer(d, "dimension"), _read_integer(o, "outcomes")
    _check_stack_bytes(o, d)
    rng = np.random.default_rng(_read_integer(seed, "seed", 0))
    g = (rng.standard_normal((o, d, d)) + 1j * rng.standard_normal((o, d, d))) / math.sqrt(2.0)
    w = np.einsum("aij,akj->aik", g, g.conj())
    total = w.sum(axis=0)
    dec = eig_hermitian(total)
    inv_sqrt = (dec.eigenvectors / np.sqrt(dec.eigenvalues)) @ dec.eigenvectors.conj().T
    elements = np.einsum("ij,ajk,kl->ail", inv_sqrt, w, inv_sqrt)
    elements = 0.5 * (elements + np.conj(np.swapaxes(elements, 1, 2)))
    return Povm(elements)


def random_stochastic_map(n_in: int, n_out: int, seed: int) -> StochasticMap:
    """Random conditional distribution, rows drawn from a flat Dirichlet; a
    table above ``MAX_STACK_BYTES`` is a ``ResourceLimit``."""
    n_in, n_out = _read_integer(n_in, "inputs"), _read_integer(n_out, "outputs")
    _check_bytes(8 * n_in * n_out, f"{n_in} x {n_out} probabilities")
    rng = np.random.default_rng(_read_integer(seed, "seed", 0))
    return StochasticMap(rng.dirichlet(np.ones(n_out), size=n_in))


_require_povm = type_gate(Povm, InvalidPovm)
_require_map = type_gate(StochasticMap, InvalidDistribution)
