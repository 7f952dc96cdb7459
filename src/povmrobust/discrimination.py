"""State-discrimination games.

An ensemble is a list of density matrices with prior probabilities.  The
player is told the ensemble, receives one state, and guesses which one it
was.  Without measuring, the best strategy is to always name the most
likely member; with a fixed measurement, the optimal relabeling of
outcomes is the deterministic argmax, which this module evaluates in
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidEnsemble, InvalidState, dimension_gate, type_gate
from .measurement import Povm, _check_distribution, _require_povm
from .numerics import (_check_stack_bytes, _matrix_stack, _read_integer, as_complex_matrix,
                       eig_hermitian, frozen_copy, frozen_stack)
from .rom import rom_report

STATE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Ensemble:
    """States ``sigma_x`` with priors ``p(x)``, as arrays of shape
    ``(n, d, d)`` and ``(n,)``."""

    states: np.ndarray
    priors: np.ndarray

    def __post_init__(self):
        states = frozen_stack(self.states, InvalidEnsemble)
        priors = frozen_copy(self.priors, float)
        if priors.shape != (states.shape[0],):
            raise InvalidEnsemble("need exactly one prior per state")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "priors", priors)

    @property
    def size(self) -> int:
        return self.states.shape[0]

    @property
    def dimension(self) -> int:
        return self.states.shape[1]


def _state_fault(smallest, trace) -> str | None:
    """Why a Hermitian matrix of this smallest eigenvalue and trace is no
    state, PSD before trace, or None."""
    if smallest < -STATE_TOL:
        return f"state has eigenvalue {smallest:.3e} below -{STATE_TOL:.1e}"
    if abs(trace - 1.0) > STATE_TOL:
        return f"state trace is {float(trace)}, not 1"
    return None


def check_density_matrix(rho) -> np.ndarray:
    """Validate a density matrix: Hermitian, positive semidefinite and of
    unit trace, both within ``STATE_TOL``."""
    m = as_complex_matrix(rho)
    with np.errstate(over="ignore"):  # finite entries whose trace overflows: trace inf
        trace = np.trace(m).real
    fault = _state_fault(eig_hermitian(m).eigenvalues[0], trace)
    if fault is not None:
        raise InvalidState(fault)
    return m


def validate_ensemble(states, priors) -> Ensemble:
    """Check the prior distribution and every member state, in one stacked
    eigendecomposition and one stacked trace, then wrap; the first state that
    fails ``check_density_matrix``'s PSD or trace gate names the error."""
    priors = _check_distribution(priors, InvalidEnsemble)
    states = _matrix_stack(states, InvalidEnsemble, "states")
    with np.errstate(over="ignore"):  # finite entries whose trace overflows: trace inf
        traces = np.trace(states, axis1=1, axis2=2).real
    fault = next(filter(None, map(_state_fault, eig_hermitian(states).eigenvalues[:, 0],
                                  traces)), None)
    if fault is not None:
        raise InvalidEnsemble(fault)
    return Ensemble(states, priors)


def random_density_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    return _random_states(rng, (), d)


def _random_states(rng: np.random.Generator, shape: tuple, d: int) -> np.ndarray:
    """A stack of ``shape`` random full-rank Wishart states ``G G^dag / tr``,
    each ``G`` complex Gaussian with its real part drawn before its imaginary part."""
    g = rng.standard_normal((*shape, 2, d, d))
    w = g[..., 0, :, :] + 1j * g[..., 1, :, :]
    w = w @ w.conj().swapaxes(-1, -2)
    return w / np.einsum("...ii->...", w).real[..., None, None]


def random_ensemble(d: int, size: int, seed: int) -> Ensemble:
    """Random full-rank states with flat-Dirichlet priors, deterministic in
    the seed.  Valid by construction."""
    d, size = _read_integer(d, "dimension"), _read_integer(size, "size")
    _check_stack_bytes(size, d)
    rng = np.random.default_rng(_read_integer(seed, "seed", 0))
    states = _random_states(rng, (size,), d)
    return Ensemble(states, rng.dirichlet(np.ones(size)))


_require_ensemble = type_gate(Ensemble, InvalidEnsemble)


def p_guess_classical(e: Ensemble) -> float:
    """Best success probability without measuring: the largest prior."""
    e = _require_ensemble(e)
    return float(e.priors.max())


def _joint(e: Ensemble, m: Povm) -> np.ndarray:
    """``p(x) tr[sigma_x M_a]`` for every state label ``x`` and outcome
    ``a``, as an ``(n, o)`` array, unclipped."""
    e = _require_ensemble(e)
    m = _require_povm(m)
    dimension_gate("ensemble", e.dimension, "measurement", m.dimension)
    return np.einsum("x,xij,aji->xa", e.priors, e.states, m.elements).real


def p_guess_with_measurement(e: Ensemble, m: Povm) -> float:
    """Best success probability when outcomes of ``m`` may be relabeled
    arbitrarily: ``sum_a max_x p(x) tr[sigma_x M_a]``.

    The optimum over stochastic relabelings is attained by the
    deterministic argmax, so this is exact.
    """
    return float(_joint(e, m).max(axis=0).sum())


def advantage(e: Ensemble, m: Povm) -> float:
    """Ratio of measured to unmeasured guessing probability, at least 1."""
    return p_guess_with_measurement(e, m) / p_guess_classical(e)


def optimal_ensemble(m: Povm) -> Ensemble:
    """The discrimination game this measurement is best at: its dual
    states, provided uniformly at random.

    Playing it achieves an advantage of one plus the robustness of the
    measurement, which no other game exceeds.
    """
    m = _require_povm(m)
    report = rom_report(m)
    priors = np.full(m.outcomes, 1.0 / m.outcomes)
    return Ensemble(report.dual_states, priors)
