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

from .errors import DimensionMismatch, InvalidEnsemble, InvalidState
from .measurement import Povm, _check_distribution, _require_povm
from .numerics import check_hermitian, eig_hermitian
from .rom import rom_report
from .tolerances import resolve

STATE_TOL = 1e-9
PRIOR_TOL = 1e-10


@dataclass(frozen=True)
class Ensemble:
    """States ``sigma_x`` with priors ``p(x)``, as arrays of shape
    ``(n, d, d)`` and ``(n,)``."""

    states: np.ndarray
    priors: np.ndarray

    def __post_init__(self):
        states = np.ascontiguousarray(np.asarray(self.states, dtype=np.complex128))
        priors = np.ascontiguousarray(np.asarray(self.priors, dtype=float))
        if states.ndim != 3 or states.shape[1] != states.shape[2]:
            raise InvalidEnsemble(f"states must have shape (n, d, d), got {states.shape}")
        if priors.shape != (states.shape[0],):
            raise InvalidEnsemble("need exactly one prior per state")
        states.setflags(write=False)
        priors.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "priors", priors)

    @property
    def size(self) -> int:
        return self.states.shape[0]

    @property
    def dimension(self) -> int:
        return self.states.shape[1]


def check_density_matrix(rho, tol: float | None = None) -> np.ndarray:
    """Validate a density matrix: Hermitian, positive semidefinite within
    ``tol``, unit trace within ``tol``."""
    tol = resolve(STATE_TOL) if tol is None else tol
    m = check_hermitian(rho)
    smallest = eig_hermitian(m).eigenvalues[0]
    if smallest < -tol:
        raise InvalidState(f"state has eigenvalue {smallest:.3e} below -{tol:.1e}")
    trace = np.trace(m).real
    if abs(trace - 1.0) > tol:
        raise InvalidState(f"state trace is {float(trace)}, not 1")
    return m


def validate_ensemble(states, priors) -> Ensemble:
    """Check every member state and the prior distribution, then wrap."""
    priors = _check_distribution(priors, InvalidEnsemble, PRIOR_TOL)
    try:
        checked = [check_density_matrix(s) for s in states]
    except InvalidState as exc:
        raise InvalidEnsemble(str(exc)) from exc
    if len(checked) != priors.size:
        raise InvalidEnsemble("need exactly one prior per state")
    return Ensemble(np.stack(checked), priors)


def random_density_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w = g @ g.conj().T
    return w / np.trace(w).real


def random_ensemble(d: int, size: int, seed: int) -> Ensemble:
    """Random full-rank states with flat-Dirichlet priors, deterministic in
    the seed.  Valid by construction."""
    rng = np.random.default_rng(seed)
    # the draws of ``random_density_matrix`` state by state, in one call
    g = rng.standard_normal((size, 2, d, d))
    w = g[:, 0] + 1j * g[:, 1]
    w = w @ w.conj().swapaxes(-1, -2)
    states = w / np.einsum("xii->x", w).real[:, None, None]
    priors = rng.dirichlet(np.ones(size))
    return Ensemble(states, priors)


def _require_ensemble(e) -> Ensemble:
    if not isinstance(e, Ensemble):
        raise InvalidEnsemble(f"expected an Ensemble, got {type(e).__name__}")
    return e


def p_guess_classical(e: Ensemble) -> float:
    """Best success probability without measuring: the largest prior."""
    e = _require_ensemble(e)
    return float(e.priors.max())


def p_guess_with_measurement(e: Ensemble, m: Povm) -> float:
    """Best success probability when outcomes of ``m`` may be relabeled
    arbitrarily: ``sum_a max_x p(x) tr[sigma_x M_a]``.

    The optimum over stochastic relabelings is attained by the
    deterministic argmax, so this is exact.
    """
    e = _require_ensemble(e)
    m = _require_povm(m)
    if e.dimension != m.dimension:
        raise DimensionMismatch(
            f"ensemble dimension {e.dimension} vs measurement dimension {m.dimension}"
        )
    joint = np.einsum("x,xij,aji->xa", e.priors, e.states, m.elements).real
    return float(joint.max(axis=0).sum())


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
