"""Robustness of measurement: closed form, certificates, pseudo-mixtures.

The robustness of a measurement is the least noise weight ``r`` such that
mixing the measurement with some noise measurement at weight ``r/(1+r)``
yields outcome statistics independent of the input state.  For a POVM it
evaluates in closed form to the sum of the element operator norms minus
one, and is certified on both sides: primal weights ``q~*(a)`` equal to
the element norms, and dual states given by top-eigenvalue projectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionOne, ShapeMismatch
from .measurement import Povm, _require_povm
from .numerics import _read_array, _read_real

TRIVIAL_TOL = 1e-9
PSEUDO_MIXTURE_TOL = 1e-8
_DEGENERACY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class PseudoMixture:
    """Decomposition ``(M_a + r N_a) / (1 + r) = q(a) I`` certifying the
    robustness value ``r``."""

    r: float
    noise: Povm
    q: np.ndarray


@dataclass(frozen=True, eq=False)
class RobustnessReport:
    """Robustness value with primal and dual certificates.

    ``pseudo_mixture`` is ``None`` for trivial measurements, where the
    decomposition is vacuous (the noise weight would be zero).
    """

    value: float
    primal_weights: np.ndarray
    dual_states: np.ndarray
    pseudo_mixture: PseudoMixture | None

    @property
    def trivial(self) -> bool:
        return self.pseudo_mixture is None


def rom(m: Povm) -> float:
    """Robustness of measurement, ``sum_a ||M_a||_inf - 1``."""
    m = _require_povm(m)
    return float(m.eig.eigenvalues[:, -1].sum() - 1.0)


def rom_report(m: Povm) -> RobustnessReport:
    """Robustness with optimal primal weights, dual states, and (for
    nontrivial measurements) an explicit pseudo-mixture.

    The dual state for each outcome is the projector onto a top-eigenvalue
    eigenvector; under degeneracy the eigenvector of smallest index in the
    ascending decomposition is taken, for determinism.  The report is
    computed on first use and kept on ``m`` with every array read-only, as
    ``m.eig`` is, so every view of one measurement shares it.
    """
    m = _require_povm(m)
    kept = vars(m).get("_rom_report")
    if kept is None:
        kept = vars(m)["_rom_report"] = _report(m)
    return kept


def _report(m: Povm) -> RobustnessReport:
    d = m.dimension
    dec = m.eig
    weights = dec.eigenvalues[:, -1]
    cutoff = weights - _DEGENERACY_TOL * np.maximum(1.0, np.abs(weights))
    first = (dec.eigenvalues < cutoff[:, None]).sum(axis=1)
    v = dec.eigenvectors[np.arange(m.outcomes), :, first]
    duals = np.einsum("ai,aj->aij", v, v.conj())
    duals.setflags(write=False)
    value = float(weights.sum() - 1.0)
    if value <= TRIVIAL_TOL:
        return RobustnessReport(value, weights, duals, None)
    eye = np.eye(d, dtype=np.complex128)
    noise = Povm((weights[:, None, None] * eye - m.elements) / value)
    q = weights / (1.0 + value)
    q.setflags(write=False)
    return RobustnessReport(value, weights, duals, PseudoMixture(value, noise, q))


def uniform_noise_mixture(m: Povm) -> tuple[Povm, np.ndarray, float]:
    """The always-available pseudo-mixture with noise weight ``d - 1``:
    ``N_a = (tr[M_a] I - M_a) / (d - 1)`` and ``q(a) = tr[M_a] / d``.

    Its existence bounds the robustness by ``d - 1`` for every measurement.
    """
    m = _require_povm(m)
    d = m.dimension
    if d < 2:
        raise DimensionOne("the uniform noise mixture needs dimension at least 2")
    traces = np.einsum("aii->a", m.elements).real
    eye = np.eye(d, dtype=np.complex128)
    noise = Povm((traces[:, None, None] * eye - m.elements) / (d - 1.0))
    return noise, traces / d, float(d - 1)


def verify_pseudo_mixture(m: Povm, noise: Povm, q, r: float) -> bool:
    """Check ``(M_a + r N_a) / (1 + r) = q(a) I`` entrywise within
    ``PSEUDO_MIXTURE_TOL``; ``r`` must be finite and nonnegative."""
    r, m, noise = _read_real(r, "r"), _require_povm(m), _require_povm(noise)
    q = _read_array(q, float)
    if noise.elements.shape != m.elements.shape or q.shape != (m.outcomes,):
        raise ShapeMismatch("measurement, noise and distribution shapes disagree")
    eye = np.eye(m.dimension, dtype=np.complex128)
    mixed = (m.elements + r * noise.elements) / (1.0 + r)
    deviation = np.abs(mixed - q[:, None, None] * eye).max()
    return bool(deviation <= PSEUDO_MIXTURE_TOL)
