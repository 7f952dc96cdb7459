"""Reference values computed apart from the package, with plain numpy.

Every function here takes arrays and returns numbers; none imports
``povmrobust``.  The workloads compare the package's outputs against
these, so a fault in the package cannot hide by also shifting its own
reference.  The closed forms for coherence follow Napoli et al.,
PRL 116, 150502 (2016).
"""

from __future__ import annotations

import numpy as np


class CheckFailed(Exception):
    """A returned value disagrees with its reference beyond tolerance."""


class Worst:
    """Running maximum of the absolute errors of one run's checks, kept
    per check name so the README can list each check's worst error."""

    def __init__(self):
        self.by_check: dict[str, float] = {}

    def close(self, name: str, value: float, reference: float, tol: float) -> None:
        """Record ``|value - reference|`` and fail beyond ``tol``."""
        self.record(name, abs(float(value) - float(reference)), tol)

    def at_most(self, name: str, value: float, bound: float, tol: float) -> None:
        """Record how far ``value`` exceeds ``bound`` (0 when it does not)."""
        self.record(name, max(0.0, float(value) - float(bound)), tol)

    def record(self, name: str, err: float, tol: float) -> None:
        if not err <= tol:
            raise CheckFailed(f"{name}: error {err:.3e} exceeds {tol:.1e}")
        self.by_check[name] = max(self.by_check.get(name, 0.0), err)

    def require(self, name: str, condition: bool) -> None:
        if not condition:
            raise CheckFailed(name)

    @property
    def worst(self) -> float:
        return max(self.by_check.values(), default=0.0)


def rom(elements: np.ndarray) -> float:
    """Robustness of measurement: ``sum_a max eigvalsh(M_a) - 1``."""
    return float(np.linalg.eigvalsh(elements)[:, -1].sum() - 1.0)


def min_eig(m: np.ndarray) -> float:
    """Smallest eigenvalue of one Hermitian matrix or of a stack."""
    return float(np.linalg.eigvalsh(m)[..., 0].min())


def completeness_error(elements: np.ndarray) -> float:
    d = elements.shape[-1]
    return float(np.abs(elements.sum(axis=0) - np.eye(d)).max())


def p_guess(priors: np.ndarray, states: np.ndarray, elements: np.ndarray) -> float:
    """Guessing probability with the best relabeling of outcomes:
    ``sum_a max_x p(x) tr[rho_x M_a]``."""
    joint = np.einsum("x,xij,aji->xa", priors, states, elements).real
    return float(joint.max(axis=0).sum())


def helstrom(p0: float, rho0: np.ndarray, p1: float, rho1: np.ndarray) -> float:
    """Optimal guessing probability of two states: ``(1 + ||p0 rho0 - p1 rho1||_1) / 2``."""
    trace_norm = np.abs(np.linalg.eigvalsh(p0 * rho0 - p1 * rho1)).sum()
    return float(0.5 * (1.0 + trace_norm))


def l1_coherence(rho: np.ndarray) -> float:
    """Sum of the absolute off-diagonal entries."""
    return float(np.abs(rho).sum() - np.abs(np.diag(rho)).sum())


def roc_pure(psi: np.ndarray) -> float:
    """Robustness of coherence of a pure state: ``(sum_i |psi_i|)^2 - 1``."""
    return float(np.abs(psi).sum() ** 2 - 1.0)


def roc_qubit(rho: np.ndarray) -> float:
    """Robustness of coherence of a qubit state: ``2 |rho_01|``."""
    return float(2.0 * abs(rho[0, 1]))


def roc_interval(rho: np.ndarray) -> tuple[float, float]:
    """Bounds ``[C_l1 / (d - 1), C_l1]`` on the robustness of coherence."""
    c = l1_coherence(rho)
    return c / (rho.shape[0] - 1), c
