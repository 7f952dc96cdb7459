"""Robustness of asymmetry and of coherence.

A state is symmetric under a finite unitary group when it equals its own
group average (twirl).  The robustness of asymmetry is the least noise
weight whose admixture makes a state symmetric; it is computed here as a
dominance program over the twirl-invariant operator subspace, whose
interior-point solve returns a strictly dominating symmetric operator.
It is cross checked by two identities: the optimal advantage in the
group-orbit discrimination game, and the accessible min-information of
the orbit ensemble.  Both come from one guessing-value solve of the
orbit, independent of the robustness solve.  Coherence is the special
case of the dephasing group, where the symmetric operators are the
diagonal ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrimination import Ensemble, check_density_matrix
from .errors import DimensionMismatch, InfeasibleSubspace, InvalidGroup
from .numerics import as_complex_matrix, hermitian_basis
from .solvers import (
    DominanceProgram,
    INFEASIBLE,
    min_error_guess_value,
    solve_dominating,
)

UNITARY_TOL = 1e-9
CLOSURE_TOL = 1e-8
GRAM_SCHMIDT_DROP_TOL = 1e-9


@dataclass(frozen=True)
class GroupRepresentation:
    """A finite list of unitaries closed under multiplication up to global
    phase, containing the identity."""

    unitaries: np.ndarray
    identity_index: int

    @property
    def order(self) -> int:
        return self.unitaries.shape[0]

    @property
    def dimension(self) -> int:
        return self.unitaries.shape[1]


@dataclass(frozen=True)
class AsymmetryReport:
    """Robustness value with its optimal dominating symmetric operator and
    the two operational cross-checks."""

    value: float
    dominating: np.ndarray
    game_advantage: float
    min_info: float


def validate_group(unitaries, *, unitary_tol: float = UNITARY_TOL,
                   closure_tol: float = CLOSURE_TOL) -> GroupRepresentation:
    """Check unitarity, closure up to global phase, and the presence of the
    identity, then wrap the list."""
    mats = [as_complex_matrix(u) for u in unitaries]
    if not mats:
        raise InvalidGroup("a group needs at least one element")
    shapes = sorted({u.shape for u in mats})
    if len(shapes) > 1:
        raise InvalidGroup(f"need unitaries of one dimension, got shapes {shapes}")
    mats = np.stack(mats)
    d = mats.shape[1]
    eye = np.eye(d)
    deviations = np.abs(mats.conj().swapaxes(1, 2) @ mats - eye).max(axis=(1, 2))
    bad = np.flatnonzero(deviations > unitary_tol)
    if bad.size:
        raise InvalidGroup(f"element {bad[0]} fails unitarity by {deviations[bad[0]]:.3e}")
    # Phase-insensitive matching: |tr(U_k^dag W)| = d iff W = phase * U_k.
    overlaps = np.abs(np.einsum("kji,ij->k", mats.conj(), eye))
    identity_index = int(np.argmax(overlaps))
    if overlaps[identity_index] < d - closure_tol:
        raise InvalidGroup("the group list does not contain the identity")
    for i, u in enumerate(mats):
        # best match of U_i U_j over the listed elements, for every j
        matches = np.abs(np.einsum("kba,jab->jk", mats.conj(), u @ mats)).max(axis=1)
        missing = np.flatnonzero(matches < d - closure_tol)
        if missing.size:
            raise InvalidGroup(
                f"product of elements {i} and {missing[0]} matches no listed element")
    return GroupRepresentation(mats, identity_index)


def dephasing_group(d: int) -> GroupRepresentation:
    """Cyclic group of the d diagonal unitaries with d-th root-of-unity
    phases; averaging over it removes every off-diagonal entry."""
    phases = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d)
    return GroupRepresentation(np.stack([np.diag(row) for row in phases]), 0)


def _require_group(g) -> GroupRepresentation:
    if not isinstance(g, GroupRepresentation):
        raise InvalidGroup(f"expected a GroupRepresentation, got {type(g).__name__}")
    return g


def twirl(rho, g: GroupRepresentation) -> np.ndarray:
    """Group average ``(1/|H|) sum_h U_h rho U_h^dag``; idempotent, and the
    identity map exactly on symmetric inputs."""
    g = _require_group(g)
    rho = as_complex_matrix(rho)
    if rho.shape[0] != g.dimension:
        raise DimensionMismatch(
            f"state dimension {rho.shape[0]} vs group dimension {g.dimension}"
        )
    u = g.unitaries
    return np.einsum("hij,jk,hlk->il", u, rho, u.conj()) / g.order


def is_symmetric(rho, g: GroupRepresentation, tol: float = 1e-8) -> bool:
    """True when the state is entrywise within ``tol`` of its twirl."""
    rho = as_complex_matrix(rho)
    return bool(np.abs(rho - twirl(rho, g)).max() <= tol)


def symmetric_subspace_basis(g: GroupRepresentation) -> np.ndarray:
    """Orthonormal Hermitian basis of the twirl-invariant operators.

    Twirling projects onto its own fixed subspace, so twirling a full
    operator basis and orthogonalizing (dropping numerically null
    directions) spans exactly the symmetric operators of any finite
    group, with no representation theory required.
    """
    g = _require_group(g)
    d = g.dimension
    accepted: list[np.ndarray] = []
    for candidate in hermitian_basis(d):
        t = twirl(candidate, g)
        t = 0.5 * (t + t.conj().T)
        for q in accepted:
            t = t - np.einsum("ij,ji->", q, t).real * q
        norm = math.sqrt(abs(np.einsum("ij,ji->", t, t).real))
        if norm > GRAM_SCHMIDT_DROP_TOL:
            accepted.append(t / norm)
    return np.stack(accepted)


def orbit_ensemble(rho, g: GroupRepresentation) -> Ensemble:
    """The group orbit of a state, provided uniformly at random."""
    g = _require_group(g)
    rho = check_density_matrix(rho)
    if rho.shape[0] != g.dimension:
        raise DimensionMismatch(
            f"state dimension {rho.shape[0]} vs group dimension {g.dimension}"
        )
    u = g.unitaries
    states = np.einsum("hij,jk,hlk->hil", u, rho, u.conj())
    return Ensemble(states, np.full(g.order, 1.0 / g.order))


def roa(rho, g: GroupRepresentation) -> AsymmetryReport:
    """Robustness of asymmetry with operational cross-checks.

    Solves ``min tr(sigma) - 1`` over symmetric ``sigma`` dominating the
    state; the report also carries the orbit-game advantage (the group
    order times the optimal guessing probability) and the accessible
    min-information of the orbit, each of which must reproduce the
    robustness through its own identity.
    """
    g = _require_group(g)
    orbit = orbit_ensemble(rho, g)  # validates the state and its dimension
    basis = symmetric_subspace_basis(g)
    solution = solve_dominating(DominanceProgram(g.dimension, basis, as_complex_matrix(rho)[None]))
    if solution.status == INFEASIBLE:
        raise InfeasibleSubspace("no symmetric operator dominates the state")
    # The orbit is uniform, so its blind guessing probability is 1/|G| and
    # the one orbit solve gives both the advantage and the min-information.
    p_guess = min_error_guess_value(orbit)
    return AsymmetryReport(solution.value - 1.0, solution.y, g.order * p_guess,
                           math.log2(g.order * p_guess))


def roc(rho) -> AsymmetryReport:
    """Robustness of coherence: asymmetry under the dephasing group, where
    the symmetric operators are the diagonal matrices."""
    rho = check_density_matrix(rho)
    return roa(rho, dephasing_group(rho.shape[0]))
