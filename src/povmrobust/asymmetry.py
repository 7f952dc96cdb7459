"""Robustness of asymmetry and of coherence.

A state is symmetric under a finite unitary group when it equals its own
group average (twirl).  The robustness of asymmetry is the least noise
weight whose admixture makes a state symmetric; it is computed here as a
dominance program over the twirl-invariant operator subspace, whose
interior-point solve returns a strictly dominating symmetric operator
and a dual operator.  The same solve settles the group-orbit
discrimination game (Takagi and Regula, PRX 9, 031053 (2019)): the
dominating operator bounds every strategy's score from above, and the
dual, rotated over the group, is a measurement whose score bounds it
from below.  Both certificates are checked with plain numpy before a
report is returned, so the orbit-game advantage and the accessible
min-information of the orbit come with a verified bracket and no second
solve.  Coherence is the special case of the dephasing group, where the
symmetric operators are the diagonal ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrimination import Ensemble, check_density_matrix, p_guess_with_measurement
from .errors import InvalidGroup, PovmRobustError, SolverFailure, dimension_gate, type_gate
from .measurement import Povm, validate_povm
from .numerics import (UNITARY_TOL, _check_bytes, _check_stack_bytes, _matrix_stack,
                       _read_integer, as_complex_matrix, frozen_stack, hermitian_basis)
from .solvers import solve_dominating

CLOSURE_TOL = 1e-8
SYMMETRY_TOL = 1e-8
SUBSPACE_DROP_TOL = 1e-9
CERTIFICATE_TOL = 1e-10  # slack of either orbit-game certificate, relative to max(1, value)


@dataclass(frozen=True, eq=False)
class GroupRepresentation:
    """A finite list of unitaries closed under multiplication up to global
    phase, containing the identity, kept as a read-only copy."""

    unitaries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "unitaries", frozen_stack(self.unitaries, InvalidGroup))

    @property
    def order(self) -> int:
        return self.unitaries.shape[0]

    @property
    def dimension(self) -> int:
        return self.unitaries.shape[1]


@dataclass(frozen=True, eq=False)
class AsymmetryReport:
    """Robustness value with its optimal dominating symmetric operator and
    the orbit game it certifies.

    ``game_advantage`` (``tr`` of ``dominating``, so ``1 + value``) bounds
    the orbit-game advantage of every measurement from above; ``witness``
    is a measurement verified to reach ``1 + lower`` in that game, so the
    optimal advantage lies in ``[1 + lower, game_advantage]``.
    ``min_info`` is ``log2(game_advantage)``; ``iterations`` counts the
    interior-point steps of the solve.
    """

    value: float
    dominating: np.ndarray
    game_advantage: float
    min_info: float
    lower: float
    witness: Povm
    iterations: int = 0


def validate_group(unitaries) -> GroupRepresentation:
    """Check unitarity (within ``UNITARY_TOL``), replace each element by its
    nearest unitary (the polar factor ``W V^dag`` of its SVD), check closure
    up to global phase and the presence of the identity on those (both
    within ``CLOSURE_TOL``), then wrap them: every twirl is then exact.  The
    closure check builds a complex ``(|G|, |G|)`` table per element, so an order
    whose table exceeds ``MAX_STACK_BYTES`` (above 4096) is a ``ResourceLimit``."""
    mats = _matrix_stack(unitaries, InvalidGroup, "unitaries")
    d = mats.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries: inf - inf is NaN
        deviations = np.abs(mats.conj().swapaxes(1, 2) @ mats - np.eye(d)).max(axis=(1, 2))
    bad = np.flatnonzero(~(deviations <= UNITARY_TOL))
    if bad.size:
        raise InvalidGroup(f"element {bad[0]} fails unitarity by {deviations[bad[0]]:.3e}")
    w, _, vh = np.linalg.svd(mats)
    mats = w @ vh
    # Phase-insensitive matching: |tr(U_k^dag W)| = d iff W = phase * U_k.
    overlaps = np.abs(np.trace(mats, axis1=1, axis2=2))
    if overlaps.max() < d - CLOSURE_TOL:
        raise InvalidGroup("the group list does not contain the identity")
    _check_bytes(16 * len(mats) ** 2, f"closure tables of order {len(mats)}")
    for i, u in enumerate(mats):
        # best match of U_i U_j over the listed elements, for every j
        matches = np.abs(np.einsum("kab,jab->jk", mats.conj(), u @ mats)).max(axis=1)
        missing = np.flatnonzero(matches < d - CLOSURE_TOL)
        if missing.size:
            raise InvalidGroup(
                f"product of elements {i} and {missing[0]} matches no listed element")
    return GroupRepresentation(mats)


def dephasing_group(d: int) -> GroupRepresentation:
    """Cyclic group of the d diagonal unitaries with d-th root-of-unity
    phases; averaging over it removes every off-diagonal entry."""
    d = _read_integer(d, "dimension")
    _check_stack_bytes(d, d)
    phases = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d)
    return GroupRepresentation(np.stack([np.diag(row) for row in phases]))


_require_group = type_gate(GroupRepresentation, InvalidGroup)


def _conjugates(x, g: GroupRepresentation) -> np.ndarray:
    """The stack ``U_h x U_h^dag`` over the group."""
    u = g.unitaries
    return u @ x @ u.conj().swapaxes(1, 2)


def twirl(rho, g: GroupRepresentation) -> np.ndarray:
    """Group average ``(1/|H|) sum_h U_h rho U_h^dag``; idempotent, and the
    identity map exactly on symmetric inputs.  Each conjugate is divided by
    ``|H|`` before the sum, which cannot then overflow."""
    g = _require_group(g)
    return (_conjugates(_checked_state(rho, g, as_complex_matrix), g) / g.order).sum(axis=0)


def is_symmetric(rho, g: GroupRepresentation) -> bool:
    """True when the state is entrywise within ``SYMMETRY_TOL`` of its twirl."""
    rho = as_complex_matrix(rho)
    return bool(np.abs(rho - twirl(rho, g)).max() <= SYMMETRY_TOL)


def symmetric_subspace_basis(g: GroupRepresentation) -> np.ndarray:
    """Orthonormal Hermitian basis of the twirl-invariant operators.

    Twirling projects onto its own fixed subspace, so the twirled Hermitian
    operator basis spans exactly the symmetric operators of any finite
    group.  The whole basis is twirled in one product with the twirl's
    superoperator.  Read as real vectors of real and imaginary parts, whose
    dot product is the Hilbert-Schmidt inner product of Hermitian matrices,
    the twirled matrices less their identity parts have one SVD; its
    right-singular directions above the drop tolerance follow ``I/sqrt(d)``.
    """
    g = _require_group(g)
    d = g.dimension
    basis = hermitian_basis(d).reshape(d * d, d * d)  # over the budget, refused before the twirl
    flat = g.unitaries.reshape(g.order, d * d)
    # vec(U X U^dag) = (U kron conj U) vec(X) in row-major order: the twirl
    # has entries mean_h U_ij conj(U_kl) at row (i, k) and column (j, l)
    superop = (flat.T @ flat.conj()).reshape(d, d, d, d).transpose(0, 2, 1, 3) / g.order
    twirled = basis @ superop.reshape(d * d, d * d).T
    rows = np.hstack([twirled.real, twirled.imag])
    # the identity is set apart, so the basis starts with exactly I/sqrt(d)
    ident = np.concatenate([np.eye(d).ravel(), np.zeros(d * d)]) / np.sqrt(d)
    rows -= np.outer(rows @ ident, ident)
    # rows the twirl annihilates (all off-diagonal ones under dephasing)
    # add nothing to the span, and dropping them shrinks the SVD
    rows = rows[np.linalg.norm(rows, axis=1) > SUBSPACE_DROP_TOL]
    _, singular, directions = np.linalg.svd(rows, full_matrices=False)
    kept = np.vstack([ident, directions[singular > SUBSPACE_DROP_TOL]])
    return (kept[:, :d * d] + 1j * kept[:, d * d:]).reshape(-1, d, d)


def _checked_state(rho, g: GroupRepresentation, read) -> np.ndarray:
    """``rho`` as ``read`` returns it, of the group's dimension."""
    rho = read(rho)
    dimension_gate("state", rho.shape[0], "group", g.dimension)
    return rho


def _orbit(rho, g: GroupRepresentation) -> Ensemble:
    return Ensemble(_conjugates(rho, g), np.full(g.order, 1.0 / g.order))


def orbit_ensemble(rho, g: GroupRepresentation) -> Ensemble:
    """The group orbit of a state, provided uniformly at random."""
    g = _require_group(g)
    return _orbit(_checked_state(rho, g, check_density_matrix), g)


def roa(rho, g: GroupRepresentation) -> AsymmetryReport:
    """Robustness of asymmetry with its orbit game, from one certified solve.

    Solves ``min tr(sigma) - 1`` over symmetric ``sigma`` dominating the
    state.  Its solution also brackets the optimal guessing probability of
    the orbit game (each ``U_g rho U_g^dag`` with probability ``1/|G|``):

    * ``sigma`` symmetric with ``sigma >= rho`` dominates every orbit
      member, so no measurement guesses right with probability above
      ``tr(sigma) / |G|``;
    * the dual ``Z`` has ``twirl(Z) = I``, so ``M_g = U_g Z U_g^dag / |G|``
      is a measurement guessing right with probability at least
      ``tr[rho Z] / |G|``, the solve's certified lower bound.

    Both are checked before the report is returned, and ``SolverFailure``
    is raised when either fails.  The report's advantage is ``tr(sigma)``
    (the group order times the guessing probability, as the orbit's blind
    guess is ``1/|G|``), its min-information the log of that, and
    ``lower`` the checked score of the witness ``M`` minus one; a score
    above ``tr(sigma)`` is an inverted bracket, also a ``SolverFailure``.
    """
    g = _require_group(g)
    rho = _checked_state(rho, g, check_density_matrix)
    return _certified_asymmetry(rho, g, symmetric_subspace_basis(g))


def _certified_asymmetry(rho, g: GroupRepresentation, basis) -> AsymmetryReport:
    """``roa`` of a checked state over ``basis``, a basis of the symmetric
    operators of ``g``."""
    solution = solve_dominating(basis, rho[None])
    sigma = solution.y
    tol = CERTIFICATE_TOL * max(1.0, abs(solution.value))
    asymmetry = np.abs(twirl(sigma, g) - sigma).max()
    slack = np.linalg.eigvalsh(sigma - rho)[0]
    if asymmetry > tol or slack < -tol:
        raise SolverFailure(f"dominating operator fails its certificate: off symmetric by "
                            f"{asymmetry:.3e}, smallest slack {slack:.3e} (tol {tol:.1e})")
    try:
        witness = validate_povm(_conjugates(solution.duals[0], g) / g.order)
    except PovmRobustError as exc:
        raise SolverFailure(f"dual witness is not a measurement: {exc}") from exc
    score = g.order * p_guess_with_measurement(_orbit(rho, g), witness)
    if score < solution.lower - tol:
        raise SolverFailure(f"dual witness scores {score!r}, below the certified lower "
                            f"bound {solution.lower!r} (tol {tol:.1e})")
    value, lower = solution.value - 1.0, score - 1.0
    if lower > value:
        raise SolverFailure(f"orbit-game bracket is inverted: the witness reaches "
                            f"{lower!r}, above the value {value!r}")
    return AsymmetryReport(value, sigma, solution.value, math.log2(solution.value),
                           lower, witness, solution.iterations)


def roc(rho) -> AsymmetryReport:
    """Robustness of coherence: asymmetry under the dephasing group, where
    the symmetric operators are the diagonal matrices, spanned by the d
    diagonal matrix units ``E_jj``."""
    rho = check_density_matrix(rho)
    d = rho.shape[0]
    return _certified_asymmetry(rho, dephasing_group(d), np.eye(d)[:, :, None] * np.eye(d))
