"""Post-processing simulability of measurements.

One measurement simulates another when the target elements are mixtures
of the source elements under a stochastic relabeling of outcomes.  That
is a linear feasibility problem in the span of the source elements, a
sign check on its only solution when they are independent and a
nonnegative least-squares problem when they are not.  On failure, a
negative entry of that solution, the least residual (a Farkas vector) or
the part of the target outside that span produces a separating functional
which is converted into an explicit discrimination game the target wins
strictly.  Every negative verdict therefore ships a numerically verified
witness, never just an infeasibility flag.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .discrimination import Ensemble, _table
from .errors import InvalidArgument, SolverFailure, dimension_gate, type_gate
from .measurement import COMPLETENESS_TOL, Povm, StochasticMap, _require_povm
from .numerics import _dagger, check_hermitian, frozen_copy, frozen_stack
from .solvers import FEASIBILITY_TOL, OPTIMAL, _rows, solve_lp

SIMULABLE = "Simulable"
NOT_SIMULABLE = "NotSimulable"

WITNESS_GAP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SimulabilityCertificate:
    """Dual separating functional: one Hermitian ``Z_b`` per target
    outcome plus one scalar per source outcome.

    Validity means ``tr[Z_b M_a] + z_a <= 0`` for every outcome pair while
    ``sum_b tr[Z_b M'_b] + sum_a z_a > 0``: the target scores strictly
    higher, which no post-processing of the source could.  Both are kept as
    read-only copies: the operators a nonempty ``(n, d, d)`` stack, the scalars
    a 1-D float array (``InvalidArgument`` otherwise)."""

    operators: np.ndarray
    scalars: np.ndarray

    def __post_init__(self):
        scalars = frozen_copy(self.scalars, float)
        if scalars.ndim != 1:
            raise InvalidArgument(f"scalars must be a 1-D array, got shape {scalars.shape}")
        object.__setattr__(self, "operators", frozen_stack(self.operators, InvalidArgument))
        object.__setattr__(self, "scalars", scalars)


_require_certificate = type_gate(SimulabilityCertificate, InvalidArgument)


@dataclass(frozen=True)
class SimulabilityResult:
    verdict: str
    map: StochasticMap | None = None
    residual: float | None = None
    certificate: SimulabilityCertificate | None = None
    witness: Ensemble | None = None
    gap: float | None = None
    entries: int | None = None  # columns the LP's NNLS entered; None when no LP ran

    @property
    def simulable(self) -> bool:
        return self.verdict == SIMULABLE


def is_simulable(m: Povm, target: Povm) -> SimulabilityResult:
    """Decide whether ``target`` is a post-processing of ``m``.

    Feasibility of ``sum_a p(b|a) M_a = M'_b`` with stochastic ``p`` is
    checked in an orthonormal frame of the span of the source elements
    (one SVD, rank ``r <= min(o, d*d)``): target elements outside it by
    more than ``FEASIBILITY_TOL`` give the certificate directly.  With
    ``r == o`` the solution is unique: a map unless an entry is below minus
    that tolerance, when its negative entries give a certificate with zero
    scalars; otherwise, or if that certificate fails, an LP with ``r`` rows
    per target outcome decides at that tolerance (``solve_lp``: feasible when
    its least residual has 2-norm within it), its Farkas vector lifted back
    through the frame.  A positive verdict carries the map and its
    residual, at most ``COMPLETENESS_TOL``; a negative one the dual
    certificate plus a verified witness ensemble on which the target beats ``m``.
    """
    m = _require_povm(m)
    target = _require_povm(target)
    dimension_gate("source", m.dimension, "target", target.dimension)
    d = m.dimension
    o, o_target = m.outcomes, target.outcomes
    source_coords = _rows(m.elements)       # (o, 2*d*d); tr[A B] = _rows(A) . _rows(B)
    target_coords = _rows(target.elements)  # (o', 2*d*d)
    _, sing, vt = np.linalg.svd(source_coords, full_matrices=False)
    frame = vt[sing > sing[0] * max(o, d * d) * np.finfo(float).eps]      # (r, 2*d*d)
    target_in = target_coords @ frame.T                                    # (o', r)
    outside = target_coords - target_in @ frame

    if np.abs(outside).max() > FEASIBILITY_TOL:
        # Z_b = the part of M'_b outside the span: tr[Z_b M_a] = 0 for every
        # a, while the target scores sum_b |Z_b|^2 > 0.
        return _refuted(m, target, outside, np.zeros(o), None)
    r = frame.shape[0]
    source_in = source_coords @ frame.T  # (o, r)
    if r == o:
        # Independent elements: q is unique, and the dual frame D = C^-T frame
        # (C = source_in, tr[D_a M_c] = delta_ac) turns q(b|a) < 0 into Z_b = -D_a.
        q = np.linalg.solve(source_in.T, target_in.T)  # (o, o')
        if q.min() >= -FEASIBILITY_TOL and np.abs(q.sum(axis=1) - 1.0).sum() <= FEASIBILITY_TOL:
            return _simulable(m, target, q, None)
        dual = np.linalg.solve(source_in.T, frame)
        with suppress(SolverFailure):  # a witness below WITNESS_GAP_TOL: the LP decides
            return _refuted(m, target, (q < 0.0).T @ -dual, np.zeros(o), None)
    n_vars = o * o_target  # column a * o_target + b
    a_eq = np.concatenate([
        np.einsum("ak,bc->bkac", source_in, np.eye(o_target)).reshape(o_target * r, n_vars),
        np.repeat(np.eye(o), o_target, axis=1),
    ])
    b_eq = np.concatenate([target_in.ravel(), np.ones(o)])
    sol = solve_lp(a_eq, b_eq)
    if sol.status == OPTIMAL:
        return _simulable(m, target, sol.x.reshape(o, o_target), sol.iterations)
    y = sol.farkas
    return _refuted(m, target, y[:o_target * r].reshape(o_target, r) @ frame,
                    y[o_target * r:], sol.iterations)


def _simulable(m: Povm, target: Povm, p: np.ndarray, entries: int | None) -> SimulabilityResult:
    """The verdict for a solution ``p``, clipped at 0 and renormalized, if it
    reproduces the target within ``COMPLETENESS_TOL`` entrywise."""
    p = np.maximum(p, 0.0)
    sums = p.sum(axis=1, keepdims=True)
    if not sums.min() > 0.0:
        raise SolverFailure(f"the simulating map has a row summing to {sums.min():.3e}")
    simulation = StochasticMap(p / sums)
    rebuilt = np.einsum("ab,aij->bij", simulation.probabilities, m.elements)  # as post_process
    residual = float(np.abs(rebuilt - target.elements).max())
    if not residual <= COMPLETENESS_TOL:
        raise SolverFailure(f"the simulating map misses the target by {residual:.3e}")
    return SimulabilityResult(SIMULABLE, map=simulation, residual=residual, entries=entries)


def _refuted(m: Povm, target: Povm, coords: np.ndarray, scalars: np.ndarray,
             entries: int | None) -> SimulabilityResult:
    """The verdict for a functional in ``_rows`` coordinates, if its witness verifies."""
    d = m.dimension
    operators = np.ascontiguousarray(coords).view(np.complex128).reshape(-1, d, d)
    certificate = _normalized(operators, scalars)
    witness, gap = _witness(m, target, certificate)
    return SimulabilityResult(NOT_SIMULABLE, certificate=certificate,
                              witness=witness, gap=gap, entries=entries)


def _normalized(operators: np.ndarray, scalars: np.ndarray) -> SimulabilityCertificate:
    """Hermitian parts and scalars over their largest modulus, from quarters: no overflow."""
    quarter = 0.25 * operators
    halves = quarter + _dagger(quarter)
    scale = max(np.abs(halves).max(), 0.5 * max(np.abs(scalars).max(initial=0.0), 1e-300))
    return SimulabilityCertificate(halves / scale, 0.5 * scalars / scale)


def witness_from_certificate(m: Povm, target: Povm,
                             certificate: SimulabilityCertificate) -> Ensemble:
    """Turn a separating functional into a discrimination game the target
    wins by at least ``WITNESS_GAP_TOL``.

    The operators, Hermitian within ``HERMITIAN_TOL`` (``NotHermitian``) and
    finite (``InvalidArgument``), and the scalars are divided by their largest
    modulus as ``is_simulable`` does its own, so every positive multiple gives
    one game.  They are shifted by a common multiple of the identity until
    all are positive semidefinite, then normalized: traces become priors, the
    shifted operators become states.  The gap of this ensemble is checked
    numerically; in exact arithmetic it is at least the certificate's Farkas
    value over the total trace, so a gap below the tolerance means the
    certificate itself did not verify, and ``SolverFailure`` is raised.
    Operators of another dimension than the source's are a ``DimensionMismatch``.
    """
    m, target = _require_povm(m), _require_povm(target)
    certificate = _require_certificate(certificate)
    dimension_gate("certificate", certificate.operators.shape[1], "source", m.dimension)
    operators = check_hermitian(certificate.operators)
    return _witness(m, target, _normalized(operators, certificate.scalars))[0]


def _witness(m: Povm, target: Povm,
             certificate: SimulabilityCertificate) -> tuple[Ensemble, float]:
    """``witness_from_certificate`` and its gap for a ``_normalized`` certificate: exactly
    Hermitian, and 1 the largest modulus of its operators and scalars."""
    d = m.dimension
    z_ops = certificate.operators
    shift = max(0.0, -np.linalg.eigh(z_ops).eigenvalues[:, 0].min())
    eye = np.eye(d, dtype=np.complex128)

    shifted = z_ops + shift * eye
    weights = np.einsum("bii->b", shifted).real
    total = weights.sum()
    gap = 0.0
    if total > 1e-12:
        states = np.where(
            (weights > 1e-12 * max(1.0, total))[:, None, None],
            shifted / np.where(weights > 1e-12, weights, 1.0)[:, None, None],
            eye / d,
        )
        candidate = Ensemble(states, weights / total)
        best = _table(candidate, np.concatenate([target.elements, m.elements])).max(axis=0)
        gap = best[:target.outcomes].sum() - best[target.outcomes:].sum()
        if gap >= WITNESS_GAP_TOL:
            return candidate, float(gap)
    raise SolverFailure(
        "the LP's infeasibility certificate did not verify: its witness game "
        f"has gap {gap:.3e}, below {WITNESS_GAP_TOL:.1e}"
    )
