"""Post-processing simulability of measurements.

One measurement simulates another when the target elements are mixtures
of the source elements under a stochastic relabeling of outcomes.  That
is a linear feasibility problem; on failure, LP duality produces a
separating functional which is converted into an explicit discrimination
game the target wins strictly.  Every negative verdict therefore ships a
numerically verified witness, never just an infeasibility flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discrimination import Ensemble, p_guess_with_measurement, random_ensemble
from .errors import DimensionMismatch, SolverFailure
from .measurement import Povm, StochasticMap, _require_povm, post_process
from .numerics import eig_hermitian, hermitian_basis
from .solvers import INFEASIBLE, LpProblem, OPTIMAL, solve_lp

SIMULABLE = "Simulable"
NOT_SIMULABLE = "NotSimulable"

EQUALITY_TOL = 1e-9
WITNESS_GAP_TOL = 1e-9


@dataclass(frozen=True)
class SimulabilityCertificate:
    """Dual separating functional: one Hermitian ``Z_b`` per target
    outcome plus one scalar per source outcome.

    Validity means ``tr[Z_b M_a] + z_a <= 0`` for every outcome pair while
    ``sum_b tr[Z_b M'_b] + sum_a z_a > 0``: the target scores strictly
    higher, which no post-processing of the source could."""

    operators: np.ndarray
    scalars: np.ndarray


@dataclass(frozen=True)
class SimulabilityResult:
    verdict: str
    map: StochasticMap | None = None
    residual: float | None = None
    certificate: SimulabilityCertificate | None = None
    witness: Ensemble | None = None
    gap: float | None = None

    @property
    def simulable(self) -> bool:
        return self.verdict == SIMULABLE


def is_simulable(m: Povm, target: Povm, *,
                 eq_tol: float = EQUALITY_TOL) -> SimulabilityResult:
    """Decide whether ``target`` is a post-processing of ``m``.

    Feasibility of ``sum_a p(b|a) M_a = M'_b`` with stochastic ``p`` is
    checked as an LP, with the operator equalities expanded over an
    orthonormal Hermitian basis (``d*d`` real rows per target outcome).
    A positive verdict carries the stochastic map and its reconstruction
    residual; a negative one carries the dual certificate plus a verified
    witness ensemble on which the target strictly outperforms ``m``.
    """
    m = _require_povm(m)
    target = _require_povm(target)
    if m.dimension != target.dimension:
        raise DimensionMismatch(
            f"source dimension {m.dimension} vs target dimension {target.dimension}"
        )
    d = m.dimension
    o, o_target = m.outcomes, target.outcomes
    basis = hermitian_basis(d)
    source_coords = np.einsum("kij,aji->ak", basis, m.elements).real       # (o, d*d)
    target_coords = np.einsum("kij,aji->ak", basis, target.elements).real  # (o', d*d)

    n_vars = o * o_target  # column a * o_target + b
    n_op_rows = o_target * d * d
    a_eq = np.zeros((n_op_rows + o, n_vars))
    b_eq = np.zeros(n_op_rows + o)
    for b in range(o_target):
        for k in range(d * d):
            row = b * d * d + k
            a_eq[row, b::o_target] = source_coords[:, k]
            b_eq[row] = target_coords[b, k]
    for a in range(o):
        a_eq[n_op_rows + a, a * o_target:(a + 1) * o_target] = 1.0
        b_eq[n_op_rows + a] = 1.0

    lp = LpProblem(np.zeros(n_vars), a_eq=a_eq, b_eq=b_eq, nonneg=True)
    sol = solve_lp(lp, feas_tol=eq_tol)
    if sol.status == OPTIMAL:
        p = np.clip(sol.x.reshape(o, o_target), 0.0, None)
        p /= p.sum(axis=1, keepdims=True)
        simulation = StochasticMap(p)
        residual = float(np.abs(post_process(m, simulation).elements - target.elements).max())
        return SimulabilityResult(SIMULABLE, map=simulation, residual=residual)
    if sol.status != INFEASIBLE:
        raise SolverFailure(f"simulability LP returned {sol.status}")

    y = sol.farkas_eq
    operators = np.tensordot(y[:n_op_rows].reshape(o_target, d * d), basis, axes=1)
    scalars = y[n_op_rows:]
    scale = max(np.abs(operators).max(), np.abs(scalars).max(initial=0.0), 1e-300)
    certificate = SimulabilityCertificate(operators / scale, scalars / scale)
    witness = witness_from_certificate(m, target, certificate)
    gap = p_guess_with_measurement(witness, target) - p_guess_with_measurement(witness, m)
    return SimulabilityResult(NOT_SIMULABLE, certificate=certificate,
                              witness=witness, gap=float(gap))


def witness_from_certificate(m: Povm, target: Povm,
                             certificate: SimulabilityCertificate) -> Ensemble:
    """Turn a separating functional into a discrimination game the target
    wins by at least ``WITNESS_GAP_TOL``.

    The certificate operators are shifted by a common multiple of the
    identity until all are positive semidefinite, then normalized: traces
    become priors, the shifted operators become states.  The gap of this
    ensemble is checked numerically; in exact arithmetic it is at least
    the certificate's Farkas value over the total trace, so a gap below
    the tolerance means the certificate itself did not verify, and
    ``SolverFailure`` is raised.
    """
    m = _require_povm(m)
    target = _require_povm(target)
    d = m.dimension
    z_ops = np.asarray(certificate.operators, dtype=np.complex128)
    shift = max(0.0, -eig_hermitian(z_ops).eigenvalues[:, 0].min())
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
        gap = (p_guess_with_measurement(candidate, target)
               - p_guess_with_measurement(candidate, m))
        if gap >= WITNESS_GAP_TOL:
            return candidate
    raise SolverFailure(
        "the LP's infeasibility certificate did not verify: its witness game "
        f"has gap {gap:.3e}, below {WITNESS_GAP_TOL:.1e}"
    )


def monotone_suite(m: Povm, target: Povm, n_ensembles: int, seed: int) -> bool:
    """Necessary condition for simulability, checked on random games:
    the target must never outperform the source.

    Sound but not complete at finite sample size; a single violation
    proves the target is not simulable.
    """
    m = _require_povm(m)
    target = _require_povm(target)
    if m.dimension != target.dimension:
        raise DimensionMismatch(
            f"source dimension {m.dimension} vs target dimension {target.dimension}"
        )
    rng = np.random.default_rng(seed)
    max_size = max(m.outcomes, target.outcomes) + 1
    for _ in range(n_ensembles):
        size = int(rng.integers(1, max_size + 1))
        e = random_ensemble(m.dimension, size, int(rng.integers(2**32)))
        if (p_guess_with_measurement(e, target)
                > p_guess_with_measurement(e, m) + 1e-9):
            return False
    return True
