"""Post-processing simulability of measurements.

One measurement simulates another when the target elements are mixtures
of the source elements under a stochastic relabeling of outcomes.  That
is a linear feasibility problem in the span of the source elements; on
failure, LP duality (or the part of the target outside that span)
produces a separating functional which is converted into an explicit
discrimination game the target wins strictly.  Every negative verdict
therefore ships a numerically verified witness, never just an
infeasibility flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discrimination import Ensemble, p_guess_with_measurement, random_ensemble
from .errors import DimensionMismatch, SolverFailure
from .measurement import Povm, StochasticMap, _require_povm, post_process
from .numerics import eig_hermitian
from .solvers import INFEASIBLE, OPTIMAL, _rows, solve_lp

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
    checked in an orthonormal frame of the span of the source elements
    (one SVD, rank ``r <= min(o, d*d)``): target elements outside it by
    more than ``eq_tol`` give the certificate directly; otherwise an LP
    with ``r`` rows per target outcome decides, and its Farkas vector is
    lifted back through the frame.  A positive verdict carries the
    stochastic map and its reconstruction residual; a negative one carries
    the dual certificate plus a verified witness ensemble on which the
    target strictly outperforms ``m``.
    """
    m = _require_povm(m)
    target = _require_povm(target)
    if m.dimension != target.dimension:
        raise DimensionMismatch(
            f"source dimension {m.dimension} vs target dimension {target.dimension}"
        )
    d = m.dimension
    o, o_target = m.outcomes, target.outcomes
    source_coords = _rows(m.elements)       # (o, 2*d*d); tr[A B] = _rows(A) . _rows(B)
    target_coords = _rows(target.elements)  # (o', 2*d*d)
    _, sing, vt = np.linalg.svd(source_coords, full_matrices=False)
    frame = vt[sing > sing[0] * max(o, d * d) * np.finfo(float).eps]      # (r, 2*d*d)
    outside = target_coords - target_coords @ frame.T @ frame

    if np.abs(outside).max() > eq_tol:
        # Z_b = the part of M'_b outside the span: tr[Z_b M_a] = 0 for every
        # a, while the target scores sum_b |Z_b|^2 > 0.
        coords, scalars = outside, np.zeros(o)
    else:
        r = frame.shape[0]
        n_vars = o * o_target  # column a * o_target + b
        a_eq = np.concatenate([
            np.einsum("ak,bc->bkac", source_coords @ frame.T, np.eye(o_target))
            .reshape(o_target * r, n_vars),
            np.kron(np.eye(o), np.ones(o_target)),
        ])
        b_eq = np.concatenate([(target_coords @ frame.T).ravel(), np.ones(o)])
        sol = solve_lp(a_eq, b_eq, feas_tol=eq_tol)
        if sol.status == OPTIMAL:
            p = np.clip(sol.x.reshape(o, o_target), 0.0, None)
            p /= p.sum(axis=1, keepdims=True)
            simulation = StochasticMap(p)
            residual = float(np.abs(post_process(m, simulation).elements
                                    - target.elements).max())
            return SimulabilityResult(SIMULABLE, map=simulation, residual=residual)
        if sol.status != INFEASIBLE:
            raise SolverFailure(f"simulability LP returned {sol.status}")
        y = sol.farkas
        coords, scalars = y[:o_target * r].reshape(o_target, r) @ frame, y[o_target * r:]

    operators = np.ascontiguousarray(coords).view(np.complex128).reshape(o_target, d, d)
    operators = (operators + operators.conj().transpose(0, 2, 1)) / 2
    scale = max(np.abs(operators).max(), np.abs(scalars).max(initial=0.0), 1e-300)
    certificate = SimulabilityCertificate(operators / scale, scalars / scale)
    witness, gap = _witness(m, target, certificate)
    return SimulabilityResult(NOT_SIMULABLE, certificate=certificate,
                              witness=witness, gap=gap)


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
    return _witness(_require_povm(m), _require_povm(target), certificate)[0]


def _witness(m: Povm, target: Povm,
             certificate: SimulabilityCertificate) -> tuple[Ensemble, float]:
    """``witness_from_certificate`` together with the verified gap."""
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
            return candidate, float(gap)
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
