"""Dense linear and operator-dominance programming.

Two solvers live here.  ``solve_lp`` is a dense phase-one simplex
deciding feasibility of ``a x = b, x >= 0``: the most negative reduced
cost enters, and a lexicographic ratio test (Dantzig, Orden and Wolfe,
Pacific J. Math. 5 (1955)) picks the leaving row, so no basis recurs.
The tableau is built once and updated in place, each pivot by one
broadcast rank-1 update, since at these sizes numpy's per-call overhead,
not the arithmetic, sets the cost; an infeasible system's Farkas vector
is read off the artificial columns' reduced costs.
``solve_dominating`` minimizes the trace of an operator ranging over the
real span of an orthonormal Hermitian basis of a *-algebra containing the
identity (so the program always has a strictly feasible point) subject to
dominating a list of Hermitian constraints, by a primal-dual interior-point
method (HKM direction, Mehrotra predictor-corrector; Helmberg, Rendl,
Vanderbei and Wolkowicz, SIAM J. Optim. 6 (1996); Vandenberghe and Boyd,
SIAM Rev. 38 (1996)) that returns a strictly feasible point together with a
certified lower bound.  Its trace pairings are real matrix products of the
matrices' real and imaginary parts.  Each step factors every primal slack
and dual matrix with one stacked Cholesky call and inverts those factors
with one ``inv`` call, each predictor or corrector stage takes both step
lengths from one stacked eigensolve, and the lower bound is computed only
once the complementarity gap is near the tolerance.
Both take arrays and return a finished solution; bad input raises
``InvalidArgument``, and a solve that cannot finish ``SolverFailure``.
The module also instantiates the robustness program of a measurement
and the optimal guessing probability of a state ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import ClassVar

import numpy as np

from .discrimination import _require_ensemble
from .errors import InvalidArgument, SolverFailure
from .measurement import Povm, _require_povm
from .numerics import check_hermitian, hermitian_basis

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

PIVOT_TOL = 1e-10
FEASIBILITY_TOL = 1e-9
MAX_PIVOTS = 50_000
ORTHONORMALITY_TOL = 1e-12  # entrywise: a dominance basis's Gram matrix against I
GAP_TOL = 1e-11          # relative width of the returned dominance bracket
IDENTITY_TOL = 1e-12     # the identity counts as lying in the span below this
MAX_ITERATIONS = 100
MAX_HALVINGS = 60
STEP_FRACTION = 0.95     # share of the distance to the cone boundary stepped
CERTIFY_WINDOW = 10.0    # certify once the complementarity gap is this many GAP_TOLs


@dataclass(frozen=True)
class LpSolution:
    """Outcome of ``solve_lp``: ``OPTIMAL`` with a point ``x``, or ``INFEASIBLE``
    with a Farkas vector ``farkas``."""

    status: str
    x: np.ndarray | None
    iterations: int
    farkas: np.ndarray | None = None


def _pivot(t, z, basis, col):
    """Enter column ``col`` into ``basis``, updating ``t`` and ``z`` in place.
    Over rows with ``coeff > PIVOT_TOL`` the leaving row has the least ratio
    ``max(rhs, 0) / coeff``, ties going on to the row's last ``m`` entries before
    ``rhs`` (``B^-1`` in phase one) over ``coeff``.  ``SolverFailure`` if no row
    qualifies, which phase one rules out unless rounding intervenes."""
    column = t[:, col].copy()
    rows = (column > PIVOT_TOL).nonzero()[0]
    if rows.size == 0:
        raise SolverFailure(f"simplex column {col} has no entry above {PIVOT_TOL:.0e}")
    ratios = np.maximum(t[rows, -1], 0.0) / column[rows]
    rows = rows[ratios == ratios.min()]
    for j in range(-len(t) - 1, -1):
        if rows.size == 1:
            break
        keys = t[rows, j] / column[rows]
        rows = rows[keys == keys.min()]
    row = int(rows[0])
    t[row] /= column[row]
    column[row] = 0.0
    t -= column[:, None] * t[row]
    z -= z[col] * t[row]
    basis[row] = col


def _simplex(t, z, basis):
    """Simplex on the tableau ``t`` (right-hand side last) with reduced-cost
    row ``z``, in place: the most negative reduced cost enters (Dantzig's
    rule) and ``_pivot`` picks the leaving row.  Returns the number of pivots to
    the optimum; ``SolverFailure`` if it needs more than ``MAX_PIVOTS``."""
    for pivots in range(MAX_PIVOTS + 1):
        col = int(z[:-1].argmin())
        if z[col] >= -PIVOT_TOL:
            return pivots
        if pivots == MAX_PIVOTS:
            raise SolverFailure(f"simplex not optimal after {MAX_PIVOTS} pivots")
        _pivot(t, z, basis, col)


def solve_lp(a, b) -> LpSolution:
    """Decide whether ``a x = b, x >= 0`` is feasible, by a phase-one simplex
    (``_simplex``) whose ``iterations`` count every pivot; ``InvalidArgument``
    for non-finite or mismatched input.

    The start is one artificial column per row, with rows flipped so that
    ``b >= 0``; the program minimizes the artificial total.  If at most
    ``FEASIBILITY_TOL`` of it is left, the basic point without the
    artificials is returned.  Otherwise the phase-one duals of the final
    basis are a Farkas certificate: ``y`` with ``y . a <= 0`` on every
    column and ``y . b > 0``.  The pivots keep every reduced cost at
    ``c_j - y . a'_j`` over the flipped columns ``a'``, and the artificial
    column of row ``i`` is ``e_i`` with cost 1, so ``y_i`` is 1 minus that
    column's reduced cost, times the row's flip.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    m, n = a.shape
    if b.shape != (m,) or not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InvalidArgument(f"need finite a and b of matching shapes, got {a.shape}, {b.shape}")
    flip = np.where(b < 0.0, -1.0, 1.0)
    t = np.zeros((m, n + m + 1))
    t[:, :n] = a * flip[:, None]
    t[:, n:-1].flat[::m + 1] = 1.0
    t[:, -1] = b * flip
    z = -t.sum(axis=0)
    z[n:-1] += 1.0  # the artificials' unit costs
    basis = np.arange(n, n + m)
    pivots = _simplex(t, z, basis)
    if -z[-1] > FEASIBILITY_TOL:
        return LpSolution(INFEASIBLE, None, pivots, farkas=(1.0 - z[n:-1]) * flip)
    x = np.zeros(n + m)
    x[basis] = t[:, -1]
    return LpSolution(OPTIMAL, x[:n], pivots)


@dataclass(frozen=True)
class SdpSolution:
    """A finished dominance solve: ``lower <= optimum <= value``.

    ``y`` is strictly feasible (``min_slack``, the smallest eigenvalue of any
    ``y - K_i``, is positive) and ``value`` is its trace.  ``duals`` are the
    positive definite ``Z_i`` of ``_certified_lower``, whose sum projects onto
    the identity, and ``lower = sum_i tr[K_i Z_i]``.
    """

    # read by perfbench/tracing.py: a solve that cannot finish raises, and makes no cuts
    status: ClassVar[str] = OPTIMAL
    cuts: ClassVar[int] = 0
    y: np.ndarray
    value: float
    lower: float
    duals: np.ndarray
    min_slack: float
    iterations: int  # interior-point steps on the main path


def _rows(mats):
    """Each matrix as one real row of its interleaved real and imaginary
    parts (a view): ``Re tr[B M] = _rows(B) . _rows(M)`` for Hermitian B."""
    mats = np.ascontiguousarray(mats, dtype=np.complex128)
    return mats.view(np.float64).reshape(*mats.shape[:-2], -1)


def _span(x, basis):
    """``sum_j x_j B_j``, as one matrix product."""
    return (x @ basis.reshape(len(basis), -1)).reshape(basis.shape[1:])


def _validate_program(basis, constraints):
    """A program's stacks and costs ``tr B_j``, the identity's coordinates;
    ``InvalidArgument`` unless the basis is orthonormal and spans I."""
    basis = check_hermitian(basis)
    constraints = check_hermitian(constraints)
    if (basis.ndim != 3 or not len(basis) or not len(constraints)
            or constraints.shape[1:] != basis.shape[1:]):
        raise InvalidArgument("need nonempty basis and constraint stacks of one dimension")
    off = np.abs(_rows(basis) @ _rows(basis).T - np.eye(len(basis))).max()
    if off > ORTHONORMALITY_TOL:
        raise InvalidArgument(f"subspace basis is off orthonormal by {off:.3e}")
    c = np.trace(basis, axis1=1, axis2=2).real
    missing = np.abs(_span(c, basis) - np.eye(basis.shape[1])).max()
    if missing > IDENTITY_TOL:
        raise InvalidArgument(f"the span of the basis misses the identity by {missing:.3e}")
    return basis, constraints, c


def _step_lengths(inv_chols, inv_chols_h, directions, fraction):
    """Primal and dual step lengths (floats): ``fraction`` of the largest steps
    that keep ``S + a dS`` and ``Z + a dZ`` positive semidefinite, capped at
    one.  ``inv_chols`` (adjoints ``inv_chols_h``) stacks the inverse Cholesky
    factors of every ``S_i`` over those of every ``Z_i``, and ``directions``
    ``dS`` (once per ``S_i``) over every ``dZ_i``, so one eigensolve gives both."""
    scaled = inv_chols @ directions @ inv_chols_h
    smallest = np.linalg.eigvalsh(scaled)[:, 0].reshape(2, -1).min(axis=1)
    return tuple(min(1.0, -fraction / v) if v < 0.0 else 1.0 for v in smallest.tolist())


def _central_path(basis, constraints, c, x, z):
    """Iterates ``(x, s, z)`` of a primal-dual path-following method for
    ``min c.x`` subject to ``S_i = sum_j x_j B_j - K_i >= 0``, whose dual
    is ``max sum_i tr[K_i Z_i]`` subject to ``sum_i tr[B_j Z_i] = c_j``
    and ``Z_i >= 0``.

    The start ``x`` must be strictly feasible and ``z`` positive definite;
    every iterate stays so.  Each step is the HKM direction with
    Mehrotra's predictor-corrector: one ``k x k`` Schur complement
    ``H_jl = sum_i Re tr[B_j S_i^-1 B_l Z_i]`` serves both solves, and all
    the matrix work is batched over the constraint stack.  Pairings with
    the basis are real matrix products of ``_rows`` (``H`` is one GEMM), one
    Cholesky and one ``inv`` call serve the stack of every ``S_i`` over every
    ``Z_i``, and each stage takes both step lengths from one stacked eigensolve.
    """
    m, d = constraints.shape[0], constraints.shape[1]
    rows = _rows(basis)
    eye = np.eye(d)
    pair = np.concatenate([_span(x, basis) - constraints, z])  # every S_i over every Z_i
    chols = np.linalg.cholesky(pair)
    directions = np.empty(pair.shape, dtype=complex)  # dS (m times) over every dZ_i
    while True:
        s, z = pair[:m], pair[m:]
        yield x, s, z
        inv_chols = np.linalg.inv(chols)
        inv_chols_h = inv_chols.conj().swapaxes(-1, -2)
        s_inv = inv_chols_h[:m] @ inv_chols[:m]
        mu = np.vdot(s, z).real / (m * d)
        # sum_i S_i^-1 B_l Z_i, stacked over l
        weighted = (s_inv[:, None] @ basis[None] @ z[:, None]).sum(axis=0)
        schur = rows @ _rows(weighted).T

        def direction(dx, dz_rest):  # dS and the Hermitian dZ, written into directions
            ds = _span(dx, basis)
            dz = dz_rest - s_inv @ ds @ z
            directions[:m] = ds
            directions[m:] = 0.5 * (dz + dz.conj().swapaxes(-1, -2))
            return ds, directions[m:]

        # predictor: the affine direction, whose right-hand side is just -c
        ds, dz = direction(np.linalg.solve(schur, -c), -z)
        alpha_p, alpha_d = _step_lengths(inv_chols, inv_chols_h, directions, 1.0)
        mu_affine = np.vdot(s + alpha_p * ds, z + alpha_d * dz).real / (m * d)
        sigma = (mu_affine / mu) ** 3
        # corrector: centring and the second-order term
        s_inv_target = s_inv @ (sigma * mu * eye - ds @ dz)
        dx = np.linalg.solve(schur, rows @ _rows(s_inv_target.sum(axis=0)) - c)
        ds, dz = direction(dx, s_inv_target - z)
        alpha_p, alpha_d = _step_lengths(inv_chols, inv_chols_h, directions, STEP_FRACTION)
        x, pair, chols = _positive_step(x, dx, alpha_p, z, dz, alpha_d, basis, constraints)


def _positive_step(x, dx, alpha_p, z, dz, alpha_d, basis, constraints):
    """The next ``x`` with the stack of every new ``S_i`` over every new
    ``Z_i`` and its Cholesky factors, halving both step lengths until the
    stack has them: rounding can undo a step computed near the boundary."""
    for _ in range(MAX_HALVINGS):
        new_x = x + alpha_p * dx
        pair = np.concatenate([_span(new_x, basis) - constraints, z + alpha_d * dz])
        try:
            return new_x, pair, np.linalg.cholesky(pair)
        except np.linalg.LinAlgError:
            alpha_p, alpha_d = 0.5 * alpha_p, 0.5 * alpha_d
    raise SolverFailure("interior-point step cannot stay positive definite")


def _certified_lower(basis, constraints, z):
    """A dual objective that bounds the optimum from below, with its duals
    ``S^-1/2 Z_i S^-1/2``, ``S = P(sum_i Z_i)`` the projection onto the span:
    over a *-algebra they sum to a projection onto I, so are exactly feasible.
    A ``S`` that is not positive definite breaks that: ``SolverFailure``."""
    w, v = np.linalg.eigh(_span(_rows(basis) @ _rows(z.sum(axis=0)), basis))
    if w[0] <= 0.0:
        raise SolverFailure(f"projected dual sum is not positive definite "
                            f"(smallest eigenvalue {w[0]:.3e})")
    root = (v / np.sqrt(w)) @ v.conj().T
    duals = root @ z @ root
    return float(np.vdot(constraints, duals).real), duals


def solve_dominating(basis, constraints) -> SdpSolution:
    """``min tr Y`` over ``Y = sum_j x_j B_j`` subject to ``Y >= K_i``, by a
    primal-dual interior-point method.

    ``basis`` stacks Hermitian ``B_j`` (real coefficients), orthonormal in the
    trace inner product, whose span is a *-algebra containing the identity;
    ``constraints`` stacks the Hermitian ``K_i``, all of one dimension.  Input
    that breaks this contract raises ``InvalidArgument``.  With it, ``lambda I``
    with ``lambda`` above every ``lambda_max(K_i)`` is a strictly feasible
    start, and ``Z_i = I / m`` is dual feasible because ``tr B_j = tr[B_j I]``;
    the path following (HKM direction, Mehrotra predictor-corrector) starts
    there.  After each step the trace of the current ``Y`` is an upper bound.
    Once the complementarity gap ``sum_i tr[S_i Z_i]`` is within
    ``CERTIFY_WINDOW`` times the tolerance, the congruence in
    ``_certified_lower`` gives a lower bound; the solve stops once the two are
    within ``GAP_TOL`` (relative to ``max(1, |value|)``) and raises
    ``SolverFailure``, reporting the gap left, if that takes more than
    ``MAX_ITERATIONS`` steps, or if the lower bound it stops at lies above the value.
    """
    basis, constraints, c = _validate_program(basis, constraints)
    lam = np.linalg.eigvalsh(constraints)[:, -1].max()
    x = (lam + max(1.0, abs(lam))) * c
    z = np.broadcast_to(np.eye(basis.shape[1]) / constraints.shape[0], constraints.shape)
    path = islice(_central_path(basis, constraints, c, x, z), MAX_ITERATIONS)
    for iterations, (x, s, z) in enumerate(path):
        value = float(c @ x)
        tol = GAP_TOL * max(1.0, abs(value))
        gap = np.vdot(s, z).real
        if gap <= CERTIFY_WINDOW * tol:
            lower, duals = _certified_lower(basis, constraints, z)
            gap = value - lower
        if gap <= tol:
            if lower > value:
                raise SolverFailure(f"dominance bracket is inverted: lower {lower!r} "
                                    f"above value {value!r}")
            min_slack = float(np.linalg.eigvalsh(s)[:, 0].min())
            y = _span(x, basis)
            return SdpSolution(y, value, lower, duals, min_slack, iterations)
    raise SolverFailure(
        f"dominance solve left a gap of {gap:.3e} after {MAX_ITERATIONS} iterations"
    )


def rom_via_sdp(m: Povm) -> float:
    """Robustness of a measurement through its dominance program.

    Minimize ``sum_a q~(a)`` subject to ``q~(a) I >= M_a``, posed once
    over the block-diagonal operators ``blockdiag(q~(a) I)``: their span
    is a *-algebra containing the identity, and the single constraint is
    ``blockdiag(M_a)``.  The optimal trace is ``d sum_a q~(a)``, taken at a
    strictly dominating point, so the value is an upper bound within the
    solver gap.
    """
    return _rom_solution(m).value / m.dimension - 1.0


def _rom_solution(m: Povm) -> SdpSolution:
    """The certified dominance solve behind ``rom_via_sdp``: the span of
    ``E_aa (x) I / sqrt(d)``, one element per outcome, over ``blockdiag(M_a)``."""
    m = _require_povm(m)
    o, d = m.outcomes, m.dimension
    basis = np.kron(np.eye(o)[:, :, None] * np.eye(o), np.eye(d) / np.sqrt(d))
    blocks = np.einsum("ab,aij->aibj", np.eye(o), m.elements).reshape(o * d, o * d)
    return solve_dominating(basis, blocks[None])


def min_error_guess_value(ensemble) -> float:
    """Optimal probability of guessing which ensemble state was prepared,
    over all measurements and relabelings.

    Dual dominance form: ``min tr Y`` over Hermitian ``Y`` with
    ``Y >= p(x) sigma_x`` for every member.  The returned value is the
    trace of a strictly dominating ``Y``, so it is never below the
    guessing probability achievable with any fixed measurement.
    """
    return _guess_solution(ensemble).value


def _guess_solution(ensemble) -> SdpSolution:
    """The certified dominance solve behind ``min_error_guess_value``."""
    ensemble = _require_ensemble(ensemble)
    d = ensemble.dimension
    constraints = ensemble.priors[:, None, None] * ensemble.states
    return solve_dominating(hermitian_basis(d), constraints)
