"""Dense linear and operator-dominance programming.

Two solvers live here.  ``solve_lp`` decides feasibility of
``a x = b, x >= 0`` as nonnegative least squares (Lawson and Hanson's
active-set method): every step re-solves the least-squares point of the
columns in use from the original matrix, so rounding cannot accumulate in
an updated tableau, and an infeasible system's Farkas vector is the least
residual, projected off those columns again.
``solve_dominating`` minimizes the trace of an operator in the real span of
an orthonormal Hermitian basis, a span closed under squares that contains the
identity (so a strictly feasible point and exactly feasible duals exist),
subject to dominating Hermitian constraints, by a primal-dual interior-point
method (HKM direction, Mehrotra predictor-corrector; Helmberg, Rendl,
Vanderbei and Wolkowicz, SIAM J. Optim. 6 (1996); Vandenberghe and Boyd,
SIAM Rev. 38 (1996)) that returns a strictly feasible point together with a
certified lower bound.  Without a basis (every Hermitian matrix) its Newton step is
one linear solve in vec form (Todd, Toh and Tutuncu, SIAM J. Optim. 8 (1998)),
over a basis a Schur complement in its coordinates.  Each step factors
every primal slack and dual matrix with one stacked Cholesky call and inverts those
factors with one ``inv`` call, each predictor or corrector stage takes both step lengths
from one stacked eigensolve, and the lower bound is computed only once the gap is within
tolerance.
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
from .numerics import _read_array, check_hermitian

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

FEASIBILITY_TOL = 1e-9
MAX_ENTRIES = 50_000
ORTHONORMALITY_TOL = 1e-12  # entrywise: a dominance basis's Gram matrix against I
GAP_TOL = 1e-11          # relative width of the returned dominance bracket
IDENTITY_TOL = 1e-12     # the identity counts as lying in the span below this
MAX_ITERATIONS = 100
MAX_HALVINGS = 60
STEP_FRACTION = 0.95     # share of the distance to the cone boundary stepped


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Outcome of ``solve_lp``: ``OPTIMAL`` with a point ``x``, or ``INFEASIBLE``
    with a Farkas vector ``farkas``."""

    status: str
    x: np.ndarray | None
    iterations: int
    farkas: np.ndarray | None = None


def _least_positive(a, b, x, passive):
    """The passive columns' least-squares point, re-solved from ``a`` and
    stepped back from ``x`` towards it while an entry would turn nonpositive;
    columns whose entries reach zero leave ``passive`` (updated in place)."""
    while True:
        z = np.zeros_like(x)
        z[passive] = np.linalg.lstsq(a[:, passive], b)[0]
        low = passive & (z <= 0.0)
        if not low.any():
            return z
        ratios = x[low] / (x[low] - z[low])
        x = x + ratios.min() * (z - x)
        x[low.nonzero()[0][ratios.argmin()]] = 0.0
        passive &= x > 0.0


def solve_lp(a, b) -> LpSolution:
    """Decide whether ``a x = b, x >= 0`` is feasible, by Lawson and Hanson's
    nonnegative least squares (NNLS; *Solving Least Squares Problems*, 1974,
    ch. 23); ``InvalidArgument`` for non-finite or mismatched input.

    With ``r = b - a x``, the column of largest ``r . a_j`` above rounding
    enters the passive set, whose least-squares point ``_least_positive``
    re-solves from the original columns (``np.linalg.lstsq`` takes
    rank-deficient sets).  ``iterations`` counts the entered columns;
    ``SolverFailure`` once more than ``MAX_ENTRIES`` are needed.  The system
    is feasible when the least residual has 2-norm at most ``FEASIBILITY_TOL``.
    Otherwise ``r`` is orthogonal to the passive columns with ``r . a_j <= 0``
    on the rest, while ``r . b = |r|^2 > 0``: a Farkas certificate ``y``.
    As ``|r|^2`` can fall below rounding, ``y`` is ``r / max|r|`` with its
    part in the span of the passive columns projected out again.
    """
    a, b = np.atleast_2d(_read_array(a, float)), np.atleast_1d(_read_array(b, float))
    if (a.ndim != 2 or b.shape != a.shape[:1]
            or not (np.isfinite(a).all() and np.isfinite(b).all())):
        raise InvalidArgument(f"need finite a and b of matching shapes, got {a.shape}, {b.shape}")
    m, n = a.shape
    noise = max(m, n) * np.finfo(float).eps * np.abs(a).max(initial=0.0) * np.abs(b).sum()
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    for entered in range(MAX_ENTRIES + 1):
        r = b - a @ x
        if np.linalg.norm(r) <= FEASIBILITY_TOL:
            return LpSolution(OPTIMAL, x, entered)
        gain = np.where(passive, -np.inf, r @ a)
        if not gain.max(initial=-np.inf) > noise:
            u = r / np.abs(r).max()
            u -= a[:, passive] @ np.linalg.lstsq(a[:, passive], u)[0]
            return LpSolution(INFEASIBLE, None, entered, farkas=u)
        if entered == MAX_ENTRIES:
            raise SolverFailure(f"NNLS unfinished after {MAX_ENTRIES} entered columns")
        passive[gain.argmax()] = True
        x = _least_positive(a, b, x, passive)


@dataclass(frozen=True, eq=False)
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
    """A matrix, or each matrix in a stack, as one real row of its interleaved real and
    imaginary parts (a view): ``Re tr[B M] = _rows(B) . _rows(M)`` for Hermitian B."""
    mats = np.ascontiguousarray(mats, dtype=np.complex128).view(np.float64)
    return mats.reshape(len(mats), -1) if mats.ndim > 2 else mats.ravel()


def _span(x, basis):
    """``sum_j x_j B_j``, as one matrix product."""
    return (x @ basis.reshape(len(basis), -1)).reshape(basis.shape[1:])


def _project(basis, m):
    """The orthogonal projection of ``m`` onto the span (``m`` itself without a basis)."""
    return m if basis is None else _span(_rows(basis) @ _rows(m), basis)


def _validate_program(basis, constraints):
    """A program's stacks, ``None`` for the span of every Hermitian matrix;
    ``InvalidArgument`` unless the basis is orthonormal and spans I.
    Closure of the span under squares is checked on the duals, by ``_certified_lower``."""
    basis = None if basis is None else check_hermitian(basis)
    constraints = check_hermitian(constraints)
    if constraints.ndim != 3 or not len(constraints) or basis is not None and (
            basis.ndim != 3 or not len(basis) or basis.shape[1:] != constraints.shape[1:]):
        raise InvalidArgument("need nonempty (m, n, n) constraints and a (k, n, n) basis")
    if basis is None:
        return None, constraints
    off = np.abs(_rows(basis) @ _rows(basis).T - np.eye(len(basis))).max()
    if off > ORTHONORMALITY_TOL:
        raise InvalidArgument(f"subspace basis is off orthonormal by {off:.3e}")
    eye = np.eye(basis.shape[-1])
    missing = np.abs(_project(basis, eye) - eye).max()
    if missing > IDENTITY_TOL:
        raise InvalidArgument(f"the span of the basis misses the identity by {missing:.3e}")
    return basis, constraints


def _step_lengths(inv_chols, inv_chols_h, directions, fraction):
    """Primal and dual step lengths (floats): ``fraction`` of the largest steps
    that keep ``S + a dS`` and ``Z + a dZ`` positive semidefinite, capped at
    one.  ``inv_chols`` (adjoints ``inv_chols_h``) stacks the inverse Cholesky
    factors of every ``S_i`` over those of every ``Z_i``, and ``directions``
    ``dS`` (once per ``S_i``) over every ``dZ_i``, so one eigensolve gives both."""
    scaled = inv_chols @ directions @ inv_chols_h
    smallest = np.linalg.eigvalsh(scaled)[:, 0].reshape(2, -1).min(axis=1)
    return tuple(min(1.0, -fraction / v) if v < 0.0 else 1.0 for v in smallest.tolist())


def _newton_solver(basis, s_inv, z):
    """Maps ``R`` to the ``dY`` in the span on which the Hermitian parts of ``sum_i
    S_i^-1 dY Z_i`` and ``R`` project alike.  Without a basis, one solve in vec
    form: with row-major ``vec``, ``vec(A X B) = (A (x) B^T) vec(X)``, so ``G =
    (H + T conj(H) T) / 2`` for ``H = sum_i S_i^-1 (x) Z_i^T``, ``T`` swapping
    the indices of ``vec``; ``T conj(H) T = sum_i Z_i (x) S_i^-T`` makes ``2 G``
    one GEMM over the stack paired both ways, read through a transpose of its
    four-index view.  A basis solves the Schur complement in its coordinates."""
    m, d = z.shape[0], z.shape[1]
    if basis is None:
        u, v = (np.concatenate(p).reshape(2 * m, -1) for p in ([s_inv, z], [z, s_inv]))
        twice = (u.T @ v).reshape(d, d, d, d).transpose(0, 3, 1, 2).reshape(d * d, d * d)

        def solve(rhs):  # the Hermitian part of G^-1 rhs, as twice is 2 G
            dy = np.linalg.solve(twice, rhs.reshape(-1)).reshape(d, d)
            return dy + dy.conj().T
        return solve
    rows = _rows(basis)  # schur_jl = sum_i Re tr[B_j S_i^-1 B_l Z_i]
    schur = rows @ _rows((s_inv[:, None] @ basis[None] @ z[:, None]).sum(axis=0)).T
    return lambda rhs: _span(np.linalg.solve(schur, rows @ _rows(rhs)), basis)


def _central_path(basis, constraints, y, z):
    """Iterates ``(Y, S, Z)`` of a primal-dual path-following method for
    ``min tr Y`` over the span subject to ``S_i = Y - K_i >= 0``, whose dual
    is ``max sum_i tr[K_i Z_i]`` subject to ``sum_i Z_i`` projecting onto I
    and ``Z_i >= 0``, from a strictly feasible ``y`` and positive definite ``z``.
    Each step is the HKM direction with Mehrotra's predictor-corrector, both
    solves from one ``_newton_solver``; one Cholesky and one ``inv`` call serve
    the stack of every ``S_i`` over every ``Z_i``, each stage takes both step
    lengths from one stacked eigensolve, and both are halved while rounding
    near the boundary leaves the new stack without a Cholesky factor."""
    m, d = len(constraints), y.shape[-1]
    eye = np.eye(d)
    pair = np.concatenate([y - constraints, z])  # every S_i over every Z_i
    chols = np.linalg.cholesky(pair)
    directions = np.empty(pair.shape, dtype=complex)  # dY (m times) over every dZ_i
    while True:
        s, z = pair[:m], pair[m:]
        yield y, s, z
        inv_chols = np.linalg.inv(chols)
        inv_chols_h = inv_chols.conj().swapaxes(-1, -2)
        s_inv = inv_chols_h[:m] @ inv_chols[:m]
        mu = np.vdot(s, z).real / (m * d)
        newton = _newton_solver(basis, s_inv, z)

        def direction(dy, dz_rest):  # dY and the Hermitian dZ, written into directions
            dz = dz_rest - s_inv @ dy @ z
            directions[:m] = dy
            directions[m:] = 0.5 * (dz + dz.conj().swapaxes(-1, -2))
            return dy, directions[m:]

        # predictor: the affine direction, whose right-hand side is just -I
        dy, dz = direction(newton(-eye), -z)
        alpha_p, alpha_d = _step_lengths(inv_chols, inv_chols_h, directions, 1.0)
        mu_affine = np.vdot(s + alpha_p * dy, z + alpha_d * dz).real / (m * d)
        sigma = (mu_affine / mu) ** 3
        # corrector: centring and the second-order term
        s_inv_target = s_inv @ (sigma * mu * eye - dy @ dz)
        dy, dz = direction(newton(s_inv_target.sum(axis=0) - eye), s_inv_target - z)
        alpha_p, alpha_d = _step_lengths(inv_chols, inv_chols_h, directions, STEP_FRACTION)
        for _ in range(MAX_HALVINGS):
            pair = np.concatenate([y + alpha_p * dy - constraints, z + alpha_d * dz])
            try:
                chols = np.linalg.cholesky(pair)
                break
            except np.linalg.LinAlgError:
                alpha_p, alpha_d = 0.5 * alpha_p, 0.5 * alpha_d
        else:
            raise SolverFailure("interior-point step cannot stay positive definite")
        y = y + alpha_p * dy


def _certified_lower(basis, constraints, z):
    """A dual objective that bounds the optimum from below, with its duals
    ``S^-1/2 Z_i S^-1/2``, ``S = P(sum_i Z_i)`` the projection onto the span (the
    Hermitian sum itself without a basis): over a span closed under squares (a Jordan
    algebra) they sum to a projection onto I, so are exactly feasible.  ``SolverFailure``
    if ``S`` is not positive definite or that projection misses I by over ``IDENTITY_TOL``."""
    w, v = np.linalg.eigh(_project(basis, z.sum(axis=0)))
    if w.min() <= 0.0:
        raise SolverFailure(f"projected dual sum is not positive definite "
                            f"(smallest eigenvalue {w.min():.3e})")
    root = (v / np.sqrt(w)) @ v.conj().T
    duals = root @ z @ root
    miss = np.abs(_project(basis, duals.sum(axis=0)) - np.eye(z.shape[-1])).max()
    if miss > IDENTITY_TOL:
        raise SolverFailure(f"duals miss I by {miss:.3e}: the span is not closed under squares")
    return float(np.vdot(constraints, duals).real), duals


def solve_dominating(basis, constraints) -> SdpSolution:
    """``min tr Y`` over ``Y = sum_j x_j B_j`` subject to ``Y >= K_i``, by a
    primal-dual interior-point method.

    ``basis`` stacks Hermitian ``B_j`` (real coefficients), orthonormal in the
    trace inner product, of a span closed under squares that contains the identity;
    ``None`` means every Hermitian matrix, with no basis to build or check.
    ``constraints`` stacks the Hermitian ``K_i``: ``(m, n, n)``, with a basis ``(k, n, n)``.
    Bad input raises ``InvalidArgument``, a span not closed under squares a
    ``SolverFailure`` once its duals are certified.  With the contract, ``lambda I``
    with ``lambda`` above every ``lambda_max(K_i)`` is a strictly feasible start
    (``SolverFailure`` if it or its trace overflows), and ``Z_i = I / m`` is dual feasible
    because ``tr B_j = tr[B_j I]``; the path following (HKM direction, Mehrotra
    predictor-corrector) starts there.  After each step the trace of ``Y`` is an upper bound.
    Once the complementarity gap ``sum_i tr[S_i Z_i]`` is within ``GAP_TOL``
    (relative to ``max(1, |value|)``), the congruence in ``_certified_lower``
    gives a lower bound, and the solve stops when that is as close to the value.
    It raises ``SolverFailure``, reporting the gap left, if that takes more than
    ``MAX_ITERATIONS`` steps, or if the lower bound it stops at lies above the value.

    ``None`` takes the Newton step in vec form with a few ``n^2 x n^2`` complex
    operators per step, ``16 n^4`` bytes each.  A basis, even a full one of ``n^2``
    elements, solves a ``k x k`` Schur complement, whose products ``S_i^-1 B_l Z_i``
    hold ``16 m k n^2`` bytes.
    """
    basis, constraints = _validate_program(basis, constraints)
    lam = float(np.linalg.eigvalsh(constraints)[:, -1].max())
    eye = np.eye(constraints.shape[-1])
    start = lam + max(1.0, abs(lam))
    if start * len(eye) == np.inf:  # its trace, a float: no overflow warning
        raise SolverFailure(f"the trace of the strictly feasible start 2 * {lam!r} overflows")
    y = start * eye
    z = np.broadcast_to(eye / len(constraints), constraints.shape)
    path = islice(_central_path(basis, constraints, y, z), MAX_ITERATIONS)
    for iterations, (y, s, z) in enumerate(path):
        value = float(np.trace(y).real)
        tol = GAP_TOL * max(1.0, abs(value))
        gap = np.vdot(s, z).real
        if gap <= tol:
            lower, duals = _certified_lower(basis, constraints, z)
            gap = value - lower
        if gap <= tol:
            if lower > value:
                raise SolverFailure(f"dominance bracket is inverted: lower {lower!r} "
                                    f"above value {value!r}")
            min_slack = float(np.linalg.eigvalsh(s)[:, 0].min())
            return SdpSolution(y, value, lower, duals, min_slack, iterations)
    raise SolverFailure(
        f"dominance solve left a gap of {gap:.3e} after {MAX_ITERATIONS} iterations"
    )


def rom_via_sdp(m: Povm) -> float:
    """Robustness of a measurement through its dominance program.

    Minimize ``sum_a q~(a)`` subject to ``q~(a) I >= M_a``.  No two
    constraints share a variable, so the program is one dominance solve per
    outcome over the span ``{I / sqrt(d)}``, whose optimal trace is ``d
    q~(a)``, each taken at a strictly dominating point: the value is an
    upper bound within the solver gap.
    """
    return sum(s.value for s in _rom_solution(m)) / m.dimension - 1.0


def _rom_solution(m: Povm) -> list[SdpSolution]:
    """The certified dominance solves behind ``rom_via_sdp``, one per outcome."""
    m = _require_povm(m)
    basis = np.eye(m.dimension)[None] / np.sqrt(m.dimension)
    return [solve_dominating(basis, element[None]) for element in m.elements]


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
    return solve_dominating(None, ensemble.priors[:, None, None] * ensemble.states)
