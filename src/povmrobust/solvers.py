"""Dense linear and operator-dominance programming.

Two solvers live here.  ``solve_lp`` is a dense two-phase simplex with
Bland's anti-cycling rule, adequate up to a few hundred constraints.
``solve_dominating`` minimizes the trace of an operator ranging over a
real-linear span of Hermitian matrices subject to dominating a list of
Hermitian constraints, by a primal-dual interior-point method (HKM
direction, Mehrotra predictor-corrector; Helmberg, Rendl, Vanderbei and
Wolkowicz, SIAM J. Optim. 6 (1996); Vandenberghe and Boyd, SIAM Rev. 38
(1996)) that returns a strictly feasible point together with a certified
lower bound.  On top of these, the module instantiates the robustness
program of a measurement and the optimal guessing probability of a state
ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import InfeasibleSubspace, InvalidEnsemble, SolverFailure
from .measurement import Povm, _require_povm
from .numerics import check_hermitian, hermitian_basis

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

PIVOT_TOL = 1e-10
FEASIBILITY_TOL = 1e-9
BASIS_INDEPENDENCE_TOL = 1e-9
GAP_TOL = 1e-11          # relative width of the returned dominance bracket
IDENTITY_TOL = 1e-12     # the identity counts as lying in the span below this
MAX_ITERATIONS = 100
MAX_HALVINGS = 60
STEP_FRACTION = 0.95     # share of the distance to the cone boundary stepped


@dataclass(frozen=True)
class LpProblem:
    """``min c.x`` subject to ``a_ineq x >= b_ineq`` and ``a_eq x = b_eq``.

    ``nonneg`` restricts all variables to be nonnegative; otherwise they
    are free (handled internally by sign splitting).
    """

    c: np.ndarray
    a_ineq: np.ndarray | None = None
    b_ineq: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    nonneg: bool = False


@dataclass(frozen=True)
class LpSolution:
    status: str
    x: np.ndarray | None
    value: float
    iterations: int
    duals_ineq: np.ndarray | None = None
    duals_eq: np.ndarray | None = None
    farkas_ineq: np.ndarray | None = None
    farkas_eq: np.ndarray | None = None


class _Tableau:
    """Standard-form simplex state: A x = b with x >= 0 and b >= 0."""

    def __init__(self, a_std, b_std, n_art):
        m, n = a_std.shape
        self.t = np.hstack([a_std, b_std[:, None]])
        self.n_cols = n
        self.art0 = n - n_art
        self.basis = list(range(self.art0, n))
        self.rows_kept = list(range(m))

    def pivot(self, row, col, z):
        t = self.t
        piv = t[row, col]
        t[row] = t[row] / piv
        column = t[:, col].copy()
        column[row] = 0.0
        t -= np.outer(column, t[row])
        z -= z[col] * t[row]
        self.basis[row] = col

    def run(self, z, allowed, max_iterations, pivot_tol):
        """Bland-rule simplex on the current tableau; mutates z in place."""
        t = self.t
        iterations = 0
        while iterations < max_iterations:
            candidates = np.flatnonzero(allowed & (z[:-1] < -pivot_tol))
            if candidates.size == 0:
                return OPTIMAL, iterations
            col = int(candidates[0])
            ratios = []
            for r in range(t.shape[0]):
                coeff = t[r, col]
                if coeff > pivot_tol:
                    ratios.append((max(t[r, -1], 0.0) / coeff, self.basis[r], r))
            if not ratios:
                return UNBOUNDED, iterations
            ratios.sort()
            self.pivot(ratios[0][2], col, z)
            iterations += 1
        return ITERATION_LIMIT, iterations


def _objective_row(c_std, tableau):
    z = np.concatenate([c_std, [0.0]])
    for r, b in enumerate(tableau.basis):
        cb = c_std[b]
        if cb != 0.0:
            z -= cb * tableau.t[r]
    return z


def solve_lp(problem: LpProblem, *, max_iterations: int = 50000,
             pivot_tol: float = PIVOT_TOL, feas_tol: float = FEASIBILITY_TOL) -> LpSolution:
    """Two-phase dense simplex with Bland's anti-cycling rule.

    On infeasible problems the phase-one duals are returned as a Farkas
    certificate: ``y`` with ``y . rows <= 0`` componentwise on the columns
    and ``y . b > 0`` (inequality-row components nonnegative).
    """
    c = np.atleast_1d(np.asarray(problem.c, dtype=float))
    n = c.size

    blocks = []
    kinds = []
    for a, b, kind in ((problem.a_ineq, problem.b_ineq, "ineq"),
                       (problem.a_eq, problem.b_eq, "eq")):
        if a is None:
            continue
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if a.shape != (b.size, n):
            raise ValueError(f"constraint block has shape {a.shape}, expected ({b.size}, {n})")
        blocks.append((a, b))
        kinds.extend([kind] * b.size)
    if not blocks:
        raise ValueError("problem has no constraints")
    a_full = np.vstack([blk[0] for blk in blocks])
    b_full = np.concatenate([blk[1] for blk in blocks])
    m = b_full.size
    n_ineq = kinds.count("ineq")

    # Column layout: split variables, then surplus columns, then artificials.
    cols = []
    for i in range(n):
        cols.append((i, 1.0))
        if not problem.nonneg:
            cols.append((i, -1.0))
    n_x = len(cols)
    n_total = n_x + n_ineq + m
    a_std = np.zeros((m, n_total))
    for j, (i, sign) in enumerate(cols):
        a_std[:, j] = sign * a_full[:, i]
    surplus_row = 0
    for r, kind in enumerate(kinds):
        if kind == "ineq":
            a_std[r, n_x + surplus_row] = -1.0
            surplus_row += 1
    flip = np.where(b_full < 0.0, -1.0, 1.0)
    a_std *= flip[:, None]
    b_std = b_full * flip
    art0 = n_x + n_ineq
    a_std[:, art0:] = np.eye(m)

    tableau = _Tableau(a_std, b_std, m)
    a_original = a_std.copy()

    c_phase1 = np.zeros(n_total)
    c_phase1[art0:] = 1.0
    z = _objective_row(c_phase1, tableau)
    allowed = np.ones(n_total, dtype=bool)
    status, it1 = tableau.run(z, allowed, max_iterations, pivot_tol)
    if status == ITERATION_LIMIT:
        return LpSolution(ITERATION_LIMIT, None, np.nan, it1)
    phase1_value = -z[-1]
    if phase1_value > feas_tol:
        y = _basis_duals(a_original, c_phase1, tableau.basis)
        y_orig = y * flip
        return LpSolution(
            INFEASIBLE, None, np.nan, it1,
            farkas_ineq=y_orig[:n_ineq] if n_ineq else None,
            farkas_eq=y_orig[n_ineq:] if m > n_ineq else None,
        )

    _drive_out_artificials(tableau, z, art0, pivot_tol)

    c_phase2 = np.zeros(n_total)
    for j, (i, sign) in enumerate(cols):
        c_phase2[j] = sign * c[i]
    z = _objective_row(c_phase2, tableau)
    allowed = np.ones(n_total, dtype=bool)
    allowed[art0:] = False
    status, it2 = tableau.run(z, allowed, max_iterations - it1, pivot_tol)
    if status != OPTIMAL:
        return LpSolution(status, None, np.nan, it1 + it2)

    x_std = np.zeros(n_total)
    for r, b in enumerate(tableau.basis):
        x_std[b] = tableau.t[r, -1]
    x = np.zeros(n)
    for j, (i, sign) in enumerate(cols):
        x[i] += sign * x_std[j]
    value = float(c @ x)
    y = _basis_duals(a_original[tableau.rows_kept], c_phase2, tableau.basis)
    y_full = np.zeros(m)
    for pos, r in enumerate(tableau.rows_kept):
        y_full[r] = y[pos]
    y_full *= flip
    return LpSolution(
        OPTIMAL, x, value, it1 + it2,
        duals_ineq=y_full[:n_ineq] if n_ineq else None,
        duals_eq=y_full[n_ineq:] if m > n_ineq else None,
    )


def _basis_duals(a_original, costs, basis):
    b_mat = a_original[:, basis]
    cb = costs[list(basis)]
    try:
        return np.linalg.solve(b_mat.T, cb)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(b_mat.T, cb, rcond=None)[0]


def _drive_out_artificials(tableau, z, art0, pivot_tol):
    drop = []
    for r in range(len(tableau.basis)):
        if tableau.basis[r] < art0:
            continue
        row = tableau.t[r, :art0]
        eligible = np.flatnonzero(np.abs(row) > pivot_tol)
        if eligible.size:
            tableau.pivot(r, int(eligible[0]), z)
        else:
            drop.append(r)
    if drop:
        keep = [r for r in range(len(tableau.basis)) if r not in drop]
        tableau.t = tableau.t[keep]
        tableau.basis = [tableau.basis[r] for r in keep]
        tableau.rows_kept = [tableau.rows_kept[r] for r in keep]


@dataclass(frozen=True)
class DominanceProgram:
    """``min tr Y`` over ``Y = sum_j x_j B_j`` subject to ``Y >= K_i``.

    ``basis`` holds the Hermitian matrices ``B_j`` (real coefficients,
    linearly independent), ``constraints`` the Hermitian ``K_i``.
    """

    dimension: int
    basis: np.ndarray
    constraints: np.ndarray


@dataclass(frozen=True)
class SdpSolution:
    """A dominance solve; when optimal, ``lower <= optimum <= value``.

    ``y`` is strictly feasible (``min_slack``, the smallest eigenvalue of
    any ``y - K_i``, is positive) and ``value`` is its trace.  ``duals``
    holds positive semidefinite ``Z_i`` with ``sum_i tr[B_j Z_i] = tr B_j``
    (for a span that is a *-algebra, ``sum_i Z_i`` projects onto the
    identity), and ``lower = sum_i tr[K_i Z_i]``.
    """

    status: str
    y: np.ndarray | None
    value: float
    lower: float
    duals: np.ndarray | None
    min_slack: float
    # perfbench/tracing.py reads this counter; an interior-point solve makes no cuts.
    cuts: int = 0


def _validate_program(program: DominanceProgram):
    basis = check_hermitian(program.basis)
    constraints = check_hermitian(program.constraints)
    shape = (program.dimension, program.dimension)
    if (not len(basis) or not len(constraints)
            or basis.shape[1:] != shape or constraints.shape[1:] != shape):
        raise ValueError("need nonempty basis and constraint stacks of the program's dimension")
    gram = np.einsum("aij,bji->ab", basis, basis).real
    smallest = np.linalg.eigvalsh(gram)[0]
    if smallest < BASIS_INDEPENDENCE_TOL:
        raise ValueError(
            f"subspace basis is numerically dependent (Gram eigenvalue {smallest:.3e})"
        )
    return basis, constraints, gram


def _max_step(inv_chol, direction) -> float:
    """Largest ``alpha`` keeping ``A + alpha dA`` positive semidefinite,
    given ``L^-1`` for the Cholesky factor ``A = L L^+`` (batched)."""
    scaled = inv_chol @ direction @ inv_chol.conj().swapaxes(-1, -2)
    smallest = np.linalg.eigvalsh(scaled)[..., 0].min()
    return np.inf if smallest >= 0.0 else -1.0 / smallest


def _central_path(basis, constraints, c, x, z):
    """Iterates ``(x, s, z)`` of a primal-dual path-following method for
    ``min c.x`` subject to ``S_i = sum_j x_j B_j - K_i >= 0``, whose dual
    is ``max sum_i tr[K_i Z_i]`` subject to ``sum_i tr[B_j Z_i] = c_j``
    and ``Z_i >= 0``.

    The start ``x`` must be strictly feasible and ``z`` positive definite;
    every iterate stays so.  Each step is the HKM direction with
    Mehrotra's predictor-corrector: one ``k x k`` Schur complement
    ``H_jl = sum_i Re tr[B_j S_i^-1 B_l Z_i]`` serves both solves, and all
    the matrix work is batched over the constraint stack.  A dual residual
    in the start shrinks with every dual step.
    """
    m, d = constraints.shape[0], constraints.shape[1]
    s = np.einsum("j,jab->ab", x, basis) - constraints
    s_chol = np.linalg.cholesky(s)
    z_chol = np.linalg.cholesky(z)
    while True:
        yield x, s, z
        s_inv_chol = np.linalg.inv(s_chol)
        s_inv = s_inv_chol.conj().swapaxes(-1, -2) @ s_inv_chol
        z_inv_chol = np.linalg.inv(z_chol)
        mu = np.einsum("iab,iba->", s, z).real / (m * d)
        # sum_i S_i^-1 B_l Z_i, stacked over l
        weighted = (s_inv[:, None] @ basis[None] @ z[:, None]).sum(axis=0)
        schur = np.einsum("jba,lab->jl", basis, weighted).real

        def direction(target):
            s_inv_target = s_inv @ target
            rhs = np.einsum("jba,ab->j", basis, s_inv_target.sum(axis=0)).real - c
            dx = np.linalg.solve(schur, rhs)
            ds = np.einsum("j,jab->ab", dx, basis)
            dz = s_inv_target - z - s_inv @ ds @ z
            return dx, ds, 0.5 * (dz + dz.conj().swapaxes(-1, -2))

        dx, ds, dz = direction(np.zeros_like(z))
        alpha_p = min(1.0, _max_step(s_inv_chol, ds))
        alpha_d = min(1.0, _max_step(z_inv_chol, dz))
        mu_affine = np.einsum("iab,iba->", s + alpha_p * ds, z + alpha_d * dz).real / (m * d)
        sigma = (mu_affine / mu) ** 3
        dx, ds, dz = direction(sigma * mu * np.eye(d) - ds @ dz)
        alpha_p = min(1.0, STEP_FRACTION * _max_step(s_inv_chol, ds))
        alpha_d = min(1.0, STEP_FRACTION * _max_step(z_inv_chol, dz))
        x, s, s_chol = _positive_step(
            x, dx, alpha_p, lambda v: np.einsum("j,jab->ab", v, basis) - constraints)
        z, _, z_chol = _positive_step(z, dz, alpha_d, lambda v: v)


def _positive_step(point, direction, alpha, matrices):
    """Step along ``direction``, halving ``alpha`` until the new matrices have
    a Cholesky factor: rounding can undo a step computed near the boundary."""
    for _ in range(MAX_HALVINGS):
        new = point + alpha * direction
        mats = matrices(new)
        try:
            return new, mats, np.linalg.cholesky(mats)
        except np.linalg.LinAlgError:
            alpha *= 0.5
    raise SolverFailure("interior-point step cannot stay positive definite")


def _dual_residual(basis, c, z) -> float:
    """Worst violation of ``sum_i tr[B_j Z_i] = c_j``."""
    return float(np.abs(c - np.einsum("jba,iab->j", basis, z).real).max())


def _certified_lower(basis, gram, constraints, c, z):
    """A dual objective that bounds the optimum from below, with its duals.

    The duals are ``S^-1/2 Z_i S^-1/2`` with ``S = P(sum_i Z_i)``, the
    projection onto the span.  When the span is a *-algebra containing the
    identity (every program this package builds), the projection commutes
    with the congruence, so they sum to a matrix projecting onto the
    identity and are exactly feasible.  For any other span the iterates
    themselves are kept: they start dual feasible and every step
    preserves that, up to rounding.
    """
    coords = np.linalg.solve(gram, np.einsum("jab,iba->j", basis, z).real)
    w, v = np.linalg.eigh(np.einsum("j,jab->ab", coords, basis))
    if w[0] > 0.0:
        root = (v / np.sqrt(w)) @ v.conj().T
        congruent = root @ z @ root
        if _dual_residual(basis, c, congruent) <= _dual_residual(basis, c, z):
            z = congruent
    return float(np.einsum("iab,iba->", constraints, z).real), z


def _strictly_feasible_start(basis, gram, constraints):
    """A point with every ``Y - K_i`` positive definite, or ``None`` when the
    program is infeasible.

    When the identity lies in the span, ``lambda I`` above every
    ``lambda_max(K_i)`` is one.  Otherwise a phase one minimizes ``t``
    over ``Y + t I >= K_i`` until ``t`` turns negative, or until its dual
    proves ``t`` positive at every point.
    """
    d = basis.shape[1]
    eye = np.eye(d)
    lam = np.linalg.eigvalsh(constraints)[:, -1].max()
    lam += max(1.0, abs(lam))
    coords = np.linalg.solve(gram, np.einsum("jii->j", basis).real)
    if np.abs(np.einsum("j,jab->ab", coords, basis) - eye).max() <= IDENTITY_TOL:
        return lam * coords
    augmented = np.concatenate([basis, eye[None]])
    c = np.eye(augmented.shape[0])[-1]
    z = np.broadcast_to(eye / constraints.shape[0], constraints.shape)
    for x, _, z in islice(_central_path(augmented, constraints, c, lam * c, z), MAX_ITERATIONS):
        if x[-1] < 0.0:
            return x[:-1]
        if _dual_residual(augmented, c, z) <= GAP_TOL:
            lower = np.einsum("iab,iba->", constraints, z).real
            if lower > GAP_TOL:
                return None
            if x[-1] - lower <= GAP_TOL:
                break
    raise SolverFailure("the dominance program has no strictly feasible point")


def solve_dominating(program: DominanceProgram) -> SdpSolution:
    """Primal-dual interior-point minimization of ``tr Y`` under dominance
    constraints.

    The path following (HKM direction, Mehrotra predictor-corrector)
    starts from a strictly feasible ``Y`` and from ``Z_i = I / m``, which
    is dual feasible because ``tr B_j = tr[B_j I]``.  After each step the
    trace of the current ``Y`` is an upper bound and the congruence in
    ``_certified_lower`` gives a lower one; the solve stops once they are
    within ``GAP_TOL`` (relative to ``max(1, |value|)``) and raises
    ``SolverFailure`` if that takes more than ``MAX_ITERATIONS`` steps.
    """
    basis, constraints, gram = _validate_program(program)
    x = _strictly_feasible_start(basis, gram, constraints)
    if x is None:
        return SdpSolution(INFEASIBLE, None, np.nan, np.nan, None, np.nan)
    c = np.einsum("jii->j", basis).real
    z = np.broadcast_to(np.eye(program.dimension) / constraints.shape[0], constraints.shape)
    for x, s, z in islice(_central_path(basis, constraints, c, x, z), MAX_ITERATIONS):
        value = float(c @ x)
        lower, duals = _certified_lower(basis, gram, constraints, c, z)
        if value - lower <= GAP_TOL * max(1.0, abs(value)):
            min_slack = float(np.linalg.eigvalsh(s)[:, 0].min())
            y = np.einsum("j,jab->ab", x, basis)
            return SdpSolution(OPTIMAL, y, value, lower, duals, min_slack)
    raise SolverFailure(
        f"dominance solve left a gap of {value - lower:.3e} after {MAX_ITERATIONS} iterations"
    )


def rom_via_sdp(m: Povm) -> float:
    """Robustness of a measurement through its dominance program.

    One scalar block per outcome: minimize ``sum_a q~(a)`` subject to
    ``q~(a) I >= M_a``.  The blocks decouple, so each is solved as its own
    single-constraint program; each block value comes from a strictly
    dominating point, so the sum is an upper bound within the solver gap.
    """
    m = _require_povm(m)
    d = m.dimension
    eye = np.eye(d, dtype=np.complex128)[None]
    total = 0.0
    for element in m:
        sol = solve_dominating(DominanceProgram(d, eye, element[None]))
        if sol.status == INFEASIBLE:
            raise InfeasibleSubspace("no scalar multiple of the identity dominates")
        total += sol.value / d
    return total - 1.0


def min_error_guess_value(ensemble) -> float:
    """Optimal probability of guessing which ensemble state was prepared,
    over all measurements and relabelings.

    Dual dominance form: ``min tr Y`` over Hermitian ``Y`` with
    ``Y >= p(x) sigma_x`` for every member.  The returned value is the
    trace of a strictly dominating ``Y``, so it is never below the
    guessing probability achievable with any fixed measurement.
    """
    from .discrimination import Ensemble
    if not isinstance(ensemble, Ensemble):
        raise InvalidEnsemble(f"expected an Ensemble, got {type(ensemble).__name__}")
    d = ensemble.dimension
    constraints = ensemble.priors[:, None, None] * ensemble.states
    sol = solve_dominating(DominanceProgram(d, hermitian_basis(d), constraints))
    if sol.status == INFEASIBLE:
        raise InfeasibleSubspace("no Hermitian operator dominates the ensemble")
    return sol.value
