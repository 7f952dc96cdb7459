import itertools
import math

import numpy as np
import pytest

from povmrobust.discrimination import (
    Ensemble,
    random_density_matrix,
    random_ensemble,
    validate_ensemble,
)
from povmrobust.errors import InvalidEnsemble, SolverFailure
from povmrobust.measurement import random_povm, trivial_povm
from povmrobust.numerics import eig_hermitian, hermitian_basis
from povmrobust.rom import rom
from povmrobust.solvers import (
    INFEASIBLE,
    OPTIMAL,
    PIVOT_TOL,
    UNBOUNDED,
    DominanceProgram,
    LpProblem,
    _objective_row,
    _Tableau,
    min_error_guess_value,
    rom_via_sdp,
    solve_dominating,
    solve_lp,
)


def enumerate_vertices(c, a, b):
    """Brute-force LP oracle: check every basic point of
    ``min c.x, a x >= b, x >= 0`` and return the best objective."""
    n = c.size
    rows = np.vstack([a, np.eye(n)])
    rhs = np.concatenate([b, np.zeros(n)])
    best = None
    for subset in itertools.combinations(range(rows.shape[0]), n):
        sub = rows[list(subset)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, rhs[list(subset)])
        if (rows @ x - rhs).min() >= -1e-9:
            value = c @ x
            if best is None or value < best:
                best = value
    return best


class TestSolveLp:
    def test_single_bound(self):
        sol = solve_lp(LpProblem(np.array([1.0]), a_ineq=np.array([[1.0]]),
                                 b_ineq=np.array([3.0])))
        assert sol.status == OPTIMAL
        assert sol.value == pytest.approx(3.0, abs=1e-9)
        np.testing.assert_allclose(sol.x, [3.0], atol=1e-9)

    def test_combined_cut_is_tight(self):
        sol = solve_lp(LpProblem(
            np.array([1.0, 1.0]),
            a_ineq=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
            b_ineq=np.array([1.0, 2.0, 4.0]),
        ))
        assert sol.status == OPTIMAL
        assert sol.value == pytest.approx(4.0, abs=1e-9)

    def test_random_against_vertex_enumeration(self):
        rng = np.random.default_rng(90)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 6))
            a = rng.standard_normal((m, n))
            x0 = rng.random(n) + 0.1
            b = a @ x0 - rng.random(m)  # feasible by construction
            c = rng.random(n) + 0.05    # bounded: positive costs, x >= 0
            sol = solve_lp(LpProblem(c, a_ineq=a, b_ineq=b, nonneg=True))
            assert sol.status == OPTIMAL
            expected = enumerate_vertices(c, a, b)
            assert sol.value == pytest.approx(expected, abs=1e-8)

    def test_infeasible_with_farkas(self):
        sol = solve_lp(LpProblem(np.array([1.0]),
                                 a_ineq=np.array([[1.0], [-1.0]]),
                                 b_ineq=np.array([3.0, -1.0])))
        assert sol.status == INFEASIBLE
        y = sol.farkas_ineq
        assert y is not None and y.min() >= -1e-12
        # y certifies: y . A <= 0 on every column while y . b > 0
        a = np.array([[1.0], [-1.0]])
        assert (y @ a).max() <= 1e-9
        assert y @ np.array([3.0, -1.0]) > 1e-9

    def test_unbounded(self):
        sol = solve_lp(LpProblem(np.array([-1.0]), a_ineq=np.array([[1.0]]),
                                 b_ineq=np.array([0.0]), nonneg=True))
        assert sol.status == UNBOUNDED

    def test_equality_constraints(self):
        sol = solve_lp(LpProblem(
            np.array([1.0, 2.0]),
            a_eq=np.array([[1.0, 1.0]]),
            b_eq=np.array([1.0]),
            nonneg=True,
        ))
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-9)

    def test_duals_on_tight_bound(self):
        sol = solve_lp(LpProblem(np.array([1.0]), a_ineq=np.array([[1.0]]),
                                 b_ineq=np.array([3.0])))
        np.testing.assert_allclose(sol.duals_ineq, [1.0], atol=1e-9)


def run_from_last_columns(a, b, c):
    """Bland-rule simplex on ``min c.x, a x = b, x >= 0`` started from the
    basis of the last ``len(b)`` columns; returns status, pivots, final
    basis and value."""
    tableau = _Tableau(a.copy(), b.copy(), b.size)
    z = _objective_row(c, tableau)
    status, iterations = tableau.run(z, np.ones(c.size, dtype=bool), 100, PIVOT_TOL)
    return status, iterations, tableau.basis.tolist(), -z[-1]


class TestBlandRule:
    # Beale's LP, columns x4..x7 then the slacks x1..x3 (Bertsimas and
    # Tsitsiklis, Example 3.6): from the slack basis the largest-coefficient
    # rule with lowest-row ties returns to that basis after six pivots.
    BEALE_A = np.array([[0.25, -8.0, -1.0, 9.0, 1.0, 0.0, 0.0],
                        [0.5, -12.0, -0.5, 3.0, 0.0, 1.0, 0.0],
                        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]])
    BEALE_B = np.array([0.0, 0.0, 1.0])
    BEALE_C = np.array([-0.75, 20.0, -0.5, 6.0, 0.0, 0.0, 0.0])

    def test_beale_terminates_at_its_optimum(self):
        status, iterations, basis, value = run_from_last_columns(
            self.BEALE_A, self.BEALE_B, self.BEALE_C)
        assert status == OPTIMAL
        assert value == pytest.approx(-1.25, abs=1e-12)
        assert (iterations, basis) == (6, [2, 4, 0])
        sol = solve_lp(LpProblem(self.BEALE_C, a_eq=self.BEALE_A, b_eq=self.BEALE_B,
                                 nonneg=True))
        assert sol.status == OPTIMAL
        assert sol.value == pytest.approx(-1.25, abs=1e-12)
        np.testing.assert_allclose(sol.x, [1.0, 0.0, 1.0, 0.0, 0.75, 0.0, 0.0], atol=1e-12)

    def test_tied_ratios_leave_by_lowest_basis_index(self):
        # The second pivot (column 1) ties rows 0 and 2 at ratio 1; row 2
        # holds x0, row 0 the slack x3, so x0 leaves although its row is later.
        a = np.array([[0.0, 1.0, 0.0, 1.0, 0.0, 0.0],
                      [1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
                      [1.0, 1.0, 0.0, 0.0, 0.0, 1.0]])
        status, iterations, basis, value = run_from_last_columns(
            a, np.array([1.0, 5.0, 1.0]), np.array([-1.0, -2.0, 0.0, 0.0, 0.0, 0.0]))
        assert (status, iterations, basis) == (OPTIMAL, 2, [3, 4, 1])
        assert value == -2.0


class TestSolveDominating:
    def test_scalar_subspace_closed_form(self):
        # min tr(x I) with x I >= diag(0.75, 0.25): x = 0.75, trace 1.5
        program = DominanceProgram(
            2, np.eye(2, dtype=complex)[None], np.diag([0.75, 0.25]).astype(complex)[None]
        )
        sol = solve_dominating(program)
        assert sol.status == OPTIMAL
        assert sol.value == pytest.approx(1.5, abs=1e-9)
        np.testing.assert_allclose(sol.y, 0.75 * np.eye(2), atol=1e-8)

    def test_solution_respects_constraints(self):
        rng = np.random.default_rng(91)
        constraints = np.stack([0.5 * random_density_matrix(3, rng) for _ in range(3)])
        sol = solve_dominating(DominanceProgram(3, hermitian_basis(3), constraints))
        assert sol.status == OPTIMAL
        assert sol.min_slack >= -1e-7
        for k in constraints:
            assert eig_hermitian(sol.y - k).eigenvalues[0] >= -1e-7

    def test_bracket_contains_helstrom_value(self):
        # Two weighted states: the optimum is the Helstrom value, which the
        # returned bracket must contain and pin to within 1e-9; the duals
        # certifying the lower end are exactly feasible.
        rng = np.random.default_rng(92)
        states = [random_density_matrix(3, rng) for _ in range(2)]
        constraints = np.stack([0.4 * states[0], 0.6 * states[1]])
        sol = solve_dominating(DominanceProgram(3, hermitian_basis(3), constraints))
        oracle = 0.5 * (1.0 + np.abs(np.linalg.eigvalsh(constraints[0] - constraints[1])).sum())
        assert sol.status == OPTIMAL
        assert sol.lower <= oracle + 1e-12
        assert oracle <= sol.value + 1e-12
        assert sol.value - sol.lower <= 1e-9
        assert sol.value == pytest.approx(np.trace(sol.y).real, abs=1e-12)
        assert sol.min_slack > 0.0
        np.testing.assert_allclose(sol.duals.sum(axis=0), np.eye(3), atol=1e-12)
        assert np.linalg.eigvalsh(sol.duals)[:, 0].min() >= -1e-12
        assert sol.lower == pytest.approx(
            np.einsum("iab,iba->", constraints, sol.duals).real, abs=1e-12)

    def test_span_without_identity(self):
        # min tr(x diag(1, 2)) = 3x with x diag(1, 2) >= I/2: x = 1/2,
        # reached through the phase one
        program = DominanceProgram(
            2, np.diag([1.0, 2.0]).astype(complex)[None], 0.5 * np.eye(2, dtype=complex)[None]
        )
        sol = solve_dominating(program)
        assert sol.status == OPTIMAL
        assert sol.lower - 1e-12 <= 1.5 <= sol.value + 1e-12
        assert sol.value - sol.lower <= 1e-9

    def test_no_strictly_feasible_point(self):
        # x diag(1, 0) >= diag(1/2, 0) holds for x >= 1/2, never strictly
        program = DominanceProgram(
            2, np.diag([1.0, 0.0]).astype(complex)[None], np.diag([0.5, 0.0]).astype(complex)[None]
        )
        with pytest.raises(SolverFailure):
            solve_dominating(program)

    def test_infeasible_subspace(self):
        # traceless subspace direction cannot dominate a positive operator
        basis = hermitian_basis(2)[1:2]  # a single traceless element
        program = DominanceProgram(2, basis, np.eye(2, dtype=complex)[None])
        sol = solve_dominating(program)
        assert sol.status == INFEASIBLE

    def test_rejects_dependent_basis(self):
        basis = np.stack([np.eye(2, dtype=complex), 2.0 * np.eye(2, dtype=complex)])
        with pytest.raises(ValueError):
            solve_dominating(DominanceProgram(2, basis, np.eye(2, dtype=complex)[None]))


class TestRomViaSdp:
    def test_qubit_z(self, qubit_z):
        assert rom_via_sdp(qubit_z) == pytest.approx(1.0, abs=1e-6)
        # the dominance value of the full program is 1 + R
        assert rom_via_sdp(qubit_z) + 1.0 == pytest.approx(2.0, abs=1e-6)

    def test_trivial(self):
        assert rom_via_sdp(trivial_povm([0.25, 0.75], 2)) == pytest.approx(0.0, abs=1e-9)

    def test_matches_closed_form(self):
        for i, (d, o) in enumerate([(2, 3), (3, 4), (4, 2), (2, 6), (3, 6)]):
            m = random_povm(d, o, 9300 + i)
            assert abs(rom_via_sdp(m) - rom(m)) <= 1e-6


class TestMinErrorGuessValue:
    def test_orthogonal_pair(self):
        e = validate_ensemble(
            [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [0.5, 0.5]
        )
        assert min_error_guess_value(e) == pytest.approx(1.0, abs=1e-7)

    def test_single_state(self):
        e = validate_ensemble([np.eye(3) / 3], [1.0])
        assert min_error_guess_value(e) == pytest.approx(1.0, abs=1e-6)

    def test_helstrom_pair(self):
        plus = np.full((2, 2), 0.5)
        e = validate_ensemble([np.diag([1.0, 0.0]), plus], [0.5, 0.5])
        expected = 0.5 * (1.0 + 1.0 / math.sqrt(2.0))
        assert min_error_guess_value(e) == pytest.approx(expected, abs=1e-6)

    def test_never_below_classical(self):
        for i in range(5):
            e = random_ensemble(3, 3, 9400 + i)
            assert min_error_guess_value(e) >= e.priors.max() - 1e-9

    def test_monotone_under_coarse_graining(self):
        # Any strategy for the fine game maps through the merge into a
        # coarse-game strategy with at least the same success rate, so
        # merging two members can only raise the guessing value.
        for i in range(5):
            e = random_ensemble(2, 3, 9500 + i)
            merged_state = (
                e.priors[0] * e.states[0] + e.priors[1] * e.states[1]
            ) / (e.priors[0] + e.priors[1])
            merged = Ensemble(
                np.stack([merged_state, e.states[2]]),
                np.array([e.priors[0] + e.priors[1], e.priors[2]]),
            )
            assert (min_error_guess_value(merged)
                    >= min_error_guess_value(e) - 1e-8)

    def test_full_rank_d6_rng7(self):
        # the earlier cutting-plane solver gave up on this pair
        rng = np.random.default_rng(7)
        states = np.stack([random_density_matrix(6, rng) for _ in range(2)])
        priors = np.array([0.4, 0.6])
        helstrom = 0.5 * (1.0 + np.abs(np.linalg.eigvalsh(
            priors[0] * states[0] - priors[1] * states[1])).sum())
        assert abs(min_error_guess_value(Ensemble(states, priors)) - helstrom) <= 1e-9

    def test_rejects_non_ensemble(self):
        with pytest.raises(InvalidEnsemble):
            min_error_guess_value([np.eye(2) / 2])
