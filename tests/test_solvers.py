import itertools
import math
import re

import numpy as np
import pytest

from povmrobust import solvers
from povmrobust.asymmetry import roc
from povmrobust.discrimination import (
    Ensemble,
    advantage,
    p_guess_with_measurement,
    random_density_matrix,
    random_ensemble,
    validate_ensemble,
)
from povmrobust.errors import InvalidArgument, InvalidEnsemble, PovmRobustError, SolverFailure
from povmrobust.info import acc_min_info_ensemble
from povmrobust.measurement import Povm, random_povm, trivial_povm
from povmrobust.numerics import eig_hermitian, hermitian_basis
from povmrobust.rom import rom
from povmrobust.solvers import (
    INFEASIBLE,
    OPTIMAL,
    _guess_solution,
    _rom_solution,
    _rows,
    min_error_guess_value,
    rom_via_sdp,
    solve_dominating,
    solve_lp,
)


def has_basic_feasible_point(a, b):
    """Brute-force oracle for ``a x = b, x >= 0`` with ``a`` of full row
    rank: feasible iff some basis of ``a`` gives a nonnegative point."""
    m, n = a.shape
    for subset in itertools.combinations(range(n), m):
        sub = a[:, list(subset)]
        if abs(np.linalg.det(sub)) > 1e-12 and np.linalg.solve(sub, b).min() >= -1e-9:
            return True
    return False


def assert_farkas(y, a, b):
    """``y`` certifies that ``a x = b, x >= 0`` has no solution."""
    assert (y @ a).max() <= 1e-9
    assert y @ b > 1e-9


class TestSolveLp:
    def test_feasible_random_systems(self):
        rng = np.random.default_rng(90)
        for _ in range(25):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(m, 9))
            a = rng.standard_normal((m, n))
            x0 = np.where(rng.random(n) < 0.3, 0.0, rng.random(n))
            b = a @ x0
            sol = solve_lp(a, b)
            assert sol.status == OPTIMAL
            assert sol.x.shape == (n,) and sol.x.min() >= 0.0
            assert np.abs(a @ sol.x - b).max() <= 1e-9

    def test_infeasible_random_systems(self):
        # Reflecting every column with y . a_j > 0 through the plane
        # orthogonal to y makes y a separating vector once y . b > 0.
        rng = np.random.default_rng(93)
        for _ in range(25):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 9))
            y = rng.standard_normal(m)
            a = rng.standard_normal((m, n))
            a -= np.outer(y, 2.0 * np.maximum(y @ a, 0.0) / (y @ y))
            b = rng.standard_normal(m)
            b -= y * (b @ y - abs(b @ y) - 0.1) / (y @ y)
            sol = solve_lp(a, b)
            assert sol.status == INFEASIBLE and sol.x is None
            assert_farkas(sol.farkas, a, b)

    def test_random_against_vertex_enumeration(self):
        rng = np.random.default_rng(94)
        verdicts = set()
        for _ in range(40):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m, 6))
            a = rng.standard_normal((m, n))
            b = rng.standard_normal(m)
            feasible = has_basic_feasible_point(a, b)
            verdicts.add(feasible)
            sol = solve_lp(a, b)
            assert sol.status == (OPTIMAL if feasible else INFEASIBLE)
            if feasible:
                assert np.abs(a @ sol.x - b).max() <= 1e-9
            else:
                assert_farkas(sol.farkas, a, b)
        assert verdicts == {True, False}

    def test_single_bound(self):
        # x >= 3 as -x + s = -3
        sol = solve_lp(np.array([[-1.0, 1.0]]), np.array([-3.0]))
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.x, [3.0, 0.0], atol=1e-12)

    def test_infeasible_with_farkas(self):
        # x >= 3 and x <= 1, as x - s1 = 3 and x + s2 = 1
        a = np.array([[1.0, -1.0, 0.0], [1.0, 0.0, 1.0]])
        b = np.array([3.0, 1.0])
        sol = solve_lp(a, b)
        assert sol.status == INFEASIBLE
        assert_farkas(sol.farkas, a, b)

    def test_equality_constraints(self):
        sol = solve_lp(np.array([[1.0, 1.0]]), np.array([1.0]))
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-12)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            solve_lp(np.ones((2, 3)), np.ones(3))

    def test_farkas_vector_just_outside_the_cone(self):
        # b sits 3e-9 off the cone along y, with y . a_j = 0 on the columns
        # that reach a x0 and y . a_j < 0 on the rest.  The least residual is
        # 3e-9 y, whose own r . b = |r|^2 ~ 1e-17 certifies nothing; rescaled
        # and projected off the passive columns it does.
        rng = np.random.default_rng(96)
        a = rng.standard_normal((5, 8))
        a[0, :4] = 0.0
        a[0, 4:] = -np.abs(a[0, 4:])
        x0 = np.concatenate([rng.random(4) + 0.1, np.zeros(4)])
        rotation = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        a, b = rotation @ a, rotation @ (a @ x0 + 3e-9 * np.eye(5)[0])
        sol = solve_lp(a, b)
        assert sol.status == INFEASIBLE
        assert_farkas(sol.farkas, a, b)

    def test_entry_cap_counts_every_entered_column(self, monkeypatch):
        # Beale's cycling example of the simplex (Bertsimas and Tsitsiklis,
        # Example 3.6) as a feasibility system: three columns enter, so a cap
        # of two stops it, and a run whose last allowed entry reaches the
        # solution is optimal
        a = np.array([[0.25, -8.0, -1.0, 9.0, 1.0, 0.0, 0.0],
                      [0.5, -12.0, -0.5, 3.0, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]])
        b = np.array([0.0, 0.0, 1.0])
        monkeypatch.setattr(solvers, "MAX_ENTRIES", 2)
        with pytest.raises(SolverFailure, match="after 2 entered columns"):
            solve_lp(a, b)
        for cap in (3, 4):
            monkeypatch.setattr(solvers, "MAX_ENTRIES", cap)
            sol = solve_lp(a, b)
            assert sol.status == OPTIMAL and sol.iterations == 3 and sol.x.min() >= 0.0
            assert np.abs(a @ sol.x - b).max() <= 1e-12

    def test_solve_lp_reports_the_capped_total(self, monkeypatch):
        rng = np.random.default_rng(95)
        a = rng.random((6, 12))
        b = a @ rng.random(12)
        entered = solve_lp(a, b).iterations
        assert entered >= 2
        monkeypatch.setattr(solvers, "MAX_ENTRIES", entered - 1)
        with pytest.raises(SolverFailure, match=f"after {entered - 1} entered columns"):
            solve_lp(a, b)


def weighted_pair(d, seed):
    """Two random states of dimension ``d`` with priors 0.4 and 0.6, as the
    constraints of their guessing-value program."""
    rng = np.random.default_rng(seed)
    states = np.stack([random_density_matrix(d, rng) for _ in range(2)])
    return np.array([0.4, 0.6])[:, None, None] * states


class TestRows:
    def test_contractions_match_traces(self):
        rng = np.random.default_rng(95)
        for d in (1, 2, 3, 5):
            b = rng.standard_normal((6, d, d)) + 1j * rng.standard_normal((6, d, d))
            b = b + b.conj().swapaxes(1, 2)
            m = rng.standard_normal((4, d, d)) + 1j * rng.standard_normal((4, d, d))
            for other in (m, m + m.conj().swapaxes(1, 2)):
                expected = np.einsum("jab,lba->jl", b, other).real
                assert np.abs(_rows(b) @ _rows(other).T - expected).max() <= 1e-13
                assert np.abs(_rows(b) @ _rows(other[0]) - expected[:, 0]).max() <= 1e-13

    def test_a_stack_of_blocks_is_one_row(self):
        # Re tr of block-diagonal products: the traces summed over blocks
        rng = np.random.default_rng(96)
        b = rng.standard_normal((4, 3, 2, 2)) + 1j * rng.standard_normal((4, 3, 2, 2))
        b = b + b.conj().swapaxes(-1, -2)
        expected = np.einsum("jxab,lxba->jl", b, b).real
        assert np.abs(_rows(b) @ _rows(b).T - expected).max() <= 1e-12
        assert np.abs(_rows(b) @ _rows(b[0]).ravel() - expected[:, 0]).max() <= 1e-12


class TestSolveDominating:
    def test_scalar_subspace_closed_form(self):
        # min tr(x I) with x I >= diag(0.75, 0.25): x = 0.75, trace 1.5
        program = (
            np.eye(2, dtype=complex)[None] / math.sqrt(2.0),
            np.diag([0.75, 0.25]).astype(complex)[None]
        )
        sol = solve_dominating(*program)
        assert sol.status == OPTIMAL
        assert sol.value == pytest.approx(1.5, abs=1e-9)
        np.testing.assert_allclose(sol.y, 0.75 * np.eye(2), atol=1e-8)

    def test_solution_respects_constraints(self):
        rng = np.random.default_rng(91)
        constraints = np.stack([0.5 * random_density_matrix(3, rng) for _ in range(3)])
        sol = solve_dominating(hermitian_basis(3), constraints)
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
        sol = solve_dominating(hermitian_basis(3), constraints)
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

    @pytest.mark.parametrize("basis", [
        hermitian_basis(2)[2:3],  # a single traceless element
        np.diag([1.0, 0.0])[None],
        np.diag([1.0, 2.0])[None] / math.sqrt(5.0),
    ], ids=["traceless", "diag_1_0", "diag_1_2"])
    def test_span_without_identity(self, monkeypatch, basis):
        # the program is rejected before its first interior-point step
        def no_steps(*args):
            raise AssertionError("the path was started")
        monkeypatch.setattr(solvers, "_central_path", no_steps)
        with pytest.raises(ValueError, match="identity"):
            solve_dominating(basis, 0.5 * np.eye(2, dtype=complex)[None])

    def test_span_containing_an_unlisted_identity(self):
        # a rotation of the two matrix units spans the diagonal matrices, as
        # they do in roc, but lists neither I nor a matrix unit; min tr Y over
        # diagonal Y >= |+><+| is 2, at Y = I
        cos, sin = math.cos(math.pi / 8), math.sin(math.pi / 8)
        basis = np.stack([np.diag([cos, sin]), np.diag([-sin, cos])]).astype(complex)
        sol = solve_dominating(basis, np.full((1, 2, 2), 0.5, dtype=complex))
        assert sol.lower - 1e-12 <= 2.0 <= sol.value + 1e-12
        assert sol.value - sol.lower <= 1e-9
        assert sol.min_slack > 0.0
        np.testing.assert_allclose(sol.y, np.eye(2), atol=1e-8)

    def test_span_without_an_orthonormal_basis(self, monkeypatch):
        # diag(1, 2) and diag(1, 0) span the diagonal matrices, I included, but
        # are not orthonormal: rejected before the first interior-point step
        def no_steps(*args):
            raise AssertionError("the path was started")
        monkeypatch.setattr(solvers, "_central_path", no_steps)
        basis = np.stack([np.diag([1.0, 2.0]), np.diag([1.0, 0.0])]).astype(complex)
        with pytest.raises(ValueError, match="orthonormal"):
            solve_dominating(basis, np.full((1, 2, 2), 0.5, dtype=complex))

    def test_a_spin_factor_certifies(self):
        # {I, X, Z}/sqrt(2) is closed under squares though not a *-algebra:
        # min tr Y over Y >= diag(0.75, 0.25) is tr diag(0.75, 0.25) = 1
        basis = np.stack([np.eye(2), [[0, 1], [1, 0]], np.diag([1, -1])]) / math.sqrt(2.0)
        sol = solve_dominating(basis.astype(complex), np.diag([0.75, 0.25])[None])
        assert sol.lower - 1e-12 <= 1.0 <= sol.value + 1e-12
        assert sol.value - sol.lower <= 1e-9

    def test_a_span_not_closed_under_squares_is_a_solver_failure(self):
        # (E01 + E10)^2 = E00 + E11 leaves this span, so the congruence of
        # _certified_lower can leave duals whose projected sum misses the
        # identity: the fourth pair of trace-normalized Wishart constraints
        # drawn from default_rng(0) misses it by more than IDENTITY_TOL
        pair = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]) / math.sqrt(2.0)
        basis = np.stack([np.eye(3) / math.sqrt(3.0), pair, pair[::-1, ::-1]])
        g = np.random.default_rng(0).standard_normal((4, 2, 2, 3, 3))[3]
        w = g[:, 0] + 1j * g[:, 1]
        w = w @ w.conj().swapaxes(-1, -2)
        with pytest.raises(SolverFailure, match="closed under squares"):
            solve_dominating(basis.astype(complex), w / np.einsum("xii->", w).real)

    def test_step_counts_are_pinned(self, count_calls):
        # interior-point steps of three fixed programs; each moved by at most
        # two when the contractions became matrix products.  The lower bound
        # is certified once per solve, at the step where the complementarity
        # gap reaches GAP_TOL: each stops there
        certified = count_calls(solvers._certified_lower)
        helstrom = solve_dominating(hermitian_basis(3), weighted_pair(3, 92))
        assert abs(helstrom.iterations - 11) <= 2 and len(certified) == 1
        assert abs(roc(np.full((3, 3), 1.0 / 3.0)).iterations - 10) <= 2
        assert len(certified) == 2
        pair = solve_dominating(hermitian_basis(8), weighted_pair(8, 1))
        assert abs(pair.iterations - 11) <= 2 and len(certified) == 3

    def test_iteration_limit_reports_a_finite_gap(self, monkeypatch):
        # two steps are too few to certify anything: the failure still
        # reports the complementarity gap left
        monkeypatch.setattr(solvers, "MAX_ITERATIONS", 2)
        with pytest.raises(SolverFailure, match="after 2 iterations") as info:
            solve_dominating(hermitian_basis(3), weighted_pair(3, 92))
        gap = float(re.search(r"gap of (\S+) after", str(info.value)).group(1))
        assert math.isfinite(gap) and gap > 0.0

    def test_a_dual_sum_projecting_to_no_positive_matrix_is_a_solver_failure(self):
        # positive definite duals cannot do this over a *-algebra; zero ones do
        basis = hermitian_basis(2)
        with pytest.raises(SolverFailure, match="not positive definite"):
            solvers._certified_lower(basis, np.eye(2, dtype=complex)[None],
                                     np.zeros((1, 2, 2), dtype=complex))

    def test_a_full_basis_takes_the_route_of_the_full_span(self):
        # d^2 orthonormal elements span every Hermitian matrix: after its
        # checks the solve is the one without a basis, bit for bit
        constraints = weighted_pair(4, 3)
        given = solve_dominating(hermitian_basis(4), constraints)
        full = solve_dominating(None, constraints)
        assert given.iterations == full.iterations
        assert (given.value, given.lower) == (full.value, full.lower)
        np.testing.assert_array_equal(given.y, full.y)
        np.testing.assert_array_equal(given.duals, full.duals)

    def test_a_dependent_full_size_basis_is_rejected(self):
        basis = hermitian_basis(2)
        basis[3] = basis[2]
        with pytest.raises(InvalidArgument, match="orthonormal"):
            solve_dominating(basis, np.eye(2, dtype=complex)[None] / 2)

    def test_rejects_dependent_basis(self):
        basis = np.stack([np.eye(2, dtype=complex), 2.0 * np.eye(2, dtype=complex)])
        with pytest.raises(ValueError):
            solve_dominating(basis, np.eye(2, dtype=complex)[None])


class TestStepShape:
    COUNTED = ("inv", "cholesky", "eigvalsh", "solve")

    def per_step_calls(self, monkeypatch, solve):
        """``np.linalg`` calls made inside each interior-point step of ``solve()``:
        the counts are read as the path yields and as it is resumed."""
        counts = dict.fromkeys(self.COUNTED, 0)
        for name in self.COUNTED:
            def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        marks, path = [], solvers._central_path

        def marked(*args):
            for iterate in path(*args):
                marks.append(dict(counts))
                yield iterate
                marks.append(dict(counts))

        monkeypatch.setattr(solvers, "_central_path", marked)
        iterations = solve().iterations
        steps = [{k: after[k] - before[k] for k in self.COUNTED}
                 for before, after in zip(marks[1::2], marks[2::2])]
        assert len(steps) == iterations > 0
        return steps

    @pytest.mark.parametrize("solve", [
        lambda: roc(np.full((3, 3), 1.0 / 3.0)),
        lambda: solve_dominating(hermitian_basis(3), weighted_pair(3, 92)),
        lambda: solve_dominating(hermitian_basis(8), weighted_pair(8, 1)),
        lambda: _guess_solution(random_ensemble(4, 3, 9600)),
        # one outcome's robustness solve: the span {I / sqrt(d)}, one constraint M_a
        lambda: solve_dominating(np.eye(3)[None] / np.sqrt(3), random_povm(3, 4, 1).elements[:1]),
    ], ids=["roc", "guess_d3", "full_basis_d8", "guess_solution_d4", "rom_blocks"])
    def test_dispatch_budget(self, monkeypatch, solve):
        # one stacked factorization and one inverse per step, one step-length
        # eigensolve per stage, one Newton solve per stage (Schur or vec form)
        budget = {"inv": 1, "cholesky": 1, "eigvalsh": 2, "solve": 2}
        for step in self.per_step_calls(monkeypatch, solve):
            assert step == budget

    def test_failed_factorization_halves_the_step(self, monkeypatch):
        program = (hermitian_basis(3), weighted_pair(3, 92))
        reference = solve_dominating(*program)
        calls, cholesky = [], np.linalg.cholesky

        def fails_once(a):
            calls.append(a)
            if len(calls) == 4:  # the first try of the third step
                raise np.linalg.LinAlgError("forced")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", fails_once)
        halved = solve_dominating(*program)
        assert len(calls) == halved.iterations + 2
        # another path to the same optimum: the two brackets overlap
        assert halved.lower <= reference.value and reference.lower <= halved.value
        assert abs(halved.value - reference.value) <= solvers.GAP_TOL
        assert halved.min_slack > 0.0

    def test_a_step_that_never_factors_is_a_solver_failure(self, monkeypatch):
        calls, cholesky = [], np.linalg.cholesky

        def fails_after_the_start(a):
            calls.append(a)
            if len(calls) > 1:
                raise np.linalg.LinAlgError("forced")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", fails_after_the_start)
        with pytest.raises(SolverFailure, match="cannot stay positive definite"):
            solve_dominating(hermitian_basis(3), weighted_pair(3, 92))
        assert len(calls) == 1 + solvers.MAX_HALVINGS

    def test_inverted_bracket_is_a_solver_failure(self, monkeypatch):
        certified = solvers._certified_lower

        def overstated(*args):
            lower, duals = certified(*args)
            return lower + 1e-6, duals

        monkeypatch.setattr(solvers, "_certified_lower", overstated)
        with pytest.raises(SolverFailure, match="inverted"):
            solve_dominating(np.eye(2, dtype=complex)[None] / math.sqrt(2.0),
                             np.diag([0.75, 0.25]).astype(complex)[None])


@pytest.mark.parametrize("d, o", [(2, 2), (3, 4), (4, 3)])
def test_roc_and_rom_sdp_spans_keep_their_diagonal_matrix_units(count_calls, d, o):
    # roc's span is the d diagonal units; the robustness SDP is one solve per
    # outcome, over the span {I / sqrt(d)} with the single constraint M_a
    calls = count_calls(solvers.solve_dominating)
    roc(random_density_matrix(d, np.random.default_rng(d)))
    m = random_povm(d, o, 1)
    rom_via_sdp(m)
    (roc_basis, _), *rom_calls = calls
    np.testing.assert_array_equal(roc_basis, np.eye(d)[:, :, None] * np.eye(d))
    assert len(rom_calls) == o
    for (rom_basis, rom_constraints), element in zip(rom_calls, m.elements):
        np.testing.assert_array_equal(rom_basis, np.eye(d)[None] / np.sqrt(d))
        np.testing.assert_array_equal(rom_constraints, element[None])


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

    def test_matches_closed_form_at_d16(self):
        m = random_povm(16, 16, 1)
        assert abs(rom_via_sdp(m) - rom(m)) <= 1e-9

    def test_matches_closed_form_at_d32(self):
        m = random_povm(32, 32, 1)
        assert abs(rom_via_sdp(m) - rom(m)) <= 1e-9

    @pytest.mark.parametrize("d, o, seed", [(2, 3, 1), (3, 4, 2), (4, 2, 3), (5, 6, 4)])
    def test_certified_dual_blocks_are_the_optimal_game(self, d, o, seed):
        # each outcome's dual Z_a projects onto I, so tr Z_a = d and the
        # states Z_a / d, sent uniformly, form a game whose advantage with the
        # measurement lies in [sum_a lower_a / d, sum_a value_a / d], at 1 + R(M)
        m = random_povm(d, o, seed)
        solutions = _rom_solution(m)
        assert len(solutions) == o
        assert all(s.y.shape == (d, d) and s.duals.shape == (1, d, d) for s in solutions)
        z = np.stack([s.duals[0] for s in solutions])
        assert np.abs(np.trace(z, axis1=1, axis2=2) - d).max() <= 1e-12
        assert np.linalg.eigvalsh(z / d)[:, 0].min() >= -1e-12
        game = advantage(Ensemble(z / d, np.full(o, 1.0 / o)), m)
        lower, value = (sum(getattr(s, bound) for s in solutions) / d
                        for bound in ("lower", "value"))
        assert lower - 1e-12 <= game <= value + 1e-12
        assert abs(game - (1.0 + rom(m))) <= 1e-9


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

    def test_d16_four_states_are_certified(self):
        rng = np.random.default_rng(8)
        e = Ensemble(np.stack([random_density_matrix(16, rng) for _ in range(4)]),
                     np.full(4, 0.25))
        sol = _guess_solution(e)
        assert sol.status == OPTIMAL
        assert sol.value - sol.lower <= 1e-9 * max(1.0, sol.value)
        assert np.linalg.eigvalsh(sol.duals)[:, 0].min() >= -1e-9
        assert np.abs(sol.duals.sum(axis=0) - np.eye(16)).max() <= 1e-9
        assert p_guess_with_measurement(e, Povm(sol.duals)) >= sol.lower - 1e-9
        assert min_error_guess_value(e) == sol.value

    def test_rejects_non_ensemble(self):
        with pytest.raises(InvalidEnsemble):
            min_error_guess_value([np.eye(2) / 2])

    def test_no_basis_is_built(self, count_calls):
        # the guessing program spans every Hermitian matrix, whose basis
        # (16 d^4 bytes, with a d^6 Gram check) the vec-form step never needs
        calls = count_calls(hermitian_basis)
        e = random_ensemble(5, 3, 9700)
        assert min_error_guess_value(e) >= e.priors.max() - 1e-9
        assert acc_min_info_ensemble(e) >= -1e-9
        assert calls == []


def _overstated_lower(monkeypatch):
    certified = solvers._certified_lower

    def overstated(*args):
        lower, duals = certified(*args)
        return lower + 1e-6, duals

    monkeypatch.setattr(solvers, "_certified_lower", overstated)


SCALAR_PROGRAM = (np.eye(2, dtype=complex)[None] / math.sqrt(2.0),
                  np.diag([0.75, 0.25]).astype(complex)[None])


@pytest.mark.parametrize("setup, solve, error", [
    (None, lambda: solve_lp(np.ones((2, 3)), np.ones(3)), InvalidArgument),
    (None, lambda: solve_lp(np.zeros((2, 2, 2)), np.zeros(2)), InvalidArgument),
    # non-finite input once returned a point with a NaN entry, leaked numpy's
    # empty-reduction error, and returned the status "unbounded"
    (None, lambda: solve_lp([[1.0, 1.0]], [np.inf]), InvalidArgument),
    (None, lambda: solve_lp([[1.0, 1.0]], [np.nan]), InvalidArgument),
    (None, lambda: solve_lp([[np.nan, 1.0]], [1.0]), InvalidArgument),
    (lambda mp: mp.setattr(solvers, "MAX_ENTRIES", 0),
     lambda: solve_lp([[1.0, 1.0]], [1.0]), SolverFailure),
    (None, lambda: solve_dominating(None, np.zeros((0, 2, 2))), InvalidArgument),
    (None, lambda: solve_dominating(np.stack([np.diag([1.0, 2.0]), np.diag([1.0, 0.0])]),
                                    np.full((1, 2, 2), 0.5)), InvalidArgument),
    (None, lambda: solve_dominating(hermitian_basis(2)[2:3], np.eye(2)[None] / 2),
     InvalidArgument),
    # a stack of blocks (4-D) is no program, with or without a basis of its shape
    (None, lambda: solve_dominating(None, np.eye(2)[None, None].repeat(3, axis=1) / 2),
     InvalidArgument),
    (None, lambda: solve_dominating(np.eye(2)[None, None].repeat(3, axis=1) / math.sqrt(6.0),
                                    np.eye(2)[None, None].repeat(2, axis=1) / 2),
     InvalidArgument),
    (None, lambda: solve_dominating(np.eye(2)[None, None].repeat(3, axis=1) / math.sqrt(6.0),
                                    np.eye(2)[None, None].repeat(3, axis=1) / 2),
     InvalidArgument),
    (lambda mp: mp.setattr(solvers, "MAX_ITERATIONS", 1),
     lambda: solve_dominating(*SCALAR_PROGRAM), SolverFailure),
    (_overstated_lower, lambda: solve_dominating(*SCALAR_PROGRAM), SolverFailure),
    # the start twice the largest eigenvalue overflows: once a warning and numpy's
    # LinAlgError("Singular matrix")
    (None, lambda: solve_dominating(None, np.stack([np.diag([1e308, 0.0]), np.eye(2) / 2])),
     SolverFailure),
    # the start 1e308 is finite, its trace over the dimension 2 is not: once numpy's
    # "overflow encountered in reduce" warning
    (None, lambda: solve_dominating(None, np.stack([np.diag([5e307, 0.0]), np.eye(2) / 2])),
     SolverFailure),
], ids=["lp-shapes", "lp-3d-matrix", "lp-inf-rhs", "lp-nan-rhs", "lp-nan-matrix", "lp-pivot-cap",
        "dominating-empty-stack", "dominating-not-orthonormal",
        "dominating-misses-identity", "dominating-blocks-without-basis",
        "dominating-block-shapes-differ", "dominating-blocks-with-their-basis",
        "dominating-iteration-cap",
        "dominating-inverted-bracket", "dominating-start-overflows",
        "dominating-start-trace-overflows"])
def test_every_failed_solve_is_a_package_error(monkeypatch, setup, solve, error):
    # input outside a solver's domain is InvalidArgument, a solve that cannot
    # finish SolverFailure: both are PovmRobustErrors, never a status to check
    if setup is not None:
        setup(monkeypatch)
    with pytest.raises(PovmRobustError) as info:
        solve()
    assert isinstance(info.value, error)
