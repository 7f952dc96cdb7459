import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from povmrobust import discrimination
from povmrobust.asymmetry import (
    dephasing_group,
    is_symmetric,
    orbit_ensemble,
    roa,
    roc,
    symmetric_subspace_basis,
    twirl,
    validate_group,
)
from povmrobust.discrimination import p_guess_with_measurement, random_density_matrix
from povmrobust.errors import (
    DimensionMismatch,
    InvalidArgument,
    InvalidGroup,
    PovmRobustError,
    ResourceLimit,
    SolverFailure,
)
from povmrobust.info import acc_min_info_ensemble
from povmrobust.numerics import haar_random_unitary, hermitian_basis
from povmrobust.solvers import min_error_guess_value


PLUS = np.full((2, 2), 0.5, dtype=complex)


class TestValidateGroup:
    def test_dephasing_groups_close(self):
        for d in (2, 3, 4):
            g = dephasing_group(d)
            checked = validate_group(g.unitaries)
            assert checked.order == d

    def test_a_dephasing_group_of_dimension_zero_is_an_invalid_argument(self):
        with pytest.raises(InvalidArgument):
            dephasing_group(0)

    def test_the_stack_budget_bounds_roc_and_roa(self):
        # roc builds d dephasing unitaries, roa a basis of d^2 Hermitian matrices
        with pytest.raises(ResourceLimit):
            roc(np.eye(257) / 257)
        with pytest.raises(ResourceLimit):
            roa(np.eye(65) / 65, dephasing_group(65))

    def test_rejects_non_unitary(self):
        with pytest.raises(InvalidGroup):
            validate_group([np.eye(2), np.diag([1.0, 2.0])])

    def test_rejects_non_closed(self):
        u = haar_random_unitary(2, 14)
        with pytest.raises(InvalidGroup):
            validate_group([np.eye(2), u])

    def test_accepts_phase_closure(self):
        # order-4 rotation listed only up to global phases
        z4 = np.diag([1.0, 1j])
        phases = np.exp(1j * np.array([0.3, 1.1, 2.9, 0.0]))
        elements = [p * np.linalg.matrix_power(z4, k) for k, p in enumerate(phases)]
        checked = validate_group(elements)
        assert checked.order == 4

    def test_names_first_failing_pair_in_row_major_order(self):
        # diag(1, i) diag(1, -1) = diag(1, -i) is missing; pair (1, 2) fails first
        with pytest.raises(InvalidGroup, match="elements 1 and 2 matches"):
            validate_group([np.eye(2), np.diag([1.0, 1j]), np.diag([1.0, -1.0])])

    def test_names_first_non_unitary_element(self):
        with pytest.raises(InvalidGroup, match="element 1 fails unitarity"):
            validate_group([np.eye(2), 2 * np.eye(2), 3 * np.eye(2)])

    @pytest.mark.parametrize("unitaries", [[], [np.eye(2), np.eye(3)]])
    def test_rejects_empty_or_mixed_dimensions(self, unitaries):
        with pytest.raises(InvalidGroup):
            validate_group(unitaries)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_a_rotated_dephasing_group_closes(self, d):
        # u D u^dag is complex and not symmetric, so closure must match the
        # products against the elements, not their transposes
        u = haar_random_unitary(d, 1)
        g = validate_group(u @ dephasing_group(d).unitaries @ u.conj().T)
        rho = random_density_matrix(d, np.random.default_rng(d))
        assert abs(roa(u @ rho @ u.conj().T, g).value - roc(rho).value) <= 1e-9

    def test_rejects_a_group_without_the_identity(self):
        with pytest.raises(InvalidGroup, match="does not contain the identity"):
            validate_group([np.diag([1.0, -1.0])])

    def test_rejects_a_random_unitary_with_the_identity(self):
        with pytest.raises(InvalidGroup):
            validate_group([np.eye(2), haar_random_unitary(2, 3)])

    @pytest.mark.parametrize("scale", [1e308, 1e200])
    def test_rejects_entries_whose_products_overflow_without_a_warning(self, scale):
        # U^dag U overflows, and inf - inf is NaN; the suite turns numpy's
        # RuntimeWarning into an error
        with pytest.raises(InvalidGroup, match="element 1 fails unitarity"):
            validate_group([np.eye(2), scale * np.array([[1.0, 1.0], [1.0, -1.0]])])


class TestTwirl:
    def test_symmetric_input_unchanged(self):
        g = dephasing_group(3)
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        np.testing.assert_allclose(twirl(rho, g), rho, atol=1e-12)

    def test_plus_dephases_to_maximally_mixed(self):
        g = dephasing_group(2)
        np.testing.assert_allclose(twirl(PLUS, g), np.eye(2) / 2, atol=1e-12)

    def test_idempotent(self):
        g = dephasing_group(3)
        rho = random_density_matrix(3, np.random.default_rng(15))
        once = twirl(rho, g)
        np.testing.assert_allclose(twirl(once, g), once, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            twirl(np.eye(3) / 3, dephasing_group(2))

    @pytest.mark.parametrize("group, expected, symmetric", [
        (dephasing_group(2), [1e308, 1.0], True),
        (validate_group([np.eye(2), [[0.0, 1.0], [1.0, 0.0]]]), [0.5e308 + 0.5] * 2, False),
    ], ids=["dephasing", "bit-flip"])
    def test_entries_near_the_largest_float_average_without_overflow(self, group, expected,
                                                                     symmetric):
        # the conjugates were once summed before the division: inf+nanj at (0, 0),
        # and this diagonal, so dephasing-symmetric, matrix was called asymmetric
        rho = np.diag([1e308, 1.0])
        np.testing.assert_array_equal(twirl(rho, group), np.diag(expected))
        assert is_symmetric(rho, group) == symmetric


def _asymmetry(rho, g):
    """Largest entrywise deviation of a state from its twirl."""
    return np.abs(rho - twirl(rho, g)).max()


class TestIsSymmetric:
    def test_maximally_mixed(self):
        rho, g = np.eye(2) / 2, dephasing_group(2)
        assert is_symmetric(rho, g)
        assert _asymmetry(rho, g) <= 1e-10

    def test_plus_is_not(self):
        g = dephasing_group(2)
        assert not is_symmetric(PLUS, g)
        assert _asymmetry(PLUS, g) > 1e-6

    def test_diagonal_states_are(self):
        rho, g = np.diag([0.9, 0.1]), dephasing_group(2)
        assert is_symmetric(rho, g)
        assert _asymmetry(rho, g) <= 1e-10


def test_symmetric_subspace_is_diagonal_for_dephasing():
    basis = symmetric_subspace_basis(dephasing_group(3))
    assert basis.shape[0] == 3
    for b in basis:
        off_diag = np.abs(b - np.diag(np.diag(b))).max()
        assert off_diag <= 1e-10


def _permutation_group(d):
    return validate_group([np.eye(d)[list(p)] for p in itertools.permutations(range(d))])


@pytest.mark.parametrize("group, size", [
    (dephasing_group(5), 5),
    (_permutation_group(3), 2),  # trivial plus standard representation
    (validate_group([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1, -1])]), 1),
])
def test_symmetric_subspace_basis_spans_the_twirled_operators(group, size):
    d = group.dimension
    basis = symmetric_subspace_basis(group)
    assert basis.shape == (size, d, d)
    np.testing.assert_array_equal(basis[0], np.eye(d) / math.sqrt(d))
    flat = basis.reshape(size, -1)
    np.testing.assert_allclose(flat.conj() @ flat.T, np.eye(size), atol=1e-14)
    assert np.abs(basis - basis.conj().swapaxes(1, 2)).max() <= 1e-14
    twirled = np.stack([twirl(b, group) for b in hermitian_basis(d)]).reshape(d * d, -1)
    residual = twirled - (twirled @ flat.conj().T) @ flat
    assert np.abs(residual).max() <= 1e-14


def _near_dephasing_group(eps):
    """Unitary and closed within validate_group's tolerances, which snaps
    the second element onto its nearest unitary, the reflection
    ``Z + (eps/2) X`` up to rounding; the twirl then sends X to (eps/2) Z."""
    return validate_group([np.eye(2), [[1, eps], [0, -1]]])


@pytest.mark.parametrize("eps", [5e-10, 1e-11])
def test_symmetric_subspace_basis_of_a_near_unitary_group_contains_the_identity(eps):
    basis = symmetric_subspace_basis(_near_dephasing_group(eps))
    assert basis.shape == (2, 2, 2)
    np.testing.assert_array_equal(basis[0], np.eye(2) / math.sqrt(2))
    flat = basis.reshape(2, -1)
    np.testing.assert_allclose(flat.conj() @ flat.T, np.eye(2), atol=1e-14)


def test_roa_of_a_near_unitary_group_is_certified_or_a_solver_failure():
    # the accepted elements are snapped onto unitaries, so the twirl is exact
    # and even at the edge of the unitarity gate the report is certified
    plus = np.full((2, 2), 0.5)
    for eps in (1e-12, 1e-11, 5e-10, 9e-10):
        group = _near_dephasing_group(eps)
        products = group.unitaries.conj().swapaxes(1, 2) @ group.unitaries
        assert np.abs(products - np.eye(2)).max() <= 1e-15
        report = roa(plus, group)
        assert report.value == pytest.approx(1.0, abs=1e-9)
        assert report.lower <= report.value


@pytest.mark.parametrize("eps", [0.0, 1e-12, 3e-12, 1e-11, 3e-11, 1e-10, 3e-10, 5e-10, 9e-10])
def test_roa_brackets_are_ordered_or_a_solver_failure(eps):
    # every group validate_group accepts gets an ordered bracket, never a
    # SolverFailure
    report = roa(np.full((2, 2), 0.5), _near_dephasing_group(eps))
    assert report.lower <= report.value


class TestOrbitEnsemble:
    def test_symmetric_state_gives_copies(self):
        g = dephasing_group(2)
        e = orbit_ensemble(np.eye(2) / 2, g)
        assert e.size == 2
        np.testing.assert_allclose(e.states[0], e.states[1], atol=1e-12)
        np.testing.assert_allclose(e.priors, [0.5, 0.5])

    def test_plus_orbit_is_plus_minus(self):
        g = dephasing_group(2)
        e = orbit_ensemble(PLUS, g)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
        np.testing.assert_allclose(e.states[0], PLUS, atol=1e-12)
        np.testing.assert_allclose(e.states[1], minus, atol=1e-12)

    def test_random_orbit_is_valid(self):
        from povmrobust.discrimination import validate_ensemble

        g = dephasing_group(3)
        rho = random_density_matrix(3, np.random.default_rng(20))
        e = orbit_ensemble(rho, g)
        assert e.size == g.order
        validate_ensemble(list(e.states), e.priors)


class TestRoa:
    def test_symmetric_state_vanishes(self):
        g = dephasing_group(3)
        rho = np.diag([0.6, 0.3, 0.1]).astype(complex)
        assert roa(rho, g).value <= 1e-6

    def test_plus_under_dephasing(self):
        report = roa(PLUS, dephasing_group(2))
        assert report.value == pytest.approx(1.0, abs=1e-6)
        assert report.game_advantage == pytest.approx(2.0, abs=1e-5)
        assert report.min_info == pytest.approx(1.0, abs=1e-5)

    def test_report_internal_consistency(self):
        g = dephasing_group(2)
        rho = random_density_matrix(2, np.random.default_rng(16))
        report = roa(rho, g)
        # dominating operator: symmetric, dominates the state, trace = 1 + value
        assert np.abs(report.dominating - twirl(report.dominating, g)).max() <= 1e-7
        from povmrobust.numerics import eig_hermitian
        assert eig_hermitian(report.dominating - rho).eigenvalues[0] >= -1e-7
        assert np.trace(report.dominating).real - 1.0 == pytest.approx(
            report.value, abs=1e-6
        )
        assert report.game_advantage == pytest.approx(1.0 + report.value, abs=1e-5)
        assert report.min_info == pytest.approx(
            math.log2(1.0 + report.value), abs=1e-5
        )

    def test_twirled_state_has_no_asymmetry(self):
        g = dephasing_group(3)
        rho = random_density_matrix(3, np.random.default_rng(17))
        assert roa(twirl(rho, g), g).value <= 1e-6

    def test_game_identity_via_independent_solves(self):
        g = dephasing_group(2)
        rho = random_density_matrix(2, np.random.default_rng(18))
        report = roa(rho, g)
        orbit = orbit_ensemble(rho, g)
        assert g.order * min_error_guess_value(orbit) == pytest.approx(
            1.0 + report.value, abs=1e-5
        )
        assert acc_min_info_ensemble(orbit) == pytest.approx(
            math.log2(1.0 + report.value), abs=1e-5
        )


class TestOrbitGameCertificates:
    @pytest.mark.parametrize("d, seed", [(2, 21), (3, 22), (5, 23), (8, 24)])
    def test_witness_reaches_the_bracket(self, d, seed):
        g = dephasing_group(d)
        rho = random_density_matrix(d, np.random.default_rng(seed))
        report = roa(rho, g)
        elements = report.witness.elements
        assert elements.shape == (g.order, d, d)
        np.testing.assert_allclose(elements.sum(axis=0), np.eye(d), atol=1e-12)
        assert np.linalg.eigvalsh(elements)[:, 0].min() >= -1e-12
        score = g.order * p_guess_with_measurement(orbit_ensemble(rho, g), report.witness)
        assert score >= 1.0 + report.lower - 1e-12
        assert report.value - report.lower <= 1e-9 * max(1.0, report.value)
        assert report.game_advantage == pytest.approx(1.0 + report.value, abs=1e-15)

    def test_witness_of_a_cyclic_shift_group(self):
        shift = np.roll(np.eye(3), 1, axis=0)
        g = validate_group([np.linalg.matrix_power(shift, k) for k in range(3)])
        rho = random_density_matrix(3, np.random.default_rng(25))
        report = roa(rho, g)
        assert report.value - report.lower <= 1e-9 * max(1.0, report.value)
        _assert_identities(report, rho, g, 1e-9)

    @pytest.mark.parametrize("corrupt", [
        lambda sol: replace(sol, duals=sol.duals * 1.01),        # not complete
        lambda sol: replace(sol, duals=np.eye(2)[None]),         # scores too little
        lambda sol: replace(sol, lower=sol.lower + 1e-6),        # overstated bound
        lambda sol: replace(sol, y=sol.y - 1e-6 * np.eye(2)),     # fails to dominate
        lambda sol: replace(sol, y=sol.y + 1e-6 * PLUS),         # not symmetric
    ])
    def test_corrupted_solution_is_a_solver_failure(self, monkeypatch, corrupt):
        import povmrobust.asymmetry as asymmetry

        solve = asymmetry.solve_dominating
        monkeypatch.setattr(asymmetry, "solve_dominating", lambda b, k: corrupt(solve(b, k)))
        rho = np.array([[0.7, 0.3], [0.3, 0.3]], dtype=complex)
        with pytest.raises(SolverFailure):
            roa(rho, dephasing_group(2))

    def test_corrupted_roc_solution_is_a_solver_failure(self, monkeypatch):
        # roc shares roa's certificate checks over its own basis
        import povmrobust.asymmetry as asymmetry

        solve = asymmetry.solve_dominating

        def overstated(basis, constraints):
            solution = solve(basis, constraints)
            return replace(solution, lower=solution.lower + 1e-6)

        monkeypatch.setattr(asymmetry, "solve_dominating", overstated)
        with pytest.raises(SolverFailure):
            roc(np.array([[0.7, 0.3], [0.3, 0.3]], dtype=complex))


@pytest.mark.parametrize("stack", [np.stack([np.eye(2) / 2] * 2), np.eye(2)[None] / 2],
                         ids=["two-states", "one-state"])
@pytest.mark.parametrize("call", [
    discrimination.check_density_matrix,
    roc,
    lambda rho: roa(rho, dephasing_group(2)),
    lambda rho: orbit_ensemble(rho, dephasing_group(2)),
], ids=["check_density_matrix", "roc", "roa", "orbit_ensemble"])
def test_a_stack_of_states_is_a_package_error(call, stack):
    # a stack passes the Hermiticity check, and its eigenvalues are an array
    with pytest.raises(PovmRobustError):
        call(stack)


class TestRoc:
    def test_diagonal_state(self):
        assert roc(np.diag([0.7, 0.3]).astype(complex)).value <= 1e-6

    def test_qubit_plus(self):
        assert roc(PLUS).value == pytest.approx(1.0, abs=1e-6)

    def test_qutrit_maximally_coherent(self):
        rho = np.full((3, 3), 1.0 / 3.0, dtype=complex)
        assert roc(rho).value == pytest.approx(2.0, abs=1e-5)

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_matrix_units_match_the_generic_basis(self, d):
        # roc solves over the diagonal matrix units, roa over the basis it
        # builds for any group: one span, so the same certified bracket
        rho = random_density_matrix(d, np.random.default_rng(40 + d))
        units, generic = roc(rho), roa(rho, dephasing_group(d))
        assert abs(units.value - generic.value) <= 1e-9
        assert abs(units.lower - generic.lower) <= 1e-9

    def test_bounded_by_dimension(self):
        for i, d in enumerate((2, 3)):
            value = roc(random_density_matrix(d, np.random.default_rng(19 + i))).value
            assert -1e-6 <= value <= d - 1 + 1e-6

    def test_state_is_checked_once(self, count_calls):
        # the orbit is built from the state roc has already checked
        calls = count_calls(discrimination.check_density_matrix)
        assert roc(np.full((3, 3), 1.0 / 3.0)).value == pytest.approx(2.0, abs=1e-9)
        assert len(calls) == 1
        roa(PLUS, dephasing_group(2))
        assert len(calls) == 2

    def test_no_basis_is_built(self, count_calls):
        # roc's span needs only the d diagonal units, not the (d^2, d, d)
        # matrix-unit basis, whose memory would grow as d^4
        calls = count_calls(hermitian_basis)
        assert roc(np.full((4, 4), 0.25)).value == pytest.approx(3.0, abs=1e-9)
        assert calls == []


def _pure_state(d, rng):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return v, np.outer(v, v.conj())


def _l1_coherence(rho):
    return np.abs(rho).sum() - np.abs(np.diag(rho)).sum()


def _assert_identities(report, rho, g, tol):
    """The report against an orbit guessing value solved apart from it."""
    game = g.order * min_error_guess_value(orbit_ensemble(rho, g))
    assert abs(game - (1.0 + report.value)) <= tol
    assert abs(math.log2(game) - math.log2(1.0 + report.value)) <= tol
    assert abs(report.game_advantage - game) <= tol
    assert abs(report.min_info - math.log2(game)) <= tol


class TestRocOracles:
    """Closed forms of the robustness of coherence (Piani et al., PRA 93,
    042107 (2016); Napoli et al., PRL 116, 150502 (2016))."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 9, 16])
    def test_pure_state(self, d):
        rng = np.random.default_rng(300 + d)
        for _ in range(3):
            psi, rho = _pure_state(d, rng)
            report = roc(rho)
            assert abs(report.value - (np.abs(psi).sum() ** 2 - 1.0)) <= 1e-9
            _assert_identities(report, rho, dephasing_group(d), 1e-9)

    def test_qubit_is_twice_the_coherence(self):
        rng = np.random.default_rng(310)
        for _ in range(10):
            rho = random_density_matrix(2, rng)
            assert abs(roc(rho).value - 2.0 * abs(rho[0, 1])) <= 1e-9

    @pytest.mark.parametrize("d", [3, 4])
    def test_maximally_coherent(self, d):
        rho = np.full((d, d), 1.0 / d, dtype=complex)
        report = roc(rho)
        assert abs(report.value - (d - 1)) <= 1e-9
        _assert_identities(report, rho, dephasing_group(d), 1e-9)


class TestRocRegressions:
    """Inputs on which the earlier cutting-plane solver gave up."""

    def test_pure_d4_rng102(self):
        psi, rho = _pure_state(4, np.random.default_rng(102))
        report = roc(rho)
        assert abs(report.value - (np.abs(psi).sum() ** 2 - 1.0)) <= 1e-9
        _assert_identities(report, rho, dephasing_group(4), 1e-9)

    def test_mixed_d8_rng8(self):
        d = 8
        rho = random_density_matrix(d, np.random.default_rng(8))
        report = roc(rho)
        c_l1 = _l1_coherence(rho)
        assert c_l1 / (d - 1) - 1e-9 <= report.value <= c_l1 + 1e-9
        _assert_identities(report, rho, dephasing_group(d), 1e-9)
