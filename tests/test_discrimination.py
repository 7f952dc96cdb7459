import re

import numpy as np
import pytest

from povmrobust.discrimination import (
    Ensemble,
    advantage,
    check_density_matrix,
    optimal_ensemble,
    p_guess_classical,
    p_guess_with_measurement,
    random_density_matrix,
    random_ensemble,
    validate_ensemble,
)
from povmrobust.errors import DimensionMismatch, InvalidArgument, InvalidEnsemble, InvalidState
from povmrobust.measurement import (
    post_process,
    random_povm,
    random_stochastic_map,
    trivial_povm,
)
from povmrobust.rom import rom
from povmrobust.solvers import min_error_guess_value


def uniform_pair():
    return validate_ensemble([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [0.5, 0.5])


class TestValidateEnsemble:
    def test_rejects_bad_priors(self):
        with pytest.raises(InvalidEnsemble):
            validate_ensemble([np.eye(2) / 2], [0.9])

    def test_rejects_non_state(self):
        with pytest.raises(InvalidEnsemble):
            validate_ensemble([np.diag([2.0, -1.0])], [1.0])

    def test_names_the_first_failing_state(self):
        # the second state fails PSD and the third fails trace: the second is reported
        states = [np.eye(2) / 2, np.diag([1.5, -0.5]), np.eye(2)]
        with pytest.raises(InvalidEnsemble, match=r"eigenvalue -5\.000e-01 below"):
            validate_ensemble(states, [0.25, 0.25, 0.5])
        with pytest.raises(InvalidEnsemble, match=r"^state trace is 2\.0, not 1$"):
            validate_ensemble([states[0], states[2]], [0.5, 0.5])

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(InvalidEnsemble):
            validate_ensemble([np.eye(2) / 2, np.eye(3) / 3], [0.5, 0.5])

    def test_an_ensemble_of_non_square_states_is_invalid(self):
        with pytest.raises(InvalidEnsemble, match=r"shape \(n, d, d\)"):
            Ensemble(np.zeros((2, 2, 3)), [0.5, 0.5])

    def test_random_ensembles_are_valid(self):
        for i in range(5):
            e = random_ensemble(3, 4, 880 + i)
            validate_ensemble(list(e.states), e.priors)

    def test_random_ensemble_draws_match_per_state_draws(self):
        # one batched draw reproduces random_density_matrix called per state
        for i in range(200):
            d, size = 2 + i % 5, 1 + i % 6
            e = random_ensemble(d, size, 890 + i)
            rng = np.random.default_rng(890 + i)
            states = np.stack([random_density_matrix(d, rng) for _ in range(size)])
            assert np.abs(e.states - states).max() <= 1e-15
            np.testing.assert_array_equal(e.priors, rng.dirichlet(np.ones(size)))

    @pytest.mark.parametrize("state, one, stacked, message", [
        (np.diag([1.2, -0.2]), InvalidState, InvalidEnsemble,
         "state has eigenvalue -2.000e-01 below -1.0e-09"),
        (np.diag([0.5, 0.6]), InvalidState, InvalidEnsemble, "state trace is 1.1, not 1"),
        (np.diag([1e308, 1e308]), InvalidState, InvalidEnsemble, "state trace is inf, not 1"),
        # a NaN entry is refused by the matrix reader both calls share
        (np.diag([np.nan, 1.0]), InvalidArgument, InvalidArgument,
         "matrix entries must be finite"),
    ], ids=["not-psd", "trace", "trace-overflows", "nan"])
    def test_one_state_fails_alone_as_in_an_ensemble(self, state, one, stacked, message):
        # check_density_matrix is the one-state case of the ensemble's state gate
        with pytest.raises(one, match=f"^{re.escape(message)}$"):
            check_density_matrix(state)
        with pytest.raises(stacked, match=f"^{re.escape(message)}$"):
            validate_ensemble([state], [1.0])


class TestRandomDensityMatrix:
    @pytest.mark.parametrize("d, rng, message", [
        (2.5, np.random.default_rng(0), "dimension must be an integer of at least 1, got 2.5"),
        (0, np.random.default_rng(0), "dimension must be an integer of at least 1, got 0"),
        (2, 5, "rng must be a numpy Generator, got int"),
    ], ids=["float-dimension", "zero-dimension", "seed-for-generator"])
    def test_refuses_a_bad_argument(self, d, rng, message):
        # a draw over the budget is refused in test_measurement, with the other builders
        with pytest.raises(InvalidArgument, match=f"^{re.escape(message)}$"):
            random_density_matrix(d, rng)


class TestPGuessClassical:
    def test_uniform_four(self):
        e = random_ensemble(2, 4, 1)
        e = Ensemble(e.states, np.full(4, 0.25))
        assert p_guess_classical(e) == pytest.approx(0.25)

    def test_skewed(self):
        e = random_ensemble(2, 2, 2)
        e = Ensemble(e.states, np.array([0.7, 0.3]))
        assert p_guess_classical(e) == pytest.approx(0.7)

    def test_single_state(self):
        e = validate_ensemble([np.eye(2) / 2], [1.0])
        assert p_guess_classical(e) == pytest.approx(1.0)


class TestPGuessWithMeasurement:
    def test_perfect_discrimination(self, qubit_z):
        assert p_guess_with_measurement(uniform_pair(), qubit_z) == pytest.approx(1.0)

    def test_trivial_measurement_gives_pmax(self):
        e = random_ensemble(3, 4, 3)
        m = trivial_povm([0.4, 0.6], 3)
        assert p_guess_with_measurement(e, m) == pytest.approx(
            p_guess_classical(e), abs=1e-12
        )

    def test_trine_on_its_optimal_ensemble(self, trine):
        e = optimal_ensemble(trine)
        assert p_guess_with_measurement(e, trine) == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_dimension_mismatch(self, qubit_z):
        with pytest.raises(DimensionMismatch):
            p_guess_with_measurement(random_ensemble(3, 2, 4), qubit_z)

    def test_data_processing(self):
        m = random_povm(3, 4, 5)
        mapped = post_process(m, random_stochastic_map(4, 3, 5))
        for i in range(10):
            e = random_ensemble(3, 3, 990 + i)
            assert (p_guess_with_measurement(e, mapped)
                    <= p_guess_with_measurement(e, m) + 1e-9)

    def test_dominated_by_optimum(self):
        for i in range(5):
            e = random_ensemble(2, 3, 660 + i)
            m = random_povm(2, 3, 661 + i)
            assert (p_guess_with_measurement(e, m)
                    <= min_error_guess_value(e) + 1e-7)


class TestAdvantage:
    def test_trivial_measurement(self):
        e = random_ensemble(2, 3, 6)
        assert advantage(e, trivial_povm([0.2, 0.8], 2)) == pytest.approx(1.0)

    def test_optimal_for_qubit_z(self, qubit_z):
        assert advantage(optimal_ensemble(qubit_z), qubit_z) == pytest.approx(2.0, abs=1e-9)

    def test_never_exceeds_robustness_bound(self):
        for i in range(10):
            m = random_povm(2 + i % 3, 2 + i % 4, 7700 + i)
            bound = 1.0 + rom(m)
            for j in range(10):
                e = random_ensemble(m.dimension, 1 + j % 5, 7800 + 10 * i + j)
                assert advantage(e, m) <= bound + 1e-8


class TestOptimalEnsemble:
    def test_qubit_z(self, qubit_z):
        e = optimal_ensemble(qubit_z)
        np.testing.assert_allclose(e.priors, [0.5, 0.5])
        np.testing.assert_allclose(e.states[0], np.diag([1.0, 0.0]), atol=1e-9)
        np.testing.assert_allclose(e.states[1], np.diag([0.0, 1.0]), atol=1e-9)

    def test_sic_reaches_d_over_o(self, sic):
        e = optimal_ensemble(sic)
        assert p_guess_with_measurement(e, sic) == pytest.approx(0.5, abs=1e-9)
        assert advantage(e, sic) == pytest.approx(2.0, abs=1e-7)

    def test_achieves_one_plus_robustness(self):
        for i, (d, o) in enumerate([(2, 2), (2, 4), (3, 3), (3, 5), (4, 4)]):
            m = random_povm(d, o, 8800 + i)
            assert advantage(optimal_ensemble(m), m) == pytest.approx(
                1.0 + rom(m), abs=1e-7
            )

    def test_trivial_measurement_gives_unit_advantage(self):
        m = trivial_povm([0.3, 0.3, 0.4], 2)
        e = optimal_ensemble(m)
        assert advantage(e, m) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("d, size, seed", [(0, 2, 1), (2, 0, 1), (2, 2, -1)])
def test_random_ensemble_rejects_an_empty_size_or_a_negative_seed(d, size, seed):
    with pytest.raises(InvalidArgument):
        random_ensemble(d, size, seed)
