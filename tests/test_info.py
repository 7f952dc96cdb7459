import math

import numpy as np
import pytest

from povmrobust.discrimination import (
    p_guess_with_measurement,
    random_ensemble,
    validate_ensemble,
)
from povmrobust.errors import InvalidDistribution, InvalidJoint
from povmrobust.info import (
    JointDistribution,
    acc_min_info_ensemble,
    acc_min_info_measurement,
    h_min,
    h_min_cond,
    i_min,
    joint_from_game,
)
from povmrobust.measurement import projective_povm, random_povm, trivial_povm, validate_povm
from povmrobust.rom import rom


class TestHMin:
    def test_uniform_four(self):
        assert h_min([0.25] * 4) == pytest.approx(2.0)

    def test_point_mass(self):
        assert h_min([0.0, 1.0, 0.0]) == pytest.approx(0.0)

    def test_half_quarter_quarter(self):
        assert h_min([0.5, 0.25, 0.25]) == pytest.approx(1.0)

    def test_zeros_are_ignored(self):
        assert h_min([0.5, 0.5, 0.0]) == pytest.approx(1.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidDistribution):
            h_min([0.5, 0.4])


class TestHMinCond:
    def test_product_of_uniforms(self):
        assert h_min_cond(JointDistribution(np.full((2, 2), 0.25))) == pytest.approx(1.0)

    def test_perfect_correlation(self):
        assert h_min_cond(JointDistribution(np.diag([0.5, 0.5]))) == pytest.approx(0.0)

    def test_half_correlated_mixture(self):
        # 50% correlated diag(1/2, 1/2) plus 50% independent uniform
        joint = 0.5 * np.diag([0.5, 0.5]) + 0.5 * np.full((2, 2), 0.25)
        # direct-summation oracle
        expected = -math.log2(sum(joint.max(axis=0)))
        assert h_min_cond(JointDistribution(joint)) == pytest.approx(expected)
        assert expected == pytest.approx(-math.log2(0.75))

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidJoint):
            JointDistribution(np.full((2, 2), 0.3))


class TestIMin:
    def test_product_distribution_carries_nothing(self):
        p = np.outer([0.3, 0.7], [0.6, 0.4])
        assert i_min(JointDistribution(p)) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_correlation(self):
        assert i_min(JointDistribution(np.full((3, 3), 1 / 3) * np.eye(3))) == (
            pytest.approx(math.log2(3))
        )

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = rng.random((3, 4))
            p /= p.sum()
            assert i_min(JointDistribution(p)) >= -1e-12


class TestJointFromGame:
    def test_trivial_measurement_gives_product(self):
        e = random_ensemble(2, 3, 10)
        m = trivial_povm([0.25, 0.75], 2)
        joint = joint_from_game(e, m)
        expected = np.outer(e.priors, [0.25, 0.75])
        np.testing.assert_allclose(joint.p, expected, atol=1e-12)

    def test_qubit_z_on_basis_pair(self, qubit_z):
        e = validate_ensemble(
            [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [0.5, 0.5]
        )
        joint = joint_from_game(e, qubit_z)
        np.testing.assert_allclose(joint.p, np.diag([0.5, 0.5]), atol=1e-12)

    def test_marginal_reproduces_priors(self):
        e = random_ensemble(3, 4, 11)
        m = random_povm(3, 5, 11)
        joint = joint_from_game(e, m)
        np.testing.assert_allclose(joint.marginal_x(), e.priors, atol=1e-10)

    def test_clips_below_zero_where_the_guess_does_not(self):
        # element 1 has eigenvalue -5e-11, within the PSD gate: p(0, 1) < 0,
        # and the clipped row is rescaled to sum to one
        m = validate_povm([np.diag([1.0 + 5e-11, 0.0]), np.diag([-5e-11, 1.0])])
        e = validate_ensemble([np.diag([1.0, 0.0])], [1.0])
        np.testing.assert_array_equal(joint_from_game(e, m).p, [[1.0, 0.0]])
        assert abs(p_guess_with_measurement(e, m) - 1.0) <= 1e-15

    def test_accepted_povm_near_the_psd_gate_gives_a_joint(self):
        # the clip alone would leave a total of 1 + 5e-10, past DISTRIBUTION_TOL
        m = validate_povm([np.diag([1.0 + 5e-10, 0.0]), np.diag([-5e-10, 1.0])])
        e = validate_ensemble([np.diag([1.0, 0.0])], [1.0])
        joint = joint_from_game(e, m)
        np.testing.assert_array_equal(joint.p, [[1.0, 0.0]])
        assert i_min(joint) == 0.0


class TestAccMinInfoMeasurement:
    def test_qubit_projective_one_bit(self, qubit_z):
        bits, witness = acc_min_info_measurement(qubit_z)
        assert bits == pytest.approx(1.0, abs=1e-10)
        assert witness.size == 2

    def test_trivial_measurement_zero(self):
        bits, _ = acc_min_info_measurement(trivial_povm([0.5, 0.5], 2))
        assert abs(bits) <= 1e-9

    def test_qutrit_projective(self):
        bits, _ = acc_min_info_measurement(projective_povm(np.eye(3)))
        assert bits == pytest.approx(math.log2(3), abs=1e-10)

    def test_witness_attains_the_value(self):
        for i, (d, o) in enumerate([(2, 3), (3, 2), (3, 4)]):
            m = random_povm(d, o, 5500 + i)
            bits, witness = acc_min_info_measurement(m)
            assert i_min(joint_from_game(witness, m)) == pytest.approx(bits, abs=1e-7)
            assert bits == pytest.approx(math.log2(1.0 + rom(m)), abs=1e-12)

    def test_random_games_never_beat_it(self):
        m = random_povm(2, 3, 5600)
        bits, _ = acc_min_info_measurement(m)
        for i in range(50):
            e = random_ensemble(2, 1 + i % 4, 5700 + i)
            assert i_min(joint_from_game(e, m)) <= bits + 1e-7


class TestAccMinInfoEnsemble:
    def test_orthogonal_pair_one_bit(self):
        e = validate_ensemble(
            [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [0.5, 0.5]
        )
        assert acc_min_info_ensemble(e) == pytest.approx(1.0, abs=1e-6)

    def test_single_state_zero(self):
        e = validate_ensemble([np.eye(2) / 2], [1.0])
        assert abs(acc_min_info_ensemble(e)) <= 1e-6

    def test_helstrom_pair(self):
        plus = np.full((2, 2), 0.5)
        e = validate_ensemble([np.diag([1.0, 0.0]), plus], [0.5, 0.5])
        expected = math.log2(1.0 + 1.0 / math.sqrt(2.0))
        assert acc_min_info_ensemble(e) == pytest.approx(expected, abs=1e-6)
