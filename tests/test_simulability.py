import numpy as np
import pytest

from povmrobust.discrimination import p_guess_with_measurement, random_ensemble
from povmrobust.errors import DimensionMismatch, SolverFailure
from povmrobust.info import h_min_cond, joint_from_game
from povmrobust.measurement import (
    Povm,
    StochasticMap,
    post_process,
    random_povm,
    random_stochastic_map,
    trivial_povm,
)
from povmrobust.rom import rom
from povmrobust.simulability import (
    NOT_SIMULABLE,
    SIMULABLE,
    SimulabilityCertificate,
    is_simulable,
    monotone_suite,
    witness_from_certificate,
)


class TestSimulableVerdicts:
    def test_coarse_graining(self, qubit_z):
        merged = post_process(qubit_z, StochasticMap(np.ones((2, 1))))
        result = is_simulable(qubit_z, merged)
        assert result.verdict == SIMULABLE
        assert result.residual <= 1e-7
        np.testing.assert_allclose(result.map.probabilities.sum(axis=1), [1.0, 1.0])

    def test_trivial_target_always_simulable(self, trine):
        target = trivial_povm([0.35, 0.65], 2)
        result = is_simulable(trine, target)
        assert result.simulable
        # the constant map reproduces the target distribution
        np.testing.assert_allclose(
            result.map.probabilities, np.tile([0.35, 0.65], (3, 1)), atol=1e-7
        )

    def test_simulable_map_reconstructs(self):
        m = random_povm(3, 4, 42)
        target = post_process(m, random_stochastic_map(4, 3, 43))
        result = is_simulable(m, target)
        assert result.simulable
        rebuilt = post_process(m, result.map)
        assert np.abs(rebuilt.elements - target.elements).max() <= 1e-7

    def test_z_vs_x_not_simulable(self, qubit_z, qubit_x):
        result = is_simulable(qubit_z, qubit_x)
        assert result.verdict == NOT_SIMULABLE
        assert result.witness is not None
        assert result.gap >= 0.1
        gap = (p_guess_with_measurement(result.witness, qubit_x)
               - p_guess_with_measurement(result.witness, qubit_z))
        assert gap == pytest.approx(result.gap)

    def test_sic_cannot_build_projective(self, sic, qubit_z):
        result = is_simulable(sic, qubit_z)
        assert result.verdict == NOT_SIMULABLE
        assert result.gap >= 1e-9

    def test_near_simulable_perturbation(self, qubit_z, qubit_x):
        eps = 1e-3
        target = Povm((1 - eps) * qubit_z.elements + eps * qubit_x.elements)
        result = is_simulable(qubit_z, target)
        assert result.verdict == NOT_SIMULABLE
        assert 1e-9 <= result.gap <= 0.1

    def test_dimension_mismatch(self, qubit_z):
        with pytest.raises(DimensionMismatch):
            is_simulable(qubit_z, random_povm(3, 2, 1))


class TestCertificate:
    def test_certificate_separates(self, qubit_z, qubit_x):
        result = is_simulable(qubit_z, qubit_x)
        cert = result.certificate
        # validity: tr[Z_b M_a] + z_a <= 0 while the target scores > 0
        for a, element in enumerate(qubit_z):
            for z_op in cert.operators:
                assert np.einsum("ij,ji->", z_op, element).real + cert.scalars[a] <= 1e-9
        total = sum(
            np.einsum("ij,ji->", z_op, el).real
            for z_op, el in zip(cert.operators, qubit_x.elements)
        )
        assert total + cert.scalars.sum() > 1e-9

    def test_unverified_certificate_is_a_solver_failure(self, qubit_z, qubit_x):
        # an all-zero functional separates nothing; no witness is searched for
        blank = SimulabilityCertificate(np.zeros((2, 2, 2), dtype=complex), np.zeros(2))
        with pytest.raises(SolverFailure, match="did not verify"):
            witness_from_certificate(qubit_z, qubit_x, blank)


class TestInvariants:
    def test_simulable_passes_monotone_suite(self):
        m = random_povm(2, 3, 77)
        target = post_process(m, random_stochastic_map(3, 2, 78))
        result = is_simulable(m, target)
        assert result.simulable
        assert monotone_suite(m, target, 500, seed=5)

    def test_monotone_suite_detects_z_vs_x(self, qubit_z, qubit_x):
        assert not monotone_suite(qubit_z, qubit_x, 500, seed=6)

    def test_monotone_suite_reflexive(self, trine):
        assert monotone_suite(trine, trine, 100, seed=7)

    def test_min_entropy_ordering_for_simulable_pairs(self):
        m = random_povm(2, 4, 79)
        target = post_process(m, random_stochastic_map(4, 2, 80))
        for i in range(20):
            e = random_ensemble(2, 1 + i % 4, 8100 + i)
            assert (h_min_cond(joint_from_game(e, m))
                    <= h_min_cond(joint_from_game(e, target)) + 1e-9)

    def test_simulable_implies_rom_ordering(self):
        for i in range(10):
            m = random_povm(2 + i % 3, 2 + i % 4, 8200 + i)
            target = post_process(
                m, random_stochastic_map(m.outcomes, 1 + i % 5, 8300 + i)
            )
            result = is_simulable(m, target)
            assert result.simulable
            assert rom(target) <= rom(m) + 1e-9

    def test_random_post_processings_are_recognized(self):
        verdicts = []
        for i in range(30):
            d = 2 + i % 3
            o = 2 + i % 4
            m = random_povm(d, o, 8400 + i)
            target = post_process(m, random_stochastic_map(o, 1 + i % 5, 8500 + i))
            result = is_simulable(m, target)
            verdicts.append(result.simulable and result.residual <= 1e-7)
        assert all(verdicts)
