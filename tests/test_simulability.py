import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmrobust.discrimination import p_guess_with_measurement, random_ensemble
from povmrobust.errors import DimensionMismatch, SolverFailure
from povmrobust.info import h_min_cond, joint_from_game
from povmrobust.measurement import (
    Povm,
    StochasticMap,
    depolarize_povm,
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


def wishart_post_processed_pair(k, d, o, o_target):
    """A Wishart POVM with ``o`` outcomes and a Dirichlet post-processing of
    it to ``o_target`` outcomes, both drawn from ``default_rng(k)``."""
    rng = np.random.default_rng(k)
    g = (rng.standard_normal((o, d, d)) + 1j * rng.standard_normal((o, d, d))) / math.sqrt(2.0)
    w = g @ np.conj(np.swapaxes(g, 1, 2))
    vals, vecs = np.linalg.eigh(w.sum(axis=0))
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    elements = inv_sqrt @ w @ inv_sqrt
    source = Povm(0.5 * (elements + np.conj(np.swapaxes(elements, 1, 2))))
    return source, post_process(source, StochasticMap(rng.dirichlet(np.ones(o_target), size=o)))


class TestSimulableRegressions:
    # The LP over d*d rows per target outcome called the d=7 pairs
    # infeasible (an unverifiable certificate) and stopped the d=8 pairs at
    # its iteration limit (68: an unverifiable certificate after 2.9 s).
    @pytest.mark.parametrize("d, o, o_target, k", [
        (7, 4, 5, 669), (7, 4, 5, 795), (7, 4, 5, 1266),
        (8, 6, 6, 68), (8, 6, 6, 116), (8, 6, 6, 124), (8, 6, 6, 136), (8, 6, 6, 187),
    ])
    def test_post_processing_is_simulable(self, d, o, o_target, k):
        source, target = wishart_post_processed_pair(k, d, o, o_target)
        result = is_simulable(source, target)
        assert result.verdict == SIMULABLE
        rebuilt = post_process(source, result.map)
        assert np.abs(rebuilt.elements - target.elements).max() <= 1e-7
        assert result.residual <= 1e-7


def assert_certificate_separates(cert, m, target):
    # validity: tr[Z_b M_a] + z_a <= 0 while the target scores > 0
    for a, element in enumerate(m):
        for z_op in cert.operators:
            assert np.einsum("ij,ji->", z_op, element).real + cert.scalars[a] <= 1e-9
    total = sum(
        np.einsum("ij,ji->", z_op, el).real
        for z_op, el in zip(cert.operators, target.elements)
    )
    assert total + cert.scalars.sum() > 1e-9


class TestCertificate:
    def test_certificate_separates(self, qubit_z, qubit_x):
        # X lies outside the span of Z's elements
        result = is_simulable(qubit_z, qubit_x)
        assert_certificate_separates(result.certificate, qubit_z, qubit_x)

    def test_in_span_certificate_separates(self):
        # A depolarized copy spans the original, so the certificate is the
        # LP's Farkas vector lifted out of the frame of that span; its
        # scalars are nonzero, unlike those of an out-of-span certificate.
        target = random_povm(3, 4, 31)
        source = depolarize_povm(target, 0.3)
        result = is_simulable(source, target)
        assert result.verdict == NOT_SIMULABLE
        assert np.abs(result.certificate.scalars).max() > 0.0
        assert_certificate_separates(result.certificate, source, target)

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


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(2, 6), st.integers(1, 6), st.integers(0, 10**9),
       st.floats(0.05, 0.5))
def test_post_processings_simulable_and_depolarized_copies_not(d, o, o_target, seed, eta):
    m = random_povm(d, o, seed)
    target = post_process(m, random_stochastic_map(o, o_target, seed + 1))
    result = is_simulable(m, target)
    assert result.simulable and result.residual <= 1e-7
    result = is_simulable(depolarize_povm(m, eta), m)
    assert result.verdict == NOT_SIMULABLE
    gap = (p_guess_with_measurement(result.witness, m)
           - p_guess_with_measurement(result.witness, depolarize_povm(m, eta)))
    assert gap == result.gap > 0.0
