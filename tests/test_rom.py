import numpy as np
import pytest

from povmrobust import numerics
from povmrobust.discrimination import advantage, optimal_ensemble
from povmrobust.errors import (DimensionOne, InvalidArgument, InvalidPovm, NotHermitian,
                               ShapeMismatch)
from povmrobust.info import acc_min_info_measurement
from povmrobust.measurement import (
    Povm,
    depolarize_povm,
    post_process,
    projective_povm,
    random_povm,
    random_stochastic_map,
    trivial_povm,
    validate_povm,
)
from povmrobust.numerics import eig_hermitian, haar_random_unitary
from povmrobust.rom import rom, rom_report, uniform_noise_mixture, verify_pseudo_mixture


class TestRom:
    def test_trivial_vanishes(self):
        for q, d in ([1.0], 2), ([0.5, 0.5], 2), ([0.2, 0.3, 0.5], 3):
            assert abs(rom(trivial_povm(q, d))) <= 1e-10

    def test_qubit_projective(self, qubit_z):
        assert rom(qubit_z) == pytest.approx(1.0, abs=1e-10)

    def test_trine(self, trine):
        assert rom(trine) == pytest.approx(1.0, abs=1e-10)

    def test_depolarized_z(self, qubit_z):
        # elements have spectrum {0.75, 0.25}: R = 2 * 0.75 - 1
        assert rom(depolarize_povm(qubit_z, 0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_bound(self):
        for seed, (d, o) in enumerate([(2, 4), (3, 2), (4, 6), (3, 5)]):
            m = random_povm(d, o, 800 + seed)
            value = rom(m)
            assert -1e-9 <= value <= min(o, d) - 1 + 1e-9

    def test_rejects_non_povm(self):
        with pytest.raises(InvalidPovm):
            rom([np.eye(2)])

    @pytest.mark.parametrize("evaluate", [rom, rom_report])
    def test_rejects_hand_built_non_hermitian_element(self, evaluate):
        # Povm() does not validate; the stacked eigensolver still checks, and a
        # failed decomposition is not kept, so a second call raises again
        m = Povm(np.stack([np.diag([1.0, 0.0]), np.array([[0.0, 0.5], [0.0, 1.0]])]))
        for _ in range(2):
            with pytest.raises(NotHermitian):
                evaluate(m)


class TestEigReuse:
    def test_closed_form_paths_share_one_decomposition(self, count_calls):
        elements = random_povm(4, 5, 31).elements.copy()
        calls = count_calls(numerics.eig_hermitian)
        m = validate_povm(list(elements))
        value = rom(m)
        report = rom_report(m)
        ensemble = optimal_ensemble(m)
        assert advantage(ensemble, m) == pytest.approx(1.0 + value, abs=1e-9)
        assert acc_min_info_measurement(m).bits == pytest.approx(np.log2(1.0 + value), abs=1e-12)
        assert report.value == value
        assert len(calls) == 1

    def test_kept_decomposition_is_bitwise_a_fresh_one(self):
        m = validate_povm(list(random_povm(5, 3, 32).elements))
        fresh = eig_hermitian(m.elements)
        assert np.array_equal(m.eig.eigenvalues, fresh.eigenvalues)
        assert np.array_equal(m.eig.eigenvectors, fresh.eigenvectors)
        assert m.eig is m.eig


class TestKeptReport:
    MEASUREMENTS = [
        pytest.param(lambda: random_povm(4, 5, 33), False, id="random"),
        pytest.param(lambda: trivial_povm([0.2, 0.3, 0.5], 3), True, id="trivial"),
    ]

    @staticmethod
    def _arrays(report):
        arrays = [report.primal_weights, report.dual_states]
        if report.pseudo_mixture is not None:
            arrays += [report.pseudo_mixture.q, report.pseudo_mixture.noise.elements]
        return arrays

    @pytest.mark.parametrize("make, trivial", MEASUREMENTS)
    def test_every_view_shares_one_report(self, make, trivial):
        m = validate_povm(list(make().elements))
        report = rom_report(m)
        assert report.trivial == trivial
        assert rom_report(m) is report
        assert np.array_equal(optimal_ensemble(m).states, report.dual_states)
        assert np.array_equal(acc_min_info_measurement(m).witness.states, report.dual_states)

    @pytest.mark.parametrize("make, trivial", MEASUREMENTS)
    def test_kept_arrays_are_read_only(self, make, trivial):
        for arr in self._arrays(rom_report(make())):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 0.5

    @pytest.mark.parametrize("make, trivial", MEASUREMENTS)
    def test_kept_report_is_bitwise_a_fresh_one(self, make, trivial):
        m = make()
        kept = rom_report(m)
        fresh = rom_report(validate_povm(list(m.elements)))
        assert kept is not fresh
        assert kept.value == fresh.value
        assert kept.trivial == fresh.trivial
        for a, b in zip(self._arrays(kept), self._arrays(fresh), strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        if not kept.trivial:
            assert kept.pseudo_mixture.r == fresh.pseudo_mixture.r


class TestRomReport:
    def test_qubit_z_hand_check(self, qubit_z):
        report = rom_report(qubit_z)
        assert report.value == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(report.primal_weights, [1.0, 1.0])
        np.testing.assert_allclose(report.dual_states[0], np.diag([1.0, 0.0]), atol=1e-9)
        np.testing.assert_allclose(report.dual_states[1], np.diag([0.0, 1.0]), atol=1e-9)
        mix = report.pseudo_mixture
        assert mix.r == pytest.approx(1.0)
        np.testing.assert_allclose(mix.q, [0.5, 0.5])
        # noise swaps the projectors
        np.testing.assert_allclose(mix.noise.elements[0], np.diag([0.0, 1.0]), atol=1e-9)
        np.testing.assert_allclose(mix.noise.elements[1], np.diag([1.0, 0.0]), atol=1e-9)

    def test_trivial_measurement_signals(self):
        report = rom_report(trivial_povm([0.4, 0.6], 3))
        assert report.trivial
        assert report.pseudo_mixture is None
        assert report.dual_states.shape == (2, 3, 3)

    def test_report_invariants_random(self):
        m = random_povm(3, 4, 321)
        report = rom_report(m)
        # primal weights reproduce the value
        assert abs(report.primal_weights.sum() - 1.0 - report.value) <= 1e-10
        # dual states are unit-trace projectors
        for state in report.dual_states:
            assert abs(np.trace(state).real - 1.0) <= 1e-9
            np.testing.assert_allclose(state @ state, state, atol=1e-9)
        # strong duality
        dual = sum(
            np.einsum("ij,ji->", s, el).real
            for s, el in zip(report.dual_states, m.elements)
        )
        assert abs(dual - 1.0 - report.value) <= 1e-8
        # reconstruction
        mix = report.pseudo_mixture
        assert verify_pseudo_mixture(m, mix.noise, mix.q, mix.r)

    def test_degenerate_top_eigenvalue_deterministic(self):
        m = trivial_povm([0.5, 0.5], 2)
        report = rom_report(m)
        # first vector among the maximal ones, in ascending order
        np.testing.assert_allclose(report.dual_states[0], np.diag([1.0, 0.0]), atol=1e-12)

        # stacked, with a degenerate top in one element only: matches the
        # rule applied element by element
        u = haar_random_unitary(3, 5)
        diagonals = [[0.5, 0.5, 0.0], [0.5, 0.1, 0.4], [0.0, 0.4, 0.6]]
        m = Povm(np.stack([u @ np.diag(w) @ u.conj().T for w in diagonals]))
        report = rom_report(m)
        for element, dual in zip(m.elements, report.dual_states):
            dec = eig_hermitian(element)
            top = dec.eigenvalues[-1]
            first = np.searchsorted(dec.eigenvalues, top - 1e-10 * max(1.0, abs(top)))
            v = dec.eigenvectors[:, first]
            np.testing.assert_allclose(dual, np.outer(v, v.conj()), atol=1e-12)


class TestUniformNoiseMixture:
    def test_qubit_z(self, qubit_z):
        noise, q, r = uniform_noise_mixture(qubit_z)
        assert r == pytest.approx(1.0)
        np.testing.assert_allclose(q, [0.5, 0.5])
        np.testing.assert_allclose(noise.elements[0], np.diag([0.0, 1.0]), atol=1e-12)

    def test_trivial_input(self):
        m = trivial_povm([0.5, 0.5], 2)
        noise, q, r = uniform_noise_mixture(m)
        np.testing.assert_allclose(noise.elements, m.elements, atol=1e-12)
        np.testing.assert_allclose(q, [0.5, 0.5])

    def test_random_noise_is_valid_povm(self):
        from povmrobust.measurement import validate_povm

        m = random_povm(3, 4, 55)
        noise, q, r = uniform_noise_mixture(m)
        validate_povm(list(noise.elements))
        assert r == pytest.approx(2.0)
        assert verify_pseudo_mixture(m, noise, q, r)
        mixed = (m.elements + r * noise.elements) / (1.0 + r)
        assert np.abs(mixed - q[:, None, None] * np.eye(3)).max() <= 1e-9

    def test_dimension_one(self):
        with pytest.raises(DimensionOne):
            uniform_noise_mixture(trivial_povm([0.5, 0.5], 1))


class TestVerifyPseudoMixture:
    def test_rejects_perturbed_distribution(self, qubit_z):
        report = rom_report(qubit_z)
        mix = report.pseudo_mixture
        q_bad = mix.q.copy()
        q_bad[0] += 0.01
        assert not verify_pseudo_mixture(qubit_z, mix.noise, q_bad, mix.r)

    def test_shape_mismatch(self, qubit_z, trine):
        noise, q, r = uniform_noise_mixture(trine)
        with pytest.raises(ShapeMismatch):
            verify_pseudo_mixture(qubit_z, noise, q, r)

    @pytest.mark.parametrize("r", [-1.0, -0.5, np.inf, np.nan])
    def test_weight_must_be_finite_and_nonnegative(self, qubit_z, r):
        # r = -1 once divided by 1 + r = 0
        with pytest.raises(InvalidArgument, match="finite and nonnegative"):
            verify_pseudo_mixture(qubit_z, qubit_z, [0.5, 0.5], r)


class TestRobustnessProperties:
    def test_faithfulness_converse(self):
        m = depolarize_povm(random_povm(3, 4, 70), 1.0)
        assert rom(m) <= 1e-9
        traces = np.einsum("aii->a", m.elements).real
        deviation = np.abs(m.elements - traces[:, None, None] * np.eye(3) / 3).max()
        assert deviation <= 1e-6

    def test_convexity(self):
        rng = np.random.default_rng(71)
        for i in range(10):
            m1 = random_povm(3, 3, 7000 + i)
            m2 = random_povm(3, 3, 7100 + i)
            p = rng.random()
            mixed = Povm(p * m1.elements + (1 - p) * m2.elements)
            assert rom(mixed) <= p * rom(m1) + (1 - p) * rom(m2) + 1e-9

    def test_monotone_under_post_processing(self):
        m = random_povm(3, 4, 72)
        base = rom(m)
        for i in range(20):
            mapped = post_process(m, random_stochastic_map(4, 1 + i % 6, 7200 + i))
            assert rom(mapped) <= base + 1e-9

    def test_projective_and_rank_one_saturate_bound(self, trine, sic):
        assert rom(projective_povm(np.eye(3))) == pytest.approx(2.0, abs=1e-9)
        assert rom(trine) == pytest.approx(1.0, abs=1e-9)
        assert rom(sic) == pytest.approx(1.0, abs=1e-9)
