import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmrobust import simulability
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
from povmrobust.numerics import haar_random_unitary
from povmrobust.rom import rom
from povmrobust.simulability import (
    NOT_SIMULABLE,
    SIMULABLE,
    SimulabilityCertificate,
    is_simulable,
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


def split_in_halves(m):
    """Each element of ``m`` as two equal outcomes: the same span from
    linearly dependent elements, so ``is_simulable`` decides by its LP."""
    return Povm(np.repeat(m.elements / 2, 2, axis=0))


def band_pair(d, o, eps, seed):
    """``m = random_povm(d, o, seed)`` and the target ``sum_a (I + eps D)(b|a) M_a``,
    ``D`` Gaussian with zero row sums: in the span, with map entries ``~ -eps``."""
    m = random_povm(d, o, seed)
    delta = np.random.default_rng(seed).standard_normal((o, o))
    delta -= delta.mean(axis=1, keepdims=True)
    return m, Povm(np.einsum("ab,aij->bij", np.eye(o) + eps * delta, m.elements))


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


class TestDeskScale:
    # (depolarize_povm(m, 0.3), m) with m = random_povm(d, o, 1): the target
    # lies in the span of the source, whose elements are independent, so the
    # unique map refutes it and no LP runs.  With the source split in halves
    # the LP decides after 24, 32, 40 and 60 entered columns, inside the
    # bounds, which a dense simplex once met with 39, 49, 64 and 145 pivots.
    @pytest.mark.parametrize("d, o, max_entries", [
        (16, 12, 48), (24, 16, 66), (32, 20, 88), (20, 30, 214),
    ])
    def test_depolarized_copy_is_refuted(self, monkeypatch, d, o, max_entries):
        entries = []
        solve_lp = simulability.solve_lp

        def counted(*args, **kwargs):
            sol = solve_lp(*args, **kwargs)
            entries.append(sol.iterations)
            return sol

        monkeypatch.setattr(simulability, "solve_lp", counted)
        target = random_povm(d, o, 1)
        depolarized = depolarize_povm(target, 0.3)
        for source, lps in ((depolarized, 0), (split_in_halves(depolarized), 1)):
            result = is_simulable(source, target)
            assert result.verdict == NOT_SIMULABLE
            assert_certificate_separates(result.certificate, source, target)
            gap = (p_guess_with_measurement(result.witness, target)
                   - p_guess_with_measurement(result.witness, source))
            assert gap == pytest.approx(result.gap, rel=1e-12)
            assert len(entries) == lps and result.entries == (entries[0] if lps else None)
        assert entries[0] <= max_entries


@pytest.mark.parametrize("kind, d, o, o_target, verdict, entries", [
    ("post-processed", 4, 4, 3, SIMULABLE, 16),
    ("depolarized", 4, 5, 5, NOT_SIMULABLE, 12),
    ("post-processed", 3, 5, 4, SIMULABLE, 25),
])
def test_pivot_counts_are_pinned(kind, d, o, o_target, verdict, entries):
    # Exact counts of the columns the LP enters on each path through it, from
    # a source split in halves, to either verdict.  A change to the entering
    # rule or the step back that the bounds of TestDeskScale let through
    # moves at least one of them.
    m = random_povm(d, o, 1)
    if kind == "post-processed":
        source, target = m, post_process(m, random_stochastic_map(o, o_target, 2))
    else:
        source, target = depolarize_povm(m, 0.3), m
    result = is_simulable(split_in_halves(source), target)
    assert (result.verdict, result.entries) == (verdict, entries)


def relabeled(m, labels, o_target):
    """``m`` coarse-grained by the deterministic map ``a -> labels[a]``."""
    return post_process(m, StochasticMap(np.eye(o_target)[labels]))


class TestRelabelings:
    @pytest.mark.parametrize("seed", [29, 83, 92, 95])
    def test_a_dependent_source_reaches_its_relabeling(self, seed):
        # 19 elements at d = 4, relabeled into 4 outcomes: degenerate LPs on
        # which a simplex handing off to Bland's rule hit its cap (29, 92), returned
        # a point 0.35 off the target (83) or one with a zero row (95).
        m = random_povm(4, 19, 7000 + seed)
        labels = np.random.default_rng(seed).integers(0, 4, 19)
        labels[:4] = np.arange(4)
        result = is_simulable(m, relabeled(m, labels, 4))
        assert result.simulable and result.entries is not None
        assert result.residual <= 1e-12

    def test_a_split_desk_source_reaches_its_relabeling(self):
        # 16 elements at d = 24 split into 32 dependent ones, the target 8
        # outcomes; a simplex handing off to Bland's rule hit its cap after 6 s
        m = random_povm(24, 16, 1)
        labels = np.random.default_rng(2).integers(0, 8, 16)
        result = is_simulable(split_in_halves(m), relabeled(m, labels, 8))
        assert result.simulable and result.entries is not None
        assert result.residual <= 1e-12

    @pytest.mark.parametrize("seed", [105, 117, 126, 250, 379, 506, 547, 569, 585])
    def test_a_full_span_source_reaches_a_relabeling_1e_11_away(self, seed):
        # d*d independent elements relabeled into 2-5 outcomes and mixed at
        # 1e-11 toward another POVM: the unique map's negative entries give a
        # witness below WITNESS_GAP_TOL, and so did the simplex's Farkas
        # vector, where the least residual is at most FEASIBILITY_TOL
        d = 2 + seed % 2
        m = random_povm(d, d * d, seed)
        rng = np.random.default_rng(seed + 1)
        o_target = int(rng.integers(2, 6))
        near = relabeled(m, rng.integers(0, o_target, d * d), o_target).elements
        eps = 1e-11
        target = Povm((1 - eps) * near + eps * random_povm(d, o_target, seed + 7).elements)
        result = is_simulable(m, target)
        assert result.simulable and result.entries is not None
        assert result.residual <= 1e-10

    @pytest.mark.parametrize("d, o", [(16, 12), (24, 16), (32, 20), (20, 30)])
    def test_independent_elements_are_relabeled_without_the_lp(self, d, o):
        # the unique map's zero entries land at about +-1e-17, inside
        # FEASIBILITY_TOL, so the sign check decides
        m = random_povm(d, o, 1)
        labels = np.random.default_rng(2).integers(0, o // 2, o)
        result = is_simulable(m, relabeled(m, labels, o // 2))
        assert result.simulable and result.entries is None
        assert np.abs(result.map.probabilities - np.eye(o // 2)[labels]).max() <= 1e-12


def k_basis(d, seed, k):
    """``{U_j|i><i|U_j^+ / k}`` over ``j < k`` with ``U_j =
    haar_random_unitary(d, 100 seed + j)``: k d elements with k - 1
    linear dependencies, as each basis sums to ``I / k``."""
    frames = np.stack([haar_random_unitary(d, 100 * seed + j) for j in range(k)])
    columns = frames.transpose(0, 2, 1).reshape(k * d, d)
    return Povm(columns[:, :, None] * columns[:, None, :].conj() / k)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("d", [3, 4, 5])
def test_a_k_basis_source_simulates_its_depolarized_copy(d, seed, k):
    # tr[M_a] I/d is a mixture of the elements of a's basis, so the target is
    # a post-processing; a dense simplex drifted at (4, 0, 3), (5, 0, 3) and
    # (5, 1, 3) and returned a map 2e-4 to 1e-3 off the target
    m = k_basis(d, seed, k)
    result = is_simulable(m, depolarize_povm(m, 0.3))
    assert result.simulable and result.entries is not None
    assert result.residual <= 1e-12


@pytest.mark.parametrize("wrong", [np.ones_like, np.zeros_like,
                                   lambda x: np.full_like(x, np.nan)],
                         ids=["off-target", "zero-rows", "nan"])
def test_a_simulable_verdict_is_checked_before_it_is_returned(monkeypatch, wrong):
    # an LP point that does not reproduce the target is a SolverFailure,
    # never a Simulable verdict or a bare InvalidDistribution
    solve_lp = simulability.solve_lp

    def corrupted(*args):
        sol = solve_lp(*args)
        return type(sol)(sol.status, wrong(sol.x), sol.iterations)

    monkeypatch.setattr(simulability, "solve_lp", corrupted)
    m = random_povm(2, 6, 1)
    with pytest.raises(SolverFailure, match="simulating map"):
        is_simulable(m, post_process(m, random_stochastic_map(6, 4, 2)))


class TestUniqueMap:
    # Independent source elements (o <= d*d here): the map is the one
    # solution of a square system and no LP runs unless its certificate fails.
    def test_a_positive_map_is_recovered(self):
        m = random_povm(4, 6, 5)
        p = random_stochastic_map(6, 3, 6)
        result = is_simulable(m, post_process(m, p))
        assert result.simulable and result.entries is None
        assert np.abs(result.map.probabilities - p.probabilities).max() <= 1e-12

    def test_negative_entries_certify_with_zero_scalars(self):
        target = random_povm(3, 4, 31)
        source = depolarize_povm(target, 0.3)
        result = is_simulable(source, target)
        assert result.verdict == NOT_SIMULABLE and result.entries is None
        assert not result.certificate.scalars.any()
        assert_certificate_separates(result.certificate, source, target)

    @pytest.mark.parametrize("d, o, eps, seed, verdict, entries", [
        (3, 3, 3e-9, 13, NOT_SIMULABLE, 6),
        (2, 3, 3e-9, 2, NOT_SIMULABLE, 7),
    ])
    def test_a_witness_below_the_gap_leaves_the_verdict_to_the_lp(self, d, o, eps, seed,
                                                                  verdict, entries):
        # The negative entries, of order eps, give a witness gap below
        # WITNESS_GAP_TOL, and the LP's Farkas witness decides: gaps 1.23e-9
        # and 1.66e-9.
        source, target = band_pair(d, o, eps, seed)
        result = is_simulable(source, target)
        assert (result.verdict, result.entries) == (verdict, entries)
        if verdict == NOT_SIMULABLE:
            assert_certificate_separates(result.certificate, source, target)

    def test_a_dependent_source_runs_the_lp(self):
        m = random_povm(2, 6, 1)  # six elements in the 4-dimensional span at d = 2
        result = is_simulable(m, post_process(m, random_stochastic_map(6, 4, 2)))
        assert result.simulable and result.entries == 19


class TestCertificate:
    def test_certificate_separates(self, qubit_z, qubit_x):
        # X lies outside the span of Z's elements
        result = is_simulable(qubit_z, qubit_x)
        assert_certificate_separates(result.certificate, qubit_z, qubit_x)

    def test_in_span_certificate_separates(self):
        # A depolarized copy spans the original; split in halves its elements
        # are dependent, so the certificate is the LP's Farkas vector lifted
        # out of the frame of that span, with nonzero scalars.
        target = random_povm(3, 4, 31)
        source = split_in_halves(depolarize_povm(target, 0.3))
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
    def test_post_processing_simulable_at_qubit_size(self):
        m = random_povm(2, 3, 77)
        target = post_process(m, random_stochastic_map(3, 2, 78))
        result = is_simulable(m, target)
        assert result.simulable and result.residual <= 1e-7

    def test_z_does_not_simulate_x(self, qubit_z, qubit_x):
        assert is_simulable(qubit_z, qubit_x).verdict == NOT_SIMULABLE

    def test_simulability_reflexive(self, trine):
        result = is_simulable(trine, trine)
        assert result.simulable and result.residual <= 1e-7

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
