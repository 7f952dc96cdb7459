import math
import re
import tracemalloc

import numpy as np
import pytest

from povmrobust.asymmetry import (
    GroupRepresentation,
    _require_group,
    dephasing_group,
    roa,
    roc,
    validate_group,
)
from povmrobust.discrimination import (
    Ensemble,
    _require_ensemble,
    check_density_matrix,
    random_ensemble,
    validate_ensemble,
)
from povmrobust.errors import (
    CompletenessViolation,
    EtaOutOfRange,
    InvalidArgument,
    InvalidDistribution,
    InvalidEnsemble,
    InvalidGroup,
    InvalidJoint,
    InvalidPovm,
    NotHermitian,
    NotOrthonormal,
    NotPsd,
    NotSquare,
    ResourceLimit,
    ShapeMismatch,
    SizeMismatch,
)
from povmrobust.info import JointDistribution, _require_joint, h_min
from povmrobust import measurement
from povmrobust.measurement import (
    Povm,
    _require_povm,
    StochasticMap,
    depolarize_povm,
    post_process,
    projective_povm,
    random_povm,
    random_stochastic_map,
    rank_one_povm,
    trivial_povm,
    validate_povm,
)
from povmrobust.numerics import eig_hermitian, haar_random_unitary, hermitian_basis
from povmrobust.rom import rom, verify_pseudo_mixture
from povmrobust.solvers import solve_lp
from povmrobust.simulability import witness_from_certificate


class TestValidatePovm:
    def test_projective_pair(self):
        m = validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert m.outcomes == 2 and m.dimension == 2

    def test_trivial_halves(self):
        m = validate_povm([np.eye(2) / 2, np.eye(2) / 2])
        assert m.outcomes == 2

    def test_completeness_violation(self):
        with pytest.raises(CompletenessViolation):
            validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 0.9])])

    def test_negative_element(self):
        with pytest.raises(NotPsd) as info:
            validate_povm([np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])])
        assert info.value.index == 1

    def test_explicit_tolerances_replace_defaults(self):
        # sums to the identity only within 5e-4
        slightly_off = [np.diag([1.0, 0.0]), np.diag([0.0, 0.9995])]
        with pytest.raises(CompletenessViolation):
            validate_povm(slightly_off)
        bad = [np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])]
        with pytest.raises(NotPsd):
            validate_povm(bad)


class TestTrivialPovm:
    def test_single_outcome(self):
        m = trivial_povm([1.0], 3)
        np.testing.assert_array_equal(m.elements[0], np.eye(3))

    def test_halves(self):
        m = trivial_povm([0.5, 0.5], 2)
        np.testing.assert_allclose(m.elements[0], np.eye(2) / 2)

    def test_three_outcomes_qubit(self):
        m = trivial_povm([0.2, 0.3, 0.5], 2)
        assert m.outcomes == 3
        for q, el in zip([0.2, 0.3, 0.5], m):
            np.testing.assert_allclose(el, q * np.eye(2))

    def test_bad_distribution(self):
        with pytest.raises(InvalidDistribution):
            trivial_povm([0.5, 0.4], 2)


class TestProjectivePovm:
    def test_computational(self):
        m = projective_povm(np.eye(2))
        np.testing.assert_allclose(m.elements[0], np.diag([1.0, 0.0]))

    def test_x_basis(self):
        m = projective_povm(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))
        np.testing.assert_allclose(m.elements[0], np.full((2, 2), 0.5), atol=1e-12)
        np.testing.assert_allclose(
            m.elements[1], np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-12
        )

    def test_fourier_qutrit(self):
        w = np.exp(2j * np.pi / 3)
        fourier = np.array([[1, 1, 1], [1, w, w**2], [1, w**2, w**4]]) / math.sqrt(3.0)
        m = projective_povm(fourier)
        # validation oracle: rebuild through the untrusting validator
        validate_povm(list(m.elements))
        for el in m:
            values = eig_hermitian(el).eigenvalues
            np.testing.assert_allclose(values, [0.0, 0.0, 1.0], atol=1e-9)

    def test_not_orthonormal(self):
        with pytest.raises(NotOrthonormal):
            projective_povm(np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_wrong_count(self):
        with pytest.raises(NotOrthonormal):
            projective_povm(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))


class TestRankOnePovm:
    def test_trine_complete(self, trine):
        assert trine.outcomes == 3
        np.testing.assert_allclose(trine.elements.sum(axis=0), np.eye(2), atol=1e-12)

    def test_sic_complete(self, sic):
        assert sic.outcomes == 4
        np.testing.assert_allclose(sic.elements.sum(axis=0), np.eye(2), atol=1e-12)

    def test_unit_weights_match_projective(self, qubit_z):
        m = rank_one_povm([1.0, 1.0], np.eye(2))
        np.testing.assert_allclose(m.elements, qubit_z.elements)

    def test_incomplete_weights(self):
        with pytest.raises(CompletenessViolation):
            rank_one_povm([0.5, 0.5], np.eye(2))


class TestPostProcess:
    def test_identity_map(self, qubit_z):
        mapped = post_process(qubit_z, StochasticMap(np.eye(2)))
        np.testing.assert_allclose(mapped.elements, qubit_z.elements)

    def test_merge_to_single_outcome(self, qubit_z):
        mapped = post_process(qubit_z, StochasticMap(np.ones((2, 1))))
        assert mapped.outcomes == 1
        np.testing.assert_allclose(mapped.elements[0], np.eye(2), atol=1e-12)

    def test_constant_map_erases_information(self, trine):
        q = np.array([0.1, 0.6, 0.3])
        mapped = post_process(trine, StochasticMap(np.tile(q, (3, 1))))
        expected = trivial_povm(q, 2)
        np.testing.assert_allclose(mapped.elements, expected.elements, atol=1e-12)

    def test_size_mismatch(self, qubit_z):
        with pytest.raises(SizeMismatch):
            post_process(qubit_z, StochasticMap(np.ones((3, 1))))

    def test_composition(self):
        m = random_povm(3, 4, 17)
        d1 = random_stochastic_map(4, 3, 1)
        d2 = random_stochastic_map(3, 5, 2)
        two_steps = post_process(post_process(m, d1), d2)
        composed = StochasticMap(d1.probabilities @ d2.probabilities)
        np.testing.assert_allclose(
            two_steps.elements, post_process(m, composed).elements, atol=1e-9
        )

    def test_output_is_valid(self):
        m = random_povm(4, 5, 23)
        mapped = post_process(m, random_stochastic_map(5, 3, 23))
        validate_povm(list(mapped.elements))


class TestDepolarize:
    def test_noiseless(self, qubit_z):
        np.testing.assert_allclose(
            depolarize_povm(qubit_z, 0.0).elements, qubit_z.elements
        )

    def test_full_noise_is_trivial(self):
        m = random_povm(3, 4, 5)
        noisy = depolarize_povm(m, 1.0)
        traces = np.einsum("aii->a", m.elements).real
        expected = trivial_povm(traces / 3, 3)
        np.testing.assert_allclose(noisy.elements, expected.elements, atol=1e-12)

    def test_half_noise_spectrum(self, qubit_z):
        noisy = depolarize_povm(qubit_z, 0.5)
        for el in noisy:
            np.testing.assert_allclose(
                eig_hermitian(el).eigenvalues, [0.25, 0.75], atol=1e-12
            )

    def test_elements_stay_psd(self):
        m = random_povm(3, 3, 9)
        for eta in np.linspace(0.0, 1.0, 7):
            validate_povm(list(depolarize_povm(m, eta).elements))

    def test_eta_out_of_range(self, qubit_z):
        with pytest.raises(EtaOutOfRange):
            depolarize_povm(qubit_z, 1.5)


class TestRandomPovm:
    def test_validates(self):
        for seed, (d, o) in enumerate([(2, 2), (3, 5), (4, 3)]):
            m = random_povm(d, o, seed)
            validate_povm(list(m.elements))

    def test_single_outcome_is_identity(self):
        m = random_povm(3, 1, 77)
        np.testing.assert_allclose(m.elements[0], np.eye(3), atol=1e-10)

    def test_deterministic(self):
        np.testing.assert_array_equal(
            random_povm(3, 4, 123).elements, random_povm(3, 4, 123).elements
        )

    def test_a_stack_over_the_budget_is_refused_before_drawing(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("the generator was reached")
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        d = math.isqrt(measurement.MAX_STACK_BYTES // 32)  # two outcomes: 32 d^2 bytes
        for dim in (d + 1, 200_000):
            with pytest.raises(ResourceLimit, match="need over"):
                random_povm(dim, 2, 1)
        with pytest.raises(AssertionError, match="generator"):
            random_povm(d, 2, 1)  # at the budget: it draws


@pytest.mark.parametrize("build", [
    lambda: hermitian_basis(2000),  # d^2 matrices: np.triu_indices alone would take 32 MB
    lambda: dephasing_group(10**7),  # d matrices
    lambda: haar_random_unitary(10**7, 0),  # one matrix
    lambda: random_ensemble(2, 10**13, 0),  # one matrix per state
], ids=["hermitian-basis", "dephasing-group", "haar-unitary", "random-ensemble"])
def test_every_stack_builder_refuses_over_the_budget_before_allocating(build):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match="need over"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


class TestStochasticMap:
    def test_row_sums_enforced(self):
        with pytest.raises(InvalidDistribution):
            StochasticMap(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_negative_entry(self):
        with pytest.raises(InvalidDistribution):
            StochasticMap(np.array([[1.1, -0.1]]))

    def test_a_table_that_is_not_two_dimensional_is_a_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            StochasticMap(np.ones(3))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_an_empty_map_is_an_invalid_distribution(self, shape):
        # a map with no inputs or no outputs maps no distribution to one
        with pytest.raises(InvalidDistribution):
            StochasticMap(np.zeros(shape))

    def test_random_is_valid_and_deterministic(self):
        a = random_stochastic_map(4, 3, 6)
        b = random_stochastic_map(4, 3, 6)
        np.testing.assert_array_equal(a.probabilities, b.probabilities)
        np.testing.assert_allclose(a.probabilities.sum(axis=1), np.ones(4))

    @pytest.mark.parametrize("n_in, n_out, seed", [(0, 3, 1), (4, 0, 1), (4, 3, -1)])
    def test_random_rejects_an_empty_size_or_a_negative_seed(self, n_in, n_out, seed):
        with pytest.raises(InvalidArgument):
            random_stochastic_map(n_in, n_out, seed)


def test_povm_elements_are_readonly(qubit_z):
    with pytest.raises(ValueError):
        qubit_z.elements[0, 0, 0] = 5.0


def test_povm_iteration_preserves_order():
    m = trivial_povm([0.2, 0.3, 0.5], 2)
    scales = [el[0, 0].real for el in m]
    assert scales == pytest.approx([0.2, 0.3, 0.5])
    assert len(m) == 3
    np.testing.assert_allclose(m[1], 0.3 * np.eye(2))


def test_direct_povm_shape_check():
    with pytest.raises(Exception):
        Povm(np.ones((2, 2)))


@pytest.mark.parametrize("build, error", [
    (lambda: validate_ensemble([np.eye(2) / 2, np.eye(2) / 2], [np.nan, 0.5]),
     InvalidEnsemble),
    (lambda: JointDistribution([[np.nan, 0.5]]), InvalidJoint),
    (lambda: h_min([np.nan, 1.0]), InvalidDistribution),
    (lambda: trivial_povm([np.nan, 1.0], 2), InvalidDistribution),
    (lambda: StochasticMap([[np.nan, 1.0]]), InvalidDistribution),
], ids=["validate_ensemble", "JointDistribution", "h_min", "trivial_povm", "StochasticMap"])
def test_non_finite_probabilities_rejected(build, error):
    # every other check is a comparison, which NaN passes
    with pytest.raises(error):
        build()


def test_a_povm_from_a_slice_keeps_its_elements_when_the_base_changes():
    # the Povm once kept the slice itself, so writing the base changed its
    # elements, while rom kept reading the eigendecomposition cached before
    big = np.concatenate([projective_povm(np.eye(2)).elements, np.zeros((1, 2, 2))])
    q = Povm(big[:2])
    value = rom(q)
    big[0, 0, 0] = 7.0
    assert q.elements[0, 0, 0] == 1.0
    assert rom(Povm(q.elements)) == rom(q) == value


def _unitary_pair():
    return np.stack([np.eye(2), np.eye(2)[::-1]]).astype(complex)


@pytest.mark.parametrize("given, build, field", [
    (_unitary_pair, Povm, "elements"),
    (lambda: np.eye(2), StochasticMap, "probabilities"),
    (_unitary_pair, lambda a: Ensemble(a, np.full(2, 0.5)), "states"),
    (lambda: np.eye(2) / 2, JointDistribution, "p"),
    (_unitary_pair, GroupRepresentation, "unitaries"),
], ids=["Povm", "StochasticMap", "Ensemble", "JointDistribution", "GroupRepresentation"])
def test_value_types_keep_a_read_only_copy_and_leave_the_callers_array_writable(
        given, build, field):
    a = given()
    kept = getattr(build(a), field)
    before = kept.copy()
    a[...] = 7.0
    assert not kept.flags.writeable and kept.flags.c_contiguous
    np.testing.assert_array_equal(kept, before)


def test_a_validated_group_and_a_kept_eigendecomposition_refuse_writes():
    # once writable, g.unitaries[1] = i I made roa of |+><+| under {I, Z}
    # return a certified 5.9e-12 instead of 1
    g = validate_group([np.eye(2), np.diag([1.0, -1.0])])
    with pytest.raises(ValueError):
        g.unitaries[1] = 1j * np.eye(2)
    assert roa(np.full((2, 2), 0.5), g).value == pytest.approx(1.0, abs=1e-9)
    dec = projective_povm(np.eye(2)).eig
    for arr in dec:
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("build, error", [
    (lambda: Povm(np.zeros((0, 2, 2))), ShapeMismatch),
    (lambda: Povm(np.zeros((2, 0, 0))), ShapeMismatch),
    (lambda: trivial_povm([1.0], 0), InvalidArgument),
    (lambda: trivial_povm([1.0], -1), InvalidArgument),
    (lambda: projective_povm(np.zeros((0, 0))), NotOrthonormal),
    (lambda: rank_one_povm([], np.zeros((0, 2))), ShapeMismatch),
    (lambda: Ensemble(np.zeros((0, 2, 2)), np.zeros(0)), InvalidEnsemble),
], ids=["no-outcomes", "dimension-0", "trivial-d0", "trivial-negative-d",
        "projective-no-vectors", "rank-one-no-states", "ensemble-no-states"])
def test_an_empty_shape_is_a_package_error(build, error):
    # these once returned rom -1 for no outcomes, a 0 x 0 measurement, or
    # leaked numpy's ValueError (an ensemble of no states from p_guess_classical,
    # p_guess_with_measurement and advantage)
    with pytest.raises(error):
        build()


_HALF = np.eye(2) / 2
_NAN = np.full((2, 2), np.nan)


@pytest.mark.parametrize("build, error, message", [
    (lambda: validate_povm([]), ShapeMismatch, None),
    (lambda: validate_povm([_HALF, np.eye(3) / 3]), ShapeMismatch, None),
    (lambda: validate_povm([np.ones((2, 3))]), NotSquare, None),
    (lambda: validate_povm([_NAN]), InvalidArgument, None),
    (lambda: validate_ensemble([], [1.0]), InvalidEnsemble, None),
    (lambda: validate_ensemble([_HALF, np.eye(3) / 3], [0.5, 0.5]), InvalidEnsemble, None),
    (lambda: validate_ensemble([np.ones((2, 3))], [1.0]), NotSquare, None),
    (lambda: validate_ensemble([_NAN], [1.0]), InvalidArgument, None),
    (lambda: validate_ensemble([[[0.5, 1.0], [0.0, 0.5]]], [1.0]), NotHermitian, None),
    (lambda: validate_ensemble([_HALF], [0.5, 0.5]), InvalidEnsemble, None),
    (lambda: validate_ensemble([_HALF, _HALF], [1.0]), InvalidEnsemble, None),
    (lambda: check_density_matrix([[0.5, 1.0], [0.0, 0.5]]), NotHermitian, None),
    (lambda: check_density_matrix(np.stack([_HALF, _HALF])), NotSquare, None),
    (lambda: validate_group([]), InvalidGroup, None),
    (lambda: validate_group([np.eye(2), np.eye(3)]), InvalidGroup, None),
    (lambda: validate_group([np.ones((2, 3))]), NotSquare, None),
    (lambda: validate_group([_NAN]), InvalidArgument, None),
    (lambda: _require_povm([_HALF, _HALF]), InvalidPovm, None),
    (lambda: _require_ensemble(projective_povm(np.eye(2))), InvalidEnsemble, None),
    (lambda: _require_group([np.eye(2)]), InvalidGroup, None),
    (lambda: _require_joint(np.eye(2) / 2), InvalidJoint, None),
    (lambda: depolarize_povm([_HALF, _HALF], 0.1), InvalidPovm, None),
    (lambda: post_process([_HALF, _HALF], StochasticMap(np.eye(2))), InvalidPovm, None),
    (lambda: post_process(projective_povm(np.eye(2)), np.eye(2)), InvalidDistribution, None),
    (lambda: witness_from_certificate(projective_povm(np.eye(2)), projective_povm(np.eye(2)),
                                      [np.eye(2)]), InvalidArgument, None),
    (lambda: trivial_povm([1.0], 0), InvalidArgument,
     "dimension must be an integer of at least 1, got 0"),
    (lambda: dephasing_group(0), InvalidArgument,
     "dimension must be an integer of at least 1, got 0"),
    (lambda: hermitian_basis(-1), InvalidArgument,
     "dimension must be an integer of at least 1, got -1"),
    (lambda: random_povm(0, 2, 1), InvalidArgument,
     "dimension must be an integer of at least 1, got 0"),
    (lambda: random_stochastic_map(2, 3, -1), InvalidArgument,
     "seed must be an integer of at least 0, got -1"),
    (lambda: random_ensemble(2, 0, 1), InvalidArgument,
     "size must be an integer of at least 1, got 0"),
    (lambda: haar_random_unitary(0, 1), InvalidArgument,
     "dimension must be an integer of at least 1, got 0"),
    (lambda: depolarize_povm(projective_povm(np.eye(2)), 1.5), EtaOutOfRange,
     "eta must be finite and nonnegative and at most 1, got 1.5"),
    (lambda: depolarize_povm(projective_povm(np.eye(2)), -0.5), EtaOutOfRange,
     "eta must be finite and nonnegative and at most 1, got -0.5"),
    (lambda: verify_pseudo_mixture(*[projective_povm(np.eye(2))] * 2, [0.5, 0.5], -1.0),
     InvalidArgument, "r must be finite and nonnegative, got -1.0"),
    (lambda: verify_pseudo_mixture(*[projective_povm(np.eye(2))] * 2, [0.5, 0.5], math.inf),
     InvalidArgument, "r must be finite and nonnegative, got inf"),
    (lambda: projective_povm([[1.0, 0.0]]), NotOrthonormal,
     "need d vectors of dimension d >= 1, got shape (1, 2)"),
    (lambda: projective_povm(np.zeros((0, 2))), NotOrthonormal,
     "need d vectors of dimension d >= 1, got shape (0, 2)"),
    (lambda: h_min([0.5, 0.25]), InvalidDistribution, "probabilities sum to 0.75, not 1"),
    (lambda: trivial_povm([[1.0]], 2), InvalidDistribution,
     "expected a nonempty 1-D array of probabilities, got shape (1, 1)"),
    (lambda: validate_povm([]), ShapeMismatch,
     "need one or more POVM elements of one size, got shapes []"),
    (lambda: solve_lp([[1.0, 2.0]], [1.0, 2.0]), InvalidArgument,
     "need finite a and b of matching shapes, got (1, 2), (2,)"),
    (lambda: roc([[1.0, 0.0]]), NotSquare,
     "expected a square matrix or a stack of them, got shape (1, 2)"),
    (lambda: check_density_matrix(_NAN), InvalidArgument, "matrix entries must be finite"),
    (lambda: dephasing_group(2.5), InvalidArgument,
     "dimension must be an integer of at least 1, got 2.5"),
    (lambda: hermitian_basis(True), InvalidArgument,
     "dimension must be an integer of at least 1, got True"),
    (lambda: random_povm(2, 2, "1"), InvalidArgument,
     "seed must be an integer of at least 0, got '1'"),
    (lambda: depolarize_povm(projective_povm(np.eye(2)), "x"), EtaOutOfRange,
     "eta must be finite and nonnegative and at most 1, got 'x'"),
    (lambda: verify_pseudo_mixture(*[projective_povm(np.eye(2))] * 2, [0.5, 0.5], None),
     InvalidArgument, "r must be finite and nonnegative, got None"),
    (lambda: roc("x"), InvalidArgument, "cannot read str as an array"),
    (lambda: h_min("x"), InvalidDistribution, "cannot read str as an array"),
    (lambda: trivial_povm(["a"], 2), InvalidDistribution, "cannot read list as an array"),
    (lambda: validate_povm(None), ShapeMismatch,
     "need one or more POVM elements of one size, got shapes []"),
    (lambda: validate_group(2.5), InvalidGroup, "need one or more unitaries of one size"),
    (lambda: projective_povm(_NAN), NotOrthonormal, "basis fails orthonormality by nan"),
    (lambda: trivial_povm([1.0], 10**6), ResourceLimit,
     f"1 matrices at dimension 1000000 need over {measurement.MAX_STACK_BYTES} bytes"),
    (lambda: rank_one_povm([1e300, 1.0], [[1e200, 0.0], [0.0, 1.0]]), InvalidArgument,
     "matrix entries must be finite"),
    # a group is a nonempty square (n, d, d) stack, as a Povm is
    (lambda: GroupRepresentation(None), InvalidGroup,
     "expected shape (n, d, d) with n, d >= 1, got ()"),
    (lambda: GroupRepresentation(2.5), InvalidGroup,
     "expected shape (n, d, d) with n, d >= 1, got ()"),
    (lambda: GroupRepresentation(np.zeros((0, 2, 2))), InvalidGroup,
     "expected shape (n, d, d) with n, d >= 1, got (0, 2, 2)"),
], ids=["povm-empty", "povm-mixed", "povm-not-square", "povm-nan",
        "ensemble-empty", "ensemble-mixed", "ensemble-not-square", "ensemble-nan",
        "ensemble-not-hermitian", "ensemble-too-many-priors", "ensemble-too-few-priors",
        "state-not-hermitian", "state-stack", "group-empty", "group-mixed",
        "group-not-square", "group-nan", "require-povm", "require-ensemble",
        "require-group", "require-joint", "depolarize-list", "post-process-list",
        "post-process-array", "witness-list",
        "trivial-d0-message", "dephasing-d0-message", "hermitian-basis-message",
        "random-povm-message", "random-map-message", "random-ensemble-message",
        "haar-message", "eta-above-message", "eta-below-message", "r-negative-message",
        "r-infinite-message", "projective-short-message", "projective-empty-message",
        "h-min-sum-message", "trivial-q-shape-message", "povm-empty-message",
        "lp-shape-message", "roc-not-square-message", "state-nan-message",
        "dephasing-float", "hermitian-basis-bool", "seed-string", "eta-string", "r-none",
        "roc-string", "h-min-string", "trivial-q-strings", "povm-none", "group-float",
        "projective-nan", "trivial-over-budget", "rank-one-overflow",
        "group-none", "group-scalar", "group-empty-stack"])
def test_each_input_gate_keeps_its_exception_type(build, error, message):
    # every value type is reached through one stack gate and one type gate;
    # a message, where given, is pinned in full
    with pytest.raises(error, match=None if message is None else re.escape(message)):
        build()
