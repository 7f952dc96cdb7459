"""Invariances the paper implies, checked on random inputs at d = 2..7.

Each quantity is compared before and after a transformation that must
leave it unchanged, within 1e-9 relative to ``max(1, value)`` (1e-12 for
the closed-form ``advantage``); the two brackets of ``roa`` must overlap.
Post-processing equivalence is checked on hypothesis draws at d = 2..6.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmrobust.asymmetry import dephasing_group, roa, roc, validate_group
from povmrobust.discrimination import (
    Ensemble,
    advantage,
    optimal_ensemble,
    random_density_matrix,
    random_ensemble,
)
from povmrobust.info import acc_min_info_measurement
from povmrobust.measurement import (
    StochasticMap,
    depolarize_povm,
    post_process,
    random_povm,
    random_stochastic_map,
    validate_povm,
)
from povmrobust.numerics import haar_random_unitary
from povmrobust.rom import rom
from povmrobust.simulability import NOT_SIMULABLE, SIMULABLE, is_simulable
from povmrobust.solvers import min_error_guess_value, rom_via_sdp

DIMENSIONS = range(2, 8)


def assert_invariant(before, after, tol=1e-9):
    assert abs(after - before) <= tol * max(1.0, abs(before))


def conjugate(u, mats):
    return u @ mats @ u.conj().T


@pytest.mark.parametrize("d", DIMENSIONS)
def test_roc_is_invariant_under_diagonal_unitaries_and_permutations(d):
    rng = np.random.default_rng(700 + d)
    rho = random_density_matrix(d, rng)
    value = roc(rho).value
    phases = np.diag(np.exp(2j * np.pi * rng.random(d)))
    assert_invariant(value, roc(conjugate(phases, rho)).value)
    perm = rng.permutation(d)
    assert_invariant(value, roc(rho[np.ix_(perm, perm)]).value)


@pytest.mark.parametrize("d", DIMENSIONS)
def test_guessing_value_is_invariant_under_a_common_unitary_and_relabeling(d):
    e = random_ensemble(d, 3, 710 + d)
    value = min_error_guess_value(e)
    u = haar_random_unitary(d, 720 + d)
    assert_invariant(value, min_error_guess_value(Ensemble(conjugate(u, e.states), e.priors)))
    perm = np.random.default_rng(730 + d).permutation(e.size)
    assert_invariant(value, min_error_guess_value(Ensemble(e.states[perm], e.priors[perm])))


@pytest.mark.parametrize("d", DIMENSIONS)
def test_advantage_is_invariant_under_a_common_unitary_and_joint_relabeling(d):
    m = random_povm(d, 4, 800 + d)
    e = random_ensemble(d, 4, 810 + d)
    value = advantage(e, m)
    u = haar_random_unitary(d, 820 + d)
    assert_invariant(value, advantage(Ensemble(conjugate(u, e.states), e.priors),
                                      validate_povm(conjugate(u, m.elements))), 1e-12)
    perm = np.random.default_rng(830 + d).permutation(4)
    assert_invariant(value, advantage(Ensemble(e.states[perm], e.priors[perm]),
                                      validate_povm(m.elements[perm])), 1e-12)


@pytest.mark.parametrize("d", DIMENSIONS)
def test_rom_is_invariant_under_unitaries_and_outcome_permutations(d):
    m = random_povm(d, 4, 740 + d)
    value = rom(m)
    u = haar_random_unitary(d, 750 + d)
    assert_invariant(value, rom(validate_povm(conjugate(u, m.elements))))
    perm = np.random.default_rng(760 + d).permutation(m.outcomes)
    assert_invariant(value, rom(validate_povm(m.elements[perm])))


@pytest.mark.parametrize("d", DIMENSIONS)
def test_simulability_verdict_is_invariant_under_a_common_unitary(d):
    m = random_povm(d, 3, 770 + d)
    noisy = depolarize_povm(m, 0.3)
    u = haar_random_unitary(d, 780 + d)
    rotated, rotated_noisy = (validate_povm(conjugate(u, p.elements)) for p in (m, noisy))
    verdicts = [is_simulable(noisy, m).verdict, is_simulable(m, noisy).verdict]
    # depolarizing is a post-processing that no post-processing undoes
    assert verdicts == [NOT_SIMULABLE, SIMULABLE]
    assert [is_simulable(rotated_noisy, rotated).verdict,
            is_simulable(rotated, rotated_noisy).verdict] == verdicts


def _cyclic_shift_group(d):
    """The d powers of the cyclic shift ``|k> -> |k+1>``."""
    shift = np.roll(np.eye(d), 1, axis=0)
    return validate_group([np.linalg.matrix_power(shift, k) for k in range(d)])


def assert_brackets_overlap(a, b):
    assert a.lower <= b.value and b.lower <= a.value


@pytest.mark.parametrize("seed", range(4))
def test_roa_is_invariant_under_a_unitary_normalizing_the_group(seed):
    # the clock matrix conjugates the shift to a phase times itself, so it
    # permutes the group up to phase and leaves the commutant invariant
    d = 3
    group = _cyclic_shift_group(d)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    rho = random_density_matrix(d, np.random.default_rng(840 + seed))
    before, after = roa(rho, group), roa(conjugate(clock, rho), group)
    assert_brackets_overlap(before, after)
    assert_invariant(before.value, after.value)


@pytest.mark.parametrize("eps", [1e-11, 3e-10, 9e-10])
def test_roa_of_a_snapped_near_unitary_group_matches_the_exact_group(eps):
    # validate_group snaps [[1, eps], [0, -1]] onto a reflection whose axis
    # is eps/2 from Z; for a state on the equator of the Bloch sphere that
    # moves the value by O(eps^2), far inside the bracket of {I, Z}
    phase = np.exp(0.7j)
    rho = np.array([[0.5, 0.4 * phase.conjugate()], [0.4 * phase, 0.5]])
    exact = roa(rho, dephasing_group(2))
    assert exact.value == pytest.approx(0.8, abs=1e-9)
    snapped = roa(rho, validate_group([np.eye(2), [[1.0, eps], [0.0, -1.0]]]))
    assert_brackets_overlap(exact, snapped)
    assert_invariant(exact.value, snapped.value, 1e-11)


def split(m, a, lam):
    """``M_a`` split into ``lam M_a`` and ``(1 - lam) M_a``, the second appended."""
    p = np.eye(m.outcomes, m.outcomes + 1)
    p[a, a], p[a, -1] = lam, 1.0 - lam
    return post_process(m, StochasticMap(p))


def equivalents(m, a, lam, perm):
    """Measurements each a post-processing of ``m`` and post-processing back
    to it: ``M_a`` split, the split pair merged again, a zero element
    appended, and the outcomes relabeled by ``perm``."""
    o = m.outcomes
    halves = split(m, a, lam)
    merge = np.vstack([np.eye(o), np.eye(o)[a]])
    return (halves, post_process(halves, StochasticMap(merge)),
            post_process(m, StochasticMap(np.eye(o, o + 1))),
            post_process(m, StochasticMap(np.eye(o)[perm])))


draws = given(st.integers(2, 6), st.integers(2, 4), st.integers(0, 10**9), st.floats(0.05, 0.95))


@settings(max_examples=25, deadline=None)
@draws
def test_equivalent_measurements_share_their_robustness_game_and_information(d, o, seed, lam):
    m = random_povm(d, o, seed)
    rng = np.random.default_rng(seed)
    closed = (rom, lambda x: advantage(optimal_ensemble(x), x),
              lambda x: acc_min_info_measurement(x).bits)
    values = [f(m) for f in closed]
    sdp = rom_via_sdp(m)
    for e in equivalents(m, rng.integers(o), lam, rng.permutation(o)):
        for f, value in zip(closed, values):
            assert_invariant(value, f(e), 1e-12)
        assert_invariant(sdp, rom_via_sdp(e))


@settings(max_examples=25, deadline=None)
@draws
def test_a_split_measurement_and_its_source_simulate_each_other(d, o, seed, lam):
    m = random_povm(d, o, seed)
    halves = split(m, np.random.default_rng(seed).integers(o), lam)
    assert is_simulable(m, halves).verdict == is_simulable(halves, m).verdict == SIMULABLE


@settings(max_examples=25, deadline=None)
@draws
def test_splitting_either_side_keeps_the_verdict(d, o, seed, lam):
    # the split source's dependent elements send its pairs through the NNLS
    m = random_povm(d, o, seed)
    rng = np.random.default_rng(seed)
    t = post_process(m, random_stochastic_map(o, int(rng.integers(1, 5)), seed + 1))
    verdicts = []
    for source in (m, depolarize_povm(t, 0.3)):
        pairs = ((source, t), (split(source, rng.integers(source.outcomes), lam), t),
                 (source, split(t, rng.integers(t.outcomes), lam)))
        verdicts.append({is_simulable(*pair).verdict for pair in pairs})
    assert verdicts[0] == {SIMULABLE} and len(verdicts[1]) == 1
