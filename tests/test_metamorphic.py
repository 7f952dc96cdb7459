"""Invariances the paper implies, checked on random inputs at d = 2..7.

Each quantity is compared before and after a transformation that must
leave it unchanged, within 1e-9 relative to ``max(1, value)`` (1e-12 for
the closed-form ``advantage``).
"""

import numpy as np
import pytest

from povmrobust.asymmetry import roc
from povmrobust.discrimination import (
    Ensemble,
    advantage,
    random_density_matrix,
    random_ensemble,
)
from povmrobust.measurement import depolarize_povm, random_povm, validate_povm
from povmrobust.numerics import haar_random_unitary
from povmrobust.rom import rom
from povmrobust.simulability import NOT_SIMULABLE, SIMULABLE, is_simulable
from povmrobust.solvers import min_error_guess_value

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
