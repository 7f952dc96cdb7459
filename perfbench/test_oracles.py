"""Known values for the benchmark's references and input generators.

    python3 -m pytest perfbench/test_oracles.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import oracles  # noqa: E402

ZERO = np.diag([1.0, 0.0]).astype(complex)
ONE = np.diag([0.0, 1.0]).astype(complex)


def trine():
    kets = [np.array([math.cos(a / 2.0), math.sin(a / 2.0)])
            for a in (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)]
    return np.stack([2.0 / 3.0 * np.outer(k, k) for k in kets]).astype(complex)


def test_qubit_z_has_robustness_one():
    assert oracles.rom(np.stack([ZERO, ONE])) == pytest.approx(1.0, abs=1e-15)


def test_trine_has_robustness_one():
    m = trine()
    assert oracles.completeness_error(m) < 1e-15
    assert oracles.rom(m) == pytest.approx(1.0, abs=1e-15)


def test_plus_state_has_coherence_one():
    psi = np.ones(2) / math.sqrt(2.0)
    assert oracles.roc_pure(psi) == pytest.approx(1.0, abs=1e-15)
    assert oracles.roc_qubit(np.outer(psi, psi)) == pytest.approx(1.0, abs=1e-15)


def test_maximally_coherent_qutrit_has_coherence_two():
    psi = np.ones(3) / math.sqrt(3.0)
    assert oracles.roc_pure(psi) == pytest.approx(2.0, abs=1e-14)
    low, high = oracles.roc_interval(np.outer(psi, psi))
    assert low == pytest.approx(1.0) and high == pytest.approx(2.0)


@pytest.mark.parametrize("p", [0.5, 0.3, 0.9])
def test_orthogonal_states_are_guessed_with_certainty(p):
    assert oracles.helstrom(p, ZERO, 1.0 - p, ONE) == pytest.approx(1.0, abs=1e-15)
    priors = np.array([p, 1.0 - p])
    z = np.stack([ZERO, ONE])
    assert oracles.p_guess(priors, z, z) == pytest.approx(1.0, abs=1e-15)


def test_identical_states_give_no_information():
    rho = inputs.mixed_state(np.random.default_rng(0), 3)
    assert oracles.helstrom(0.3, rho, 0.7, rho) == pytest.approx(0.7, abs=1e-15)


def test_worst_records_and_rejects():
    w = oracles.Worst()
    w.close("a", 1.0 + 1e-9, 1.0, 1e-8)
    w.at_most("b", 0.5, 1.0, 0.0)
    assert w.worst == pytest.approx(1e-9, rel=1e-6)
    with pytest.raises(oracles.CheckFailed):
        w.close("c", 1.1, 1.0, 1e-8)


@pytest.mark.parametrize("d,o", [(2, 2), (3, 5), (8, 3)])
def test_wishart_povm_is_a_povm(d, o):
    m = inputs.wishart_povm(np.random.default_rng(d * o), d, o)
    assert m.shape == (o, d, d)
    assert oracles.completeness_error(m) < 1e-12
    assert oracles.min_eig(m) > 0.0


def test_depolarizing_scales_robustness():
    m = inputs.wishart_povm(np.random.default_rng(5), 4, 3)
    assert oracles.rom(inputs.depolarize(m, 0.3)) == pytest.approx(0.7 * oracles.rom(m),
                                                                   abs=1e-12)


def test_post_processing_keeps_completeness():
    rng = np.random.default_rng(6)
    m = inputs.wishart_povm(rng, 3, 4)
    p = inputs.stochastic_map(rng, 4, 2)
    assert oracles.completeness_error(inputs.post_process(m, p)) < 1e-12


def test_cyclic_shift_group_is_closed():
    g = inputs.cyclic_shift_group(3)
    assert np.allclose(g[1] @ g[2], g[0])
