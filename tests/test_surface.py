"""Every public call answers an argument of the wrong kind with a package error.

``CALLS`` holds one valid call per public function and value-type
constructor of the package, and the positions of its size and seed
arguments.  The test puts one wrong-kind value into one argument at a time:
the call must raise a ``PovmRobustError`` or succeed, and never warn.  A
size or seed of the wrong kind must not succeed.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import povmrobust as pr
from povmrobust.errors import PovmRobustError

Z = pr.projective_povm(np.eye(2))
X = pr.projective_povm(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))
COIN = pr.trivial_povm([0.5, 0.5], 2)
RHO = np.array([[0.75, 0.25], [0.25, 0.25]])
GROUP = pr.dephasing_group(2)
ENSEMBLE = pr.validate_ensemble([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [0.5, 0.5])
JOINT = pr.JointDistribution([[0.5, 0.0], [0.0, 0.5]])
MIXTURE = pr.rom_report(Z).pseudo_mixture
CERTIFICATE = pr.is_simulable(COIN, Z).certificate
STATES = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]

# name: (valid arguments, positions of the sizes and seeds among them)
CALLS = {
    "Ensemble": ((np.stack(STATES), [0.5, 0.5]), ()),
    "GroupRepresentation": ((GROUP.unitaries,), ()),
    "JointDistribution": (([[0.5, 0.0], [0.0, 0.5]],), ()),
    "Povm": ((Z.elements,), ()),
    "StochasticMap": ((np.eye(2),), ()),
    "acc_min_info_ensemble": ((ENSEMBLE,), ()),
    "acc_min_info_measurement": ((Z,), ()),
    "advantage": ((ENSEMBLE, Z), ()),
    "check_density_matrix": ((RHO,), ()),
    "dephasing_group": ((2,), (0,)),
    "depolarize_povm": ((Z, 0.5), ()),
    "eig_hermitian": ((RHO,), ()),
    "h_min": (([0.5, 0.5],), ()),
    "h_min_cond": ((JOINT,), ()),
    "haar_random_unitary": ((2, 1), (0, 1)),
    "hermitian_basis": ((2,), (0,)),
    "i_min": ((JOINT,), ()),
    "is_simulable": ((Z, COIN), ()),
    "is_symmetric": ((RHO, GROUP), ()),
    "joint_from_game": ((ENSEMBLE, Z), ()),
    "min_error_guess_value": ((ENSEMBLE,), ()),
    "optimal_ensemble": ((Z,), ()),
    "orbit_ensemble": ((RHO, GROUP), ()),
    "p_guess_classical": ((ENSEMBLE,), ()),
    "p_guess_with_measurement": ((ENSEMBLE, Z), ()),
    "post_process": ((Z, pr.StochasticMap(np.eye(2))), ()),
    "projective_povm": ((np.eye(2),), ()),
    "random_ensemble": ((2, 3, 1), (0, 1, 2)),
    "random_povm": ((2, 3, 1), (0, 1, 2)),
    "random_stochastic_map": ((2, 3, 1), (0, 1, 2)),
    "rank_one_povm": (([1.0, 1.0], np.eye(2)), ()),
    "roa": ((RHO, GROUP), ()),
    "roc": ((RHO,), ()),
    "rom": ((Z,), ()),
    "rom_report": ((Z,), ()),
    "rom_via_sdp": ((Z,), ()),
    "solve_dominating": ((None, RHO[None]), ()),
    "solve_lp": (([[1.0, 1.0]], [1.0]), ()),
    "symmetric_subspace_basis": ((GROUP,), ()),
    "trivial_povm": (([0.5, 0.5], 2), (1,)),
    "twirl": ((RHO, GROUP), ()),
    "uniform_noise_mixture": ((Z,), ()),
    "validate_ensemble": ((STATES, [0.5, 0.5]), ()),
    "validate_group": ((GROUP.unitaries,), ()),
    "validate_povm": ((list(Z.elements),), ()),
    "verify_pseudo_mixture": ((Z, MIXTURE.noise, MIXTURE.q, MIXTURE.r), ()),
    "witness_from_certificate": ((COIN, Z, CERTIFICATE), ()),
}

# plain records that the package returns and never reads from a caller
EXEMPT = {"AccessibleMinInfo", "AsymmetryReport", "PseudoMixture", "RobustnessReport",
          "SdpSolution", "SimulabilityCertificate", "SimulabilityResult"}

WRONG_KIND = ["x", None, 2.5, True, [[[1]]], np.full((2, 2), np.nan)]


def test_every_public_name_has_an_entry():
    public = {name for name, value in vars(pr).items()
              if not name.startswith("_") and callable(value)}
    assert public == set(CALLS) | EXEMPT


@pytest.mark.parametrize("name", sorted(CALLS))
def test_each_valid_call_succeeds(name):
    args, _ = CALLS[name]
    getattr(pr, name)(*args)


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_wrong_kind_argument_is_a_package_error(name, data):
    args, counts = CALLS[name]
    position = data.draw(st.integers(0, len(args) - 1), label="position")
    value = data.draw(st.sampled_from(WRONG_KIND), label="value")
    args = list(args)
    args[position] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            getattr(pr, name)(*args)
        except PovmRobustError:
            return
    assert position not in counts, f"{name} took {value!r} as a size or seed"
