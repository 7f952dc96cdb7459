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
from povmrobust.errors import DimensionMismatch, InvalidArgument, PovmRobustError
from povmrobust.solvers import solve_dominating

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
    "SimulabilityCertificate": ((CERTIFICATE.operators, CERTIFICATE.scalars), ()),
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
          "SdpSolution", "SimulabilityResult"}

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


REFUTED = pr.is_simulable(Z, X).certificate


@pytest.mark.parametrize("operators, scalars, error", [
    (np.eye(2), REFUTED.scalars, InvalidArgument),
    (np.zeros((0, 2, 2)), REFUTED.scalars, InvalidArgument),
    (np.zeros((2, 3, 3)), REFUTED.scalars, DimensionMismatch),
    ("x", REFUTED.scalars, InvalidArgument),
    (REFUTED.operators, "x", InvalidArgument),
    (REFUTED.operators, REFUTED.scalars[:, None], InvalidArgument),
], ids=["operators-2d", "operators-empty", "operators-3x3", "operators-string",
        "scalars-string", "scalars-2d"])
def test_a_malformed_certificate_is_a_package_error(operators, scalars, error):
    # the qubit pair Z -> X is refuted; each malformed certificate once raised a
    # raw numpy error, or a SolverFailure for scalars that are no numbers
    with pytest.raises(error):
        pr.witness_from_certificate(Z, X, pr.SimulabilityCertificate(operators, scalars))


def test_a_certificate_keeps_read_only_copies():
    operators, scalars = REFUTED.operators.copy(), REFUTED.scalars.copy()
    certificate = pr.SimulabilityCertificate(operators, scalars)
    operators[:] = 0.0
    assert not certificate.operators.flags.writeable and not certificate.scalars.flags.writeable
    assert np.abs(certificate.operators).max() > 0.0
    assert pr.witness_from_certificate(Z, X, certificate).size == 2


@pytest.mark.parametrize("build", [
    lambda: pr.Povm(Z.elements),
    lambda: pr.Ensemble(np.stack(STATES), [0.5, 0.5]),
    lambda: pr.GroupRepresentation(GROUP.unitaries),
    lambda: pr.rom_report(pr.random_povm(2, 3, 1)),
    lambda: solve_dominating(None, RHO[None]),
], ids=["Povm", "Ensemble", "GroupRepresentation", "RobustnessReport", "SdpSolution"])
def test_a_value_holding_arrays_compares_by_identity_and_hashes(build):
    # tuples of arrays once made == raise numpy's ambiguous-truth ValueError,
    # and hash() a TypeError
    value, twin = build(), build()
    assert value == value and value != twin
    assert hash(value) == hash(value) and len({value, twin}) == 2
