"""Every validation gate reads one fixed module constant.

No public function or class takes a tolerance.  The validation gates
are pinned on both sides of their values: half the tolerance passes,
twice it fails.
"""

import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import povmrobust
from povmrobust.asymmetry import validate_group
from povmrobust.discrimination import check_density_matrix, validate_ensemble
from povmrobust.errors import (
    CompletenessViolation,
    InvalidEnsemble,
    InvalidGroup,
    InvalidJoint,
    InvalidState,
    NotPsd,
)
from povmrobust.info import JointDistribution
from povmrobust.measurement import Povm, projective_povm, validate_povm
from povmrobust.simulability import NOT_SIMULABLE, SIMULABLE, is_simulable
from povmrobust.solvers import (
    FEASIBILITY_TOL,
    INFEASIBLE,
    OPTIMAL,
    solve_dominating,
    solve_lp,
)


def _public_signatures():
    """``(qualified name, signature)`` of every public function defined in
    a ``povmrobust`` module, and of the constructors and public methods that
    each public class defines itself."""
    for info in pkgutil.iter_modules(povmrobust.__path__):
        module = importlib.import_module(f"povmrobust.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", inspect.signature(obj)
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    public = attr in ("__init__", "__new__") or not attr.startswith("_")
                    if public and inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", inspect.signature(member)


def test_no_public_callable_takes_a_tolerance():
    signatures = dict(_public_signatures())
    assert "povmrobust.measurement.validate_povm" in signatures
    assert "povmrobust.measurement.Povm.__init__" in signatures
    knobs = [f"{name}({param})" for name, sig in signatures.items()
             for param in sig.parameters if "tol" in param.lower()]
    assert knobs == []


@pytest.mark.parametrize("check, tol, error", [
    # the second element's eigenvalue is -slack
    (lambda s: validate_povm([np.diag([1.0 + s, 0.0]), np.diag([-s, 1.0])]), 1e-9, NotPsd),
    (lambda s: validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0 - s])]), 1e-8,
     CompletenessViolation),
    (lambda s: check_density_matrix(np.diag([0.5, 0.5 + s])), 1e-9, InvalidState),
    (lambda s: validate_ensemble([np.eye(2) / 2] * 2, [0.5, 0.5 + s]), 1e-10, InvalidEnsemble),
    (lambda s: JointDistribution([[0.5, 0.5 + s]]), 1e-10, InvalidJoint),
    # U^dag U - I has largest entry s
    (lambda s: validate_group([np.eye(2), [[1.0, s], [0.0, -1.0]]]), 1e-9, InvalidGroup),
    # the Gram entry of the second element is 1 + s; I is in the span either way
    (lambda s: solve_dominating(
        np.stack([np.eye(2), math.sqrt(1.0 + s) * np.diag([1.0, -1.0])]) / math.sqrt(2.0),
        np.diag([0.75, 0.25])[None]), 1e-12, ValueError),
], ids=["povm-psd", "completeness", "state-trace", "priors", "joint", "unitarity",
        "dominance-basis-orthonormality"])
def test_gate_holds_at_its_fixed_value(check, tol, error):
    check(0.5 * tol)
    with pytest.raises(error):
        check(2.0 * tol)


PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("decide, inside, outside", [
    # x = -s with x >= 0: the least residual is s
    (lambda s: solve_lp([[1.0]], [-s]).status, OPTIMAL, INFEASIBLE),
    # the target elements leave the span of the Z basis's elements by s
    (lambda s: is_simulable(projective_povm(np.eye(2)),
                            Povm([np.eye(2) / 2 + s * PAULI_X, np.eye(2) / 2 - s * PAULI_X])
                            ).verdict, SIMULABLE, NOT_SIMULABLE),
], ids=["lp-feasibility", "simulability-span"])
def test_feasibility_gate_holds_at_its_fixed_value(decide, inside, outside):
    assert decide(0.5 * FEASIBILITY_TOL) == inside
    assert decide(2.0 * FEASIBILITY_TOL) == outside
