import math
import sys

import numpy as np
import pytest

from povmrobust import solvers
from povmrobust.measurement import projective_povm
from povmrobust.selftest import qubit_sic, qubit_trine


@pytest.fixture
def qubit_z():
    return projective_povm(np.eye(2))


@pytest.fixture
def qubit_x():
    return projective_povm(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))


@pytest.fixture
def trine():
    return qubit_trine()


@pytest.fixture
def sic():
    return qubit_sic()


def random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g + g.conj().T


@pytest.fixture
def count_calls(monkeypatch):
    """``count(original)`` replaces every ``povmrobust`` module's binding of
    the function ``original`` by a wrapper that records its calls, and
    returns the record."""
    def count(original) -> list:
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if module is not None and name.split(".")[0] == "povmrobust":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        return calls

    return count


@pytest.fixture
def bland_pivots(monkeypatch):
    """Spy on ``solvers._pivot``.  Calling the returned function checks that
    the pivots so far entered at the most negative reduced cost up to the
    first zero-ratio pivot and at the lowest-index negative one after it,
    and returns how many came after that switch to Bland's rule."""
    log = []
    pivot = solvers._pivot

    def recorded(t, z, basis, col):
        lowest = col == (z[:-1] < -solvers.PIVOT_TOL).argmax()
        most_negative = col == z[:-1].argmin()
        log.append((lowest, most_negative, pivot(t, z, basis, col)))
        return log[-1][2]

    monkeypatch.setattr(solvers, "_pivot", recorded)

    def count() -> int:
        steps = [step for _, _, step in log]
        switch = steps.index(0.0) + 1 if 0.0 in steps else len(log)
        assert all(most_negative for _, most_negative, _ in log[:switch])
        assert all(lowest for lowest, _, _ in log[switch:])
        return len(log) - switch

    return count
