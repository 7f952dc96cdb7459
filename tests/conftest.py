import math
import sys

import numpy as np
import pytest

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
