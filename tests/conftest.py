import math

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
