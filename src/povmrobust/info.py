"""Min-entropies and accessible min-information.

All quantities are in bits (base-2 logarithms).  The min-entropy of a
distribution is ``-log2 max_x p(x)``; conditioned on side information it
is ``-log2 sum_g max_x p(x, g)``, the log of the optimal guessing
probability.  Their difference is the min-mutual-information, and its
maximum over encodings or decodings gives the accessible
min-information of a measurement channel or of an ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .discrimination import (
    Ensemble,
    _joint,
    _require_ensemble,
    optimal_ensemble,
    p_guess_classical,
)
from .errors import InvalidJoint, type_gate
from .measurement import Povm, _check_distribution, _require_povm
from .numerics import frozen_copy
from .rom import rom
from .solvers import min_error_guess_value


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint probabilities ``p(x, g)`` over an input symbol and an output
    symbol, as a nonnegative matrix summing to 1."""

    p: np.ndarray

    def __post_init__(self):
        p = _check_distribution(frozen_copy(self.p, float), InvalidJoint, ndim=2)
        object.__setattr__(self, "p", p)

    def marginal_x(self) -> np.ndarray:
        return self.p.sum(axis=1)


_require_joint = type_gate(JointDistribution, InvalidJoint)


def h_min(p) -> float:
    """Min-entropy ``-log2 max_x p(x)`` in bits."""
    return -math.log2(_check_distribution(p).max())


def h_min_cond(j: JointDistribution) -> float:
    """Conditional min-entropy ``-log2 sum_g max_x p(x, g)`` in bits."""
    j = _require_joint(j)
    return -math.log2(j.p.max(axis=0).sum())


def i_min(j: JointDistribution) -> float:
    """Min-mutual-information ``H_min(X) - H_min(X|G)``.

    Equals the log of the ratio between guessing probabilities with and
    without the side information, hence never negative.
    """
    j = _require_joint(j)
    return math.log2(j.p.max(axis=0).sum() / j.marginal_x().max())


def joint_from_game(e: Ensemble, m: Povm) -> JointDistribution:
    """Joint distribution ``p(x, a) = p(x) tr[sigma_x M_a]`` of the state
    label and the measurement outcome, with rounding below zero clipped and
    the table then rescaled to sum to one: an accepted element may have
    eigenvalues down to ``-PSD_TOL``, so the clip alone can lift the total
    past ``DISTRIBUTION_TOL``."""
    p = np.clip(_joint(e, m), 0.0, None)
    return JointDistribution(p / p.sum())


class AccessibleMinInfo(NamedTuple):
    bits: float
    witness: Ensemble


def acc_min_info_measurement(m: Povm) -> AccessibleMinInfo:
    """Accessible min-information of the channel that measures and
    announces the outcome: ``log2(1 + robustness)``.

    The returned witness ensemble attains the value when the classical
    output register is read directly, which is the optimal decoding.
    """
    m = _require_povm(m)
    return AccessibleMinInfo(math.log2(1.0 + rom(m)), optimal_ensemble(m))


def acc_min_info_ensemble(e: Ensemble) -> float:
    """Accessible min-information of an ensemble over all measurements:
    the log-ratio of the optimal to the blind guessing probability."""
    e = _require_ensemble(e)
    return math.log2(min_error_guess_value(e) / p_guess_classical(e))
