"""JSON encodings for every value the package exchanges with files.

A complex scalar is a two-element array ``[re, im]``; a matrix is a row-major
array of rows of such pairs.  The encoders return plain Python values at full
precision, converting each ``(n, d, d)`` stack of matrices in one call; ``dumps``
alone rounds reals to 15 significant digits and sorts object keys, so identical
inputs produce byte-identical output: each real prints as ``json.dumps`` prints
its 15-digit rounding.  A rectangular nest of floats fills the ``{:.15}`` slots
of one template of its shape in one ``str.format`` call; only the tokens with an
exponent or a non-finite value are spelled again.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .asymmetry import AsymmetryReport, GroupRepresentation, validate_group
from .discrimination import Ensemble, validate_ensemble
from .errors import ParseError
from .info import JointDistribution
from .measurement import Povm, StochasticMap, validate_povm
from .numerics import _read_array
from .rom import RobustnessReport
from .simulability import SimulabilityResult


_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _spell(piece: str) -> str:
    """A ``{:.15}`` token, perhaps among brackets, as json prints its float: the
    repr of ``float(token)``, whose rounding may overflow to inf, or
    ``NaN``/``Infinity``/``-Infinity``."""
    token = piece.strip("[]")
    return piece.replace(token, _SPECIAL.get(r := repr(float(token)), r))


def _flat(items):
    """``items`` in one pass if a rectangular nest of lists of floats, else None:
    the leaves fill the ``{:.15}`` slots of a template built from the nest's shape
    in one ``str.format`` call; the text is then split into its pieces, one real
    each, only if it holds an exponent or a non-finite value, and ``_spell``
    spells again just the pieces that hold one."""
    shape = [len(items)]
    while (kinds := set(map(type, items))) == {list} and len(widths := set(map(len, items))) == 1:
        shape.append(widths.pop())
        items = list(chain.from_iterable(items))
    if kinds != {float}:
        return None
    template = "{:.15}"
    for width in reversed(shape):  # innermost lists first
        template = "[" + ", ".join([template] * width) + "]"
    text = template.format(*items)
    if "e" in text or "n" in text:  # ``{:.15}`` keeps a point in fixed notation
        text = ", ".join([p if "e" not in p and "n" not in p else _spell(p)
                          for p in text.split(", ")])
    return text


def _write(obj) -> str:
    if isinstance(obj, (int, str, np.integer)) or obj is None:
        return json.dumps(int(obj) if isinstance(obj, np.integer) else obj)
    if isinstance(obj, (float, np.floating)):
        return _spell(f"{obj:.15}")
    if isinstance(obj, dict):  # sorted, and non-string keys converted, as json does it
        return "{" + ", ".join(
            (json.dumps(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4]) + ": " + _write(v)
            for k, v in sorted(obj.items())) + "}"
    if not isinstance(obj, (list, tuple, np.ndarray)):
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    obj = list(obj.tolist()) if isinstance(obj, np.ndarray) else obj
    return _flat(obj) or "[" + ", ".join(map(_write, obj)) + "]"


def dumps(payload) -> str:
    """Deterministic JSON text: ``json.dumps(payload, sort_keys=True)`` with reals
    rounded to 15 significant digits, each formatted once with the ``{:.15}`` spec.
    A token in fixed notation is already the text json prints (15 digits
    round-trip); a token with an exponent, ``nan`` or ``inf`` prints as json prints
    ``float(token)``: its repr, or ``NaN``/``Infinity``/``-Infinity``.  A rectangular
    nest of lists of floats, as the encoders build for every array, is written by
    ``_flat`` in one ``str.format`` call, re-spelling only those tokens."""
    return _write(payload)


def matrix_to_json(m) -> list:
    """A matrix as rows of ``[re, im]`` pairs, or a stack ``(..., d, d)`` of them as
    the list of its matrices' encodings, in one ``tolist`` call."""
    m = np.asarray(m, dtype=np.complex128)
    return np.stack([m.real, m.imag], -1).tolist()


def _numbers(obj, what) -> np.ndarray:
    """A JSON array of numbers, or of such arrays to any depth, as a float
    array; anything else, strings and booleans included, is a ParseError."""
    if not isinstance(obj, list):
        raise ParseError("<data>", f"{what} must be an array, got {type(obj).__name__}")
    arr = _read_array(obj, None, lambda detail: ParseError("<data>", f"malformed {what}: {detail}"))
    # numpy reads a boolean among numbers as 0 or 1, so the leaves' types are checked
    leaves = obj
    for _ in range(arr.ndim - 1):
        leaves = chain.from_iterable(leaves)
    if arr.dtype.kind not in "iuf" or bool in set(map(type, leaves)):
        raise ParseError("<data>", f"{what} must hold only numbers")
    return arr.astype(float)


def matrix_from_json(obj) -> np.ndarray:
    arr = _numbers(obj, "matrix")
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ParseError("<data>", f"a matrix is a list of rows of [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def _require(obj, key, kind):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError("<data>", f"{kind} object needs the key {key!r}")
    return obj[key]


def _list(obj, key, kind) -> list:
    items = _require(obj, key, kind)
    if not isinstance(items, list):
        raise ParseError("<data>", f"{kind} {key} must be an array, got {type(items).__name__}")
    return items


def _integer(obj, key, kind) -> int:
    """``obj[key]``, which must be a JSON integer: a boolean or a float is a ParseError."""
    n = _require(obj, key, kind)
    if isinstance(n, bool) or not isinstance(n, int):
        raise ParseError("<data>", f"{kind} {key} must be an integer, got {json.dumps(n)}")
    return n


def _declared(obj, kind, decode, dimension=lambda value: value.dimension):
    """``decode()``, called once ``obj`` declares an integer ``dimension``,
    which must then be the ``dimension`` of the decoded value."""
    d = _integer(obj, "dimension", kind)
    value = decode()
    if dimension(value) != d:
        raise ParseError("<data>", f"declared dimension {d}, the {kind} has {dimension(value)}")
    return value


def povm_to_json(m: Povm) -> dict:
    return {
        "dimension": m.dimension,
        "elements": matrix_to_json(m.elements),
    }


def povm_from_json(obj) -> Povm:
    return _declared(obj, "POVM", lambda: validate_povm(
        [matrix_from_json(el) for el in _list(obj, "elements", "POVM")]))


def stochastic_map_to_json(s: StochasticMap) -> dict:
    return {
        "rows": s.n_inputs,
        "cols": s.n_outputs,
        "p": s.probabilities.tolist(),
    }


def stochastic_map_from_json(obj) -> StochasticMap:
    p = _numbers(_require(obj, "p", "stochastic map"), "stochastic map p")
    if p.shape != (_integer(obj, "rows", "stochastic map"), _integer(obj, "cols", "stochastic map")):
        raise ParseError("<data>", "stochastic map shape disagrees with rows/cols")
    return StochasticMap(p)


def ensemble_to_json(e: Ensemble) -> dict:
    return {
        "dimension": e.dimension,
        "priors": e.priors.tolist(),
        "states": matrix_to_json(e.states),
    }


def ensemble_from_json(obj) -> Ensemble:
    return _declared(obj, "ensemble", lambda: validate_ensemble(
        [matrix_from_json(s) for s in _list(obj, "states", "ensemble")],
        _numbers(_require(obj, "priors", "ensemble"), "ensemble priors")))


def state_to_json(rho) -> dict:
    rho = np.asarray(rho, dtype=np.complex128)
    return {"dimension": rho.shape[0], "state": matrix_to_json(rho)}


def state_from_json(obj) -> np.ndarray:
    return _declared(obj, "state", lambda: matrix_from_json(_require(obj, "state", "state")), len)


def group_to_json(g: GroupRepresentation) -> dict:
    return {
        "dimension": g.dimension,
        "unitaries": matrix_to_json(g.unitaries),
    }


def group_from_json(obj) -> GroupRepresentation:
    return _declared(obj, "group", lambda: validate_group(
        [matrix_from_json(u) for u in _list(obj, "unitaries", "group")]))


def joint_to_json(j: JointDistribution) -> dict:
    return {"p": j.p.tolist()}


def joint_from_json(obj) -> JointDistribution:
    return JointDistribution(_numbers(_require(obj, "p", "joint distribution"),
                                      "joint distribution p"))


def robustness_report_to_json(report: RobustnessReport) -> dict:
    mixture = None
    if report.pseudo_mixture is not None:
        mixture = {
            "r": report.pseudo_mixture.r,
            "q": report.pseudo_mixture.q.tolist(),
            "noise": povm_to_json(report.pseudo_mixture.noise),
        }
    return {
        "rom": report.value,
        "primal_weights": report.primal_weights.tolist(),
        "dual_states": matrix_to_json(report.dual_states),
        "pseudo_mixture": mixture,
    }


def simulability_result_to_json(result: SimulabilityResult) -> dict:
    return {
        "verdict": result.verdict,
        "map": None if result.map is None else stochastic_map_to_json(result.map),
        "witness": None if result.witness is None else ensemble_to_json(result.witness),
        "gap": result.gap,
    }


def asymmetry_report_to_json(report: AsymmetryReport) -> dict:
    return {
        "value": report.value,
        "dominating_operator": matrix_to_json(report.dominating),
        "game_advantage": report.game_advantage,
        "min_info": report.min_info,
        "lower": report.lower,
        "witness": povm_to_json(report.witness),
    }
