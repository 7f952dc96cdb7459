import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from povmrobust import jsonio
from povmrobust.asymmetry import dephasing_group, roc, validate_group
from povmrobust.discrimination import random_ensemble
from povmrobust.errors import ParseError
from povmrobust.info import JointDistribution
from povmrobust.measurement import depolarize_povm, random_povm, random_stochastic_map, trivial_povm
from povmrobust.rom import rom_report
from povmrobust.simulability import is_simulable
from povmrobust.measurement import post_process


def test_matrix_round_trip():
    m = np.array([[1.0, 0.5 - 0.25j], [0.5 + 0.25j, -1.0]])
    again = jsonio.matrix_from_json(jsonio.matrix_to_json(m))
    np.testing.assert_allclose(again, m)


def test_matrix_rejects_flat_lists():
    with pytest.raises(ParseError):
        jsonio.matrix_from_json([[1.0, 2.0], [3.0, 4.0]])


def test_povm_round_trip():
    m = random_povm(3, 4, 100)
    again = jsonio.povm_from_json(jsonio.povm_to_json(m))
    np.testing.assert_allclose(again.elements, m.elements, atol=1e-14)


def test_povm_dimension_mismatch():
    payload = jsonio.povm_to_json(random_povm(2, 2, 101))
    payload["dimension"] = 3
    with pytest.raises(ParseError):
        jsonio.povm_from_json(payload)


def test_stochastic_map_round_trip():
    s = random_stochastic_map(3, 4, 102)
    again = jsonio.stochastic_map_from_json(jsonio.stochastic_map_to_json(s))
    np.testing.assert_allclose(again.probabilities, s.probabilities, atol=1e-14)


def test_ensemble_round_trip():
    e = random_ensemble(2, 3, 103)
    again = jsonio.ensemble_from_json(jsonio.ensemble_to_json(e))
    np.testing.assert_allclose(again.states, e.states, atol=1e-14)
    np.testing.assert_allclose(again.priors, e.priors, atol=1e-14)


def test_state_round_trip():
    rho = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
    again = jsonio.state_from_json(jsonio.state_to_json(rho))
    np.testing.assert_allclose(again, rho)


def test_group_round_trip():
    g = dephasing_group(3)
    again = jsonio.group_from_json(jsonio.group_to_json(g))
    np.testing.assert_allclose(again.unitaries, g.unitaries, atol=1e-14)


def test_joint_round_trip():
    j = JointDistribution(np.array([[0.25, 0.25], [0.25, 0.25]]))
    again = jsonio.joint_from_json(jsonio.joint_to_json(j))
    np.testing.assert_allclose(again.p, j.p)


def test_robustness_report_schema():
    payload = jsonio.robustness_report_to_json(rom_report(random_povm(2, 3, 104)))
    assert set(payload) == {"rom", "primal_weights", "dual_states", "pseudo_mixture"}
    assert set(payload["pseudo_mixture"]) == {"r", "q", "noise"}
    reparsed = json.loads(jsonio.dumps(payload))
    assert reparsed["rom"] == pytest.approx(payload["rom"])


def test_simulability_result_schema():
    m = random_povm(2, 3, 105)
    target = post_process(m, random_stochastic_map(3, 2, 106))
    payload = jsonio.simulability_result_to_json(is_simulable(m, target))
    assert payload["verdict"] == "Simulable"
    assert payload["witness"] is None and payload["gap"] is None
    jsonio.stochastic_map_from_json(payload["map"])


def test_asymmetry_report_schema():
    payload = jsonio.asymmetry_report_to_json(roc(np.full((2, 2), 0.5)))
    assert set(payload) == {"value", "dominating_operator", "game_advantage", "min_info",
                            "lower", "witness"}
    assert payload["value"] == pytest.approx(1.0, abs=1e-6)
    assert payload["value"] - payload["lower"] <= 1e-9
    jsonio.povm_from_json(payload["witness"])


@pytest.mark.parametrize("decoder, payload", [
    (jsonio.stochastic_map_from_json, {"rows": 1, "cols": 1, "p": 5}),
    (jsonio.stochastic_map_from_json, {"rows": 1, "cols": 2, "p": [["0.5", "0.5"]]}),
    (jsonio.stochastic_map_from_json, {"rows": 2, "cols": 2, "p": [[1.0, 0.0], [1.0]]}),
    (jsonio.joint_from_json, {"p": "x"}),
    (jsonio.joint_from_json, {"p": [[0.5, None], [0.25, 0.25]]}),
    (jsonio.joint_from_json, {"p": [[True, False]]}),
    (jsonio.ensemble_from_json, {"dimension": 2, "priors": 1.0, "states": []}),
    (jsonio.povm_from_json, {"dimension": 2, "elements": {"0": []}}),
    (jsonio.group_from_json, {"dimension": 2, "unitaries": "I"}),
    # numpy would read a boolean among numbers as 1 or 0
    (jsonio.joint_from_json, {"p": [[True, 0], [0, 0]]}),
    (jsonio.joint_from_json, {"p": [[0.5, 0.5], [0.0, False]]}),
    (jsonio.matrix_from_json, [[[True, 0], [0, 0]], [[0, 0], [0, 0]]]),
    (jsonio.povm_from_json, {"dimension": 2, "elements": [
        [[[True, 0], [0, 0]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]}),
    (jsonio.ensemble_from_json, {"dimension": 2, "priors": [0.5, False, 0.5],
                                 "states": [[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]] * 3}),
])
def test_decoders_reject_non_arrays_and_non_numbers(decoder, payload):
    with pytest.raises(ParseError):
        decoder(payload)


def test_dumps_sorts_keys_and_rounds():
    text = jsonio.dumps({"b": 1.0 / 3.0, "a": 2})
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text)["b"] == float(f"{1/3:.15g}")

    # encoders keep full precision; dumps rounds every real exactly once
    m = np.array([[1.0 / 3.0, 2.0j / 3.0], [-2.0j / 3.0, 1.0 / 7.0]])
    assert jsonio.matrix_to_json(m)[0][1] == [0.0, 2.0 / 3.0]
    reparsed = json.loads(jsonio.dumps({"m": jsonio.matrix_to_json(m)}))["m"]
    assert reparsed[0][1] == [0.0, float(f"{2/3:.15g}")]
    assert reparsed[1][1] == [float(f"{1/7:.15g}"), 0.0]

    report = rom_report(random_povm(2, 3, 104))
    payload = jsonio.robustness_report_to_json(report)
    assert payload["rom"] == report.value
    reparsed = json.loads(jsonio.dumps(payload))
    assert reparsed["rom"] == float(f"{report.value:.15g}")
    assert reparsed["primal_weights"] == [float(f"{v:.15g}") for v in report.primal_weights]


def test_dumps_is_deterministic():
    payload = jsonio.povm_to_json(random_povm(3, 3, 107))
    assert jsonio.dumps(payload) == jsonio.dumps(
        jsonio.povm_to_json(random_povm(3, 3, 107))
    )


def test_dumps_handles_numpy_scalars():
    text = jsonio.dumps({"x": np.float64(0.1), "n": np.int64(3)})
    data = json.loads(text)
    assert data == {"x": 0.1, "n": 3}


def _reference(payload):
    """The encoder ``dumps`` replaced: round every real to 15 significant
    digits and parse it back, then let ``json`` print the whole payload."""
    def jsonable(obj):
        if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
            return obj
        if isinstance(obj, (float, np.floating)):
            return float(f"{obj:.15g}")
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, dict):
            return {key: jsonable(val) for key, val in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [jsonable(item) for item in obj]
        if isinstance(obj, np.ndarray):
            return [jsonable(item) for item in obj.tolist()]
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return json.dumps(jsonable(payload), sort_keys=True)


EDGE_REALS = [0.0, -0.0, 1.0, -1.0, 100.0, 1e14, 1e15, 1.5e15, 9.999999999999999e15, 1e16,
              1e-4, 1e-5, 0.1, 1.0 / 3.0, 0.9999999999999999, 123456789012345.6, 5e-324,
              1e-310, 2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
              float("nan"), float("inf"), float("-inf"), 2.0000000000000004, 123.00000000000001,
              999999999999999.4, 9.999999999999999e-05, -7e-17, 99999999999999.99,
              99999999999999.9, 12345678901234.0, 9.999999999999995e-05]


@pytest.mark.parametrize("value", EDGE_REALS, ids=repr)
def test_dumps_edge_reals_match_the_reference(value):
    for payload in (value, np.float64(value), [value, 0.5, value], [[value], [value]],
                    np.array([[value, 0.25]]), {"x": value}):
        assert jsonio.dumps(payload) == _reference(payload)


ODD_REALS = [1e-5, float("nan"), float("inf"), 5e-324, 1.7976931348623157e308]


@pytest.mark.parametrize("d", [2, 6, 24])
def test_dumps_of_stack_nests_with_odd_reals_matches_the_reference(d):
    # (o, d, d, 2) nests as the encoders build them: odd reals (an exponent or a
    # non-finite value) are spelled again piece by piece, the rest stay as formatted
    o = 3
    plain = np.random.default_rng(d).uniform(-1.0, 1.0, (o, d, d, 2))
    assert jsonio.dumps(plain.tolist()) == _reference(plain.tolist())
    for odd in ODD_REALS:
        for position in (0, plain.size // 2, plain.size - 1):
            nest = plain.copy()
            nest.flat[position] = odd
            assert jsonio.dumps(nest.tolist()) == _reference(nest.tolist())
        every = np.full_like(plain, odd)
        every.flat[::2] = -odd
        assert jsonio.dumps(every.tolist()) == _reference(every.tolist())


def test_dumps_keeps_the_nesting_of_a_tuple_of_array_and_list():
    payload = (np.zeros((1, 1)), [1.0])
    assert jsonio.dumps(payload) == _reference(payload) == "[[[0.0]], [1.0]]"


@pytest.mark.parametrize("payload", [
    [[1.0, 2.0], [3.0]],            # ragged
    [[1.0, 2], [3.0, 4.0]],         # an int among the floats
    [[1.0, 2.0], (3.0, 4.0)],       # a tuple among the lists
    [[[1.0]], [2.0]],               # uneven depth
    [np.float64(1.0), 2.0],         # a numpy scalar among the floats
    [[], []],
    np.zeros((2, 0, 3)),
    np.arange(6.0).reshape(1, 2, 3),
    {2: 1.0, 0.5: 2.0, True: "x"},  # non-string keys, converted as json converts them
    {None: [1.5]},
])
def test_dumps_of_mixed_nests_matches_the_reference(payload):
    assert jsonio.dumps(payload) == _reference(payload)


def test_dumps_of_an_unknown_type_is_a_type_error():
    with pytest.raises(TypeError):
        jsonio.dumps(object())
    with pytest.raises(TypeError):
        jsonio.dumps({"a": [1.0, object()]})


_reals = st.floats() | st.sampled_from(EDGE_REALS)
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), _reals, st.text(),
    _reals.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    hnp.arrays(st.sampled_from([np.float64, np.float32, np.int64]),
               hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=3)),
    # rectangular float nests as the encoders build them, sometimes with an int inside
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=4, max_side=3),
               elements=_reals).map(lambda a: a.tolist()),
    st.lists(_reals | st.integers(), max_size=4),
    st.lists(st.lists(_reals, max_size=3), max_size=3),
)
_payloads = st.recursive(
    _leaves,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_payloads)
def test_dumps_matches_the_reference(payload):
    assert jsonio.dumps(payload) == _reference(payload)


def _per_matrix(stack):
    return [jsonio.matrix_to_json(m) for m in stack]


@pytest.mark.parametrize("o", range(1, 6))
@pytest.mark.parametrize("d", range(1, 5))
def test_stacks_encode_as_their_matrices_one_by_one(d, o):
    seed = 10 * d + o
    shifts = validate_group([np.roll(np.eye(d), k, axis=0) for k in range(d)])
    for g in (dephasing_group(d), shifts):
        assert jsonio.group_to_json(g)["unitaries"] == _per_matrix(g.unitaries)
    e = random_ensemble(d, o, seed)
    assert jsonio.ensemble_to_json(e)["states"] == _per_matrix(e.states)
    for m in (random_povm(d, o, seed), trivial_povm(np.full(o, 1.0 / o), d)):
        assert jsonio.povm_to_json(m)["elements"] == _per_matrix(m.elements)
        report = rom_report(m)
        payload = jsonio.robustness_report_to_json(report)
        assert payload["dual_states"] == _per_matrix(report.dual_states)
        if report.pseudo_mixture is not None:
            noise = report.pseudo_mixture.noise.elements
            assert payload["pseudo_mixture"]["noise"]["elements"] == _per_matrix(noise)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**31),
       st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]))
def test_report_and_povm_texts_survive_a_json_round_trip(d, o, seed, eta):
    m = depolarize_povm(random_povm(d, o, seed), eta)
    for payload in (jsonio.povm_to_json(m), jsonio.robustness_report_to_json(rom_report(m))):
        text = jsonio.dumps(payload)
        assert jsonio.dumps(json.loads(text)) == text
