import json

import numpy as np
import pytest

from povmrobust import jsonio
from povmrobust.asymmetry import dephasing_group, roc
from povmrobust.discrimination import random_ensemble
from povmrobust.errors import ParseError
from povmrobust.info import JointDistribution
from povmrobust.measurement import random_povm, random_stochastic_map
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
