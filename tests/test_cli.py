import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from povmrobust import jsonio
from povmrobust.asymmetry import dephasing_group
from povmrobust.cli import run
from povmrobust.discrimination import validate_ensemble
from povmrobust.measurement import projective_povm, trivial_povm


@pytest.fixture
def z_file(tmp_path):
    path = tmp_path / "z.json"
    path.write_text(jsonio.dumps(jsonio.povm_to_json(projective_povm(np.eye(2)))))
    return str(path)


@pytest.fixture
def trivial_file(tmp_path):
    path = tmp_path / "trivial.json"
    path.write_text(jsonio.dumps(jsonio.povm_to_json(trivial_povm([0.5, 0.5], 2))))
    return str(path)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_rom_command(z_file, capsys):
    assert run(["rom", z_file]) == 0
    assert _json_out(capsys) == {"rom": 1.0}


def test_rom_trivial(trivial_file, capsys):
    assert run(["rom", trivial_file]) == 0
    assert _json_out(capsys)["rom"] == pytest.approx(0.0, abs=1e-10)


def test_rom_report_round_trips(z_file, capsys):
    assert run(["rom-report", z_file]) == 0
    payload = _json_out(capsys)
    assert payload["rom"] == 1.0
    for state in payload["dual_states"]:
        jsonio.matrix_from_json(state)


def test_discriminate(z_file, tmp_path, capsys):
    e = validate_ensemble([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [0.5, 0.5])
    e_path = tmp_path / "e.json"
    e_path.write_text(jsonio.dumps(jsonio.ensemble_to_json(e)))
    assert run(["discriminate", "--ensemble", str(e_path), "--povm", z_file]) == 0
    payload = _json_out(capsys)
    assert payload["p_guess_classical"] == 0.5
    assert payload["p_guess_quantum"] == pytest.approx(1.0)
    assert payload["advantage"] == pytest.approx(2.0)


def test_optimal_ensemble(z_file, capsys):
    assert run(["optimal-ensemble", z_file]) == 0
    ensemble = jsonio.ensemble_from_json(_json_out(capsys))
    assert ensemble.size == 2


def test_accinfo_measurement(z_file, capsys):
    assert run(["accinfo-measurement", z_file]) == 0
    payload = _json_out(capsys)
    assert payload["bits"] == pytest.approx(1.0)
    jsonio.ensemble_from_json(payload["witness"])


def test_accinfo_ensemble(tmp_path, capsys):
    plus = np.full((2, 2), 0.5)
    e = validate_ensemble([np.diag([1.0, 0.0]), plus], [0.5, 0.5])
    path = tmp_path / "e.json"
    path.write_text(jsonio.dumps(jsonio.ensemble_to_json(e)))
    assert run(["accinfo-ensemble", str(path)]) == 0
    expected = math.log2(1.0 + 1.0 / math.sqrt(2.0))
    assert _json_out(capsys)["bits"] == pytest.approx(expected, abs=1e-6)


def test_simulable_coarse_graining(z_file, tmp_path, capsys):
    merged = trivial_povm([1.0], 2)
    path = tmp_path / "merged.json"
    path.write_text(jsonio.dumps(jsonio.povm_to_json(merged)))
    assert run(["simulable", "--from", z_file, "--to", str(path)]) == 0
    payload = _json_out(capsys)
    assert payload["verdict"] == "Simulable"
    assert payload["map"] is not None


def test_roa_and_roc(tmp_path, capsys):
    plus = np.full((2, 2), 0.5)
    state_path = tmp_path / "plus.json"
    state_path.write_text(jsonio.dumps(jsonio.state_to_json(plus)))
    group_path = tmp_path / "group.json"
    group_path.write_text(jsonio.dumps(jsonio.group_to_json(dephasing_group(2))))

    assert run(["roa", "--state", str(state_path), "--group", str(group_path)]) == 0
    assert _json_out(capsys)["value"] == pytest.approx(1.0, abs=1e-6)

    assert run(["roc", "--state", str(state_path)]) == 0
    payload = _json_out(capsys)
    assert payload["value"] == pytest.approx(1.0, abs=1e-6)
    assert payload["value"] - payload["lower"] <= 1e-9
    assert jsonio.povm_from_json(payload["witness"]).outcomes == 2


def test_random_povm_deterministic_bytes(capsys):
    assert run(["random-povm", "--dim", "3", "--outcomes", "4", "--seed", "11"]) == 0
    first = capsys.readouterr().out
    assert run(["random-povm", "--dim", "3", "--outcomes", "4", "--seed", "11"]) == 0
    second = capsys.readouterr().out
    assert first == second
    jsonio.povm_from_json(json.loads(first))


def test_missing_file_parse_error(capsys):
    assert run(["rom", "/nonexistent/path.json"]) == 2
    payload = _json_out(capsys)
    assert payload["error"] == "ParseError"


def test_invalid_json_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["rom", str(path)]) == 2
    assert _json_out(capsys)["error"] == "ParseError"


def test_domain_error_is_reported(tmp_path, capsys):
    path = tmp_path / "incomplete.json"
    bad = {"dimension": 2, "elements": [jsonio.matrix_to_json(np.diag([1.0, 0.0]))]}
    path.write_text(json.dumps(bad))
    assert run(["rom", str(path)]) == 1
    assert _json_out(capsys)["error"] == "CompletenessViolation"


def test_usage_error(capsys):
    assert run(["no-such-command"]) == 2
    assert _json_out(capsys)["error"] == "UsageError"


def test_selftest_quick_exits_zero(capsys):
    assert run(["selftest", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "9/9 criteria passed" in out
    criterion_lines = out.splitlines()[:-1]
    assert len(criterion_lines) == 9
    for line in criterion_lines:
        assert re.search(r"PASS +\d+\.\d{2} s ", line), line
    # the criteria that solve dominance programs report their interior-point steps
    for index in (1, 8, 9):
        assert re.search(r"PASS +\d+\.\d{2} s  [1-9]\d* IPM steps; ", criterion_lines[index - 1])


def _assert_error_contract(capsys, code):
    assert code != 0
    payload = _json_out(capsys)
    assert set(payload) == {"error", "detail"}
    return payload


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_is_an_error(tmp_path, capsys, constant):
    path = tmp_path / "nan.json"
    path.write_text('{"dimension": 2, "elements": [[[[1, 0], [0, 0]], [[0, 0], [%s, 0]]],'
                    ' [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]}' % constant)
    payload = _assert_error_contract(capsys, run(["rom", str(path)]))
    assert payload["error"] == "ParseError"
    assert constant.lstrip("-") in payload["detail"]


def test_overflowing_number_is_an_error(tmp_path, capsys):
    # 1e999 is valid JSON but parses to infinity
    path = tmp_path / "inf.json"
    path.write_text('{"dimension": 2, "elements": [[[[1e999, 0], [0, 0]], [[0, 0], [0, 0]]],'
                    ' [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]}')
    payload = _assert_error_contract(capsys, run(["rom", str(path)]))
    assert payload["error"] == "InvalidArgument"


@pytest.mark.parametrize("command", ["rom", "accinfo-ensemble"])
def test_deeply_nested_json_is_a_parse_error(tmp_path, command):
    # deeper than the JSON decoder recurses; run as its own process so that
    # stderr is the one a user would see
    path = tmp_path / "deep.json"
    path.write_text("[" * 1500 + "]" * 1500)
    src = os.path.dirname(os.path.dirname(jsonio.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-c", "from povmrobust.cli import main; main()", command, str(path)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    payload = json.loads(proc.stdout)
    assert set(payload) == {"error", "detail"}
    assert payload["error"] == "ParseError"
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("dim, outcomes", [("0", "2"), ("2", "0")])
def test_random_povm_rejects_empty_sizes(capsys, dim, outcomes):
    code = run(["random-povm", "--dim", dim, "--outcomes", outcomes, "--seed", "1"])
    assert _assert_error_contract(capsys, code)["error"] == "InvalidArgument"


def test_random_povm_rejects_negative_seed(capsys):
    code = run(["random-povm", "--dim", "2", "--outcomes", "2", "--seed", "-1"])
    payload = _assert_error_contract(capsys, code)
    assert payload["error"] == "InvalidArgument"
    assert "seed" in payload["detail"]


def test_error_detail_has_no_numpy_repr(tmp_path, capsys):
    path = tmp_path / "heavy.json"
    path.write_text(jsonio.dumps(jsonio.state_to_json(np.diag([2.0, 0.5]))))
    payload = _assert_error_contract(capsys, run(["roc", "--state", str(path)]))
    assert payload == {"error": "InvalidState", "detail": "state trace is 2.5, not 1"}


def test_string_dimension_is_a_parse_error(z_file, tmp_path, capsys):
    with open(z_file, encoding="utf-8") as handle:
        payload = json.load(handle)
    payload["dimension"] = "2"
    path = tmp_path / "string_dim.json"
    path.write_text(json.dumps(payload))
    payload = _assert_error_contract(capsys, run(["rom", str(path)]))
    assert payload["error"] == "ParseError"
    assert "dimension must be an integer" in payload["detail"]


def _write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("unitaries", [[np.eye(2), np.eye(3)], []])
def test_malformed_group_is_an_error(tmp_path, capsys, unitaries):
    state = _write_json(tmp_path, "plus.json", jsonio.state_to_json(np.full((2, 2), 0.5)))
    group = _write_json(tmp_path, "group.json", {
        "dimension": 2, "unitaries": [jsonio.matrix_to_json(u) for u in unitaries]})
    payload = _assert_error_contract(capsys, run(["roa", "--state", state, "--group", group]))
    assert payload["error"] == "InvalidGroup"


@pytest.mark.parametrize("command", [["accinfo-ensemble"], ["discriminate", "--ensemble"]])
def test_ensemble_of_mixed_dimensions_is_an_error(z_file, tmp_path, capsys, command):
    ensemble = _write_json(tmp_path, "mixed.json", {
        "dimension": 2, "priors": [0.5, 0.5],
        "states": [jsonio.matrix_to_json(np.eye(2) / 2), jsonio.matrix_to_json(np.eye(3) / 3)]})
    argv = command + [ensemble] + (["--povm", z_file] if command[0] == "discriminate" else [])
    payload = _assert_error_contract(capsys, run(argv))
    assert payload["error"] == "InvalidEnsemble"


_PLUS_STATE = jsonio.state_to_json(np.full((2, 2), 0.5))
_HALF = jsonio.matrix_to_json(np.eye(2) / 2)


@pytest.mark.parametrize("command, files, detail", [
    ("rom {0}", [{"dimension": 2, "elements": 5}], "elements must be an array"),
    ("accinfo-ensemble {0}", [{"dimension": 2, "priors": [1.0], "states": 5}],
     "states must be an array"),
    ("accinfo-ensemble {0}", [{"dimension": 2, "priors": "x", "states": [_HALF]}],
     "priors must be an array"),
    ("accinfo-ensemble {0}", [{"dimension": 2, "priors": ["1"], "states": [_HALF]}],
     "priors must hold only numbers"),
    ("roa --state {0} --group {1}", [_PLUS_STATE, {"dimension": 2, "unitaries": 5}],
     "unitaries must be an array"),
    ("roc --state {0}", [{"dimension": 2, "state": [[[0.5, 0], [0.5, 0]], [[0.5, 0], "x"]]}],
     "malformed matrix"),
])
def test_malformed_container_is_a_parse_error(tmp_path, capsys, command, files, detail):
    paths = [_write_json(tmp_path, f"in{i}.json", obj) for i, obj in enumerate(files)]
    payload = _assert_error_contract(capsys, run([arg.format(*paths) for arg in command.split()]))
    assert payload["error"] == "ParseError"
    assert detail in payload["detail"]
