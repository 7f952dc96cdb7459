import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from povmrobust import cli, jsonio
from povmrobust.asymmetry import dephasing_group
from povmrobust.cli import run
from povmrobust.discrimination import random_density_matrix, random_ensemble, validate_ensemble
from povmrobust.measurement import projective_povm, random_povm, trivial_povm


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
    # the criteria that solve dominance programs report their interior-point
    # steps and the milliseconds per step
    for index in (1, 8, 9):
        assert re.search(r"PASS +\d+\.\d{2} s  [1-9]\d* IPM steps; \d+\.\d{2} ms/step; ",
                         criterion_lines[index - 1])
    # and the simulability criterion its NNLS entries and milliseconds per LP
    assert re.search(r"PASS +\d+\.\d{2} s  [1-9]\d* NNLS entries; \d+\.\d{2} ms/LP; \d+/\d+ ",
                     criterion_lines[6])


def _assert_error_contract(capsys, code):
    """The error document of a failed run, which is all it printed."""
    assert code != 0
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
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


def test_random_povm_over_the_memory_budget_is_a_resource_limit(capsys, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("the generator was reached")
    monkeypatch.setattr(np.random, "default_rng", no_draws)
    code = run(["random-povm", "--dim", "200000", "--outcomes", "2", "--seed", "1"])
    assert code == 1
    assert _assert_error_contract(capsys, code)["error"] == "ResourceLimit"


def test_memory_error_is_a_resource_limit_and_nothing_else_is_mapped(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 596. GiB")
    monkeypatch.setattr(cli, "random_povm", exhausted)
    code = run(["random-povm", "--dim", "2", "--outcomes", "2", "--seed", "1"])
    payload = _assert_error_contract(capsys, code)
    assert (code, payload) == (1, {"error": "ResourceLimit",
                                   "detail": "Unable to allocate 596. GiB"})

    def broken(*args):
        raise RuntimeError("not a resource limit")
    monkeypatch.setattr(cli, "random_povm", broken)
    with pytest.raises(RuntimeError):
        run(["random-povm", "--dim", "2", "--outcomes", "2", "--seed", "1"])


def test_selftest_with_a_bad_flag_is_a_usage_error(capsys):
    code = run(["selftest", "--no-such-flag"])
    assert code == 2
    assert _assert_error_contract(capsys, code)["error"] == "UsageError"


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
_EYE = jsonio.matrix_to_json(np.eye(2))
_NOT_UNITARY = jsonio.matrix_to_json(np.diag([1.0, 2.0]))


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
    # read as 1, the true would make this the qubit Z measurement
    ("rom {0}", [{"dimension": 2, "elements": [[[[True, 0], [0, 0]], [[0, 0], [0, 0]]],
                                               [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]}],
     "matrix must hold only numbers"),
    ("accinfo-ensemble {0}", [{"dimension": 3, "priors": [0.5, 0.5], "states": [_HALF, _HALF]}],
     "declared dimension"),
    ("roc --state {0}", [{**_PLUS_STATE, "dimension": 3}], "declared dimension"),
    ("roa --state {0} --group {1}", [_PLUS_STATE, {"dimension": 3, "unitaries": [_EYE]}],
     "declared dimension"),
    # the second unitary is not unitary, yet the missing or non-integer
    # dimension is named first
    ("roa --state {0} --group {1}", [_PLUS_STATE, {"unitaries": [_EYE, _NOT_UNITARY]}],
     "needs the key 'dimension'"),
    ("roa --state {0} --group {1}",
     [_PLUS_STATE, {"dimension": "2", "unitaries": [_EYE, _NOT_UNITARY]}],
     "group dimension must be an integer"),
    ("roa --state {0} --group {1}",
     [_PLUS_STATE, {"dimension": 2.0, "unitaries": [_EYE, _NOT_UNITARY]}],
     "group dimension must be an integer"),
])
def test_malformed_container_is_a_parse_error(tmp_path, capsys, command, files, detail):
    paths = [_write_json(tmp_path, f"in{i}.json", obj) for i, obj in enumerate(files)]
    code = run([arg.format(*paths) for arg in command.split()])
    payload = _assert_error_contract(capsys, code)
    assert code == 2
    assert payload["error"] == "ParseError"
    assert detail in payload["detail"]


_HUGE = jsonio.matrix_to_json(np.diag([1e308, 1e308]))


@pytest.mark.parametrize("command, files, error", [
    ("roa --state {0} --group {1}",
     [_PLUS_STATE, {"dimension": 2, "unitaries": [
         _EYE, jsonio.matrix_to_json(1e308 * np.array([[1.0, 1.0], [1.0, -1.0]]))]}],
     "InvalidGroup"),
    ("rom {0}", [{"dimension": 2, "elements": [jsonio.matrix_to_json(np.diag([1e308, 0.0])),
                                               jsonio.matrix_to_json(np.diag([1e308, 1.0]))]}],
     "CompletenessViolation"),
    ("roc --state {0}", [{"dimension": 2, "state": _HUGE}], "InvalidState"),
    ("accinfo-ensemble {0}", [{"dimension": 2, "priors": [0.5, 0.5], "states": [_HUGE, _HUGE]}],
     "InvalidEnsemble"),
    ("accinfo-ensemble {0}", [{"dimension": 2, "priors": [1e308, 1e308],
                               "states": [_HALF, _HALF]}], "InvalidEnsemble"),
    # 1 + 1e308i at (0, 0): M - M^dag is 2e308i there
    ("rom {0}", [{"dimension": 2, "elements": [[[[1, 1e308], [0, 0]], [[0, 0], [0, 0]]],
                                               [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]}],
     "NotHermitian"),
], ids=["group", "povm", "state", "ensemble", "priors", "hermitian-part"])
def test_sums_that_overflow_are_rejected_without_a_warning(tmp_path, capsys, command, files,
                                                           error):
    # finite entries whose sum, trace or difference is infinite: the gate names inf, and
    # nothing else prints
    paths = [_write_json(tmp_path, f"in{i}.json", obj) for i, obj in enumerate(files)]
    code = run([arg.format(*paths) for arg in command.split()])
    payload = _assert_error_contract(capsys, code)
    assert (code, payload["error"]) == (1, error)
    assert "inf" in payload["detail"]


@pytest.mark.parametrize("eps", [1e-12, 1e-11, 1e-10, 5e-10, 9e-10])
def test_roa_of_a_near_unitary_group_keeps_the_contract(tmp_path, capsys, eps):
    # the group is snapped onto its nearest unitaries when it is read, so
    # every group the unitarity gate accepts gets a certified value
    state = _write_json(tmp_path, "plus.json", _PLUS_STATE)
    group = _write_json(tmp_path, "group.json", {"dimension": 2, "unitaries": [
        jsonio.matrix_to_json(u) for u in (np.eye(2), np.array([[1, eps], [0, -1]]))]})
    assert run(["roa", "--state", state, "--group", group]) == 0
    assert _json_out(capsys)["value"] == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------ the contract on arbitrary files

_SCALARS = (st.none() | st.booleans() | st.integers(-3, 3)
            | st.floats(allow_nan=True, allow_infinity=True, width=32) | st.text(max_size=3))
_JUNK = st.recursive(_SCALARS, lambda inner: (st.lists(inner, max_size=3)
                                               | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3)),
                     max_leaves=8)
_ENTRIES = st.floats(-2.0, 2.0, width=32) | st.sampled_from([0.0, 0.5, 1.0])


@st.composite
def _matrix(draw, d):
    """A ``d``-by-``d`` matrix of ``[re, im]`` pairs, or a ragged or junk one."""
    rows = [[[draw(_ENTRIES), draw(_ENTRIES)] for _ in range(d)] for _ in range(d)]
    return draw(st.sampled_from([rows, rows, rows[:-1], rows[0]]) | _JUNK)


def _near(draw, obj, key):
    """A copy of ``obj`` with one number of ``obj[key]`` nudged by at most 1e-8
    or replaced by a drawn value."""
    items = np.array(obj[key], dtype=object)
    i = draw(st.integers(0, items.size - 1))
    leaf = items.flat[i]
    items.flat[i] = draw(st.floats(-1e-8, 1e-8).map(lambda eps: leaf + eps)
                         | _ENTRIES | _SCALARS)
    return {**obj, key: items.tolist()}


@st.composite
def _povm_doc(draw):
    d, o = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    valid = jsonio.povm_to_json(random_povm(d, o, draw(st.integers(0, 50))))
    return draw(st.sampled_from([valid, _near(draw, valid, "elements")])
                | st.fixed_dictionaries({"dimension": st.integers(0, 3) | _JUNK,
                                         "elements": st.lists(_matrix(d), max_size=4) | _JUNK})
                | _JUNK)


@st.composite
def _ensemble_doc(draw):
    d, size = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    valid = jsonio.ensemble_to_json(random_ensemble(d, size, draw(st.integers(0, 50))))
    return draw(st.sampled_from([valid, _near(draw, valid, "states"),
                                 _near(draw, valid, "priors")])
                | st.fixed_dictionaries({"dimension": st.integers(0, 3) | _JUNK,
                                         "priors": st.lists(_ENTRIES, max_size=4) | _JUNK,
                                         "states": st.lists(_matrix(d), max_size=4) | _JUNK})
                | _JUNK)


@st.composite
def _state_doc(draw):
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 50)))
    valid = jsonio.state_to_json(random_density_matrix(d, rng))
    return draw(st.sampled_from([valid, _near(draw, valid, "state")])
                | st.fixed_dictionaries({"dimension": st.integers(0, 3) | _JUNK,
                                         "state": _matrix(d)})
                | _JUNK)


@st.composite
def _group_doc(draw):
    d = draw(st.integers(1, 3))
    valid = jsonio.group_to_json(dephasing_group(d))
    return draw(st.sampled_from([valid, _near(draw, valid, "unitaries")])
                | st.fixed_dictionaries({"dimension": st.integers(0, 3) | _JUNK,
                                         "unitaries": st.lists(_matrix(d), max_size=3) | _JUNK})
                | _JUNK)


# every file-reading command, with the kind of each of its files in the order they are read
_COMMANDS = {
    "rom": ("rom {0}", ["povm"]),
    "rom-report": ("rom-report {0}", ["povm"]),
    "discriminate": ("discriminate --ensemble {0} --povm {1}", ["ensemble", "povm"]),
    "optimal-ensemble": ("optimal-ensemble {0}", ["povm"]),
    "accinfo-measurement": ("accinfo-measurement {0}", ["povm"]),
    "accinfo-ensemble": ("accinfo-ensemble {0}", ["ensemble"]),
    "simulable": ("simulable --from {0} --to {1}", ["povm", "povm"]),
    "roc": ("roc --state {0}", ["state"]),
    "roa": ("roa --state {0} --group {1}", ["state", "group"]),
}
_DOCS = {"povm": _povm_doc(), "ensemble": _ensemble_doc(), "state": _state_doc(),
         "group": _group_doc()}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_any_input_keeps_the_contract(tmp_path, capsys, command, data):
    template, kinds = _COMMANDS[command]
    paths = [_write_json(tmp_path, f"in{i}.json", data.draw(_DOCS[kind], label=f"file {i}"))
             for i, kind in enumerate(kinds)]
    code = run([arg.format(*paths) for arg in template.split()])
    payload = _json_out(capsys)
    if code:
        assert set(payload) == {"error", "detail"}
    else:
        assert "error" not in payload


_VALID = {"povm": jsonio.povm_to_json(projective_povm(np.eye(2))),
          "ensemble": jsonio.ensemble_to_json(validate_ensemble([np.eye(2) / 2] * 2, [0.5, 0.5])),
          "state": _PLUS_STATE,
          "group": jsonio.group_to_json(dephasing_group(2))}
# a valid document that is not of the kind the slot reads
_OTHER_KIND = {"povm": "state", "ensemble": "povm", "state": "povm", "group": "state"}


@pytest.mark.parametrize("fault", ["missing", "other-kind"])
@pytest.mark.parametrize("command, slot", [(c, i) for c in _COMMANDS
                                           for i in range(len(_COMMANDS[c][1]))])
def test_each_file_slot_reads_its_own_kind_and_names_its_path(tmp_path, capsys, command, slot,
                                                               fault):
    template, kinds = _COMMANDS[command]
    paths = [_write_json(tmp_path, f"in{i}.json", _VALID[kind]) for i, kind in enumerate(kinds)]
    if fault == "missing":
        paths[slot] = str(tmp_path / "missing.json")
    else:
        paths[slot] = _write_json(tmp_path, "other.json", _VALID[_OTHER_KIND[kinds[slot]]])
    code = run([arg.format(*paths) for arg in template.split()])
    payload = _assert_error_contract(capsys, code)
    assert (code, payload["error"]) == (2, "ParseError")
    assert payload["detail"].startswith(paths[slot] + ": ")
