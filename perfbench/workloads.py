"""The four workloads: their case lists and the checks on every output.

A workload is a list of ``Op``s built from the seed.  ``Op.run`` calls the
program and returns its raw outputs; only it is timed.  ``Op.check``
compares those outputs with references from ``oracles`` and records each
absolute error.  An exception from ``run``, or ``OpFailed`` from
``check``, counts the operation as failed; ``CheckFailed`` means a wrong
value and fails the whole run.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import oracles
from oracles import Worst

STATE_TOL = 1e-9


class OpFailed(Exception):
    """The program raised, printed a traceback, or refused a valid input."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object, Worst], None]


def _check_ensemble(w: Worst, priors, states) -> None:
    w.require("ensemble priors form a distribution",
              priors.min() >= -STATE_TOL and abs(priors.sum() - 1.0) <= STATE_TOL)
    w.require("ensemble states are PSD", oracles.min_eig(states) >= -STATE_TOL)
    traces = np.einsum("xii->x", states).real
    w.require("ensemble states have unit trace", np.abs(traces - 1.0).max() <= STATE_TOL)


# ---------------------------------------------------------------- measure

MEASURE_GRID = [(2, 2), (2, 8), (3, 3), (3, 6), (4, 4), (4, 8), (6, 5), (6, 7),
                (8, 3), (8, 6), (12, 4), (16, 3), (24, 2)]
# The cost of one case varies by 6-10 % from draw to draw (the Jacobi
# sweeps follow the spectrum); two draws of each keep the median case,
# and so op_p50_ms, steadier from seed to seed.
MEASURE_DRAWS = 2


def measure(seed: int, pv) -> list[Op]:
    """Closed-form paths, one op per POVM.  The op makes seven calls in
    turn: validation, robustness, the report with its certificates, the
    optimal game with its advantage, min-information, and the JSON round
    trips of the POVM and the report.  Each output has its own check."""
    rng = np.random.default_rng(seed)
    return [_measure_op(pv, f"d={d} o={o}", inputs.wishart_povm(rng, d, o))
            for _ in range(MEASURE_DRAWS) for d, o in MEASURE_GRID]


def _measure_op(pv, tag, elements) -> Op:
    d, o = elements.shape[1], elements.shape[0]
    ref = oracles.rom(elements)
    jsonio = pv.jsonio
    state = {}

    def validate():
        state["povm"] = pv.validate_povm(list(elements))
        return state["povm"]

    def check_validate(povm, w):
        w.close("validate_povm keeps the elements", np.abs(povm.elements - elements).max(),
                0.0, 0.0)

    def check_rom(value, w):
        w.close("rom vs eigvalsh", value, ref, 1e-10)
        w.at_most("rom >= 0", -value, 0.0, 0.0)
        w.at_most("rom <= min(d, o) - 1", value, min(d, o) - 1, 1e-12)

    def report():
        state["report"] = pv.rom_report(state["povm"])
        return state["report"]

    def check_report(report, w):
        w.close("report value vs eigvalsh", report.value, ref, 1e-10)
        duals = np.asarray(report.dual_states)
        _check_ensemble(w, np.full(o, 1.0 / o), duals)
        dual_value = np.einsum("aij,aji->", duals, elements).real - 1.0
        w.close("dual value = primal value", dual_value, report.value, 1e-8)
        mixture = report.pseudo_mixture
        w.require("nontrivial POVM has a pseudo-mixture", mixture is not None)
        noise = np.asarray(mixture.noise.elements)
        w.at_most("noise is PSD", -oracles.min_eig(noise), 0.0, 1e-9)
        w.close("noise is complete", oracles.completeness_error(noise), 0.0, 1e-8)
        mixed = (elements + mixture.r * noise) / (1.0 + mixture.r)
        w.close("(M + rN)/(1 + r) = q I",
                np.abs(mixed - np.asarray(mixture.q)[:, None, None] * np.eye(d)).max(),
                0.0, 1e-8)

    def game():
        ensemble = pv.optimal_ensemble(state["povm"])
        return ensemble, pv.advantage(ensemble, state["povm"])

    def check_game(out, w):
        ensemble, adv = out
        w.close("advantage(optimal_ensemble) = 1 + R", adv, 1.0 + ref, 1e-7)
        priors = np.asarray(ensemble.priors)
        recomputed = oracles.p_guess(priors, np.asarray(ensemble.states), elements) / priors.max()
        w.close("optimal game advantage recomputed", recomputed, 1.0 + ref, 1e-7)

    def check_info(info, w):
        w.close("bits = log2(1 + R)", info.bits, math.log2(1.0 + ref), 1e-9)

    def povm_round_trip():
        text = jsonio.dumps(jsonio.povm_to_json(state["povm"]))
        return text, jsonio.dumps(jsonio.povm_to_json(jsonio.povm_from_json(json.loads(text))))

    def report_round_trip():
        text = jsonio.dumps(jsonio.robustness_report_to_json(state["report"]))
        return text, jsonio.dumps(json.loads(text))

    def same_bytes(name):
        return lambda texts, w: w.require(name, texts[0] == texts[1])

    steps = [
        (validate, check_validate),
        (lambda: pv.rom(state["povm"]), check_rom),
        (report, check_report),
        (game, check_game),
        (lambda: pv.acc_min_info_measurement(state["povm"]), check_info),
        (povm_round_trip, same_bytes("POVM JSON decode + encode reproduces the bytes")),
        (report_round_trip, same_bytes("report JSON decode + encode reproduces the bytes")),
    ]

    def run():
        return [call() for call, _ in steps]

    def check(outputs, w):
        for out, (_, check_one) in zip(outputs, steps):
            check_one(out, w)
    return Op(f"measure {tag}", run, check)


# ---------------------------------------------------------------- simulate

# (d, source outcomes, target outcomes) of the post-processed pairs, and
# (d, outcomes) of the depolarized pairs.
SIMULABLE_PAIRS = [(2, 2, 3), (3, 3, 2), (4, 4, 4), (5, 5, 3), (6, 3, 6), (7, 4, 5),
                   (8, 3, 3), (8, 5, 2)]
DEPOLARIZED_PAIRS = [(3, 3), (4, 5), (5, 6), (6, 4), (7, 3), (8, 2), (8, 4)]
# LP cost varies several-fold between draws of one pair type; four draws
# of each keep the sum over a round steady from seed to seed.
SIMULATE_DRAWS = 4


def simulate(seed: int, pv) -> list[Op]:
    """``is_simulable`` on pairs whose verdict theory fixes: a random
    post-processing of the source is Simulable; a depolarized copy of the
    target has robustness ``(1 - eta) R < R`` and, by monotonicity, cannot
    simulate it; nor can qubit Z simulate X.

    The Simulable pairs come from a fixed generator seed: for about one
    random pair in two thousand the LP declares a feasible program
    infeasible, and a failure that only some seeds meet would make the
    failed share differ between runs."""
    rng = np.random.default_rng(seed)
    fixed = np.random.default_rng(5000)
    ops = []
    for _ in range(SIMULATE_DRAWS):
        for d, o, o_target in SIMULABLE_PAIRS:
            source = inputs.wishart_povm(fixed, d, o)
            target = inputs.post_process(source, inputs.stochastic_map(fixed, o, o_target))
            ops.append(_simulate_op(pv, f"simulable d={d} o={o}->{o_target}", source, target,
                                    True))
        z, x = inputs.qubit_z_x(rng)
        ops.append(_simulate_op(pv, "qubit Z vs X", z, x, False))
        for d, o in DEPOLARIZED_PAIRS:
            target = inputs.wishart_povm(rng, d, o)
            source = inputs.depolarize(target, rng.uniform(0.2, 0.5))
            ops.append(_simulate_op(pv, f"depolarized d={d} o={o}", source, target, False))
    return ops


def _simulate_op(pv, label, source, target, simulable: bool) -> Op:
    def run():
        return pv.is_simulable(pv.Povm(source), pv.Povm(target))

    def check(result, w: Worst):
        w.require(f"{label}: verdict {result.verdict}", result.simulable == simulable)
        if simulable:
            p = np.asarray(result.map.probabilities)
            w.at_most("map is nonnegative", -p.min(), 0.0, 0.0)
            w.close("map rows sum to 1", np.abs(p.sum(axis=1) - 1.0).max(), 0.0, 1e-12)
            rebuilt = inputs.post_process(source, p)
            w.close("sum_a p(b|a) M_a = target", np.abs(rebuilt - target).max(), 0.0, 1e-7)
        else:
            priors = np.asarray(result.witness.priors)
            states = np.asarray(result.witness.states)
            _check_ensemble(w, priors, states)
            gap = (oracles.p_guess(priors, states, target)
                   - oracles.p_guess(priors, states, source))
            w.require("witness gap is positive", gap > 0.0)
            w.close("witness gap = reported gap", gap, result.gap, 1e-12)
    return Op(label, run, check)


# ---------------------------------------------------------------- sdp

def sdp(seed: int, pv) -> list[Op]:
    """The paths behind ``solvers.solve_dominating``.

    Only the qubit cases come from the seed.  From d=3 on, the cost of the
    cutting plane varies 5-10x from one input to the next (0.1-0.8 s for a
    d=3 ``roc``), which would swamp every difference between two versions
    of the program, so those inputs are drawn from fixed generator seeds.
    The two d=8 ensembles fail every time today, within a quarter second,
    and stay in the workload counted as failed."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(3):
        ops.append(_roc_op(pv, "roc mixed d=2", inputs.mixed_state(rng, 2)))
        psi = inputs.pure_vector(rng, 2)
        ops.append(_roc_op(pv, "roc pure d=2", np.outer(psi, psi.conj()), psi))
    ops.extend(_ensemble_ops(pv, "d=2", inputs.priors(rng, 2),
                             [inputs.mixed_state(rng, 2) for _ in range(2)]))

    for generator_seed in (4400, 4401):
        ops.append(_roc_op(pv, "roc mixed d=3 fixed",
                           inputs.mixed_state(np.random.default_rng(generator_seed), 3)))
    psi = np.ones(3) / math.sqrt(3.0)
    ops.append(_roc_op(pv, "roc maximally coherent d=3", np.outer(psi, psi.conj()), psi))
    ops.append(_roc_op(pv, "roc mixed d=4 fixed",
                       inputs.mixed_state(np.random.default_rng(4000), 4)))
    ops.append(_roa_op(pv, inputs.mixed_state(np.random.default_rng(4200), 3),
                       inputs.cyclic_shift_group(3)))
    fixed = np.random.default_rng(4300)
    ops.extend(_ensemble_ops(pv, "d=3 fixed", inputs.priors(fixed, 2),
                             [inputs.mixed_state(fixed, 3) for _ in range(2)]))
    fixed = np.random.default_rng(4100)
    ops.append(_ensemble_ops(pv, "d=4 fixed", inputs.priors(fixed, 2),
                             [inputs.mixed_state(fixed, 4) for _ in range(2)])[0])
    for generator_seed in (1, 11):
        failing = np.random.default_rng(generator_seed)
        states = [inputs.mixed_state(failing, 8) for _ in range(2)]
        ops.append(_ensemble_ops(pv, f"d=8 rng({generator_seed})", np.array([0.4, 0.6]),
                                 states)[0])
    return ops


def _check_asymmetry(w: Worst, report, rho, group) -> None:
    y = np.asarray(report.dominating)
    w.close("dominating operator is symmetric",
            np.abs(group @ y @ np.conj(np.swapaxes(group, 1, 2)) - y).max(), 0.0, 1e-9)
    w.at_most("dominating operator dominates rho", -oracles.min_eig(y - rho), 0.0, 1e-7)
    w.close("tr Y - 1 = value", np.trace(y).real - 1.0, report.value, 1e-9)
    w.close("game advantage = 1 + value", report.game_advantage, 1.0 + report.value, 1e-5)
    w.close("min-information = log2(1 + value)", report.min_info,
            math.log2(1.0 + report.value), 1e-5)


def _roc_op(pv, label, rho, psi=None) -> Op:
    d = rho.shape[0]
    dephasing = np.stack([np.diag(np.exp(2j * np.pi * k * np.arange(d) / d)) for k in range(d)])

    def check(report, w: Worst):
        _check_asymmetry(w, report, rho, dephasing)
        y = np.asarray(report.dominating)
        w.close("dominating operator is diagonal", np.abs(y - np.diag(np.diag(y))).max(),
                0.0, 1e-12)
        if psi is not None:
            w.close("pure roc = (sum |psi_i|)^2 - 1", report.value, oracles.roc_pure(psi), 1e-6)
        elif d == 2:
            w.close("qubit roc = 2 |rho_01|", report.value, oracles.roc_qubit(rho), 1e-6)
        else:
            low, high = oracles.roc_interval(rho)
            w.at_most("roc >= C_l1 / (d - 1)", low, report.value, 1e-6)
            w.at_most("roc <= C_l1", report.value, high, 1e-6)
    return Op(label, lambda: pv.roc(rho), check)


def _roa_op(pv, rho, unitaries) -> Op:
    def run():
        return pv.roa(rho, pv.validate_group(list(unitaries)))
    return Op("roa cyclic d=3 fixed", run,
              lambda report, w: _check_asymmetry(w, report, rho, unitaries))


def _ensemble_ops(pv, tag, p, states) -> list[Op]:
    ensemble = pv.Ensemble(np.stack(states), p)
    helstrom = oracles.helstrom(p[0], states[0], p[1], states[1])

    def check_guess(value, w: Worst):
        w.close("guessing value = Helstrom", value, helstrom, 1e-6)

    def check_info(bits, w: Worst):
        w.close("accessible min-information = log2(Helstrom / max p)", bits,
                math.log2(helstrom / p.max()), 1e-5)
    return [Op(f"guess {tag}", lambda: pv.min_error_guess_value(ensemble), check_guess),
            Op(f"accinfo {tag}", lambda: pv.acc_min_info_ensemble(ensemble), check_info)]


# ---------------------------------------------------------------- cli

ENTRY = "from povmrobust.cli import main; main()"
# The first eight cli ops (seven commands and the missing-file error path)
# succeed today and together reach every traced layer.
CLI_CENSUS = 8


def _matrix_json(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


class CliRunner:
    """Runs one command line, as a child process or through ``cli.run``."""

    def __init__(self, root: Path, pv, in_process: bool):
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.pv = pv
        self.in_process = in_process

    def __call__(self, argv):
        if self.in_process:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = self.pv.cli.run(list(argv))
            return code, buffer.getvalue(), ""
        done = subprocess.run([sys.executable, "-c", ENTRY, *argv], env=self.env,
                              capture_output=True, text=True, timeout=120)
        return done.returncode, done.stdout, done.stderr


def cli(seed: int, pv, root: Path, workdir: Path, in_process: bool) -> list[Op]:
    """One ``povmrobust`` invocation per op on small qubit files, plus the
    error paths.  The three malformed inputs and the roc state do not
    depend on the seed."""
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    call = CliRunner(root, pv, in_process)
    o = int(rng.integers(2, 5))
    povm = inputs.wishart_povm(rng, 2, o)
    povm_file = _write(workdir / "povm.json",
                       {"dimension": 2, "elements": [_matrix_json(m) for m in povm]})
    p = inputs.priors(rng, 3)
    states = np.stack([inputs.mixed_state(rng, 2) for _ in range(3)])
    ensemble_file = _write(workdir / "ensemble.json",
                           {"dimension": 2, "priors": p.tolist(),
                            "states": [_matrix_json(s) for s in states]})
    target = inputs.wishart_povm(rng, 2, 3)
    source = inputs.depolarize(target, rng.uniform(0.2, 0.5))
    source_file = _write(workdir / "source.json",
                         {"dimension": 2, "elements": [_matrix_json(m) for m in source]})
    target_file = _write(workdir / "target.json",
                         {"dimension": 2, "elements": [_matrix_json(m) for m in target]})
    # The roc error varies 1e-11..1e-7 from state to state and would set
    # accuracy_digits on its own, so the state does not follow the seed.
    rho = inputs.mixed_state(np.random.default_rng(2000), 2)
    state_file = _write(workdir / "state.json", {"dimension": 2, "state": _matrix_json(rho)})
    nan_file = workdir / "nan.json"
    nan_file.write_text('{"dimension": 2, "elements": [[[[1, 0], [0, 0]], [[0, 0], [NaN, 0]]],'
                        ' [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]}', encoding="utf-8")
    missing_file = str(workdir / "missing.json")
    r_seed, r_outcomes = int(rng.integers(0, 2**31)), int(rng.integers(2, 6))
    rom_ref = oracles.rom(povm)

    def answer(out):
        code, stdout, stderr = out
        if code != 0 or "Traceback" in stderr:
            raise OpFailed(f"exit {code}: {stdout.strip()[:200]} {stderr.strip()[-200:]}")
        return json.loads(stdout)

    def check_random_povm(out, w):
        value = answer(out)
        elements = np.array([[[complex(*z) for z in row] for row in m] for m in value["elements"]])
        w.require("random-povm shape", elements.shape == (r_outcomes, 2, 2))
        w.at_most("random-povm elements are PSD", -oracles.min_eig(elements), 0.0, 1e-9)
        w.close("random-povm is complete", oracles.completeness_error(elements), 0.0, 1e-8)
        own = pv.jsonio.povm_to_json(pv.random_povm(2, r_outcomes, r_seed))
        w.require("random-povm matches the in-process value",
                  out[1].strip() == pv.jsonio.dumps(own))

    def check_rom(out, w):
        w.close("cli rom vs eigvalsh", answer(out)["rom"], rom_ref, 1e-10)

    def check_rom_report(out, w):
        value = answer(out)
        w.close("cli rom-report vs eigvalsh", value["rom"], rom_ref, 1e-10)
        w.close("cli primal weights vs eigvalsh",
                np.abs(np.array(value["primal_weights"])
                       - np.linalg.eigvalsh(povm)[:, -1]).max(), 0.0, 1e-10)

    def check_discriminate(out, w):
        value = answer(out)
        quantum = oracles.p_guess(p, states, povm)
        w.close("cli classical guess = max prior", value["p_guess_classical"], p.max(), 1e-12)
        w.close("cli quantum guess recomputed", value["p_guess_quantum"], quantum, 1e-10)
        w.close("cli advantage recomputed", value["advantage"], quantum / p.max(), 1e-10)

    def check_accinfo(out, w):
        w.close("cli bits = log2(1 + R)", answer(out)["bits"], math.log2(1.0 + rom_ref), 1e-10)

    def check_simulable(out, w):
        value = answer(out)
        w.require("cli depolarized pair is NotSimulable", value["verdict"] == "NotSimulable")
        witness = value["witness"]
        wp = np.array(witness["priors"])
        ws = np.array([[[complex(*z) for z in row] for row in s] for s in witness["states"]])
        _check_ensemble(w, wp, ws)
        gap = oracles.p_guess(wp, ws, target) - oracles.p_guess(wp, ws, source)
        w.require("cli witness gap is positive", gap > 0.0)
        w.close("cli witness gap = reported gap", gap, value["gap"], 1e-9)

    def check_roc(out, w):
        w.close("cli qubit roc = 2 |rho_01|", answer(out)["value"], oracles.roc_qubit(rho), 1e-6)

    def check_error(out, w):
        code, stdout, stderr = out
        if "Traceback" in stderr:
            raise OpFailed("traceback: " + stderr.strip().splitlines()[-1])
        w.require("error path exits nonzero", code != 0)
        payload = json.loads(stdout)
        w.require("error path prints exactly error and detail",
                  isinstance(payload, dict) and set(payload) == {"error", "detail"})

    commands = [
        ("random-povm", ["random-povm", "--dim", "2", "--outcomes", str(r_outcomes),
                         "--seed", str(r_seed)], check_random_povm),
        ("rom", ["rom", povm_file], check_rom),
        ("rom-report", ["rom-report", povm_file], check_rom_report),
        ("discriminate", ["discriminate", "--ensemble", ensemble_file, "--povm", povm_file],
         check_discriminate),
        ("accinfo-measurement", ["accinfo-measurement", povm_file], check_accinfo),
        ("simulable", ["simulable", "--from", source_file, "--to", target_file],
         check_simulable),
        ("roc", ["roc", "--state", state_file], check_roc),
        ("missing file", ["rom", missing_file], check_error),
        ("NaN in a POVM file", ["rom", str(nan_file)], check_error),
        ("random-povm --dim 0", ["random-povm", "--dim", "0", "--outcomes", "2",
                                 "--seed", "1"], check_error),
        ("random-povm --seed -1", ["random-povm", "--dim", "2", "--outcomes", "2",
                                   "--seed", "-1"], check_error),
    ]
    return [Op(label, functools.partial(call, argv), check) for label, argv, check in commands]
