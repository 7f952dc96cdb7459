"""Command-line interface over JSON files.

Every subcommand reads JSON in the schemas of :mod:`povmrobust.jsonio`,
validates before computing, and writes one JSON document to standard
output.  Failures exit nonzero with a machine-readable error object.
Output is deterministic: sorted keys, 15 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .asymmetry import roa, roc
from .discrimination import (
    advantage,
    optimal_ensemble,
    p_guess_classical,
    p_guess_with_measurement,
)
from .errors import ParseError, PovmRobustError, ResourceLimit, UsageError
from .info import acc_min_info_ensemble, acc_min_info_measurement
from .measurement import random_povm
from .rom import rom, rom_report
from .simulability import is_simulable


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def _load(path: str, decoder):
    """Read one JSON file and decode it, naming the file in any ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle, parse_constant=_reject_constant)
    except OSError as exc:
        raise ParseError(path, str(exc)) from exc
    except (ValueError, RecursionError) as exc:  # malformed, NaN/Infinity, or too deep
        raise ParseError(path, f"invalid JSON: {exc}") from exc
    try:
        return decoder(obj)
    except ParseError as exc:
        raise ParseError(path, exc.detail) from exc


def _discriminate(ensemble, povm):
    return {
        "p_guess_classical": p_guess_classical(ensemble),
        "p_guess_quantum": p_guess_with_measurement(ensemble, povm),
        "advantage": advantage(ensemble, povm),
    }


def _accinfo_measurement(povm):
    bits, witness = acc_min_info_measurement(povm)
    return {"bits": bits, "witness": jsonio.ensemble_to_json(witness)}


_POVM, _ENSEMBLE, _STATE = jsonio.povm_from_json, jsonio.ensemble_from_json, jsonio.state_from_json

# Each file-reading command: its help, its file arguments in the order they
# are read, each with its decoder (a flag is a required option, a bare name
# positional), and the document made from the decoded values.
_FILE_COMMANDS = {
    "rom": ("robustness of a measurement", [("povm", _POVM)], lambda m: {"rom": rom(m)}),
    "rom-report": ("robustness with certificates", [("povm", _POVM)],
                   lambda m: jsonio.robustness_report_to_json(rom_report(m))),
    "discriminate": ("guessing probabilities of a game",
                     [("--ensemble", _ENSEMBLE), ("--povm", _POVM)], _discriminate),
    "optimal-ensemble": ("the game a measurement is best at", [("povm", _POVM)],
                         lambda m: jsonio.ensemble_to_json(optimal_ensemble(m))),
    "accinfo-measurement": ("accessible min-information of a measurement", [("povm", _POVM)],
                            _accinfo_measurement),
    "accinfo-ensemble": ("accessible min-information of an ensemble",
                         [("ensemble", _ENSEMBLE)], lambda e: {"bits": acc_min_info_ensemble(e)}),
    "simulable": ("decide post-processing simulability", [("--from", _POVM), ("--to", _POVM)],
                  lambda m, target: jsonio.simulability_result_to_json(is_simulable(m, target))),
    "roa": ("robustness of asymmetry", [("--state", _STATE), ("--group", jsonio.group_from_json)],
            lambda rho, g: jsonio.asymmetry_report_to_json(roa(rho, g))),
    "roc": ("robustness of coherence", [("--state", _STATE)],
            lambda rho: jsonio.asymmetry_report_to_json(roc(rho))),
}


def _run_file_command(args):
    _, files, document = _FILE_COMMANDS[args.command]
    return document(*(_load(getattr(args, flag.lstrip("-")), decoder) for flag, decoder in files))


def _cmd_random_povm(args):
    return jsonio.povm_to_json(random_povm(args.dim, args.outcomes, args.seed))


def _cmd_selftest(args):
    from . import selftest  # only this command needs it; every other command skips compiling it

    results = selftest.run_all(quick=args.quick)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        solves = "" if r.steps is None else (
            f"{r.steps} IPM steps; {1e3 * r.seconds / max(r.steps, 1):.2f} ms/step; ")
        if r.entries is not None:
            solves = f"{r.entries} NNLS entries; {r.lp_ms:.2f} ms/LP; "
        print(f"{r.index:2d}  {r.name:<{width}}  {status}  {r.seconds:6.2f} s  {solves}{r.detail}")
    n_passed = sum(r.passed for r in results)
    print(f"selftest: {n_passed}/{len(results)} criteria passed")
    return 0 if n_passed == len(results) else 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="povmrobust", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, files, _) in _FILE_COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        for flag, _ in files:
            sub.add_argument(flag, **({"required": True} if flag.startswith("--") else {}))
        sub.set_defaults(handler=_run_file_command)

    sub = commands.add_parser("random-povm", help="seeded random measurement")
    sub.add_argument("--dim", type=int, required=True)
    sub.add_argument("--outcomes", type=int, required=True)
    sub.add_argument("--seed", type=int, required=True)
    sub.set_defaults(handler=_cmd_random_povm)

    sub = commands.add_parser("selftest", help="run the acceptance criteria")
    sub.add_argument("--quick", action="store_true",
                     help="smaller sample counts for a fast smoke run")
    sub.set_defaults(handler=_cmd_selftest)

    return parser


def run(argv=None) -> int:
    """Dispatch one command; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        outcome = args.handler(args)
    except (PovmRobustError, MemoryError) as exc:
        if isinstance(exc, MemoryError):
            exc = ResourceLimit(str(exc) or "out of memory")
        print(jsonio.dumps({"error": type(exc).__name__, "detail": str(exc)}))
        return 2 if isinstance(exc, (UsageError, ParseError)) else 1
    if isinstance(outcome, int):
        return outcome
    print(jsonio.dumps(outcome))
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
