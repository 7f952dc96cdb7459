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


def _cmd_rom(args):
    return {"rom": rom(_load(args.povm, jsonio.povm_from_json))}


def _cmd_rom_report(args):
    report = rom_report(_load(args.povm, jsonio.povm_from_json))
    return jsonio.robustness_report_to_json(report)


def _cmd_discriminate(args):
    ensemble = _load(args.ensemble, jsonio.ensemble_from_json)
    povm = _load(args.povm, jsonio.povm_from_json)
    return {
        "p_guess_classical": p_guess_classical(ensemble),
        "p_guess_quantum": p_guess_with_measurement(ensemble, povm),
        "advantage": advantage(ensemble, povm),
    }


def _cmd_optimal_ensemble(args):
    return jsonio.ensemble_to_json(optimal_ensemble(_load(args.povm, jsonio.povm_from_json)))


def _cmd_accinfo_measurement(args):
    bits, witness = acc_min_info_measurement(_load(args.povm, jsonio.povm_from_json))
    return {"bits": bits, "witness": jsonio.ensemble_to_json(witness)}


def _cmd_accinfo_ensemble(args):
    return {"bits": acc_min_info_ensemble(_load(args.ensemble, jsonio.ensemble_from_json))}


def _cmd_simulable(args):
    result = is_simulable(_load(args.source, jsonio.povm_from_json),
                          _load(args.target, jsonio.povm_from_json))
    return jsonio.simulability_result_to_json(result)


def _cmd_roa(args):
    report = roa(_load(args.state, jsonio.state_from_json),
                 _load(args.group, jsonio.group_from_json))
    return jsonio.asymmetry_report_to_json(report)


def _cmd_roc(args):
    return jsonio.asymmetry_report_to_json(roc(_load(args.state, jsonio.state_from_json)))


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

    sub = commands.add_parser("rom", help="robustness of a measurement")
    sub.add_argument("povm")
    sub.set_defaults(handler=_cmd_rom)

    sub = commands.add_parser("rom-report", help="robustness with certificates")
    sub.add_argument("povm")
    sub.set_defaults(handler=_cmd_rom_report)

    sub = commands.add_parser("discriminate", help="guessing probabilities of a game")
    sub.add_argument("--ensemble", required=True)
    sub.add_argument("--povm", required=True)
    sub.set_defaults(handler=_cmd_discriminate)

    sub = commands.add_parser("optimal-ensemble",
                              help="the game a measurement is best at")
    sub.add_argument("povm")
    sub.set_defaults(handler=_cmd_optimal_ensemble)

    sub = commands.add_parser("accinfo-measurement",
                              help="accessible min-information of a measurement")
    sub.add_argument("povm")
    sub.set_defaults(handler=_cmd_accinfo_measurement)

    sub = commands.add_parser("accinfo-ensemble",
                              help="accessible min-information of an ensemble")
    sub.add_argument("ensemble")
    sub.set_defaults(handler=_cmd_accinfo_ensemble)

    sub = commands.add_parser("simulable",
                              help="decide post-processing simulability")
    sub.add_argument("--from", dest="source", required=True)
    sub.add_argument("--to", dest="target", required=True)
    sub.set_defaults(handler=_cmd_simulable)

    sub = commands.add_parser("roa", help="robustness of asymmetry")
    sub.add_argument("--state", required=True)
    sub.add_argument("--group", required=True)
    sub.set_defaults(handler=_cmd_roa)

    sub = commands.add_parser("roc", help="robustness of coherence")
    sub.add_argument("--state", required=True)
    sub.set_defaults(handler=_cmd_roc)

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


def _emit_error(exc: PovmRobustError) -> None:
    payload = {"error": type(exc).__name__, "detail": str(exc)}
    print(jsonio.dumps(payload))


def run(argv=None) -> int:
    """Dispatch one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        _emit_error(exc)
        return 2
    try:
        outcome = args.handler(args)
    except ParseError as exc:
        _emit_error(exc)
        return 2
    except PovmRobustError as exc:
        _emit_error(exc)
        return 1
    except MemoryError as exc:
        _emit_error(ResourceLimit(str(exc) or "out of memory"))
        return 1
    if isinstance(outcome, int):
        return outcome
    print(jsonio.dumps(outcome))
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
