"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
``povmrobust`` module that binds it (``from .numerics import
eig_hermitian`` makes several such bindings), so calls between modules
are seen as well as calls from the benchmark.  ``Tracer.remove`` puts the
originals back.  Spans are kept in memory as ``(layer, start, end,
parent, op)`` tuples and written out by ``dump``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, function, layer).  A layer may group several functions: the
# JSON encoders and decoders are reported as one layer each.
TRACED = [
    ("numerics", "eig_hermitian", "numerics.eig_hermitian"),
    ("numerics", "hermitian_basis", "numerics.hermitian_basis"),
    ("measurement", "validate_povm", "measurement.validate_povm"),
    ("rom", "rom", "rom.rom"),
    ("rom", "rom_report", "rom.rom_report"),
    ("discrimination", "optimal_ensemble", "discrimination.optimal_ensemble"),
    ("discrimination", "advantage", "discrimination.advantage"),
    ("discrimination", "check_density_matrix", "discrimination.check_density_matrix"),
    ("info", "acc_min_info_measurement", "info.acc_min_info_measurement"),
    ("info", "acc_min_info_ensemble", "info.acc_min_info_ensemble"),
    ("simulability", "is_simulable", "simulability.is_simulable"),
    ("simulability", "witness_from_certificate", "simulability.witness_from_certificate"),
    ("solvers", "solve_lp", "solvers.solve_lp"),
    ("solvers", "solve_dominating", "solvers.solve_dominating"),
    ("solvers", "min_error_guess_value", "solvers.min_error_guess_value"),
    ("asymmetry", "roa", "asymmetry.roa"),
    ("asymmetry", "symmetric_subspace_basis", "asymmetry.symmetric_subspace_basis"),
    ("asymmetry", "orbit_ensemble", "asymmetry.orbit_ensemble"),
    ("jsonio", "dumps", "jsonio.encode"),
    ("jsonio", "povm_to_json", "jsonio.encode"),
    ("jsonio", "ensemble_to_json", "jsonio.encode"),
    ("jsonio", "state_to_json", "jsonio.encode"),
    ("jsonio", "robustness_report_to_json", "jsonio.encode"),
    ("jsonio", "simulability_result_to_json", "jsonio.encode"),
    ("jsonio", "asymmetry_report_to_json", "jsonio.encode"),
    ("jsonio", "povm_from_json", "jsonio.decode"),
    ("jsonio", "ensemble_from_json", "jsonio.decode"),
    ("jsonio", "state_from_json", "jsonio.decode"),
    ("jsonio", "group_from_json", "jsonio.decode"),
    ("cli", "run", "cli.run"),
]

LAYERS = list(dict.fromkeys(layer for _, _, layer in TRACED))
PACKAGE = "povmrobust"


def _counts(layer, args, result):
    """Machine-independent counters read off a call's arguments or result,
    by metric name."""
    if layer == "numerics.eig_hermitian":
        return {"numerics.eig_hermitian.work_d3": len(args[0]) ** 3}
    if layer == "solvers.solve_lp":
        return {"solvers.solve_lp.pivots": result.iterations,
                "solvers.solve_lp.failures": int(result.status == "iteration_limit")}
    if layer == "solvers.solve_dominating":
        return {"solvers.solve_dominating.cuts": result.cuts,
                "solvers.solve_dominating.failures": int(result.status != "optimal")}
    if layer == "jsonio.encode" and isinstance(result, str):
        return {"jsonio.bytes": len(result.encode())}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, fn, layer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counters[layer + ".failures"] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (layer, start, end, parent, self.op)
                self.counters[layer + ".calls"] += 1
            for name, value in (_counts(layer, args, result) or {}).items():
                self.counters[name] += value
            return result
        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module_name, function, layer in TRACED:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], function)
            wrapper = self._wrap(original, layer)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Per layer, over the spans from index ``first`` on: durations
        minus the time their direct children cover."""
        spans = self.spans[first:]
        own = [end - start for _, start, end, _, _ in spans]
        for _, start, end, parent, _ in spans:
            if parent >= first:
                own[parent - first] -= end - start
        totals: dict[str, float] = defaultdict(float)
        for (layer, *_), t in zip(spans, own):
            totals[layer] += t
        return totals

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for layer, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": layer, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")
