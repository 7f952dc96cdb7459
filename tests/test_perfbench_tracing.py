"""The benchmark's tracer still fits the package: every traced function
exists and the solver counters it reads off results are filled."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import povmrobust.cli  # noqa: F401  (the tracer patches modules already imported)
from povmrobust.asymmetry import roc
from povmrobust.measurement import post_process, random_povm, random_stochastic_map
from povmrobust.simulability import is_simulable

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402


def test_every_traced_name_resolves():
    for module, function, _ in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"povmrobust.{module}"), function))


def test_solver_counters_under_the_tracer():
    m = random_povm(2, 6, 17)  # dependent elements at d = 2, so the LP runs
    target = post_process(m, random_stochastic_map(6, 3, 18))
    with tracing.Tracer() as tracer:
        assert is_simulable(m, target).simulable
        roc(np.full((2, 2), 0.5))
    assert tracer.counters["solvers.solve_lp.pivots"] >= 1
    assert tracer.counters["solvers.solve_dominating.calls"] >= 1
    assert tracer.counters["solvers.solve_lp.failures"] == 0


def test_roc_makes_one_dominance_solve():
    rho = np.array([[0.6, 0.2 - 0.1j, 0.1], [0.2 + 0.1j, 0.3, 0.0], [0.1, 0.0, 0.1]])
    with tracing.Tracer() as tracer:
        roc(rho)
    assert tracer.counters["solvers.solve_dominating.calls"] == 1
    assert tracer.counters["solvers.min_error_guess_value.calls"] == 0


def test_the_cli_import_loads_every_traced_module_and_not_selftest():
    # the tracer looks each traced module up in sys.modules, and the benchmark
    # imports only povmrobust, povmrobust.cli and povmrobust.jsonio
    src = Path(povmrobust.cli.__file__).resolve().parents[1]
    probe = "import sys, povmrobust.cli; print(*sys.modules, sep='\\n')"
    loaded = set(subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                check=True, cwd=src,
                                env={**os.environ, "PYTHONPATH": str(src)}).stdout.split())
    assert {f"povmrobust.{module}" for module, _, _ in tracing.TRACED} <= loaded
    assert "povmrobust.selftest" not in loaded
