"""The acceptance suite's check recorder: a check passes only when its worst
value is at most its bound, so a NaN fails it wherever it is recorded."""

import math
from dataclasses import replace

import pytest

from povmrobust import selftest
from povmrobust.selftest import Checks


@pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
def test_a_nan_fails_its_check_wherever_it_is_recorded(position):
    checks = Checks()
    values = [1e-12, 3e-12, 2e-12]
    values[position] = math.nan
    for value in values:
        checks.at_most("error", value, 1e-9)
    checks.at_most("other", 0.0, 1e-9)
    assert not checks.passed
    assert checks.detail == "max error = nan over 3 (tol 1e-09); max other = 0 over 1 (tol 1e-09)"


def test_each_check_keeps_its_worst_value_count_and_bound():
    checks = Checks()
    for value in (-2.0, 5e-10, 1e-9, -1.0):
        checks.at_most("excess", value, 1e-9)  # the bound itself passes
    checks.notes.append("4 games")
    assert checks.passed
    assert checks.detail == "4 games; max excess = 1e-09 over 4 (tol 1e-09)"
    checks.at_most("identity", 2e-7, 1e-7)
    assert not checks.passed


def test_a_criterion_that_records_no_check_fails():
    assert not Checks().passed


def test_one_nan_fails_the_criterion_that_checks_it(monkeypatch):
    # rom and the guessing solve each return NaN on the second call of every
    # criterion; at a running max(worst, x) criteria 1, 3 and 9 dropped it and passed
    calls = {}

    def nan_on_second_call(name, call, poison):
        def patched(arg):
            calls[name] = calls.get(name, 0) + 1
            return poison(call(arg)) if calls[name] == 2 else call(arg)
        return patched

    def counted_apart(criterion):
        def run(checks, quick):
            calls.clear()
            return criterion(checks, quick)
        return run

    monkeypatch.setattr(selftest, "rom", nan_on_second_call("rom", selftest.rom,
                                                            lambda value: math.nan))
    monkeypatch.setattr(selftest, "_guess_solution", nan_on_second_call(
        "guess", selftest._guess_solution, lambda solution: replace(solution, value=math.nan)))
    monkeypatch.setattr(selftest, "CRITERIA",
                        [(name, counted_apart(criterion)) for name, criterion in selftest.CRITERIA])
    failed = {r.index for r in selftest.run_all(quick=True) if not r.passed}
    # 2, 6 and 7 call neither; 4 and 5 call rom, 8 the guessing solve
    assert failed == {1, 3, 4, 5, 8, 9}
