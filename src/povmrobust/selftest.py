"""Executable acceptance suite.

Each criterion below checks one of the identities or properties the
package is built around, at a fixed tolerance, over deterministic
pseudo-random instances at desk scale (dimension at most 4, at most 6
outcomes).  A criterion records every value it checks in one ``Checks``,
which keeps each check's worst value, count and bound and decides
pass/fail: a NaN is kept as the worst value, so it fails its check.  The
CLI ``selftest`` subcommand runs them all and prints a pass/fail table
with each criterion's wall time, each check's worst value, count and bound
and, where it solves dominance programs, their total interior-point steps
and the criterion's milliseconds per step (simulability LPs: the columns
their nonnegative least squares entered, printed as NNLS entries, and the
mean milliseconds of a call that ran one); the test suite asserts them one
by one.
``quick`` mode shrinks the sample counts roughly tenfold for smoke testing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .asymmetry import dephasing_group, orbit_ensemble, roa, roc
from .discrimination import (
    Ensemble,
    _random_states,
    advantage,
    optimal_ensemble,
    random_density_matrix,
    random_ensemble,
)
from .errors import PovmRobustError
from .info import acc_min_info_measurement, i_min, joint_from_game
from .measurement import (
    Povm,
    depolarize_povm,
    post_process,
    projective_povm,
    random_povm,
    random_stochastic_map,
    rank_one_povm,
    trivial_povm,
)
from .rom import rom, rom_report
from .simulability import NOT_SIMULABLE, is_simulable
from .solvers import _guess_solution, _rom_solution

GRID = [(d, o) for d in (2, 3, 4) for o in (2, 3, 4, 5, 6)]


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0
    steps: int | None = None  # interior-point steps of the criterion's dominance solves
    entries: int | None = None  # columns entered by the criterion's simulability LPs
    lp_ms: float = 0.0  # mean wall time of the is_simulable calls that ran those LPs


class Checks:
    """The checks one criterion records: for each name, the worst value
    recorded, how many values were recorded and the bound.  A check passes
    when its worst value is at most its bound, and a NaN, once recorded,
    stays the worst value; a criterion passes when it recorded at least one
    check and every check passes.  ``notes`` are printed before the checks."""

    def __init__(self):
        self.notes: list[str] = []
        self._checks: dict[str, list] = {}  # name -> [worst, count, bound]

    def at_most(self, name: str, value: float, bound: float) -> None:
        check = self._checks.setdefault(name, [value, 0, bound])
        if math.isnan(value) or value > check[0]:  # plain floats: called per game
            check[0] = value
        check[1] += 1

    @property
    def passed(self) -> bool:
        return bool(self._checks) and all(
            worst <= bound for worst, _, bound in self._checks.values())

    @property
    def detail(self) -> str:
        return "; ".join(self.notes + [
            f"max {name} = {worst:.4g} over {count} (tol {bound:g})"
            for name, (worst, count, bound) in self._checks.items()])


def _suite(n_total: int, seed_base: int) -> list[Povm]:
    return [random_povm(*GRID[i % len(GRID)], seed_base + i) for i in range(n_total)]


def _bloch_ket(theta: float, phi: float = 0.0) -> np.ndarray:
    return np.array([math.cos(theta / 2.0),
                     np.exp(1j * phi) * math.sin(theta / 2.0)])


def qubit_trine() -> Povm:
    """Three-outcome rank-1 qubit measurement with equal weights 2/3 and
    directions 120 degrees apart on a great circle."""
    angles = [0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0]
    states = np.stack([_bloch_ket(a) for a in angles])
    return rank_one_povm(np.full(3, 2.0 / 3.0), states)


def qubit_sic() -> Povm:
    """Four-outcome rank-1 qubit measurement on the tetrahedral directions
    with equal weights 1/2."""
    kets = [_bloch_ket(0.0)]
    polar = math.acos(-1.0 / 3.0)
    for k in range(3):
        kets.append(_bloch_ket(polar, 2.0 * math.pi * k / 3.0))
    return rank_one_povm(np.full(4, 0.5), np.stack(kets))


def criterion_closed_form_vs_sdp(checks: Checks, quick: bool) -> dict:
    steps = 0
    for m in _suite(30 if quick else 200, 11000):
        solutions = _rom_solution(m)
        value = sum(s.value for s in solutions) / m.dimension - 1.0
        checks.at_most("|closed - sdp|", abs(rom(m) - value), 1e-9)
        steps += sum(s.iterations for s in solutions)
    return {"steps": steps}


def criterion_strong_duality(checks: Checks, quick: bool) -> dict:
    for m in _suite(30 if quick else 200, 11000):
        report = rom_report(m)
        dual_value = sum(
            np.einsum("ij,ji->", state, element).real
            for state, element in zip(report.dual_states, m.elements)
        ) - 1.0
        checks.at_most("|dual - primal|", abs(dual_value - report.value), 1e-8)
    return {}


def criterion_exact_values(checks: Checks, quick: bool) -> dict:
    del quick
    cases = [(projective_povm(np.eye(2)), 1.0), (projective_povm(np.eye(3)), 2.0),
             (qubit_trine(), 1.0), (qubit_sic(), 1.0),
             (trivial_povm([0.2, 0.3, 0.5], 2), 0.0), (trivial_povm([1.0], 3), 0.0)]
    for m, exact in cases:
        checks.at_most("|R - exact|", abs(rom(m) - exact), 1e-10)
    return {}


def criterion_advantage(checks: Checks, quick: bool) -> dict:
    n = 20 if quick else 200
    per_m = 20 if quick else 200
    suite = _suite(n, 11000)
    for c, (d, _) in enumerate(GRID):
        # all games of the cell in one draw: six states per game, of which a
        # game of k members keeps the first k, with flat-Dirichlet priors
        rng = np.random.default_rng(40000 + c)
        cell = range(c, n, len(GRID))
        states = _random_states(rng, (len(cell), per_m, 6), d)
        weights = rng.exponential(size=(len(cell), per_m, 6))
        for row, i in enumerate(cell):
            m = suite[i]
            bound = 1.0 + rom(m)
            checks.at_most("|advantage - (1+R)|",
                           abs(advantage(optimal_ensemble(m), m) - bound), 1e-7)
            for j in range(per_m):
                w = weights[row, j, :1 + (i + j) % 6]
                e = Ensemble(states[row, j, :w.size], w / w.sum())
                checks.at_most("advantage - (1+R)", advantage(e, m) - bound, 1e-8)
    return {}


def criterion_robustness_properties(checks: Checks, quick: bool) -> dict:
    rng = np.random.default_rng(52000)
    near_trivial = []
    for i in range(6 if quick else 20):
        d = 2 + i % 3
        q = rng.dirichlet(np.ones(1 + i % 5))
        checks.at_most("|R(trivial)|", abs(rom(trivial_povm(q, d))), 1e-10)
        near_trivial.append(trivial_povm(q, d))
        near_trivial.append(depolarize_povm(random_povm(d, 2 + i % 4, 53000 + i), 1.0))

    # converse faithfulness, which needs at least one case with R = 0
    checked = 0
    for m in near_trivial:
        if rom(m) <= 1e-9:
            checked += 1
            traces = np.einsum("aii->a", m.elements).real
            eye = np.eye(m.dimension)
            deviation = np.abs(
                m.elements - traces[:, None, None] * eye / m.dimension
            ).max()
            checks.at_most("deviation from trivial at R = 0", deviation, 1e-6)
    checks.at_most("1 - cases at R = 0", 1 - checked, 0)

    for i in range(10 if quick else 50):
        d, o = GRID[i % len(GRID)]
        m1 = random_povm(d, o, 54000 + i)
        m2 = random_povm(d, o, 55000 + i)
        p = rng.random()
        mixed = Povm(p * m1.elements + (1.0 - p) * m2.elements)
        checks.at_most("convexity excess",
                       rom(mixed) - (p * rom(m1) + (1.0 - p) * rom(m2)), 1e-9)

    per_m = 10 if quick else 100
    for i, (d, o) in enumerate(GRID):
        m = random_povm(d, o, 56000 + i)
        base = rom(m)
        for j in range(per_m):
            o_out = 1 + (i + j) % (o + 2)
            mapped = post_process(m, random_stochastic_map(o, o_out, 57000 + 100 * i + j))
            checks.at_most("monotonicity excess", rom(mapped) - base, 1e-9)
    return {}


def criterion_accessible_min_info(checks: Checks, quick: bool) -> dict:
    for m in _suite(20 if quick else 200, 11000):
        bits, witness = acc_min_info_measurement(m)
        checks.at_most("|i_min(witness) - log2(1+R)|",
                       abs(i_min(joint_from_game(witness, m)) - bits), 1e-7)

    per_m = 20 if quick else 200
    combos = [(d, o) for d in (2, 3) for o in (2, 3, 4)]
    for i, (d, o) in enumerate(combos):
        m = random_povm(d, o, 58000 + i)
        bits, _ = acc_min_info_measurement(m)
        for j in range(per_m):
            e = random_ensemble(d, 1 + (i + j) % 5, 59000 + 1000 * i + j)
            checks.at_most("sweep excess", i_min(joint_from_game(e, m)) - bits, 1e-7)
    return {}


def criterion_simulability(checks: Checks, quick: bool) -> dict:
    n = 50 if quick else 500
    failures = []
    decided = []  # the NNLS entries (None without an LP) and seconds of each verdict
    for i in range(n):
        d = 2 + i % 3
        o = 2 + i % 5
        o_out = 1 + i % (o + 2)
        m = random_povm(d, o, 60000 + i)
        target = post_process(m, random_stochastic_map(o, o_out, 61000 + i))
        start = time.perf_counter()
        try:
            result = is_simulable(m, target)
        except PovmRobustError as exc:
            failures.append(f"case {i}: {type(exc).__name__}")
            continue
        decided.append((result.entries, time.perf_counter() - start))
        if not result.simulable:
            failures.append(f"case {i}: verdict {result.verdict}")
        elif result.residual > 1e-7:
            failures.append(f"case {i}: residual {result.residual:.2e}")
    lps = [(entries, seconds) for entries, seconds in decided if entries is not None]
    checks.notes.append(
        f"{n - len(failures)}/{n} post-processed targets verified simulable "
        f"(residual tol 1e-7; {len(decided) - len(lps)} by the unique map, "
        f"{len(lps)} by the LP)" + (f"; logged failures: {failures}" if failures else ""))
    checks.at_most("failed targets", len(failures), 0.01 * n)

    z = projective_povm(np.eye(2))
    x = projective_povm(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))
    zx = is_simulable(z, x)  # decided outside the span: no LP
    checks.notes.append(f"Z vs X verdict {zx.verdict}")
    checks.at_most("0.05 - Z vs X witness gap",
                   0.05 - zx.gap if zx.verdict == NOT_SIMULABLE else math.nan, 0.0)
    return {"entries": sum(e for e, _ in lps),
            "lp_ms": 1e3 * sum(s for _, s in lps) / max(len(lps), 1)}


def criterion_roa_roc(checks: Checks, quick: bool) -> dict:
    steps = 0
    cases = [(2, 20 if quick else 100, 70000), (3, 10 if quick else 50, 71000)]
    for d, count, seed_base in cases:
        group = dephasing_group(d)
        for i in range(count):
            rho = random_density_matrix(d, np.random.default_rng(seed_base + i))
            report = roa(rho, group)
            # an orbit guessing value solved apart from the robustness
            orbit = _guess_solution(orbit_ensemble(rho, group))
            game = group.order * orbit.value
            steps += report.iterations + orbit.iterations
            checks.at_most("|game - (1+R)|", abs(game - (1.0 + report.value)), 1e-9)
            checks.at_most("|log2 game - log2(1+R)|",
                           abs(math.log2(game) - math.log2(1.0 + report.value)), 1e-9)
            # the two brackets on the game's advantage overlap
            checks.at_most("bracket separation",
                           max(group.order * orbit.lower, 1.0 + report.lower)
                           - min(game, 1.0 + report.value), 0.0)

    plus, qutrit = roc(np.full((2, 2), 0.5)), roc(np.full((3, 3), 1.0 / 3.0))
    steps += plus.iterations + qutrit.iterations
    checks.at_most("|R - maximal coherence|", abs(plus.value - 1.0), 1e-9)
    checks.at_most("|R - maximal coherence|", abs(qutrit.value - 2.0), 1e-9)
    return {"steps": steps}


def criterion_helstrom(checks: Checks, quick: bool) -> dict:
    steps = 0
    for i in range(20 if quick else 100):
        rng = np.random.default_rng(72000 + i)
        states = [random_density_matrix(2, rng) for _ in range(2)]
        p0 = rng.random()
        priors = np.array([p0, 1.0 - p0])
        ensemble = Ensemble(np.stack(states), priors)
        helstrom = 0.5 * (1.0 + np.abs(
            np.linalg.eigvalsh(priors[0] * states[0] - priors[1] * states[1])
        ).sum())
        solution = _guess_solution(ensemble)
        checks.at_most("|solver - formula|", abs(solution.value - helstrom), 1e-9)
        steps += solution.iterations
    return {"steps": steps}


CRITERIA = [
    ("closed form vs SDP", criterion_closed_form_vs_sdp),
    ("strong duality", criterion_strong_duality),
    ("exact robustness values", criterion_exact_values),
    ("discrimination advantage", criterion_advantage),
    ("robustness properties", criterion_robustness_properties),
    ("accessible min-information", criterion_accessible_min_info),
    ("simulability", criterion_simulability),
    ("asymmetry and coherence identities", criterion_roa_roc),
    ("binary discrimination against the trace-norm formula", criterion_helstrom),
]


def run_all(quick: bool = False) -> list[CriterionResult]:
    """Every criterion in order, each with its wall time in ``seconds`` and
    its pass/fail and detail from the checks it recorded."""
    results = []
    for index, (name, criterion) in enumerate(CRITERIA, 1):
        checks, start = Checks(), time.perf_counter()
        counters = criterion(checks, quick)
        results.append(CriterionResult(index, name, checks.passed, checks.detail,
                                       time.perf_counter() - start, **counters))
    return results
