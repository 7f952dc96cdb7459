"""Executable acceptance suite.

Each criterion below checks one of the identities or properties the
package is built around, at a fixed tolerance, over deterministic
pseudo-random instances at desk scale (dimension at most 4, at most 6
outcomes).  The CLI ``selftest`` subcommand runs them all and prints a
pass/fail table with each criterion's wall time and, where it solves
dominance programs, their total interior-point steps and the criterion's
milliseconds per step (simulability LPs: the columns their nonnegative
least squares entered, printed as NNLS entries, and the mean milliseconds of a
call that ran one); the test suite asserts them one by one.
``quick`` mode shrinks the sample counts roughly tenfold for smoke testing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

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


def criterion_closed_form_vs_sdp(quick: bool = False) -> CriterionResult:
    n = 30 if quick else 200
    worst = 0.0
    steps = 0
    for m in _suite(n, 11000):
        solution = _rom_solution(m)
        worst = max(worst, abs(rom(m) - (solution.value / m.dimension - 1.0)))
        steps += solution.iterations
    return CriterionResult(
        1, "closed form vs SDP", worst <= 1e-9,
        f"max |closed - sdp| = {worst:.3e} over {n} POVMs (tol 1e-9)", steps=steps,
    )


def criterion_strong_duality(quick: bool = False) -> CriterionResult:
    n = 30 if quick else 200
    worst = 0.0
    for m in _suite(n, 11000):
        report = rom_report(m)
        dual_value = sum(
            np.einsum("ij,ji->", state, element).real
            for state, element in zip(report.dual_states, m.elements)
        ) - 1.0
        worst = max(worst, abs(dual_value - report.value))
    return CriterionResult(
        2, "strong duality", worst <= 1e-8,
        f"max |dual - primal| = {worst:.3e} over {n} POVMs (tol 1e-8)",
    )


def criterion_exact_values(quick: bool = False) -> CriterionResult:
    del quick
    cases = [
        ("qubit projective", projective_povm(np.eye(2)), 1.0),
        ("qutrit projective", projective_povm(np.eye(3)), 2.0),
        ("qubit trine", qubit_trine(), 1.0),
        ("qubit SIC", qubit_sic(), 1.0),
        ("trivial d=2", trivial_povm([0.2, 0.3, 0.5], 2), 0.0),
        ("trivial d=3", trivial_povm([1.0], 3), 0.0),
    ]
    worst = max(abs(rom(m) - expected) for _, m, expected in cases)
    return CriterionResult(
        3, "exact robustness values", worst <= 1e-10,
        f"max deviation = {worst:.3e} over {len(cases)} exact cases (tol 1e-10)",
    )


def criterion_advantage(quick: bool = False) -> CriterionResult:
    n = 20 if quick else 200
    per_m = 20 if quick else 200
    suite = _suite(n, 11000)
    worst_identity = 0.0
    worst_excess = -np.inf
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
            worst_identity = max(worst_identity, abs(advantage(optimal_ensemble(m), m) - bound))
            for j in range(per_m):
                w = weights[row, j, :1 + (i + j) % 6]
                e = Ensemble(states[row, j, :w.size], w / w.sum())
                worst_excess = max(worst_excess, advantage(e, m) - bound)
    passed = worst_identity <= 1e-7 and worst_excess <= 1e-8
    return CriterionResult(
        4, "discrimination advantage", passed,
        f"max |advantage - (1+R)| = {worst_identity:.3e} (tol 1e-7); "
        f"max excess over bound = {worst_excess:.3e} across {n}x{per_m} games (tol 1e-8)",
    )


def criterion_robustness_properties(quick: bool = False) -> CriterionResult:
    rng = np.random.default_rng(52000)
    problems = []

    worst_trivial = 0.0
    near_trivial = []
    for i in range(6 if quick else 20):
        d = 2 + i % 3
        q = rng.dirichlet(np.ones(1 + i % 5))
        worst_trivial = max(worst_trivial, abs(rom(trivial_povm(q, d))))
        near_trivial.append(trivial_povm(q, d))
        near_trivial.append(depolarize_povm(random_povm(d, 2 + i % 4, 53000 + i), 1.0))
    if worst_trivial > 1e-10:
        problems.append(f"trivial robustness reached {worst_trivial:.3e} (tol 1e-10)")

    worst_deviation = 0.0
    checked = 0
    for m in near_trivial:
        if rom(m) <= 1e-9:
            checked += 1
            traces = np.einsum("aii->a", m.elements).real
            eye = np.eye(m.dimension)
            deviation = np.abs(
                m.elements - traces[:, None, None] * eye / m.dimension
            ).max()
            worst_deviation = max(worst_deviation, deviation)
    if checked == 0 or worst_deviation > 1e-6:
        problems.append(
            f"converse faithfulness: deviation {worst_deviation:.3e} on {checked} cases (tol 1e-6)"
        )

    worst_convexity = -np.inf
    for i in range(10 if quick else 50):
        d, o = GRID[i % len(GRID)]
        m1 = random_povm(d, o, 54000 + i)
        m2 = random_povm(d, o, 55000 + i)
        p = rng.random()
        mixed = Povm(p * m1.elements + (1.0 - p) * m2.elements)
        worst_convexity = max(
            worst_convexity, rom(mixed) - (p * rom(m1) + (1.0 - p) * rom(m2))
        )
    if worst_convexity > 1e-9:
        problems.append(f"convexity violated by {worst_convexity:.3e} (tol 1e-9)")

    worst_monotone = -np.inf
    per_m = 10 if quick else 100
    for i, (d, o) in enumerate(GRID):
        m = random_povm(d, o, 56000 + i)
        base = rom(m)
        for j in range(per_m):
            o_out = 1 + (i + j) % (o + 2)
            mapped = post_process(m, random_stochastic_map(o, o_out, 57000 + 100 * i + j))
            worst_monotone = max(worst_monotone, rom(mapped) - base)
    if worst_monotone > 1e-9:
        problems.append(f"monotonicity violated by {worst_monotone:.3e} (tol 1e-9)")

    detail = "; ".join(problems) if problems else (
        f"faithfulness (both directions), convexity, monotonicity hold; "
        f"worst slacks {worst_trivial:.1e} / {worst_deviation:.1e} / "
        f"{worst_convexity:.1e} / {worst_monotone:.1e}"
    )
    return CriterionResult(5, "robustness properties", not problems, detail)


def criterion_accessible_min_info(quick: bool = False) -> CriterionResult:
    n = 20 if quick else 200
    worst_identity = 0.0
    for m in _suite(n, 11000):
        bits, witness = acc_min_info_measurement(m)
        worst_identity = max(
            worst_identity, abs(i_min(joint_from_game(witness, m)) - bits)
        )

    worst_excess = -np.inf
    per_m = 20 if quick else 200
    combos = [(d, o) for d in (2, 3) for o in (2, 3, 4)]
    for i, (d, o) in enumerate(combos):
        m = random_povm(d, o, 58000 + i)
        bits, _ = acc_min_info_measurement(m)
        for j in range(per_m):
            e = random_ensemble(d, 1 + (i + j) % 5, 59000 + 1000 * i + j)
            worst_excess = max(worst_excess, i_min(joint_from_game(e, m)) - bits)
    passed = worst_identity <= 1e-7 and worst_excess <= 1e-7
    return CriterionResult(
        6, "accessible min-information", passed,
        f"max |i_min(witness) - log2(1+R)| = {worst_identity:.3e}; "
        f"max sweep excess = {worst_excess:.3e} (tol 1e-7)",
    )


def criterion_simulability(quick: bool = False) -> CriterionResult:
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
    completeness_ok = len(failures) <= max(0.01 * n, 0)
    lps = [(entries, seconds) for entries, seconds in decided if entries is not None]

    z = projective_povm(np.eye(2))
    x = projective_povm(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))
    zx = is_simulable(z, x)  # decided outside the span: no LP
    zx_ok = (zx.verdict == NOT_SIMULABLE and zx.gap is not None
             and zx.gap >= 0.05 and zx.gap >= 1e-9)

    passed = completeness_ok and zx_ok
    logged = f"; logged failures: {failures}" if failures else ""
    return CriterionResult(
        7, "simulability", passed,
        f"{n - len(failures)}/{n} post-processed targets verified simulable "
        f"(residual tol 1e-7; {len(decided) - len(lps)} by the unique map, "
        f"{len(lps)} by the LP); Z vs X verdict {zx.verdict} with witness gap "
        f"{zx.gap if zx.gap is not None else float('nan'):.3f}{logged}",
        entries=sum(e for e, _ in lps), lp_ms=1e3 * sum(s for _, s in lps) / max(len(lps), 1),
    )


def criterion_roa_roc(quick: bool = False) -> CriterionResult:
    problems = []
    worst_game = 0.0
    worst_info = 0.0
    worst_overlap = math.inf  # of the two brackets on the game's advantage
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
            worst_game = max(worst_game, abs(game - (1.0 + report.value)))
            worst_info = max(worst_info, abs(math.log2(game) - math.log2(1.0 + report.value)))
            worst_overlap = min(worst_overlap, min(game, 1.0 + report.value)
                                - max(group.order * orbit.lower, 1.0 + report.lower))
    if worst_overlap < 0.0:
        problems.append(f"game brackets are disjoint by {-worst_overlap:.3e}")
    if worst_game > 1e-9:
        problems.append(f"game identity off by {worst_game:.3e} (tol 1e-9)")
    if worst_info > 1e-9:
        problems.append(f"min-information identity off by {worst_info:.3e} (tol 1e-9)")

    plus, qutrit = roc(np.full((2, 2), 0.5)), roc(np.full((3, 3), 1.0 / 3.0))
    steps += plus.iterations + qutrit.iterations
    if abs(plus.value - 1.0) > 1e-9:
        problems.append(f"qubit maximal coherence gave {plus.value!r} (tol 1e-9)")
    if abs(qutrit.value - 2.0) > 1e-9:
        problems.append(f"qutrit maximal coherence gave {qutrit.value!r} (tol 1e-9)")

    detail = "; ".join(problems) if problems else (
        f"identities within {max(worst_game, worst_info):.3e}; "
        f"game brackets overlap by at least {worst_overlap:.3e}; "
        f"maximal coherence values {plus.value:.12f} / {qutrit.value:.12f}"
    )
    return CriterionResult(8, "asymmetry and coherence identities", not problems, detail,
                           steps=steps)


def criterion_helstrom(quick: bool = False) -> CriterionResult:
    n = 20 if quick else 100
    worst = 0.0
    steps = 0
    for i in range(n):
        rng = np.random.default_rng(72000 + i)
        states = [random_density_matrix(2, rng) for _ in range(2)]
        p0 = rng.random()
        priors = np.array([p0, 1.0 - p0])
        ensemble = Ensemble(np.stack(states), priors)
        helstrom = 0.5 * (1.0 + np.abs(
            np.linalg.eigvalsh(priors[0] * states[0] - priors[1] * states[1])
        ).sum())
        solution = _guess_solution(ensemble)
        worst = max(worst, abs(solution.value - helstrom))
        steps += solution.iterations
    return CriterionResult(
        9, "binary discrimination against the trace-norm formula",
        worst <= 1e-9,
        f"max |solver - formula| = {worst:.3e} over {n} ensembles (tol 1e-9)", steps=steps,
    )


CRITERIA = [
    criterion_closed_form_vs_sdp,
    criterion_strong_duality,
    criterion_exact_values,
    criterion_advantage,
    criterion_robustness_properties,
    criterion_accessible_min_info,
    criterion_simulability,
    criterion_roa_roc,
    criterion_helstrom,
]


def _timed(criterion, quick: bool) -> CriterionResult:
    start = time.perf_counter()
    result = criterion(quick=quick)
    return replace(result, seconds=time.perf_counter() - start)


def run_all(quick: bool = False) -> list[CriterionResult]:
    """Every criterion in order, each with its wall time in ``seconds``."""
    return [_timed(criterion, quick) for criterion in CRITERIA]
