"""The pace of the machine, timed between the benchmark's operations.

The benchmark shares its machine with other work, and the machine as a
whole runs 1.5-2.5x slower in phases that last from seconds to minutes:
a fixed d=3 ``roc`` took 0.13 s in one run and 0.33 s in another, and
every operation of those runs moved alike.  The fastest repetition of an
operation within a run cannot escape a phase that spans the whole run.

So the run also times a fixed kernel, made of what the program's hot
loops are made of (interpreted Python, small numpy calls and small
LAPACK eigendecompositions) and nothing from the package, at most every
``EVERY_S`` seconds between operations.  A round's pace is the median
kernel time within it, and its latencies are reported at the reference
pace: each is multiplied by ``REFERENCE_S / pace``.  Phases change
within a run too (one ``sdp`` run went from 3 s rounds with a 4.9 ms
kernel to 5 s rounds with an 8.9 ms kernel), so the pace is taken per
round, not once per run.  Where the operations are child processes
(the ``cli`` workload), the kernel is a child process too.

``REFERENCE_S`` is about the kernel's median on a 2-vCPU Xeon over the
runs of the README's reference figures, so scaled and raw times are of
one size there; ``PROCESS_REFERENCE_S`` likewise.  A faster program
moves the scaled times in proportion; the raw ones are kept in the
run's summary file.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import numpy as np

REFERENCE_S = 0.008
EVERY_S = 0.1
PROCESS_REFERENCE_S = 0.18
PROCESS_EVERY_S = 0.5

_FIXED = np.random.default_rng(0)
_TABLEAU = _FIXED.uniform(0.1, 1.0, (60, 150))
_G = _FIXED.standard_normal((8, 8)) + 1j * _FIXED.standard_normal((8, 8))
_HERMITIAN = _G + _G.conj().T


def kernel() -> float:
    """One timed pass over fixed work; returns its duration in seconds.

    Dense simplex pivots with a row-by-row ratio test, plane rotations
    on a small complex matrix, and a few LAPACK eigendecompositions."""
    start = time.perf_counter()
    t = _TABLEAU.copy()
    for pivot in range(100):
        col = (7 * pivot) % (t.shape[1] - 1)
        best, row = math.inf, 0
        for r in range(t.shape[0]):
            coeff = t[r, col]
            if coeff > 1e-9 and abs(t[r, -1]) / coeff < best:
                best, row = abs(t[r, -1]) / coeff, r
        t[row] = t[row] / t[row, col]
        column = t[:, col].copy()
        column[row] = 0.0
        t -= np.outer(column, t[row])
    a = _HERMITIAN.copy()
    c, s = 0.6, 0.8j
    for _ in range(6):
        for p in range(7):
            for q in range(p + 1, 8):
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = -s.conjugate() * cp + c * cq
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s.conjugate() * rq
                a[q, :] = -s * rp + c * rq
    total = float(np.abs(t).max()) + sum(float(np.linalg.eigvalsh(a)[0]) for _ in range(20))
    if not math.isfinite(total):
        raise RuntimeError("pace kernel diverged")
    return time.perf_counter() - start


def settled(samples: int = 5) -> float:
    """Median of a few kernel passes after one that pays for numpy's lazy
    set-up: the pace of a process that has just started."""
    kernel()
    return statistics.median(kernel() for _ in range(samples))


def process_kernel() -> float:
    """A fresh interpreter that imports numpy and exits; returns its wall
    time in seconds.  The pace of the ``cli`` workload, whose operations
    are processes: over eight ten-second windows of a noisy period, its
    latencies moved by 25 %, their ratio to the in-process kernel by
    16 % and their ratio to this one by 11 %."""
    start = time.perf_counter()
    # With pipes, the wait ends when the child closes them; without, a
    # timed wait polls in sleeps of up to 50 ms, and the samples fell on
    # two values 50 ms apart.
    subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True, check=True,
                   timeout=60)
    return time.perf_counter() - start


class Pacer:
    """Kernel samples taken between operations, kept per round.  By
    default the in-process kernel; ``Pacer.for_processes()`` for
    operations that are child processes."""

    def __init__(self, sample=kernel, reference_s=REFERENCE_S, every_s=EVERY_S):
        self.sample, self.reference_s, self.every_s = sample, reference_s, every_s
        self.rounds: list[list[float]] = []
        self._last = -math.inf

    @classmethod
    def for_processes(cls) -> "Pacer":
        return cls(process_kernel, PROCESS_REFERENCE_S, PROCESS_EVERY_S)

    def start_round(self) -> None:
        self.rounds.append([])
        self._last = -math.inf

    def tick(self) -> None:
        """Call after each operation: samples the kernel when one is due,
        and always after a round's first operation."""
        if time.perf_counter() - self._last >= self.every_s:
            self.rounds[-1].append(self.sample())
            self._last = time.perf_counter()

    def factors(self) -> list[float]:
        """Per round, what brings its latencies to the reference pace."""
        return [self.reference_s / statistics.median(samples) for samples in self.rounds]
