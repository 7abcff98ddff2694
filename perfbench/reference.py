"""A fixed reference computation that measures the speed of the host.

The benchmark runs on shared hosts whose speed swings by up to a factor of
two, in spells of tens of seconds to minutes: longer than a run, so that
medians over one run cannot average the swings out, and runs of the same
code made minutes apart differ by 20-40%.  Timing this computation
before each query of a timed pass and after the last, and scaling the
pass's times by NOMINAL_S over the median of its times, gives each sample
in seconds at the speed at which the reference takes NOMINAL_S (that of
a 2-vCPU Xeon VM running Python 3.11 in its slower spells).

The computation mixes the kinds of work the program does, half and half:
Python integer, Fraction and float arithmetic with dict and sort work, as
in the exact search, the classifier and the report; and numpy expressions
over small blocks sliced from a frequency grid, as in the candidate scan.
The host's swings slow the two halves by different amounts, so either
half alone would over- or under-correct the workloads.  It never calls
the program, so a change to the program cannot move it; it is part of the
benchmark and stays the same across commits.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

NOMINAL_S = 0.010
REPEATS = 3
GRID = np.sqrt(np.add.outer(np.arange(80.0) ** 2, np.arange(80.0) ** 2)) + 1.0


def kernel():
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 750):
        acc += Fraction(i % 37, i + 1)
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0.0) + i ** 0.5
    ranked = sorted(((v, k) for k, v in table.items()), reverse=True)
    hits = 0
    for a in range(1, 11):
        for b in range(1, 12):
            w2, w3 = GRID[1:60, 1:60], GRID[a + 1:a + 60, b + 1:b + 60]
            om = np.abs(GRID[a, b] + w2 - w3)
            mask = om / np.minimum(w2, w3) <= 1e-3
            if mask.any():
                hits += len(np.nonzero(mask)[0])
    return acc, ranked[0], hits


def times(repeats: int = REPEATS) -> list:
    """Wall times of ``repeats`` runs of the kernel."""
    out = []
    for _ in range(repeats):
        t0 = perf_counter()
        kernel()
        out.append(perf_counter() - t0)
    return out


def scale(kernel_times: list) -> float:
    """The factor that turns a time measured amid these kernel times into
    seconds at the nominal speed."""
    return NOMINAL_S / statistics.median(kernel_times)
