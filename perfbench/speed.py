"""The machine's speed, measured beside the queries.

The benchmark runs on shared virtual machines whose speed changes by up to
2x in steps, every few seconds to tens of seconds, as neighbours come and
go. A probe is a fixed slice of pure-Python work of the kind schurcalc does
(small integers, tuples, dicts, Fractions) that takes about ``REFERENCE_S``
on a 2 GHz Xeon vCPU in its fast spells. A query's adjusted time is its
wall time scaled by ``REFERENCE_S`` over the mean of the probes taken just
before and just after it: the time the query would have taken at the
reference speed. The probes depend on nothing in the program, so a change
to schurcalc moves adjusted times as it moves wall times, while a slow
spell of the machine moves the probes and the query together and cancels.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.0013
PROBE_EVERY_S = 0.1  # a session probes before a query once this much has passed


def _work() -> int:
    table: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(3500):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i * i % 7
        total += table[key]
    acc = Fraction(0)
    for k in range(1, 90):
        acc += Fraction(k % 5 - 2, k)
    return total + acc.numerator


def probe() -> float:
    """Wall seconds of one fixed slice of work, now: the faster of two
    tries, so that a single interrupt does not read as a slow machine."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best


def adjusted(wall_s: list[float], probes: list[float], at: list[int]) -> list[float]:
    """Adjusted times of intervals measured between probes.

    Interval i lies between ``probes[at[i]]`` and ``probes[at[i] + 1]``,
    and is scaled by the mean of the two. ``probes`` ends with one taken
    after the last interval.
    """
    return [
        wall * REFERENCE_S / ((probes[j] + probes[j + 1]) / 2)
        for wall, j in zip(wall_s, at)
    ]
