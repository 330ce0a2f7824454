"""A fixed pure-Python computation that measures how fast the host runs right now.

The host this benchmark was written on, a 2-vCPU Xeon VM at 2.1 GHz, changes
speed every few seconds, and sometimes for a minute or more, by up to 1.7
times, because of load the guest cannot see.  A solve and this computation
slow down together, so the run times this computation around every solve
and scales the solve's time by

    REFERENCE_S / (time this computation took around the solve)

which gives the time the solve would have taken on a host where this
computation takes REFERENCE_S.  The computation never changes with the
program under test: it imports nothing from `superstring`.

It does what the solver does most, in the same interpreted style: mismatch
counts of string pairs at every offset (the `mismatches`/`cores` tables and
the window scans) and a subset DP over bit masks with list rows (`subset_dp`
and the composition loops), plus a plain integer loop.
"""

from __future__ import annotations

import random
from time import perf_counter

# Seconds the computation takes on that VM (Python 3.11.7) while it runs
# fast, rounded.  Any constant would do: it sets the unit, not the ratios
# between commits.
REFERENCE_S = 0.015

_rng = random.Random(7)
_STRINGS = ["".join(_rng.choice("abc") for _ in range(_rng.randint(6, 14))) for _ in range(16)]
_WEIGHTS = [[(i * 7 + j * 3) % 5 for j in range(10)] for i in range(10)]


def _scan() -> int:
    total = 0
    for a in _STRINGS:
        for b in _STRINGS:
            row = []
            for off in range(1 - len(b), len(a)):
                miss = 0
                for t in range(len(b)):
                    p = off + t
                    if 0 <= p < len(a) and a[p] != b[t]:
                        miss += 1
                row.append(miss)
            total += min(row)
    return total


def _subset_dp() -> int:
    n = len(_WEIGHTS)
    full = 1 << n
    inf = 1 << 30
    dp = [[inf] * n for _ in range(full)]
    for i in range(n):
        dp[1 << i][i] = 0
    for mask in range(full):
        row = dp[mask]
        for last in range(n):
            value = row[last]
            if value == inf:
                continue
            weights = _WEIGHTS[last]
            for nxt in range(n):
                bit = 1 << nxt
                if mask & bit:
                    continue
                cost = value + weights[nxt]
                if cost < dp[mask | bit][nxt]:
                    dp[mask | bit][nxt] = cost
    return min(dp[full - 1])


def _loop() -> int:
    total = 0
    for i in range(40_000):
        total += i * i % 7
    return total


EXPECTED = (_scan(), _subset_dp(), _loop())


def timed() -> float:
    """Seconds one run of the computation takes now."""
    start = perf_counter()
    got = (_scan(), _subset_dp(), _loop())
    elapsed = perf_counter() - start
    if got != EXPECTED:
        raise RuntimeError(f"reference computation changed its result: {got} != {EXPECTED}")
    return elapsed
