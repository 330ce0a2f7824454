"""Clean-overlap table and bitmask subset superstring tables.

``overlap(w, v)`` is the largest t such that the length-t suffix of string w
equals the length-t prefix of string v.  Because no input may contain
another, t is strictly below both lengths for w != v; the diagonal is set to
the string's own length by convention and never read by the tables below.

``dp_right[mask][j]`` is the length of the shortest string containing every
input named by ``mask`` exactly, arranged as a chain glued at maximal clean
overlaps, with string j the rightmost link.  ``dp_left`` has j as the
leftmost link.  It is not a separate mirror: it is the same recurrence run
on the transposed overlap table, since prepending j to a chain that starts
with p gains overlap(j, p), the transposed entry (p, j).  Masks are iterated
in increasing order so every submask is ready when needed.

The Held-Karp recurrence ``dp[mask][j] = |s_j| + min over p in rest of
(dp[rest][p] - overlap(p, j))``, rest = mask - j, is evaluated from row
minima.  Overlaps are never negative, so every term is at most its entry
dp[rest][p]: the least entry of row rest, ``row_min[rest]``, is never below
the true minimum, and no term of a predecessor with overlap 0 is below it.
The minimum is therefore the smaller of ``row_min[rest]`` and the terms of
the predecessors with a positive overlap, and only those are read.  A row's
minimum is the shortest chain over its mask, whichever end is fixed, so
both tables share one list of row minima.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .counters import Counters
from .instance import Instance


@dataclass
class OverlapTable:
    values: list[list[int]]

    def get(self, w: int, v: int) -> int:
        return self.values[w][v]


@dataclass
class SubsetTable:
    """Dense 2^n x n grids; entries for j outside mask stay None.

    ``row_min[mask]`` is the least entry of row mask, the same in both
    tables (0 for the empty mask): the shortest chain over mask.
    """

    dp_right: list[list[int | None]]
    dp_left: list[list[int | None]]
    row_min: list[int]


def max_clean_overlap(left: str, right: str) -> int:
    """Largest t with left's length-t suffix equal to right's length-t prefix."""
    for t in range(min(len(left), len(right)) - 1, 0, -1):
        if left[-t:] == right[:t]:
            return t
    return 0


def build_overlap_table(instance: Instance) -> OverlapTable:
    """Maximal clean overlap for every ordered pair, |s_w| on the diagonal.

    Overlaps are read by direct suffix/prefix equality.
    """
    strings = instance.strings
    n = instance.n
    lengths = [len(s) for s in strings]
    values = [[0] * n for _ in range(n)]
    for w in range(n):
        for v in range(n):
            if w == v:
                values[w][v] = lengths[w]
                continue
            values[w][v] = max_clean_overlap(strings[w], strings[v])
    return OverlapTable(values)


def _chain_dp(
    instance: Instance,
    overlaps: Sequence[Sequence[int]],
    row_min: list[int],
    row_min_filled: bool = False,
) -> tuple[list[list[int | None]], int]:
    """``dp[mask][j]``: min over p of ``dp[mask - j][p] + |s_j| - overlaps[p][j]``.

    Walks only the members j of each mask.  Each entry starts from the
    minimum of row ``rest = mask - j`` and reads only the predecessors of j
    with a positive overlap, skipping those outside rest (their entry is
    None); the module docstring says why that is exact.  ``row_min`` has
    2^n entries and receives each row's minimum as the row is filled; its
    empty-mask entry stays 0, so a singleton gets |s_j|.  As the minima are
    the same in both tables, dp_left may be filled against the list dp_right
    filled, with `row_min_filled` set so that the list is only read.
    Returns the table and the recurrence's term count, one per (mask, j, p
    in rest) whether read or skipped: the sum of c(c-1) over masks of c
    members, n(n-1)2^(n-2).
    """
    n = instance.n
    lengths = [len(s) for s in instance.strings]
    steps = {}  # bit of j -> (j, |s_j|, predecessors p of j with their overlap, if positive)
    for j in range(n):
        gains = [(p, overlaps[p][j]) for p in range(n) if p != j and overlaps[p][j] > 0]
        steps[1 << j] = (j, lengths[j], gains)
    dp: list[list[int | None]] = [[None] * n for _ in range(1 << n)]
    for mask in range(1, 1 << n):
        row = dp[mask]
        bits = mask
        while bits:
            bit = bits & -bits
            bits ^= bit
            j, length, gains = steps[bit]
            prev = dp[mask ^ bit]
            best = row_min[mask ^ bit]
            for p, gain in gains:
                value = prev[p]
                if value is not None and value - gain < best:
                    best = value - gain
            row[j] = best + length
        if not row_min_filled:
            row_min[mask] = min(filter(None, row))
    return dp, n * (n - 1) * (1 << n) // 4


def build_dp_right(
    instance: Instance, overlap: OverlapTable, counters: Counters | None = None
) -> list[list[int | None]]:
    """Fill dp_right for all non-empty masks and all members."""
    dp, work = _chain_dp(instance, overlap.values, [0] * (1 << instance.n))
    if counters is not None:
        counters.dp_right += work
    return dp


def build_dp_left(
    instance: Instance, overlap: OverlapTable, counters: Counters | None = None
) -> list[list[int | None]]:
    """Fill dp_left: the dp_right recurrence on the transposed overlap table."""
    dp, work = _chain_dp(instance, list(zip(*overlap.values)), [0] * (1 << instance.n))
    if counters is not None:
        counters.dp_left += work
    return dp


def build_subset_table(
    instance: Instance, overlap: OverlapTable, counters: Counters | None = None
) -> SubsetTable:
    """Both tables, filled in turn against one shared list of row minima."""
    row_min = [0] * (1 << instance.n)
    dp_right, right_work = _chain_dp(instance, overlap.values, row_min)
    dp_left, left_work = _chain_dp(instance, list(zip(*overlap.values)), row_min, row_min_filled=True)
    if counters is not None:
        counters.dp_right += right_work
        counters.dp_left += left_work
    return SubsetTable(dp_right=dp_right, dp_left=dp_left, row_min=row_min)
