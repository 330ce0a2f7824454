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
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .counters import Counters
from .instance import Instance

INFINITY = float("inf")


@dataclass
class OverlapTable:
    values: list[list[int]]

    def get(self, w: int, v: int) -> int:
        return self.values[w][v]


@dataclass
class SubsetTable:
    """Dense 2^n x n grids; entries for j outside mask stay None."""

    dp_right: list[list[int | None]]
    dp_left: list[list[int | None]]


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
    instance: Instance, overlaps: Sequence[Sequence[int]]
) -> tuple[list[list[int | None]], int]:
    """``dp[mask][j]``: min over p of ``dp[mask - j][p] + |s_j| - overlaps[p][j]``, with its work."""
    n = instance.n
    lengths = [len(s) for s in instance.strings]
    dp: list[list[int | None]] = [[None] * n for _ in range(1 << n)]
    work = 0
    for j in range(n):
        dp[1 << j][j] = lengths[j]
    for mask in range(1, 1 << n):
        for j in range(n):
            if not mask & (1 << j) or mask == 1 << j:
                continue
            rest = mask ^ (1 << j)
            best = INFINITY
            for p in range(n):
                if not rest & (1 << p):
                    continue
                work += 1
                value = dp[rest][p] + lengths[j] - overlaps[p][j]
                if value < best:
                    best = value
            dp[mask][j] = best
    return dp, work


def build_dp_right(
    instance: Instance, overlap: OverlapTable, counters: Counters | None = None
) -> list[list[int | None]]:
    """Fill dp_right for all non-empty masks and all members."""
    dp, work = _chain_dp(instance, overlap.values)
    if counters is not None:
        counters.dp_right += work
    return dp


def build_dp_left(
    instance: Instance, overlap: OverlapTable, counters: Counters | None = None
) -> list[list[int | None]]:
    """Fill dp_left: the dp_right recurrence on the transposed overlap table."""
    dp, work = _chain_dp(instance, list(zip(*overlap.values)))
    if counters is not None:
        counters.dp_left += work
    return dp


def build_subset_table(
    instance: Instance, overlap: OverlapTable, counters: Counters | None = None
) -> SubsetTable:
    return SubsetTable(
        dp_right=build_dp_right(instance, overlap, counters),
        dp_left=build_dp_left(instance, overlap, counters),
    )
