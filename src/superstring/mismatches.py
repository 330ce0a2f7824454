"""Pairwise mismatch-position tables.

For an ordered pair ``(base, slider)`` the slider is dragged across the base.
A shift ``k`` places the slider's *last* character on position ``k`` of the
base's coordinate axis; the shift domain is ``[0, |base| + |slider| - 1]``,
where the largest shifts leave little or no overlap (positions past the base
are virtual and never compared).  For every shift the table stores the
strictly increasing list of base positions where the two strings disagree.

An empty list at some shift certifies that the overlay is clean at that
alignment, which is what the merge-core and overlap builders query.
"""

from __future__ import annotations

from bisect import bisect_right

from .counters import Counters
from .instance import Instance


class MismatchTable:
    """Immutable mismatch lists for every ordered string pair and shift."""

    def __init__(self, lengths: tuple[int, ...], lists: dict[tuple[int, int], list[tuple[int, ...]]]):
        self._lengths = lengths
        self._lists = lists

    def shift_count(self, i: int, j: int) -> int:
        """Size of the shift domain for base i, slider j."""
        return self._lengths[i] + self._lengths[j]

    def _shift_lists(self, i: int, j: int, shift: int) -> tuple[int, ...]:
        if shift < 0 or shift >= self.shift_count(i, j):
            raise IndexError(
                f"shift out of range: {shift} not in [0, {self.shift_count(i, j) - 1}] "
                f"for pair ({i}, {j})"
            )
        return self._lists[i, j][shift]

    def positions(self, i: int, j: int, shift: int) -> tuple[int, ...]:
        """Sorted base positions where base i and slider j disagree."""
        return self._shift_lists(i, j, shift)

    def count(self, i: int, j: int, shift: int) -> int:
        """Number of mismatches at the given alignment."""
        return len(self._shift_lists(i, j, shift))

    def counts(self, i: int, j: int) -> list[int]:
        """Number of mismatches at every shift of base i, slider j, as a new list."""
        return list(map(len, self._lists[i, j]))

    def count_up_to(self, i: int, j: int, shift: int, bound: int) -> int:
        """Number of stored mismatch positions that are <= bound."""
        return bisect_right(self._shift_lists(i, j, shift), bound)


def build_mismatch_table(instance: Instance, counters: Counters | None = None) -> MismatchTable:
    """Enumerate every ordered pair and alignment, recording mismatches.

    Positions are stored in base-string coordinates; every downstream
    consumer relies on that convention.
    """
    strings = instance.strings
    n = instance.n
    lists: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    work = 0
    for i in range(n):
        base = strings[i]
        for j in range(n):
            if i == j:
                continue
            slider = strings[j]
            per_shift = []
            for shift in range(len(base) + len(slider)):
                hits = []
                for t in range(len(slider)):
                    work += 1
                    x = shift - len(slider) + 1 + t
                    if 0 <= x < len(base) and slider[t] != base[x]:
                        hits.append(x)
                per_shift.append(tuple(hits))
            lists[i, j] = per_shift
    if counters is not None:
        counters.pair_build += work
    return MismatchTable(tuple(len(s) for s in strings), lists)
