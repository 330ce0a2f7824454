"""Pairwise mismatch-count tables.

For an ordered pair ``(base, slider)`` the slider is dragged across the base.
A shift ``k`` places the slider's *last* character on position ``k`` of the
base's coordinate axis; the shift domain is ``[0, |base| + |slider| - 1]``,
where the largest shifts leave little or no overlap (positions past the base
are virtual and never compared).  For every shift the table stores the
number of overlapping positions where the two strings disagree, counted in
one C-level pass over the overlapping slices.

A zero count at some shift certifies that the overlay is clean at that
alignment, which is what the merge-core builder and the absorbed-scan engine
query.  The mismatch positions themselves (`positions`, `count_up_to`) are
recomputed from the two strings on demand; the solve path does not use them.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import ne

from .counters import Counters
from .instance import Instance


class MismatchTable:
    """Immutable mismatch counts for every ordered string pair and shift."""

    def __init__(self, strings: tuple[str, ...], counts: dict[tuple[int, int], list[int]]):
        self._strings = strings
        self._lengths = tuple(map(len, strings))
        self._counts = counts
        self._within: dict[tuple[int, int, int], tuple[int, ...]] = {}

    def shift_count(self, i: int, j: int) -> int:
        """Size of the shift domain for base i, slider j."""
        return self._lengths[i] + self._lengths[j]

    def _check(self, i: int, j: int, shift: int) -> None:
        if shift < 0 or shift >= self.shift_count(i, j):
            raise IndexError(
                f"shift out of range: {shift} not in [0, {self.shift_count(i, j) - 1}] "
                f"for pair ({i}, {j})"
            )

    def positions(self, i: int, j: int, shift: int) -> tuple[int, ...]:
        """Sorted base positions where base i and slider j disagree."""
        self._check(i, j, shift)
        counts = self._counts[i, j]
        if counts[shift] == 0:
            return ()
        base, slider = self._strings[i], self._strings[j]
        first = shift - len(slider) + 1  # base position of the slider's first character
        return tuple(
            x
            for x in range(max(0, first), min(len(base), shift + 1))
            if base[x] != slider[x - first]
        )

    def count(self, i: int, j: int, shift: int) -> int:
        """Number of mismatches at the given alignment."""
        self._check(i, j, shift)
        return self._counts[i, j][shift]

    def counts(self, i: int, j: int) -> list[int]:
        """Number of mismatches at every shift of base i, slider j, as a new list."""
        return list(self._counts[i, j])

    def count_up_to(self, i: int, j: int, shift: int, bound: int) -> int:
        """Number of mismatch positions that are <= bound."""
        return bisect_right(self.positions(i, j, shift), bound)

    def shifts_within(self, i: int, j: int, budget: int) -> tuple[int, ...]:
        """Ascending shifts of base i, slider j with at most `budget` mismatches.

        Built on first request and kept: the merge-core searches ask for the
        same few budgets of each pair many times.
        """
        found = self._within.get((i, j, budget))
        if found is None:
            counts = enumerate(self._counts[i, j])
            found = tuple([shift for shift, count in counts if count <= budget])
            self._within[i, j, budget] = found
        return found


def _shift_counts(base: str, slider: str) -> list[int]:
    """Mismatch count at every shift of `slider` across `base`."""
    last = len(slider) - 1
    return [
        sum(map(ne, slider[last - shift :], base))
        if shift < last
        else sum(map(ne, slider, base[shift - last :]))
        for shift in range(len(base) + len(slider))
    ]


def build_mismatch_table(instance: Instance, counters: Counters | None = None) -> MismatchTable:
    """Count the mismatches of every ordered pair at every alignment.

    Each unordered pair is counted once: shift t of (i, j) is the alignment
    at shift |i|+|j|-2-t of (j, i), and the last shift of either leaves no
    overlap.  `pair_build` still counts one comparison per slider character
    per shift of every ordered pair, overlapping or not: the sum over
    ordered pairs of (|base|+|slider|)*|slider|.
    """
    strings = instance.strings
    counts: dict[tuple[int, int], list[int]] = {}
    work = 0
    for i, base in enumerate(strings):
        for j in range(i + 1, len(strings)):
            slider = strings[j]
            forward = counts[i, j] = _shift_counts(base, slider)
            counts[j, i] = forward[-2::-1] + [0]
            work += (len(base) + len(slider)) ** 2
    if counters is not None:
        counters.pair_build += work
    return MismatchTable(tuple(strings), counts)
