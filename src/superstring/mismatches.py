"""Pairwise mismatch-count tables.

For an ordered pair ``(base, slider)`` the slider is dragged across the base.
A shift ``k`` places the slider's *last* character on position ``k`` of the
base's coordinate axis; the shift domain is ``[0, |base| + |slider| - 1]``,
where the largest shifts leave little or no overlap (positions past the base
are virtual and never compared).  For every shift the table stores the
number of overlapping positions where the two strings disagree, counted in
one C-level pass over the overlapping slices.

A zero count at some shift certifies that the overlay is clean at that
alignment.  The table is the one owner of this convention: the merge-core
builder, the absorbed-scan engine and the overlap table read clean
alignments as window lengths from `clean_lengths`, and the merge cores read
per-shift counts from `counts` and `shifts_within`.  Mismatch positions are
not kept: a solution's positions are read off its witness.
"""

from __future__ import annotations

from operator import ne

from .counters import Counters
from .instance import Instance


class MismatchTable:
    """Immutable mismatch counts for every ordered string pair and shift."""

    def __init__(self, strings: tuple[str, ...], counts: dict[tuple[int, int], list[int]]):
        self._lengths = tuple(map(len, strings))
        self._counts = counts
        self._within: dict[tuple[int, int, int], tuple[int, ...]] = {}
        self._clean: dict[tuple[int, int], tuple[int, ...]] = {}

    def counts(self, i: int, j: int) -> list[int]:
        """Number of mismatches at every shift of base i, slider j, as a new list."""
        return list(self._counts[i, j])

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

    def clean_lengths(self, i: int, j: int) -> tuple[int, ...]:
        """Ascending window lengths in [max(|i|, |j|), |i|+|j|) where i and j agree.

        String i sits at the window's left edge and j at its right edge, so
        the two overlap: j's last character is on position length - 1 of i, at
        shift length - 1.  Built on first request and kept.
        """
        found = self._clean.get((i, j))
        if found is None:
            len_i, len_j = self._lengths[i], self._lengths[j]
            counts = self._counts[i, j]
            lengths = range(max(len_i, len_j), len_i + len_j)
            found = tuple([length for length in lengths if counts[length - 1] == 0])
            self._clean[i, j] = found
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
