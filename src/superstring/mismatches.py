"""Pairwise mismatch-count tables.

For an ordered pair ``(base, slider)`` the slider is dragged across the base.
A shift ``k`` places the slider's *last* character on position ``k`` of the
base's coordinate axis; the shift domain is ``[0, |base| + |slider| - 1]``,
where the largest shifts leave little or no overlap (positions past the base
are virtual and never compared).  For every shift the table stores the
number of overlapping positions where the two strings disagree.

The counts of all shifts are a correlation, computed as integer products
(Fischer and Paterson, "String-matching and other products", 1974).  Each
string is packed once per letter it holds into a Python integer with one
fixed-width field per position, 1 where the letter is and 0 elsewhere,
forward and reversed.  For a pair, the sum over shared letters of
``forward(base) * reversed(slider)`` holds in field t the number of
positions that agree at shift t, and the product of two all-ones integers
of the strings' lengths holds the overlap length at t, so their difference
holds the mismatch counts.  The fields are 8, 16 or 32 bits wide, the
narrowest that holds every pair's shorter length, so no field carries into
the next or borrows from it; `str.translate` and `str.encode` pack them and
`array` reads them back, all at C speed.  A pair costs one product per
shared letter and one for the overlap lengths.

A zero count at some shift certifies that the overlay is clean at that
alignment.  The table is the one owner of this convention.  It holds four
views of every ordered pair, each a dict keyed (i, j) and filled before the
table is returned: `counts`, the count at every shift; `starts`, the counts
by start and the first start within k; `shifts_within`, the shifts within
each budget 0..k; and `clean_lengths`, the alignments where the pair agrees,
as window lengths, with k the budget of the instance the table is built
from.  The merge-core builder reads all four, and the absorbed-scan engine
and the overlap table read `clean_lengths`.  Mismatch positions are not
kept: a solution's positions are read off its witness.
"""

from __future__ import annotations

import sys
from array import array
from operator import mul

from .counters import Counters
from .instance import Instance

# bytes per field -> the encoding that writes "\x00" and "\x01" in fields that wide
_ENCODINGS = {1: "latin-1", 2: "utf-16-le", 4: "utf-32-le"}


class ShiftsWithin(dict):
    """Budget -> ascending shifts of one ordered pair with at most that many mismatches.

    Holds budgets 0..top and refuses any other with KeyError.  Filled on
    demand: the top budget's list is one scan of the pair's counts, and a
    smaller budget's list filters that list on its first lookup.  On long
    strings it is far shorter than the counts, and the merge-core searches
    read every budget; on short strings they mostly read the top one alone,
    so no list is built before it is asked for.
    """

    __slots__ = ("_counts", "_top")

    def __init__(self, counts: list[int], top: int):
        super().__init__()
        self._counts = counts
        self._top = top

    def __missing__(self, budget: int) -> tuple[int, ...]:
        counts, top = self._counts, self._top
        if budget == top:
            found = [shift for shift, count in enumerate(counts) if count <= top]
        elif 0 <= budget < top:
            found = [shift for shift in self[top] if counts[shift] <= budget]
        else:
            raise KeyError(budget)
        found = self[budget] = tuple(found)
        return found


class MismatchTable:
    """Mismatch counts of every ordered pair of distinct strings, and three views of them.

    The counts and each view are a dict keyed by ordered pair (i, j),
    complete once the table is built; callers must not change them or what
    they hold:

      * ``counts[i, j]``: mismatches at every shift of base i, slider j;
      * ``starts[i, j]``: the counts of j starting at each position s of i,
        for s in [0, |i|], at shift s + |j| - 1, and the first start within
        k.  The last entry leaves no overlap and is 0, so a start within any
        budget >= 0 exists;
      * ``shifts_within[i, j]``: budget b in 0..k -> ascending shifts with at
        most b mismatches (`ShiftsWithin`, which fills each budget's list on
        its first lookup);
      * ``clean_lengths[i, j]``: ascending window lengths in [max(|i|, |j|),
        |i|+|j|) where i at the window's left edge and j at its right edge
        agree, j's last character on position length - 1 of i, at shift
        length - 1.

    k is the budget of the instance the table is built from.
    """

    def __init__(self, instance: Instance, counts: dict[tuple[int, int], list[int]]):
        lengths = [len(s) for s in instance.strings]
        k = instance.k
        self.counts = counts
        self.starts: dict[tuple[int, int], tuple[list[int], int]] = {}
        self.shifts_within: dict[tuple[int, int], ShiftsWithin] = {}
        self.clean_lengths: dict[tuple[int, int], tuple[int, ...]] = {}
        for (i, j), row in counts.items():
            by_start = row[lengths[j] - 1 :]
            first = 0
            while by_start[first] > k:
                first += 1
            self.starts[i, j] = (by_start, first)
            self.shifts_within[i, j] = ShiftsWithin(row, k)
            shortest = max(lengths[i], lengths[j])
            clean = enumerate(row[shortest - 1 : lengths[i] + lengths[j] - 1], shortest)
            self.clean_lengths[i, j] = tuple([length for length, count in clean if count == 0])


def _letter_fields(string: str, encoding: str) -> tuple[dict[int, int], dict[int, int]]:
    """Per letter of `string`: a field per position, 1 where the letter is, forward and reversed."""
    blank = dict.fromkeys(map(ord, set(string)), 0)
    forward, backward = {}, {}
    for letter in blank:
        marked = string.translate({**blank, letter: 1})
        forward[letter] = int.from_bytes(marked.encode(encoding), "little")
        backward[letter] = int.from_bytes(marked[::-1].encode(encoding), "little")
    return forward, backward


def build_mismatch_table(instance: Instance, counters: Counters) -> MismatchTable:
    """Count the mismatches of every ordered pair at every alignment.

    Each unordered pair is counted once: shift t of (i, j) is the alignment
    at shift |i|+|j|-2-t of (j, i), and the last shift of either leaves no
    overlap.  `pair_build` is the size of the alignment grid the table
    covers, one slider character per shift of every ordered pair,
    overlapping or not: the sum over ordered pairs of
    (|base|+|slider|)*|slider|.  A single string has no pair, so its table
    is empty and counts nothing.
    """
    strings = instance.strings
    # no pair's shorter string is longer than the second longest; a single
    # string makes no pair, and its own length picks the width
    shorter = sorted(map(len, strings))[-2:][0]
    size = next(size for size in _ENCODINGS if shorter < 1 << 8 * size)
    typecode = next(code for code in "BHIL" if array(code).itemsize == size)
    encoding = _ENCODINGS[size]
    packed = [_letter_fields(string, encoding) for string in strings]
    ones = [int.from_bytes(("\x01" * len(s)).encode(encoding), "little") for s in strings]
    counts: dict[tuple[int, int], list[int]] = {}
    for i, base in enumerate(strings):
        forward = packed[i][0]
        for j in range(i + 1, len(strings)):
            backward = packed[j][1]
            shared = forward.keys() & backward.keys()
            agree = sum(map(mul, map(forward.__getitem__, shared), map(backward.__getitem__, shared)))
            # field t of ones * ones is the overlap length at shift t, in [0,
            # |i|+|j|-2]; it is never below field t of agree, so nothing borrows
            disagree = ones[i] * ones[j] - agree
            span = len(base) + len(strings[j])
            fields = array(typecode, disagree.to_bytes((span - 1) * size, "little"))
            if sys.byteorder == "big":
                fields.byteswap()
            row = counts[i, j] = [*fields, 0]
            counts[j, i] = row[-2::-1] + [0]
            counters.pair_build += span ** 2
    return MismatchTable(instance, counts)
