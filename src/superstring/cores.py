"""Merge cores: minimal windows holding the mistake string between anchors.

A *triple core* for ordered indices (l, m, r) is the shortest window such
that string l sits exactly at the window's left edge, string r exactly at
its right edge, their overlap (if any) is conflict-free, and string m fits
somewhere inside the window with at most k disagreements against the union
of l and r.  Window coordinates: l occupies [0, |l|-1], r occupies
[length-|r|, length-1], m occupies [start, start+|m|-1] with
0 <= start <= length-|m|.

Counting m's disagreements splits into four region cases:

  1. m ends inside l                -> count against l only
  2. m starts inside r              -> count against r only
  3. l and r do not overlap         -> count both sides independently
  4. l and r overlap and m crosses  -> count both sides, then subtract the
     positions inside the l/r overlap, which were counted twice (r agrees
     with l there, so each such window position holds one character)

The builders split the window lengths into two regimes:

  * Disjoint anchors (length >= |l|+|r|, cases 1-3).  The two sides add up,
    so a cell is two list reads: per-start counts of m against the left
    anchor and against the right anchor (`_edge_counts`), built once per
    string pair from `MismatchTable.counts`.
  * Overlapping anchors (length < |l|+|r|), only at lengths whose overlay is
    clean.  A cell goes through `placement_mismatches`, whose case 4 needs
    the duplicate correction from `MismatchTable.count_up_to`.

The *pair cores* are the degenerate variants used when the mistake string is
the overall first or last string: only one anchor, at the left (pair_left)
or right (pair_right) edge, so every cell is in the first regime.

Per entry the builder keeps the first feasible (length, start) found while
scanning lengths, then starts, in ascending order; that placement is the
reconstruction witness and makes outputs reproducible.  The `core_scan`
counter counts those cells up to and including the winner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .counters import Counters
from .instance import Instance
from .mismatches import MismatchTable


class CorePlacement(NamedTuple):
    length: int
    m_start: int


@dataclass
class CoreTable:
    """Minimal core windows, keyed by string indices."""

    triple: dict[tuple[int, int, int], CorePlacement]
    pair_left: dict[tuple[int, int], CorePlacement]
    pair_right: dict[tuple[int, int], CorePlacement]


def overlay_is_clean(left: str, right: str, length: int) -> bool:
    """True iff anchoring `left` and `right` in a window of `length` is conflict-free.

    `left` occupies [0, |left|-1] and `right` occupies [length-|right|,
    length-1]; their shared region, when there is one, pits a suffix of
    `left` against a prefix of `right`.  Windows of length >= |left|+|right|
    have no shared region and are trivially clean.
    """
    overlap = len(left) + len(right) - length
    if overlap <= 0:
        return True
    offset = length - len(right)
    return all(left[offset + t] == right[t] for t in range(overlap))


def classify_placement(len_l: int, len_m: int, len_r: int, length: int, start: int) -> int:
    """Region case (1-4) for m placed at `start` in a window of `length`."""
    end_m = start + len_m - 1
    if end_m < len_l:
        return 1
    if start >= length - len_r:
        return 2
    if length >= len_l + len_r:
        return 3
    return 4


def placement_mismatches(
    table: MismatchTable,
    l: int,
    m: int,
    r: int,
    len_l: int,
    len_m: int,
    len_r: int,
    length: int,
    start: int,
) -> int:
    """Mismatches of m against the union of l and r for one placement.

    Each window position covered by m counts at most once; positions covered
    by neither anchor are free.
    """
    end_m = start + len_m - 1
    case = classify_placement(len_l, len_m, len_r, length, start)
    if case == 1:
        return table.count(l, m, end_m)
    end_in_r = end_m - (length - len_r)
    if case == 2:
        return table.count(r, m, end_in_r)
    if case == 3:
        mistakes = 0
        if start < len_l:
            mistakes += table.count(l, m, end_m)
        if end_in_r >= 0:
            mistakes += table.count(r, m, end_in_r)
        return mistakes
    # case 4: l and r overlap and m touches both; mismatches inside the l/r
    # overlap appear in both lists, so drop the duplicates found on the r side
    mistakes = table.count(l, m, end_m) + table.count(r, m, end_in_r)
    overlap = len_l + len_r - length
    return mistakes - table.count_up_to(r, m, end_in_r, overlap - 1)


def _edge_counts(
    table: MismatchTable, lengths: list[int]
) -> tuple[dict[tuple[int, int], list[int]], dict[tuple[int, int], list[int]]]:
    """Per-start mismatch counts of every string against every anchor.

    left[a, m][s] counts m starting at s against anchor a at the window's
    left edge; right[a, m][d] counts m starting d positions before the
    window's end against anchor a at its right edge.  Both are zero-padded
    (m clear of the anchor) so that every index up to the longest window,
    |l|+|m|+|r| <= 3 * longest string, is valid.
    """
    width = 3 * max(lengths) + 1
    left: dict[tuple[int, int], list[int]] = {}
    right: dict[tuple[int, int], list[int]] = {}
    for a, len_a in enumerate(lengths):
        for m, len_m in enumerate(lengths):
            if m == a:
                continue
            # shift s+|m|-1 puts m's last character under the left anchor;
            # shift |m|+|a|-1-d does the same under the right anchor
            counts = table.counts(a, m)
            left[a, m] = counts[len_m - 1 :] + [0] * (width - len_a - 1)
            counts.reverse()
            right[a, m] = counts + [0] * (width - len_a - len_m)
    return left, right


def _first_fit(
    left: list[int], right: list[int], len_m: int, lengths: range, k: int
) -> tuple[CorePlacement | None, int]:
    """First (length, start) with left[start] + right[length - start] <= k.

    Valid wherever the anchors' mismatches add up, i.e. where they do not
    share window positions.  Also returns the number of cells visited: every
    start of each missed length, plus the winner and the starts before it.
    """
    work = 0
    for length in lengths:
        for start in range(length - len_m + 1):
            if left[start] + right[length - start] <= k:
                return CorePlacement(length, start), work + start + 1
        work += max(0, length - len_m + 1)
    return None, work


def _first_overlapping_fit(
    table: MismatchTable,
    l: int,
    m: int,
    r: int,
    lengths: list[int],
    clean: list[int],
    k: int,
) -> tuple[CorePlacement | None, int]:
    """`_first_fit` for window lengths where l and r overlap cleanly."""
    len_l, len_m, len_r = lengths[l], lengths[m], lengths[r]
    work = 0
    for length in clean:
        for start in range(length - len_m + 1):
            work += 1
            mistakes = placement_mismatches(
                table, l, m, r, len_l, len_m, len_r, length, start
            )
            if mistakes <= k:
                return CorePlacement(length, start), work
    return None, work


def build_triple_cores(
    instance: Instance, table: MismatchTable, counters: Counters | None = None
) -> dict[tuple[int, int, int], CorePlacement]:
    """Minimal core window for every ordered distinct triple (l, m, r).

    Always succeeds: the window that concatenates l, m, r disjointly is
    feasible with zero mismatches, so every entry is finite.
    """
    n = instance.n
    k = instance.k
    lengths = [len(s) for s in instance.strings]
    left, right = _edge_counts(table, lengths)
    result: dict[tuple[int, int, int], CorePlacement] = {}
    work = 0
    for l in range(n):
        len_l = lengths[l]
        for r in range(n):
            if r == l:
                continue
            len_r = lengths[r]
            overlay = table.counts(l, r)
            clean = [
                length
                for length in range(max(len_l, len_r), len_l + len_r)
                if overlay[length - 1] == 0
            ]
            for m in range(n):
                if m == l or m == r:
                    continue
                placement, cells = _first_overlapping_fit(table, l, m, r, lengths, clean, k)
                work += cells
                if placement is None:
                    disjoint = range(len_l + len_r, len_l + len_r + lengths[m] + 1)
                    placement, cells = _first_fit(left[l, m], right[r, m], lengths[m], disjoint, k)
                    work += cells
                assert placement is not None, "disjoint concatenation is always feasible"
                result[l, m, r] = placement
    if counters is not None:
        counters.core_scan += work
    return result


def build_pair_cores(
    instance: Instance, table: MismatchTable, counters: Counters | None = None
) -> tuple[dict[tuple[int, int], CorePlacement], dict[tuple[int, int], CorePlacement]]:
    """Minimal left-anchored and right-anchored pair cores.

    pair_left[(l, m)]: l at the window's left edge, m anywhere inside,
    mismatches counted against l only.  pair_right[(m, r)] is the mirror
    image with r at the right edge.
    """
    n = instance.n
    k = instance.k
    lengths = [len(s) for s in instance.strings]
    left, right = _edge_counts(table, lengths)
    # the absent anchor contributes no mismatches anywhere
    free = [0] * (3 * max(lengths) + 1)
    pair_left: dict[tuple[int, int], CorePlacement] = {}
    pair_right: dict[tuple[int, int], CorePlacement] = {}
    work = 0
    for l in range(n):
        for m in range(n):
            if m == l:
                continue
            span = range(max(lengths[l], lengths[m]), lengths[l] + lengths[m] + 1)
            placement, cells = _first_fit(left[l, m], free, lengths[m], span, k)
            assert placement is not None
            pair_left[l, m] = placement
            work += cells
    for m in range(n):
        for r in range(n):
            if r == m:
                continue
            span = range(max(lengths[m], lengths[r]), lengths[m] + lengths[r] + 1)
            placement, cells = _first_fit(free, right[r, m], lengths[m], span, k)
            assert placement is not None
            pair_right[m, r] = placement
            work += cells
    if counters is not None:
        counters.core_scan += work
    return pair_left, pair_right


def build_core_table(
    instance: Instance, table: MismatchTable, counters: Counters | None = None
) -> CoreTable:
    """Build every core the composition step needs for this instance size."""
    triple = build_triple_cores(instance, table, counters) if instance.n >= 3 else {}
    pair_left, pair_right = build_pair_cores(instance, table, counters)
    return CoreTable(triple=triple, pair_left=pair_left, pair_right=pair_right)
