"""Merge cores: minimal windows holding the mistake string between anchors.

A *triple core* for ordered indices (l, m, r) is the shortest window such
that string l sits exactly at the window's left edge, string r exactly at
its right edge, their overlap (if any) is conflict-free, and string m fits
somewhere inside the window with at most k disagreements against the union
of l and r.  Window coordinates: l occupies [0, |l|-1], r occupies
[length-|r|, length-1], m occupies [start, start+|m|-1] with
0 <= start <= length-|m|.

A cell's cost is the number of window positions covered by m where m
disagrees with an anchor; positions covered by neither anchor are free.  The
builders split the window lengths into two regimes:

  * Overlapping anchors (length < |l|+|r|), only at lengths whose overlay is
    clean (`table.clean_lengths[l, r]`).  l and r then spell every window
    position, so a cell's cost is the Hamming distance between m and that
    window (`overlaid_window`) at its start, one C-level pass over the
    characters.  Every character of either anchor is a window character,
    so that cost is at least m's count against each anchor alone.  Cells
    where the count against l (by start, from `table.starts[l, m]`) or
    against r (by shift, from `table.counts[r, m]`) already exceeds k are
    passed over without counting.
  * Disjoint anchors (length >= |l|+|r|).  The two sides add up, so a cell's
    cost is m's count against l at its start plus its count against r at
    its distance d from the window's end, read from `table.starts[l, m]`
    and `table.counts[r, m]`.  `_first_fit` searches starts instead of
    cells: for each start the least fitting d is one bisect in the sorted
    list of right-anchor shifts within the remaining budget.
    `table.shifts_within[r, m]` maps each budget 0..k to that list: the
    list for k is one scan of the pair's counts, and each smaller budget's
    list, built on its first lookup, filters the list for k.  The table
    keeps them, so the triple and pair builders share them.

Both regimes begin at the first start whose count against l alone is
within k: every earlier start is over budget before r is read.  The table
holds that start for every (l, m), next to the per-start counts
(`table.starts[l, m]`), for all n - 2 right anchors and for the core with
l alone.

A core is keyed (l, m, r) like the solver's shapes, -1 marking an absent
anchor.  The *pair cores* (l, m, -1) and (-1, m, r) are the degenerate
variants used when the mistake string is the overall last or first string:
only one anchor, at the left or right edge, so every cell is in the
disjoint regime.  An absent anchor has no counts and no length, so one
per-(m, r) search builds both kinds.

Per entry the builder returns the first feasible (length, start) in
ascending (length, start) order; that placement is the reconstruction
witness and makes outputs reproducible.  The `core_scan` counter counts the
cells such a scan visits up to and including the winner, summed from the
winner's position, for every core built; the builders themselves look at
far fewer.

`CoreTable` builds each core on its first lookup, one group at a time: a
key with an absent anchor builds the 2(n-1) pair cores of its m, and one
with both anchors the n - 2 cores of its (m, r), every l.  The solver looks
cores up only for a mistake string it composes, so one it skips gets none
built.  The composition reads a triple core only for a shape that a cheap
lower bound on it cannot turn away (`CoreTable.triple_floor`), so most are
never built where the glue decides.  The bound is the largest
of these, each core standing for its length:

  * (l, m, -1) and (-1, m, r): a triple cell's count against either anchor
    alone is at most its count against both, so the same placement is a
    pair cell at no greater length;
  * the shortest clean length of l and r, |l|+|r|-overlap(l, r): a window
    holds both anchors, agreeing where they overlap;
  * when (l, m, -1) > |l| and (-1, m, r) > |r|, their sum minus |m|.  With
    m at start s in a triple window of length L, the window of max(|l|,
    s+|m|) is a cell of (l, m, -1), so (l, m, -1) <= max(|l|, s+|m|), which
    the first condition makes s+|m|; mirrored, (-1, m, r) <= L - s.
    Together L >= (l, m, -1) + (-1, m, r) - |m|.  Without the conditions
    this does not hold: m may sit inside an anchor.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Mapping, Sequence
from math import inf
from operator import ne
from typing import NamedTuple

from .counters import Counters
from .instance import Instance
from .mismatches import MismatchTable


class CorePlacement(NamedTuple):
    length: int
    m_start: int


class CoreTable(dict):
    """(l, m, r) -> merge core, -1 marking an absent anchor, built on first lookup.

    A missing key with an absent anchor builds the 2(n-1) one-anchor cores
    of its m (`build_pair_cores`); one with both anchors builds the n - 2
    cores of its (m, r), every l (`build_triple_cores`).  Either adds its
    cells to `counters`.  A key no builder makes (no anchor, m equal to an
    anchor, equal anchors, an index out of range) raises KeyError before
    anything is built.
    """

    def __init__(self, instance: Instance, table: MismatchTable, counters: Counters):
        super().__init__()
        self._build = (instance, table, counters)

    def __missing__(self, key: tuple[int, int, int]) -> CorePlacement:
        l, m, r = key
        n = self._build[0].n
        # a key no builder makes is refused before anything is built
        if l == r or m in (l, r) or not (0 <= m < n and -1 <= l < n and -1 <= r < n):
            raise KeyError(key)
        # the builders are read by their module-level names, so a wrapper
        # bound to those names (the bench's tracer) sees every core built
        if l < 0 or r < 0:
            built = build_pair_cores(*self._build, m)
        else:
            built = build_triple_cores(*self._build, m, r)
        self.update(built)
        return built[key]

    def triple_floor(self, lengths: Sequence[int], overlap: int, l: int, m: int, r: int) -> int:
        """A lower bound on self[l, m, r].length from the one-anchor cores, which builds no triple core.

        `overlap` is overlap(l, r); the module docstring says why each term
        holds.
        """
        left, right = self[l, m, -1].length, self[-1, m, r].length
        floor = max(left, right, lengths[l] + lengths[r] - overlap)
        if left > lengths[l] and right > lengths[r]:
            floor = max(floor, left + right - lengths[m])
        return floor


def overlaid_window(left: str, right: str, length: int) -> str:
    """The characters of a window of `length` whose anchors overlap cleanly.

    `left` and `right` overlap (length < |left|+|right|) and agree where they
    do, so together they spell every window position: `left`, then the part
    of `right` past the overlap.
    """
    return left + right[len(left) + len(right) - length :]


def _first_overlapping_fit(
    left: str,
    middle: str,
    right: str,
    clean: Sequence[int],
    left_bound: list[int],
    right_bound: list[int],
    first: int,
    k: int,
) -> tuple[CorePlacement | None, int]:
    """First (length, start) within budget over the clean overlapping lengths.

    Every position is an anchor's, so a cell's cost is the Hamming distance
    between m and the window at its start.  Every character of either
    anchor is a window character, so that distance is at least m's count
    against each anchor alone: left_bound[start] counts m against `left`,
    and right_bound[t] counts it against `right` at shift t, which is
    start + |m| + |right| - 1 - length (m ends before `right` begins, with
    no count, where that is negative).  A start either count puts over
    budget is passed over without counting characters, and the search
    begins at `first`, the first start the left count does not.  Also
    returns the number of cells a scan visits, the winner included.
    """
    len_m = len(middle)
    work = 0
    for length in clean:
        window = overlaid_window(left, right, length)
        offset = len_m + len(right) - 1 - length  # the right-anchor shift of start 0
        for start in range(first, length - len_m + 1):
            if start < len(left_bound) and left_bound[start] > k:
                continue
            if start + offset >= 0 and right_bound[start + offset] > k:
                continue
            if sum(map(ne, middle, window[start:])) <= k:
                return CorePlacement(length, start), work + start + 1
        work += max(0, length - len_m + 1)
    return None, work


def _first_fit(
    left: list[int],
    first: int,
    right: list[int],
    within: Mapping[int, Sequence[int]],
    len_m: int,
    lo: int,
    k: int,
) -> tuple[CorePlacement, int]:
    """Least (length, start) with length >= lo whose two sides cost at most k.

    Valid where the anchors share no window position, so their mismatches
    add up.  left[s] counts m starting at s against the left anchor, zero
    past the list's end, and `first` is the first start with left[s] <= k:
    every start before it is over budget on the left alone.  m starting d
    positions before the window's end sits at shift t = |m|+|r|-1-d across
    the right anchor: right[t] counts it, `within[b]` lists ascending the
    shifts with at most b mismatches, and at every d >= |m|+|r| m is clear
    of the anchor (an absent anchor has an empty `right`).

    The search runs over starts from `first`: for each start s the least
    d >= max(|m|, lo - s) that the remaining budget allows is that d itself
    or one bisect away, so (s + d, s) is that start's best cell.  No start
    beats max(lo, s + |m|), and past both the left anchor and lo - |m|
    every start finds the same d, which ends the search.  The second value
    is the number of cells a scan in ascending (length, start) order would
    visit up to and including the winner, summed in closed form: every
    start of each shorter length, then the winner's.
    """
    # conditional expressions in place of max(): this loop is hot on short strings
    top = (len(right) if len(right) > len_m else len_m) - 1  # the shift of d = |m|
    n_left = len(left)
    best_len, best_start = inf, 0
    for s in range(first, (n_left if n_left > lo - len_m else lo - len_m) + 1):
        if best_len <= lo or best_len <= s + len_m:
            break
        budget = k - left[s] if s < n_left else k
        if budget < 0:
            continue
        floor = lo - s if lo - s > len_m else len_m
        shift = top - floor
        if shift < 0 or right[shift] <= budget:
            d = floor
        else:
            shifts = within[budget]
            i = bisect_right(shifts, shift)
            d = top - shifts[i - 1] if i else top + 1
        if s + d < best_len:
            best_len, best_start = s + d, s
    fewest = (lo if lo > len_m else len_m) - len_m + 1  # cells at the first length with any start
    most = best_len - len_m  # cells at the length before the winner's
    missed = (fewest + most) * (most - fewest + 1) // 2 if most >= fewest else 0
    return CorePlacement(best_len, best_start), missed + best_start + 1


def _build_cores(
    instance: Instance,
    table: MismatchTable,
    groups: Iterable[tuple[int, int, list[int]]],
    counters: Counters,
) -> dict[tuple[int, int, int], CorePlacement]:
    """The core of (l, m, r) for every l listed with each (m, r), -1 marking an absent anchor.

    One search per (m, r): the right anchor's counts and budget lists are
    read once for all its left anchors.  An absent anchor has no counts and
    no length, so `_first_fit` serves it unchanged, and only two anchors can
    overlap.
    """
    strings = instance.strings
    k = instance.k
    lengths = [len(s) for s in strings] + [0]  # lengths[-1]: an absent anchor takes no room
    result: dict[tuple[int, int, int], CorePlacement] = {}
    work = 0
    for m, r, anchors in groups:
        len_m, len_r = lengths[m], lengths[r]
        right, within = (table.counts[r, m], table.shifts_within[r, m]) if r >= 0 else ([], {})
        for l in anchors:
            placement = None
            left, first = table.starts[l, m] if l >= 0 else ([], 0)
            if l >= 0 and r >= 0:
                # the window lengths below |l|+|r| whose anchor overlay is conflict-free
                overlaid = table.clean_lengths[l, r]
                if overlaid and overlaid[-1] >= len_m:
                    placement, cells = _first_overlapping_fit(
                        strings[l], strings[m], strings[r], overlaid, left, right, first, k
                    )
                    work += cells
            if placement is None:
                placement, cells = _first_fit(left, first, right, within, len_m, lengths[l] + len_r, k)
                work += cells
            result[l, m, r] = placement
    counters.core_scan += work
    return result


def build_triple_cores(
    instance: Instance, table: MismatchTable, counters: Counters, m: int, r: int
) -> dict[tuple[int, int, int], CorePlacement]:
    """Minimal core window (l, m, r) for every l other than m and r.

    Always succeeds: the window that concatenates l, m, r disjointly is
    feasible with zero mismatches, so every entry is finite.
    """
    anchors = [l for l in range(instance.n) if l != m and l != r]
    return _build_cores(instance, table, [(m, r, anchors)], counters)


def build_pair_cores(
    instance: Instance, table: MismatchTable, counters: Counters, m: int
) -> dict[tuple[int, int, int], CorePlacement]:
    """Minimal one-anchor cores of m, keyed (l, m, -1) and (-1, m, r).

    (l, m, -1): l at the window's left edge, m anywhere inside, mismatches
    counted against l only.  (-1, m, r) is the mirror image with r at the
    right edge.
    """
    others = [e for e in range(instance.n) if e != m]
    groups = [(m, -1, others)] + [(m, r, [-1]) for r in others]
    return _build_cores(instance, table, groups, counters)
