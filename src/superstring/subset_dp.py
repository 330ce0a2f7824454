"""Clean-overlap table and bitmask subset superstring tables.

``overlap(w, v)`` is the largest t such that the length-t suffix of string w
equals the length-t prefix of string v.  It is read from the mismatch table,
not from the characters: w at a window's left edge and v at its right edge
overlap by t in a window of |w|+|v|-t, so the largest t is |w|+|v| minus
the shortest of ``MismatchTable.clean_lengths[w, v]``, and 0 when there is
none.  Because no input may contain another, t is strictly below both
lengths for w != v.  The diagonal is 0: no string is glued to itself, so
a reader may take the maximum of a row or column, or the positive entries
of one, without skipping it.

``dp_right[j][mask]`` is the length of the shortest string containing every
input named by ``mask`` exactly, arranged as a chain glued at maximal clean
overlaps, with string j the rightmost link.  ``dp_left`` has j as the
leftmost link.  It is not a separate mirror: it is the same recurrence run
on the transposed overlap table, since prepending j to a chain that starts
with p gains overlap(j, p), the transposed entry (p, j).  Masks are filled
in increasing order so every submask is ready when needed.

The Held-Karp recurrence ``dp[j][mask] = |s_j| + min over p in rest of
(dp[p][rest] - overlap(p, j))``, rest = mask - j, is evaluated from row
minima.  Overlaps are never negative, so every term is at most its entry
dp[p][rest]: the least entry of row rest, ``row_min[rest]``, is never below
the true minimum, and no term of a predecessor with overlap 0 is below it.
The minimum is therefore the smaller of ``row_min[rest]`` and the terms of
the predecessors with a positive overlap, and only those are read.  A row's
minimum is the shortest chain over its mask, whichever end is fixed, so
both tables share one array of row minima.

Layout.  Each table is one column per end string j: an ``array`` of 2^n
unsigned fields of w bits, indexed by mask.  An entry whose mask lacks j
holds the sentinel ``never = 2^(w-1) - 1``; the typecode is the narrowest of
H, I, L, Q with ``sum(lengths) + max(lengths) < never``, so every entry, and
every entry plus one more string, lies below it.  Row minima are an array of
the same typecode.

Word-parallel fill.  Rows are filled in chunks of 2^4 (``_ROW_BITS``).  In
a chunk, the members j < 4 of each row are filled entry by entry, from the
predecessors p < 4 alone (the scalar step below).  After a
chunk that ends at row ``end``, with j the lowest set bit of ``end``, column
j over rows [end, end + 2^j) is the one slice that has just become ready: its
rest rows are [end - 2^j, end), all complete.  That slice is computed as one
integer per operand (SWAR): the 2^j fields of ``row_min`` and of each
positive-overlap predecessor's column over the rest rows are read with
``int.from_bytes``, and

- ``gain`` is subtracted from every field of a predecessor at once.  No
  borrow crosses a field: an entry is at least |s_p|, which is more than
  overlap(p, j), and the sentinel is larger still.
- fieldwise minima use the top bit of each field as a guard.  Every value
  is below 2^(w-1), so ``(best | guard) - term`` keeps each field in
  (0, 2^w) without a borrow, and its guard bit is set exactly where
  best >= term; that bit, moved to the bottom of the field and multiplied by
  2^w - 1, masks the fields that take ``term``.
- |s_j| is added to every field, which stays below the sentinel since the
  minimum is at most row_min, a real chain.

The result is written back with ``to_bytes``, and folded by the same minimum
straight into ``row_min``, which starts at the sentinel (0 for the empty
row): until a row's own chunk is filled, its entry is the running minimum
of its columns j >= 4, and the chunk finishes it with its entries j < 4.
Every column j >= 4 of a row comes from a slice that starts at or below the
row's chunk, so it is written before that chunk is filled, and a slice reads
only rows below its own, all finished.

The scalar step.  Each column j < 4 has an accumulator ``acc[j]`` of 2^n
fields, all the sentinel at first.  Once the slice of a column p >= 4 is
written, ``best - overlap(p, j)`` is folded by the same minimum into
``acc[j]`` over the slice's rows, for every j < 4 with a positive
overlap(p, j); every row of the slice holds p, so every folded field is a
real term.  An entry j < 4 of a row is then |s_j| plus the least of
``row_min[rest]``, ``acc[j][rest]`` and the terms of its predecessors p < 4.
rest lies in the entry's own chunk, so, by the argument above, every slice
of rest has been written and folded by then: ``acc[j][rest]`` is the least
term over all predecessors p >= 4.  A column that no string p >= 4
overlaps does not read its accumulator, which stays the sentinel.
``dp_left`` folds the transposed overlaps the same way.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

from .counters import Counters
from .instance import Instance
from .mismatches import MismatchTable

# rows per chunk of the scalar step, 2^_ROW_BITS; columns j >= _ROW_BITS
# are filled word-parallel, a whole column slice per operation
_ROW_BITS = 4


@dataclass
class SubsetTable:
    """One column per end string: ``dp_right[j][mask]``, ``dp_left[j][mask]``.

    Each column is an ``array`` of 2^n unsigned fields of w bits (typecode
    H, I, L or Q, the narrowest that holds the instance); an entry whose
    mask lacks j holds the sentinel 2^(w-1) - 1, above every real entry.
    ``row_min[mask]`` is the least entry of row mask, the same in both
    tables (0 for the empty mask): the shortest chain over mask.  It is an
    array of the same typecode.
    """

    dp_right: list[array]
    dp_left: list[array]
    row_min: array


def build_overlap_table(instance: Instance, mismatch: MismatchTable) -> list[list[int]]:
    """Maximal clean overlap for every ordered pair, 0 on the diagonal.

    A clean window of max(|w|, |v|) would put one string inside the other,
    which a valid instance rules out, so the shortest clean length is longer
    than both strings and the overlap below both lengths.
    """
    lengths = [len(s) for s in instance.strings]
    # with no clean length the shortest window is the disjoint one, overlap 0
    return [
        [
            0 if w == v else len_w + len_v - (mismatch.clean_lengths[w, v] or (len_w + len_v,))[0]
            for v, len_v in enumerate(lengths)
        ]
        for w, len_w in enumerate(lengths)
    ]


def _row_minima(instance: Instance) -> array:
    """2^n row minima in the narrowest typecode whose sentinel is above every
    entry plus one more string, each the sentinel but the empty row's 0."""
    lengths = [len(s) for s in instance.strings]
    for code in "HIL":
        if sum(lengths) + max(lengths) < (1 << 8 * array(code).itemsize - 1) - 1:
            break
    else:
        code = "Q"
    row_min = array(code, [(1 << 8 * array(code).itemsize - 1) - 1]) * (1 << instance.n)
    row_min[0] = 0
    return row_min


def _chain_dp(
    instance: Instance,
    overlaps: Sequence[Sequence[int]],
    row_min: array,
    row_min_filled: bool = False,
) -> list[array]:
    """``dp[j][mask]``: min over p of ``dp[p][mask - j] + |s_j| - overlaps[p][j]``.

    Columns j < _ROW_BITS are filled entry by entry, each from the minimum
    of row ``rest = mask - j``, of its accumulator ``acc[j][rest]`` and of
    the predecessors p < _ROW_BITS of j with a positive overlap, whose
    sentinel entries outside rest never win; the others a slice at a time,
    each slice also folding its terms for the columns j < _ROW_BITS it
    overlaps into their accumulators (the module docstring says why both
    are exact).  The diagonal of ``overlaps`` is 0, so no column is its own
    predecessor.
    ``row_min`` has 2^n entries, the sentinel but the empty row's 0, and
    receives each row's minimum as the row is filled; the empty row stays 0,
    so a singleton gets |s_j|.  As the minima are the same in both tables,
    dp_left may be filled against the array dp_right filled, with
    `row_min_filled` set so that it is only read.
    """
    n = instance.n
    lengths = [len(s) for s in instance.strings]
    itemsize = row_min.itemsize
    width = 8 * itemsize
    top = width - 1
    field = (1 << width) - 1
    never = (1 << top) - 1
    order = sys.byteorder
    from_bytes = int.from_bytes
    code = row_min.typecode
    dp = [array(code, [never]) * (1 << n) for _ in range(n)]
    gains = [[(p, overlaps[p][j]) for p in range(n) if overlaps[p][j] > 0] for j in range(n)]
    bytes_of = [memoryview(column).cast("B") for column in dp]
    mins_bytes = memoryview(row_min).cast("B")
    # column j -> 2^j fields of 1, and of the guard bit alone
    units = [(ones, ones << top) for ones in (from_bytes(array(code, [1]) * (1 << j), order) for j in range(n))]

    bits = min(_ROW_BITS, n)
    # column j < bits -> min over its predecessors p >= bits in a row of
    # dp[p][row] - overlap(p, j), folded in by the slices
    acc = [array(code, [never]) * (1 << n) for _ in range(bits)]
    acc_bytes = [memoryview(column).cast("B") for column in acc]
    # slice column p -> [(bytes, gain)]: the arrays its entries less gain are
    # folded into, row_min with 0 while it is being filled and acc[j] with
    # overlap(p, j) for each of its successors j < bits
    folds = [
        [(mins_bytes, 0)] * (not row_min_filled)
        + [(acc_bytes[j], gain) for j, gain in enumerate(overlaps[p][:bits]) if gain > 0]
        for p in range(n)
    ]
    # column j < bits -> what its entries read: acc[j] with gain 0 in place
    # of every predecessor p >= bits, then (column p, overlap(p, j)) for p < bits
    reads = [
        [(acc[j], 0)] * any(p >= bits for p, _ in gains[j]) + [(dp[p], gain) for p, gain in gains[j] if p < bits]
        for j in range(bits)
    ]
    # low bits of a mask -> (2^j, |s_j|, column j, reads[j]) for its members j < bits
    members = [
        [(1 << j, lengths[j], dp[j], reads[j]) for j in range(bits) if low >> j & 1] for low in range(1 << bits)
    ]
    for start in range(0, 1 << n, 1 << bits):
        for low, steps in enumerate(members):
            mask = start | low
            row_best = row_min[mask]
            for bit, length, column, preds in steps:
                rest = mask ^ bit
                best = row_min[rest]
                for prev, gain in preds:
                    value = prev[rest] - gain
                    if value < best:
                        best = value
                best += length
                column[mask] = best
                if best < row_best:
                    row_best = best
            if not row_min_filled:
                row_min[mask] = row_best

        end = start + (1 << bits)
        j = (end & -end).bit_length() - 1
        if j >= n:
            continue
        ones, guard = units[j]
        size = itemsize << j
        mid = end * itemsize
        lo, hi = mid - size, mid + size
        best = from_bytes(mins_bytes[lo:mid], order)
        for p, gain in gains[j]:
            term = from_bytes(bytes_of[p][lo:mid], order) - gain * ones
            take = (((best | guard) - term) & guard) >> top
            best ^= (best ^ term) & take * field
        best += lengths[j] * ones
        bytes_of[j][mid:hi] = best.to_bytes(size, order)
        for into, gain in folds[j]:
            term = best - gain * ones
            have = from_bytes(into[mid:hi], order)
            take = (((have | guard) - term) & guard) >> top
            have ^= (have ^ term) & take * field
            into[mid:hi] = have.to_bytes(size, order)
    return dp


def build_subset_table(instance: Instance, overlap: Sequence[Sequence[int]], counters: Counters) -> SubsetTable:
    """Both tables, filled in turn against one shared array of row minima.

    ``dp_left`` is the ``dp_right`` recurrence on the transposed overlaps.
    Each table adds the recurrence's term count to its counter, one per
    (mask, j, p in rest) whether read or skipped: the sum of c(c-1) over
    masks of c members, n(n-1)2^(n-2), which is 0 for a single string.
    """
    row_min = _row_minima(instance)
    dp_right = _chain_dp(instance, overlap, row_min)
    dp_left = _chain_dp(instance, list(zip(*overlap)), row_min, row_min_filled=True)
    n = instance.n
    terms = n * (n - 1) * (1 << n) // 4
    counters.dp_right += terms
    counters.dp_left += terms
    return SubsetTable(dp_right=dp_right, dp_left=dp_left, row_min=row_min)
