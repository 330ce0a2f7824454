"""Iteration counters for the solver phases, with their closed-form bounds.

Each counter records the exact number of innermost iterations a phase
performed; the bounds are the worst-case loop sizes for an instance with n
strings whose longest string has length c.  A counter exceeding its bound
means a loop runs outside its intended shape, so the CLI checks every count
of `report` against its bound whenever counters are requested.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass
class Counters:
    pair_build: int = 0
    core_scan: int = 0
    dp_right: int = 0
    dp_left: int = 0
    composition: int = 0
    window_scan: int = 0
    glue_scan: int = 0

    @staticmethod
    def bounds(n: int, c: int) -> dict[str, int]:
        # pair_build is the size of the alignment grid the mismatch table
        # covers, not the comparisons made: one slider character per shift
        # of every ordered pair, sum over i != j of (|s_i| + |s_j|) * |s_j|,
        # which is at most 2c * c per pair and exactly that when all
        # strings have length c.
        # core_scan counts, for every merge core built, the cells a scan in
        # ascending (length, start) order visits up to its winner.  Cores
        # are built on their first lookup, a group at a time: the first
        # pair core read of a mistake string m builds its 2(n-1), and every
        # m composed reads one; the first triple core read of an (m, r)
        # pair builds its n - 2, and the composition reads one only past a
        # cutoff.  A mistake string the skip passes over reads none, so
        # which m and which (m, r) get cores, and the count, depend on the
        # cutoffs.  At most n^3 cores of at most 3c lengths and 3c starts
        # each.
        # dp_right and dp_left count the terms of the subset recurrence, one
        # per ordered pair of distinct members of each mask, read or skipped:
        # the sum of c(c-1) over masks of c members is exactly n(n-1)2^(n-2).
        # composition counts the n baseline candidates plus one per anchored
        # (kind, l, r) shape of each mistake string composed: 2(n-1) +
        # (n-1)(n-2) = n(n-1) per string, so n + c n(n-1) with c the
        # mistake strings composed.  A mistake string whose chain of the
        # other strings already reaches the incumbent's cutoff is skipped
        # (solver module docstring), so c depends on the cutoffs; with every
        # string composed the count is n^3 - n^2 + n, within the bound n^3.
        # A single string has no pair, no other string and no shape: only
        # its baseline candidate is counted, composition 1, every other 0.
        # At k = 0 the baseline is the answer and no shape is composed:
        # composition is n, and core_scan, window_scan and glue_scan are 0
        # (nothing looks a merge core up, so none is built); both subset
        # tables are, so dp_right and dp_left keep their count.
        # window_scan counts the absorbed-shape work: anchor windows a scan
        # visits plus interior placements the search tries, fewest options
        # first, under a window's cover or under the bare cover (nothing
        # fixed).  A cover filters a string's placements only when a set
        # holding it is asked about, which tries no placement and counts
        # nothing.  The bare searches list, once per mistake string, the sets
        # that fit with nothing fixed: one search per extension of a listed
        # set by one more string that fits alone, whether or not a shape
        # asks about the set later.  Answers memoised in a cover, which is
        # kept for the whole mistake string, try none, and only listed sets
        # are swept, so a set that fails under the bare cover visits no
        # window.  On a few instances the listing tries more placements than
        # the sweep would have, since it also asks about sets that every
        # shape's cutoff turns away.  Cutoffs come from one incumbent
        # carried through the mistake strings in index order, so the count
        # depends on that order; a skipped mistake string lists no set and
        # scans no window.
        # The search has no tight polynomial shape, so its bound is the
        # product of its loop ranges (anchor/interior-set choices, window
        # cells, placement tree) and is deliberately loose.  glue_scan
        # counts the left/right chain splits tried for a two-anchor shape,
        # anchored or absorbed, whose window beat the carried incumbent
        # minus the shape's glue lower bound, the largest of four
        # (solver._split_floor): 2^|outside| per scan, one per submask of
        # the strings outside (l, m, r, interiors).  A tighter bound also
        # lowers the cutoff a window must beat, so it can only lower
        # window_scan and glue_scan, never raise them.  Summed over
        # the interior sets of one (m, l, r) that is at most 3^(n-3), pruned
        # or not
        return {
            "pair_build": 2 * n * (n - 1) * c * c,
            "core_scan": n ** 3 * (3 * c) ** 2,
            "dp_right": n * (n - 1) * 2 ** n // 4,
            "dp_left": n * (n - 1) * 2 ** n // 4,
            "composition": n ** 3,
            "window_scan": n ** 4 * 3 ** n * (3 * c) ** 2 * c ** n,
            "glue_scan": n * (n - 1) * (n - 2) * 3 ** max(n - 3, 0),
        }

    def report(self, n: int, c: int) -> dict[str, dict[str, int]]:
        bounds = self.bounds(n, c)
        return {name: {"count": count, "bound": bounds[name]} for name, count in asdict(self).items()}
