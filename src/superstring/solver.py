"""Composition of the precomputed tables into an optimal answer.

The search space is organised around which string carries the mismatches,
which exact strings flank it, and which exact strings vanish into its span:

  (a) no string carries a mismatch: the all-exact chain over every string,
      which for a single string is the string itself;
  (b) the mistake string is the overall first or last string: one pair core
      plus one subset chain covering everything else;
  (c) the mistake string sits between two exact anchors l and r: the strings
      outside the core are bipartitioned into a left chain ending in l and a
      right chain starting in r, glued to the core through l and r;
  (d) additionally, any subset of the remaining exact strings may be
      *absorbed*: placed strictly inside the mistake string's span, where
      they cost budget instead of length.  Each anchored shape above has an
      absorbed variant, including the extreme one where every exact string
      sits inside the mistake string.

Terms of shape (d) are required for exactness.  An absorbed string is fully
covered by the mistake string's occurrence, which carries mismatches, so the
no-substring guarantee of the inputs says nothing about it; anchor-only
compositions miss exactly those arrangements.

The all-exact chain (the classical shortest superstring of the whole set) is
always feasible and seeds the minimisation.  At k = 0 it is the answer, and
no other shape is composed: the mistake string may then disagree nowhere,
so every arrangement is an exact superstring, none shorter than the
shortest chain over all strings (``row_min`` of the full mask), and on a
tie the baseline, the least kind, wins.  No merge core is built there:
the core table builds each on its first lookup, and nothing looks one up.
The subset tables are built whole at every k, ``dp_left`` included, which
only the composition reads: skipping it as well would leave a k = 0 solve
at half the time of a k = 1 solve of the same size, and is left open
(ROADMAP.md).

The k = 0 argument skips a mistake string at every k.  Every string but the
mistake string m occurs exactly, so the superstring of any candidate with
mistake string m is an exact superstring of the others, none shorter than
their shortest chain, ``row_min[full ^ (1 << m)]``.  A candidate replaces
the incumbent iff its (length, kind) is smaller, and ``_EDGE_LEFT`` is the
least kind composed, so when that chain is at least the cutoff
``best[0] + (_EDGE_LEFT < best[1])`` no candidate of m can, and m is not
composed.  Composing it would have returned the incumbent unchanged, and
the incumbent only falls, so no later cutoff moves and the answer, its
tie-breaks included, is the one composing every m gives.  A skipped m looks
no merge core up, so none of its cores is built.

Every shape, anchored or absorbed, is one (kind, l, r) triple, -1 marking
an absent anchor, searched by a single loop over interior sets: an anchored
shape has only the empty one, an absorbed shape every non-empty one that
fits inside the mistake string with nothing fixed.  The enclosed shape, with
no anchor, has no chain to hold a string outside its window, so its only
interior set is every other string, and only if that set fits.  One routine
(``_glue``) prices the strings outside the window for every shape: a left
chain ending in l if l exists, a right chain starting in r if r exists, the
cheapest split of the outside strings between both when both do, and
nothing when neither does.  Composition and reconstruction read the window
the same way: the merge core for the empty interior set, the placement
engine otherwise.  Reconstruction has one path: each chain is laid out iff
its anchor exists.

Window first, glue second.  With both anchors the glue is a scan over every
split of the outside strings O (the Held-Karp subset tables read back per
shape), so such a shape first asks for a window shorter than the incumbent
minus a lower bound on that glue, the largest of four (``_split_floor``),
with ``row_min`` the shortest chain over a mask (``SubsetTable.row_min``):

  - row_min[O | l | r] + overlap(l, r) - |l| - |r|: the left and right
    chains of any split, joined at the anchors' own overlap, are one chain
    over O, l and r;
  - row_min[O] - max_in(l) - max_out(r), with max_in(l) the largest overlap
    into l from another string and max_out(r) the largest out of r: a chain
    ending in l is at least the chain over the rest of it, plus |l|, minus
    one overlap into l, likewise for a chain starting in r, and two chains
    joined end to end are one chain over their union;
  - row_min[O | l] - |l| - max_out(r): the same with l's chain kept whole;
  - row_min[O | r] - |r| - max_in(l): the same with r's chain kept whole.

The first is often exact; the other three are read only for a shape it
keeps.  ``max_in`` and ``max_out`` are computed once per solve.  Only when a
window comes back is the split scanned, and the shape is kept iff glue plus
window beats the incumbent.  A window is the shortest one below the cutoff,
earliest start first, whatever the cutoff, so the looser cutoff finds the
window the exact one would have found and keeps exactly the same shapes; a
tighter floor only turns away windows and scans that cannot win.

Absorbed shapes are searched by one placement engine per mistake string m
(``_Placer``).  Every string short enough to fit strictly inside m is packed
once into integers, character codes and a span mask, and shifted to each
inner offset.  One fold (``_Placer._differ``) turns codes into a mask of
disagreements with m, for a placement and for a cover alike; a placement
that alone disagrees with m beyond the budget is dropped.  Anchor windows
for a pair (l?, r?) are built lazily in ascending (length, start) order and
kept only while the scans stay on that pair; each window carries the cover
its anchors fix, read from one overlay of l and r per window length, an
absent anchor being the empty string.  Covers are kept per m, across anchor
pairs, each with a memo of the interior sets asked about, so the composition
loop, which enumerates only interior sets drawn from the strings that fit,
pays for each distinct question once.  A cover's options for a string, the
placements that agree with it within budget, are filtered only when a
question about a set holding that string asks for them, member by member in
index order, up to the first member with none; most questions end there, so
most options are never built.  Whether a set fits under a cover is a bitwise
depth-first search that places the strings with the fewest options first,
ties by index (fail-first); the answer does not depend on the order.
Reconstruction asks the same engine for the winning offsets, placing the
strings in index order.

The bare cover, the one with nothing fixed and no budget spent, is the
relaxation bound of branch and bound.  An anchor window's cover only fixes
more characters and spends more budget, so placements that fit under it
fit under the bare cover too: a set that does not fit there fits under no
window.  The sets that do are listed once per mistake string
(``_Placer.fitting_sets``), and only they are asked a window for: a subset
of a fitting set fits too, so the list grows from the fitting strings, one
bare search per extension of a set already listed.  Almost no set of the
strings that fit inside m one at a time fits there all at once, so the
list is short.

Every absorbed shape tries only the listed sets that avoid its anchors, in
descending mask order.  A set left off the list gets no window, so leaving
it out drops no candidate, and the sets that stay keep their order.  A set
whose glue, or glue bound, plus the shortest window its anchors allow
cannot beat the incumbent asks for no window at all.

Candidates are tuples ``(length, kind, m, l, r, interior_mask,
partition_mask)``, where the partition mask is the left chain's share of
the strings outside the window.  The baseline's is ``(row_min[full],
_BASELINE, 0, -1, -1, 0, 0)``: string 0 is the mistake string it reports,
and it has no anchor, interior or left chain; it seeds the incumbent, so
the answer's m is the reported mistake string whatever its kind, and the
witness lays every string but m, then fills m's uncovered positions from
m.  One incumbent is carried through every mistake string, and a candidate
replaces it iff its (length, kind) is smaller.  The answer is the least
candidate in tuple order, with one exception: interior sets are tried in
descending mask order and, within one m, a window scan only reports a
window strictly shorter than the incumbent, so among equal-length absorbed
candidates of one (kind, m, l, r) the first set tried, the one with the
largest mask, wins.  The enumeration order is fixed, so the reported
answer, witness and offsets are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cores import CoreTable
from .counters import Counters
from .instance import Instance, InvalidInstanceError, validate
from .mismatches import MismatchTable, build_mismatch_table
from .subset_dp import SubsetTable, build_overlap_table, build_subset_table

# candidate kinds, in tie-break order; *_ABS variants absorb interior strings
_BASELINE = 0
_EDGE_LEFT = 1  # mistake string last: anchor l, chain on the left
_EDGE_RIGHT = 2  # mistake string first: anchor r, chain on the right
_TRIPLE = 3
_EDGE_LEFT_ABS = 4
_EDGE_RIGHT_ABS = 5
_TRIPLE_ABS = 6
_ENCLOSED = 7  # no anchors: every exact string inside the mistake string


class ReconstructionError(RuntimeError):
    """A reconstructed witness failed verification; signals a solver bug.

    `problems` holds what `verify_solution` found.
    """

    def __init__(self, problems: list[str]):
        super().__init__(f"reconstruction mismatch: {problems}")
        self.problems = problems


@dataclass
class Solution:
    """Optimal length, the solve's work counters and, when reconstruction is
    requested, a witness.

    ``offsets[i]`` is the start of string i inside the witness;
    ``mismatch_positions`` are the witness positions where the mistake string
    disagrees.  For the all-exact baseline arrangement no string carries a
    mismatch and ``mistake_index`` is reported as 0 with an empty position
    list.  The three witness fields stay None without reconstruction.
    """

    length: int
    mistake_index: int
    counters: Counters
    witness: str | None = None
    offsets: list[int] | None = None
    mismatch_positions: list[int] | None = None


@dataclass
class _Tables:
    """The precomputed tables, plus each string's largest overlap into and
    out of it from another string (``max_in``, ``max_out``)."""

    mismatch: MismatchTable
    cores: CoreTable
    overlap: list[list[int]]
    subsets: SubsetTable
    max_in: list[int]
    max_out: list[int]


def _bit(i: int) -> int:
    """The mask of string i, or 0 for an absent anchor (-1)."""
    return 1 << i if i >= 0 else 0


def _bits(mask: int, n: int) -> list[int]:
    return [i for i in range(n) if mask & (1 << i)]


def _pack(s: str, code: dict[str, int], width: int) -> tuple[int, int]:
    """(codes, span) of s: its character codes, one `width`-bit field per
    position from field 0 on, and the mask of those fields."""
    value = 0
    for t, ch in enumerate(s):
        value |= code[ch] << (t * width)
    return value, (1 << (len(s) * width)) - 1


def _search(options, order, i, value, covered, cost, k, counters):
    """First placement of interiors order[i:] as [(e, offset), ...], or None.

    Depth first over strings in `order`, offsets ascending.  A placement
    must agree with every covered position, and the positions where the
    covered characters differ from the mistake string may not exceed k.
    Whether a placement exists does not depend on `order`; which one is
    found first does.
    """
    e = order[i]
    last = i + 1 == len(order)
    for offset, v, span, diff in options[e]:
        counters.window_scan += 1
        if (v ^ value) & span & covered:
            continue
        spent = cost | diff
        if spent.bit_count() > k:
            continue
        if last:
            return [(e, offset)]
        rest = _search(options, order, i + 1, value | v, covered | span, spent, k, counters)
        if rest is not None:
            rest.append((e, offset))
            return rest
    return None


class _Placer:
    """Absorbed-string placements inside one mistake string m.

    Positions are m's own, 0..|m|-1, each a `width`-bit field of an integer
    holding character codes.  A cover is a pair (value, covered): the codes
    of the characters already fixed and a mask of their fields.  Its cost is
    a mask with the low bit of every field where the cover disagrees with m,
    so cost.bit_count() is the budget already spent.

    Every string e in `fits` is packed once and shifted to each offset
    strictly inside m, as (offset, value, span, diff): its codes, its field
    mask and the low bits of the positions where it differs from m, from the
    fold that also prices a cover (`_differ`).

    Anchor windows come in the order the candidates are compared in:
    ascending (length, start), keeping those whose anchors cost at most k.
    They are built one length at a time, only as far as a cutoff asks, and
    kept only while the scans stay on one anchor pair (l, r), -1 meaning
    absent, which is laid as the empty string.  Each window holds the cover
    its anchors fix, read from one overlay of l and r per length.  Covers
    live as long as the placer, across anchor pairs: each holds the answers
    to the interior sets asked, since whether a set fits depends only on the
    cover, and, per string, the placements that agree with it within budget,
    its options, filtered the first time a question asks for them (`holds`).
    The bare cover, with nothing fixed, is built first; `fitting_sets` lists
    the sets that fit under it, the only sets a window is asked for, and it
    is also the cover of the window with no anchors.
    """

    def __init__(self, instance, table, m, fits, counters):
        strings = instance.strings
        symbols = sorted(set().union(*strings))
        self.code = {ch: i + 1 for i, ch in enumerate(symbols)}
        self.width = width = len(symbols).bit_length()
        self.strings = strings
        self.table = table
        self.k = instance.k
        self.counters = counters
        m_str = strings[m]
        self.len_m = len_m = len(m_str)
        self.m_value, self.full = _pack(m_str, self.code, width)
        self.low = sum(1 << (p * width) for p in range(len_m))
        self.placements: list[tuple] = [()] * instance.n
        for e in _bits(fits, instance.n):
            value, span = _pack(strings[e], self.code, width)
            offsets = range(1, len_m - len(strings[e]))
            placed = ((at, v, v_span, self._differ(v, v_span)) for at in offsets
                      for v, v_span in [(value << (at * width), span << (at * width))])
            # a placement that alone disagrees with m beyond budget never fits
            self.placements[e] = tuple(p for p in placed if p[3].bit_count() <= self.k)
        self.covers: dict[tuple[int, int], tuple | None] = {}
        # nothing fixed: a set that does not fit here fits under no window
        self.bare = self.covers[0, 0] = self._cover(0, 0)
        self.anchors = None

    def _use_anchors(self, l, r):
        self.anchors = (l, r)
        # an absent anchor is the empty string
        l_str, r_str = (self.strings[a] if a >= 0 else "" for a in (l, r))
        len_l, len_m, len_r = len(l_str), self.len_m, len(r_str)
        self.len_r = len_r
        self.l_packed, self.r_packed = (_pack(a, self.code, self.width) for a in (l_str, r_str))
        low = max(len_l, len_m, len_r)
        # below |l|+|r| the anchors overlap, and only the lengths where they
        # agree hold a window; with an anchor absent every length is at least |l|+|r|
        clean = self.table.clean_lengths[l, r] if l >= 0 and r >= 0 else ()
        self.lengths = [length for length in clean if length >= low]
        self.lengths += range(max(low, len_l + len_r), len_l + len_m + len_r + 1)
        self.groups: list[list[tuple]] = []

    def _group(self, length):
        """(start, cover) of every window of one length whose anchors fit the budget.

        The anchors are overlaid once per length, l from field 0 and r from
        field length - |r|, and the window whose m starts at `start` reads
        the overlay's fields start..start + |m| - 1 as its cover.
        """
        width, full = self.width, self.full
        (l_value, l_span), (r_value, r_span) = self.l_packed, self.r_packed
        shift = (length - self.len_r) * width
        overlay, spans = l_value | r_value << shift, l_span | r_span << shift
        windows = []
        for start in range(length - self.len_m + 1):
            key = ((overlay >> (start * width)) & full, (spans >> (start * width)) & full)
            if key not in self.covers:
                self.covers[key] = self._cover(*key)
            if self.covers[key] is not None:
                windows.append((start, self.covers[key]))
        return windows

    def _differ(self, value, covered):
        """The low bit of every covered field where `value` disagrees with m.

        Each field's bits are folded onto its low bit, so a field counts
        once however many of its bits differ.
        """
        differ = (value ^ self.m_value) & covered
        folded = differ
        for bit in range(1, self.width):
            folded |= differ >> bit
        return folded & self.low

    def _cover(self, value, covered):
        """A cover's [value, covered, cost, options, unfit, memo], or None over budget.

        No placement is filtered here: `options[e]` stays None until a
        question about a set holding e asks for it (``holds``).  `unfit`
        is the mask of the strings found to have no placement under the
        cover, and `memo` maps interior masks to whether they fit under it.
        """
        cost = self._differ(value, covered)
        if cost.bit_count() > self.k:
            return None
        return [value, covered, cost, [None] * len(self.placements), 0, {}]

    def holds(self, cover, interior_mask):
        """Whether every string of interior_mask fits under a cover at once, memoised in it.

        A set holding a string already found unfit is turned away at once.
        Otherwise each member's options, the placements that agree with the
        cover within budget, are filtered the first time a question asks for
        them, in index order.  At the first member with none the set cannot
        fit, and that string joins the cover's unfit mask.  If each has
        some, a depth-first search places the strings with the fewest
        options first, ties by index (fail-first).
        """
        value, covered, cost, options, unfit, memo = cover
        if interior_mask & unfit:
            return False
        hit = memo.get(interior_mask)
        if hit is None:
            k = self.k
            members = _bits(interior_mask, len(options))
            for e in members:
                if options[e] is None:
                    # lists, not tuples: many short-lived tuples of assorted
                    # sizes would stay parked in the interpreter's tuple free
                    # lists and raise peak RSS
                    options[e] = [
                        p
                        for p in self.placements[e]
                        if not (p[1] ^ value) & p[2] & covered and (cost | p[3]).bit_count() <= k
                    ]
                if not options[e]:
                    cover[4] |= 1 << e
                    return False
            # whether a set fits does not depend on the order it is placed
            # in; fewest options first fails soonest
            members.sort(key=lambda e: len(options[e]))
            found = _search(options, members, 0, value, covered, cost, k, self.counters)
            hit = memo[interior_mask] = found is not None
        return hit

    def fitting_sets(self):
        """Every non-empty set of strings that fits under the bare cover, in descending mask order.

        The family is closed under subsets, so it grows from the empty set:
        each fitting string, in index order, extends every set grown so far,
        one search under the bare cover per extension.  A set whose highest
        string is e is one grown before e plus e, so none is missed, and each
        round appends sets above all earlier ones, so the list grows in
        ascending mask order.
        """
        bare = self.bare
        grown = [0]
        for e, placements in enumerate(self.placements):
            if placements:  # with nothing fixed, a string with a placement fits alone
                grown += [s | 1 << e for s in grown if self.holds(bare, s | 1 << e)]
        return grown[:0:-1]

    def first_window(self, l, r, interior_mask, cutoff):
        """(length, start, cover) of the first window below cutoff holding interior_mask, or None.

        The window holds m, the anchors l and r, and every string of
        interior_mask strictly inside m.  Callers ask only about sets that
        fit under the bare cover: the composition about sets of
        `fitting_sets`, reconstruction about the winner's.
        """
        if self.anchors != (l, r):
            self._use_anchors(l, r)
        counters = self.counters
        groups = self.groups
        for i, length in enumerate(self.lengths):
            if length >= cutoff:
                return None
            if i == len(groups):
                groups.append(self._group(length))
            for start, cover in groups[i]:
                counters.window_scan += 1
                if self.holds(cover, interior_mask):
                    return length, start, cover
        return None

    def interiors(self, cover, interior_mask):
        """{interior: offset in m} of interior_mask's first placement under a cover.

        The cover must be one `first_window` has just returned for
        interior_mask, so the options of every string of the set are already
        filtered.  The strings are placed in index order, whatever order the
        feasibility search used, so the offsets do not depend on it.
        """
        value, covered, cost, options = cover[:4]
        order = _bits(interior_mask, len(options))
        return dict(_search(options, order, 0, value, covered, cost, self.k, self.counters))


def _glue(subsets, lengths, l, r, outside, counters):
    """(length the chains outside the window add, the left chain's share of outside).

    A chain ends in the left anchor l and another starts in the right anchor
    r, each iff its anchor exists (-1 when absent), together holding exactly
    the strings of `outside`; with neither anchor there is no chain, and
    `outside` is empty (the enclosed shape absorbs every other string).
    With both, every split of `outside` is scanned, submasks in descending
    order, and the cheapest wins, the smallest left share among equal
    lengths.
    """
    if l < 0 and r < 0:
        return 0, 0
    if r < 0:
        return subsets.dp_right[l][outside | 1 << l] - lengths[l], outside
    if l < 0:
        return subsets.dp_left[r][outside | 1 << r] - lengths[r], 0
    counters.glue_scan += 1 << outside.bit_count()
    ends_l, starts_r = subsets.dp_right[l], subsets.dp_left[r]
    bit_l, bit_r = 1 << l, 1 << r
    sub = best_sub = outside
    best = ends_l[outside | bit_l] + starts_r[bit_r]
    while sub:
        sub = (sub - 1) & outside
        value = ends_l[sub | bit_l] + starts_r[(outside ^ sub) | bit_r]
        if value <= best:
            best, best_sub = value, sub
    return best - lengths[l] - lengths[r], best_sub


def _split_floor(row_min, lengths, max_in, max_out, l, r, outside, floor):
    """The largest of four lower bounds on the split glue of anchors l and r around a window.

    `floor` is the first, row_min[outside | l | r] + overlap(l, r) - |l| -
    |r|; the other three, and why each holds, are in the module docstring
    ("Window first, glue second").
    """
    return max(
        floor,
        row_min[outside] - max_in[l] - max_out[r],
        row_min[outside | 1 << l] - lengths[l] - max_out[r],
        row_min[outside | 1 << r] - lengths[r] - max_in[l],
    )


def _candidates_for_m(instance, tables, m, best, counters):
    """The least of `best` and every candidate with string m carrying the mismatches.

    One loop over (kind, l, r) shapes in ascending order.  An anchored shape
    has one interior set, the empty one; an absorbed shape tries the sets of
    ``_Placer.fitting_sets`` that avoid its anchors, in descending mask
    order, since no other set gets a window.  `best` is the incumbent
    carried over from the earlier mistake strings, and a candidate replaces
    it iff its (length, kind) is smaller.  Within one m kinds ascend, so
    there this is the strict length test: among equal-length candidates the
    first one tried wins, the least (kind, l, r) and, for one absorbed
    (kind, l, r), the largest interior mask.  Across m it gives the least
    (length, kind, m), as a minimum over the m would.  Every shape's glue
    and chain split come from ``_glue``.

    Window first, glue second: a shape with both anchors asks for its window
    against a lower bound on its glue, and scans its chain splits only when
    a window comes back.

    `shortest` is the merge core cores[l, m, r] of the shape's anchors and
    m (|m| with no anchors), the shortest window that holds them at all,
    and `cutoff` the least length that cannot win, best[0] + (kind <
    best[1]).  A set whose glue (or glue bound) `floor` has floor + shortest
    >= cutoff asks for no window.  An anchored shape's one set takes the
    same test, which for it is the window test, since its window is the
    merge core.  With both anchors `shortest` starts as a lower bound on
    the core (``CoreTable.triple_floor``), and the core is read only for a
    set whose first glue bound plus `shortest` is below the cutoff; the
    first such read builds the cores of its (m, r) if none is built yet,
    and replaces the bound.  A set the bound turns away the core
    would have turned away too.
    """
    n = instance.n
    lengths = [len(s) for s in instance.strings]
    rest_mask = ((1 << n) - 1) ^ (1 << m)
    others = [e for e in range(n) if e != m]
    subsets = tables.subsets
    row_min = subsets.row_min
    overlaps = tables.overlap
    max_in, max_out = tables.max_in, tables.max_out
    cores = tables.cores

    # only strings strictly shorter than |m| - 1 can vanish inside m, so
    # interior sets are drawn from those alone, and only from the sets of
    # them that fit under the bare cover
    fits = 0
    for e in others:
        if lengths[e] <= lengths[m] - 2:
            fits |= 1 << e
    placer = _Placer(instance, tables.mismatch, m, fits, counters) if fits else None
    family = placer.fitting_sets() if placer else []

    pairs = [(l, r) for l in others for r in others if r != l]
    shapes = (
        [(_EDGE_LEFT, l, -1) for l in others]
        + [(_EDGE_RIGHT, -1, r) for r in others]
        + [(_TRIPLE, l, r) for l, r in pairs]
    )
    if family:  # with no set to absorb, no absorbed shape has a candidate
        shapes += (
            [(_EDGE_LEFT_ABS, l, -1) for l in others]
            + [(_EDGE_RIGHT_ABS, -1, r) for r in others]
            + [(_TRIPLE_ABS, l, r) for l, r in pairs]
            + [(_ENCLOSED, -1, -1)]
        )
    for kind, l, r in shapes:
        anchors = _bit(l) | _bit(r)
        around = rest_mask & ~anchors
        both = l >= 0 and r >= 0
        if kind <= _TRIPLE:
            counters.composition += 1
            interiors = (0,)
        else:
            # with no anchor, no chain holds a string outside the window
            interiors = [s for s in family if not s & anchors and (anchors or s == around)]
            if not interiors:
                continue
        # with both anchors, a bound on the triple core until a set needs the core itself
        if both:
            shortest = cores.triple_floor(lengths, overlaps[l][r], l, m, r)
        else:
            shortest = cores[l, m, r].length if anchors else lengths[m]
        for interior in interiors:
            outside = around ^ interior
            cutoff = best[0] + (kind < best[1])
            if both:
                # the split glue from below: the two chains of any split,
                # joined at overlap(l, r), are one chain over outside | l | r
                floor = row_min[outside | anchors] + overlaps[l][r] - lengths[l] - lengths[r]
                if floor + shortest < cutoff:
                    shortest = cores[l, m, r].length
                # the other bounds only matter for a shape the first one keeps
                if floor + shortest < cutoff:
                    floor = _split_floor(row_min, lengths, max_in, max_out, l, r, outside, floor)
            else:
                glue = _glue(subsets, lengths, l, r, outside, counters)
                floor = glue[0]
            # no window is shorter than the merge core of the anchors and m
            if floor + shortest < cutoff:
                # an anchored shape's window is the merge core, which the test
                # above has just read: `shortest`.  An absorbed shape's is the
                # shortest below the cutoff whatever the cutoff, so a bound in
                # place of the glue finds the same one
                found = placer.first_window(l, r, interior, cutoff - floor) if interior else (shortest,)
                if found is not None:
                    if both:
                        glue = _glue(subsets, lengths, l, r, outside, counters)
                    if (glue[0] + found[0], kind) < best[:2]:
                        best = (glue[0] + found[0], kind, m, l, r, interior, glue[1])

    return best


def _solve_tables(instance: Instance, counters: Counters) -> _Tables:
    """The tables of one solve; each merge core is built on its first lookup."""
    mismatch = build_mismatch_table(instance, counters)
    cores = CoreTable(instance, mismatch, counters)
    overlap = build_overlap_table(instance, mismatch)
    subsets = build_subset_table(instance, overlap, counters)
    # the diagonal is 0, no string being glued to itself
    max_in = [max(column) for column in zip(*overlap)]
    max_out = [max(row) for row in overlap]
    return _Tables(mismatch, cores, overlap, subsets, max_in, max_out)


def solve(instance: Instance, *, reconstruct: bool = False) -> Solution:
    """Minimal containing-string length for the instance, optionally with witness."""
    violations = validate(instance)
    if violations:
        raise InvalidInstanceError(violations)

    counters = Counters()
    n = instance.n
    tables = _solve_tables(instance, counters)
    counters.composition += n
    full = (1 << n) - 1
    # the baseline reports string 0 as its mistake string, with no anchor,
    # interior or left chain
    best = (tables.subsets.row_min[full], _BASELINE, 0, -1, -1, 0, 0)
    # at k = 0 no candidate beats the baseline (module docstring), so none is composed
    if instance.k > 0:
        for m in range(n):
            # no candidate of m is shorter than the chain of the others
            # (module docstring), so none could replace the incumbent
            if tables.subsets.row_min[full ^ (1 << m)] >= best[0] + (_EDGE_LEFT < best[1]):
                continue
            best = _candidates_for_m(instance, tables, m, best, counters)

    solution = Solution(length=best[0], mistake_index=best[2], counters=counters)
    if reconstruct:
        solution.witness, solution.offsets, solution.mismatch_positions = _assemble(instance, tables, best)
        problems = verify_solution(instance, solution)
        if problems:
            raise ReconstructionError(problems)
    return solution


def _chain(instance, tables, mask: int, end: int, rightmost: bool) -> list[tuple[int, int]]:
    """(index, start) pairs for the optimal chain over mask whose rightmost
    (or, with rightmost False, leftmost) link is `end`.

    The leftmost chain is the rightmost one on dp_left and the transposed
    overlaps, so one walk from `end` serves both.
    """
    lengths = [len(s) for s in instance.strings]
    overlaps = tables.overlap
    if rightmost:
        dp, gain = tables.subsets.dp_right, overlaps
    else:
        dp, gain = tables.subsets.dp_left, list(zip(*overlaps))
    order = [end]
    cur = end
    while mask != 1 << cur:
        rest = mask ^ (1 << cur)
        cur = min(
            p
            for p in range(instance.n)
            if rest & (1 << p) and dp[p][rest] + lengths[cur] - gain[p][cur] == dp[cur][mask]
        )
        order.append(cur)
        mask = rest
    if rightmost:
        order.reverse()
    placed = [(order[0], 0)]
    for prev, nxt in zip(order, order[1:]):
        placed.append((nxt, placed[-1][1] + lengths[prev] - overlaps[prev][nxt]))
    return placed


def _assemble(instance, tables, best) -> tuple[str, list[int], list[int]]:
    """(witness, offsets, mismatch positions): every string laid at its
    offset, the witness characters rendered, and the witness positions where
    an exact string's character differs from the mistake string's."""
    length, kind, m, l, r, interior_mask, sub = best
    n = instance.n
    strings = instance.strings
    lengths = [len(s) for s in strings]
    full = (1 << n) - 1

    if kind == _BASELINE:
        last = next(j for j in range(n) if tables.subsets.dp_right[j][full] == length)
        placed = _chain(instance, tables, full, last, rightmost=True)
    else:
        if interior_mask:
            placer = _Placer(instance, tables.mismatch, m, interior_mask, Counters())
            found = placer.first_window(l, r, interior_mask, length + 1)
            assert found is not None, "winning window vanished on reconstruction"
            window_len, m_start, cover = found
            inner = placer.interiors(cover, interior_mask)
        else:
            core = tables.cores[l, m, r]
            window_len, m_start, inner = core.length, core.m_start, {}
        # each chain exists iff its anchor does; `sub` is the left chain's
        # share of the strings outside the window, the right chain has the rest
        left_mask = sub | _bit(l)
        placed = []
        window_start = 0
        if l >= 0:
            placed = _chain(instance, tables, left_mask, l, rightmost=True)
            window_start = tables.subsets.dp_right[l][left_mask] - lengths[l]
        placed.append((m, window_start + m_start))
        placed.extend((e, window_start + m_start + off) for e, off in sorted(inner.items()))
        if r >= 0:
            shift = window_start + window_len - lengths[r]
            right_mask = full ^ (1 << m) ^ interior_mask ^ left_mask
            chain = _chain(instance, tables, right_mask, r, rightmost=False)
            placed.extend((idx, shift + at) for idx, at in chain)

    offsets = [0] * n
    for idx, at in placed:
        offsets[idx] = at

    # every string but m is exact; positions seen only by m take its
    # characters, positions seen by nothing the smallest symbol of the
    # instance's alphabet, and a position where an exact string differs
    # from m is a mismatch.  The baseline's chain is exact throughout, so
    # string 0, its m, agrees with every string that covers it
    chars: list[str | None] = [None] * length
    for idx, at in placed:
        if idx != m:
            for t, ch in enumerate(strings[idx]):
                chars[at + t] = ch
    at = offsets[m]
    positions = []
    for t, ch in enumerate(strings[m]):
        if chars[at + t] is None:
            chars[at + t] = ch
        elif chars[at + t] != ch:
            positions.append(at + t)
    fill = min(min(s) for s in strings)
    witness = "".join(ch if ch is not None else fill for ch in chars)
    return witness, offsets, positions


def verify_solution(instance: Instance, solution: Solution) -> list[str]:
    """Check a witness against the problem contract; empty list means valid."""
    if solution.witness is None:
        raise ValueError("solution has no witness to verify")
    problems = []
    witness = solution.witness
    if len(witness) != solution.length:
        problems.append(
            f"length mismatch: witness has {len(witness)} characters, reported {solution.length}"
        )
    offsets = solution.offsets or []
    if len(offsets) != instance.n:
        problems.append(f"offsets cover {len(offsets)} strings, expected {instance.n}")
        return problems
    for i, s in enumerate(instance.strings):
        at = offsets[i]
        if at < 0 or at + len(s) > len(witness):
            problems.append(f"not a superstring: string {i} does not fit at offset {at}")
            continue
        window = witness[at : at + len(s)]
        if i == solution.mistake_index:
            misses = [at + t for t in range(len(s)) if window[t] != s[t]]
            if len(misses) > instance.k:
                problems.append(
                    f"budget exceeded: string {i} misses {len(misses)} > k={instance.k}"
                )
            if solution.mismatch_positions is not None and misses != solution.mismatch_positions:
                problems.append(
                    f"mismatch positions disagree: recorded {solution.mismatch_positions}, "
                    f"actual {misses}"
                )
        elif window != s:
            problems.append(f"not a superstring: string {i} does not match at offset {at}")
    return problems
