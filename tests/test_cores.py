import itertools
import random
from operator import ne

import pytest

from hypothesis import given, settings, strategies as st

from superstring import Counters, make_instance
from superstring.cli import GeneratorParams, generate_instance
from superstring.cores import CoreTable, build_pair_cores, build_triple_cores, overlaid_window
from superstring.mismatches import build_mismatch_table
from superstring.subset_dp import build_overlap_table
from conftest import naive_mismatch_positions, random_valid_instance, window_min_length, window_placement


def triple_cores(inst, table, counters):
    """Every triple core of the instance, built one (m, r) group at a time."""
    cores = {}
    for m, r in itertools.permutations(range(inst.n), 2):
        cores.update(build_triple_cores(inst, table, counters, m, r))
    return cores


def pair_cores(inst, table, counters):
    """Every one-anchor core of the instance, built one m at a time."""
    cores = {}
    for m in range(inst.n):
        cores.update(build_pair_cores(inst, table, counters, m))
    return cores


def triple_table(strings, k):
    inst = make_instance(strings, k)
    return triple_cores(inst, build_mismatch_table(inst, Counters()), Counters())


def pair_table(strings, k):
    inst = make_instance(strings, k)
    return pair_cores(inst, build_mismatch_table(inst, Counters()), Counters())


def overlay_is_clean(left: str, right: str, length: int) -> bool:
    """True iff anchoring `left` and `right` in a window of `length` is conflict-free.

    A direct scan of the characters, the independent reference for the
    mismatch table's clean lengths.

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


# The four-case placement count, a second route to a core cell's cost read
# from the mismatch counts, with case 4's double-counted positions taken from
# a direct scan: the reference for the builders' count from the characters.
# Counting m's disagreements splits into four region cases:
#
#   1. m ends inside l                -> count against l only
#   2. m starts inside r              -> count against r only
#   3. l and r do not overlap         -> count both sides independently
#   4. l and r overlap and m crosses  -> count both sides, then subtract the
#      positions inside the l/r overlap, which were counted twice (r agrees
#      with l there, so each such window position holds one character)


def classify_placement(len_l, len_m, len_r, length, start):
    """Region case (1-4) for m placed at `start` in a window of `length`."""
    end_m = start + len_m - 1
    if end_m < len_l:
        return 1
    if start >= length - len_r:
        return 2
    if length >= len_l + len_r:
        return 3
    return 4


def placement_mismatches(table, strings, l, m, r, length, start):
    """Mismatches of m against the union of l and r for one placement.

    Each window position covered by m counts at most once; positions covered
    by neither anchor are free.
    """
    len_l, len_m, len_r = (len(strings[i]) for i in (l, m, r))
    end_m = start + len_m - 1
    case = classify_placement(len_l, len_m, len_r, length, start)
    if case == 1:
        return table.counts[l, m][end_m]
    end_in_r = end_m - (length - len_r)
    if case == 2:
        return table.counts[r, m][end_in_r]
    if case == 3:
        mistakes = 0
        if start < len_l:
            mistakes += table.counts[l, m][end_m]
        if end_in_r >= 0:
            mistakes += table.counts[r, m][end_in_r]
        return mistakes
    # case 4: mismatches inside the l/r overlap appear in both counts, so
    # drop the duplicates found on the r side
    mistakes = table.counts[l, m][end_m] + table.counts[r, m][end_in_r]
    overlap = len_l + len_r - length
    twice = naive_mismatch_positions(strings[r], strings[m], end_in_r)
    return mistakes - sum(x < overlap for x in twice)


# expected values below were derived with window_min_length, the in-test
# character-level oracle, and are asserted against it as well


def test_triple_chain_merge():
    assert triple_table(["ab", "bc", "cd"], 0)[0, 1, 2].length == 4
    assert window_min_length("ab", "bc", "cd", 0) == 4


def test_triple_overlaid_middle():
    assert triple_table(["ab", "cc", "ba"], 2)[0, 1, 2].length == 3
    assert window_min_length("ab", "cc", "ba", 2) == 3


def test_triple_disjoint():
    assert triple_table(["ab", "cd", "ef"], 0)[0, 1, 2].length == 6
    assert window_min_length("ab", "cd", "ef", 0) == 6


def test_pair_right_full_overlay():
    assert pair_table(["cc", "ab"], 2)[-1, 0, 1].length == 2
    assert window_min_length(None, "cc", "ab", 2) == 2


def test_pair_left_clean_overlap():
    assert pair_table(["ab", "bc"], 0)[0, 1, -1].length == 3
    assert window_min_length("ab", "bc", None, 0) == 3


def test_pair_left_disjoint():
    assert pair_table(["ab", "cd"], 0)[0, 1, -1].length == 4
    assert window_min_length("ab", "cd", None, 0) == 4


def test_overlay_examples():
    assert overlay_is_clean("ab", "ba", 3)
    assert not overlay_is_clean("ab", "ba", 2)
    assert overlay_is_clean("ab", "cd", 4)


@given(
    st.lists(st.text(alphabet="ab", min_size=1, max_size=5), min_size=2, max_size=4),
    st.integers(min_value=0, max_value=3),
)
def test_overlay_agrees_with_mismatch_lists(strings, k):
    # the table's clean lengths and the direct scan are two readings of the
    # same overlay; they must agree at every window length, in both
    # directions of every pair, whatever the table's budget
    table = build_mismatch_table(make_instance(strings, k), Counters())
    for (i, left), (j, right) in itertools.permutations(enumerate(strings), 2):
        lengths = range(max(len(left), len(right)), len(left) + len(right) + 1)
        clean = [length for length in lengths if overlay_is_clean(left, right, length)]
        # disjoint anchors are always clean; the table lists the shorter clean lengths
        assert clean[-1] == len(left) + len(right)
        assert table.clean_lengths[i, j] == tuple(clean[:-1])


TRIPLES = st.lists(st.text(alphabet="ab", min_size=1, max_size=4), min_size=3, max_size=3)


@settings(max_examples=60)
@given(TRIPLES, st.integers(min_value=0, max_value=3))
def test_triples_match_window_oracle(strings, k):
    table = triple_table(strings, k)
    for l, m, r in itertools.permutations(range(3)):
        expected = window_min_length(strings[l], strings[m], strings[r], k)
        assert table[l, m, r].length == expected


@settings(max_examples=60)
@given(
    st.lists(st.text(alphabet="abc", min_size=1, max_size=4), min_size=2, max_size=3),
    st.integers(min_value=0, max_value=3),
)
def test_pairs_match_window_oracle(strings, k):
    pairs = pair_table(strings, k)
    for l in range(len(strings)):
        for m in range(len(strings)):
            if l == m:
                continue
            assert pairs[l, m, -1].length == window_min_length(strings[l], strings[m], None, k)
            assert pairs[-1, m, l].length == window_min_length(None, strings[m], strings[l], k)


@settings(max_examples=40)
@given(TRIPLES)
def test_triple_bounds_and_budget_monotonicity(strings):
    lengths = [len(s) for s in strings]
    previous = None
    for k in range(0, 5):
        table = triple_table(strings, k)
        for (l, m, r), placement in table.items():
            low = max(lengths[l], lengths[m], lengths[r])
            high = lengths[l] + lengths[m] + lengths[r]
            assert low <= placement.length <= high
            if previous is not None:
                assert placement.length <= previous[l, m, r].length
        previous = table


def test_generous_budget_reaches_clean_merge():
    # with k >= |m| the window only needs the anchors' tightest clean merge
    strings = ["abab", "cc", "baba"]
    table = triple_table(strings, 2)
    # anchors overlap cleanly at 3: "abab"+"baba" merge to length 5 >= |m|
    assert table[0, 1, 2].length == 5


def test_case_partition_exhaustive_and_exclusive():
    # every (length, start) cell falls in exactly one region case
    for len_l, len_m, len_r in itertools.product(range(1, 4), repeat=3):
        total = 0
        per_case = [0, 0, 0, 0]
        for length in range(max(len_l, len_r), len_l + len_m + len_r + 1):
            for start in range(length - len_m + 1):
                case = classify_placement(len_l, len_m, len_r, length, start)
                assert case in (1, 2, 3, 4)
                per_case[case - 1] += 1
                total += 1
        assert sum(per_case) == total


@settings(max_examples=40)
@given(TRIPLES, st.integers(min_value=0, max_value=2))
def test_placement_mismatches_counts_union(strings, k):
    # the four-case counter equals a direct union count for every placement
    inst = make_instance(strings, k)
    table = build_mismatch_table(inst, Counters())
    l, m, r = 0, 1, 2
    len_l, len_m, len_r = (len(s) for s in strings)
    for length in range(max(len_l, len_r), len_l + len_m + len_r + 1):
        if not overlay_is_clean(strings[l], strings[r], length):
            continue
        chars: dict[int, str] = {}
        for t, ch in enumerate(strings[l]):
            chars[t] = ch
        for t, ch in enumerate(strings[r]):
            chars[length - len_r + t] = ch
        for start in range(length - len_m + 1):
            direct = sum(
                1
                for t, ch in enumerate(strings[m])
                if chars.get(start + t) is not None and chars[start + t] != ch
            )
            got = placement_mismatches(table, strings, l, m, r, length, start)
            assert got == direct


def equal_length_instance(seed, sizes=(8, 16), counts=(3, 5)):
    # the shape of the benchmark's table-bound workload, scaled down
    rng = random.Random(seed)
    size = rng.randint(*sizes)
    params = GeneratorParams(count=rng.randint(*counts), min_len=size, max_len=size, alphabet=4)
    return generate_instance(params, rng.randrange(2**31), rng.randint(0, 4))


def tables_instance(seed):
    # the benchmark's table-bound workload at full size: 7 strings of 40, k 2-4
    return generate_instance(GeneratorParams(count=7, min_len=40, max_len=40, alphabet=4), seed, 2 + seed % 3)


def binary_mixed_instance(seed):
    # short binary strings of mixed lengths: clean overlapping anchors are common
    return random_valid_instance(seed, n_choices=(3, 4, 5), max_len=8, alphabets=(2,))


def long_middle_instance(seed):
    # one string longer than any two others together: as the mistake string
    # it has no start in the window lengths below its own length
    rng = random.Random(seed)
    strings = ["".join(rng.choice("abc") for _ in range(rng.randint(9, 13)))]
    count = rng.randint(3, 5)
    while len(strings) < count:
        candidate = "".join(rng.choice("abc") for _ in range(rng.randint(2, 4)))
        if not any(candidate in s or s in candidate for s in strings):
            strings.append(candidate)
    return make_instance(strings, rng.randint(0, 3))


def zero_budget_instance(seed):
    return random_valid_instance(seed, n_choices=(3, 4, 5), max_len=8, alphabets=(2, 3), ks=(0,))


@pytest.mark.parametrize(
    "inst",
    [equal_length_instance(6100 + i) for i in range(12)]
    + [binary_mixed_instance(6200 + i) for i in range(40)]
    # the search over starts meets these shapes where the draws above do not
    + [equal_length_instance(6300 + i, sizes=(24, 40), counts=(3, 4)) for i in range(6)]
    + [tables_instance(6600 + i) for i in range(3)]
    + [long_middle_instance(6400 + i) for i in range(12)]
    + [zero_budget_instance(6500 + i) for i in range(12)],
)
def test_core_placements_and_scan_match_cell_oracle(inst):
    # every core's (length, m_start) is the oracle's first feasible cell, and
    # core_scan is exactly the number of cells the oracle visits to find them
    strings, k = inst.strings, inst.k
    table = build_mismatch_table(inst, Counters())
    triple_counters, pair_counters = Counters(), Counters()
    triple = triple_cores(inst, table, triple_counters)
    pairs = pair_cores(inst, table, pair_counters)

    cells = 0
    for (l, m, r), placement in triple.items():
        length, start, visited = window_placement(strings[l], strings[m], strings[r], k)
        assert placement == (length, start), (l, m, r)
        cells += visited
    assert len(triple) == inst.n * (inst.n - 1) * (inst.n - 2)
    assert triple_counters.core_scan == cells

    cells = 0
    for (l, m, r), placement in pairs.items():
        left, right = (strings[l] if l >= 0 else None), (strings[r] if r >= 0 else None)
        length, start, visited = window_placement(left, strings[m], right, k)
        assert placement == (length, start), (l, m, r)
        cells += visited
    ordered = list(itertools.permutations(range(inst.n), 2))
    assert set(pairs) == {(l, m, -1) for l, m in ordered} | {(-1, m, r) for m, r in ordered}
    assert pair_counters.core_scan == cells


@pytest.mark.parametrize("seed", range(6))
def test_overlaid_count_matches_four_case_reference_on_every_clean_cell(seed):
    # the builders count a cell whose anchors overlap from the characters of
    # the overlaid window; the four-case count from the mismatch table must
    # agree on every clean cell, case 4 (m crossing the overlap) included
    inst = random_valid_instance(7000 + seed, n_choices=(4, 5), max_len=8, alphabets=(2, 3))
    strings = inst.strings
    lengths = [len(s) for s in strings]
    table = build_mismatch_table(inst, Counters())
    crossing = 0
    for l, m, r in itertools.permutations(range(inst.n), 3):
        len_l, len_m, len_r = lengths[l], lengths[m], lengths[r]
        for length in range(max(len_l, len_r), len_l + len_r):
            if not overlay_is_clean(strings[l], strings[r], length):
                continue
            window = overlaid_window(strings[l], strings[r], length)
            assert len(window) == length
            for start in range(length - len_m + 1):
                got = sum(map(ne, strings[m], window[start:]))
                expected = placement_mismatches(table, strings, l, m, r, length, start)
                assert got == expected
                crossing += classify_placement(len_l, len_m, len_r, length, start) == 4
    assert crossing > 0


def test_triple_floor_never_exceeds_the_core():
    # the composition reads a triple core only once floor + glue floor beats
    # the incumbent, so the floor must be a lower bound on every core: mixed
    # lengths (m often fits inside an anchor), equal lengths and the
    # benchmark's tables shape, k 0-4.  The last term, (l, m, -1) +
    # (-1, m, r) - |m|, holds only when m fits inside neither anchor within
    # budget.  The cores read on demand are the ones built group by group,
    # with the same core_scan once every one has been read
    mixed = dict(n_choices=(4, 5, 6), max_len=10, alphabets=(2, 3, 4), ks=range(5))
    instances = [random_valid_instance(6700 + i, **mixed) for i in range(120)]
    instances += [equal_length_instance(6900 + i, sizes=(4, 12), counts=(4, 6)) for i in range(40)]
    instances += [tables_instance(7100 + i) for i in range(3)]
    checked = tight = raised = 0
    for inst in instances:
        table = build_mismatch_table(inst, Counters())
        counters, by_group = Counters(), Counters()
        cores = CoreTable(inst, table, counters)
        overlap = build_overlap_table(inst, table)
        lengths = [len(s) for s in inst.strings]
        for l, m, r in itertools.permutations(range(inst.n), 3):
            core = cores[l, m, r].length
            floor = cores.triple_floor(lengths, overlap[l][r], l, m, r)
            assert floor <= core, (inst.strings, inst.k, l, m, r, floor, core)
            left, right = cores[l, m, -1].length, cores[-1, m, r].length
            checked += 1
            tight += floor == core
            raised += floor > max(left, right, lengths[l] + lengths[r] - overlap[l][r])
        whole = triple_cores(inst, table, by_group)
        whole.update(pair_cores(inst, table, by_group))
        assert cores == whole, inst.strings
        assert counters.core_scan == by_group.core_scan, inst.strings
    print(f"triple floor: {checked} cores, exact on {tight}, raised by the last term on {raised}")
    assert tight * 4 >= checked and raised * 20 >= checked, (checked, tight, raised)


@pytest.mark.parametrize(
    "inst",
    [equal_length_instance(7300 + i) for i in range(3)]
    + [binary_mixed_instance(7400 + i) for i in range(3)]
    + [long_middle_instance(7500), tables_instance(7600), make_instance(["abca", "cab", "bcc"], 2)],
)
def test_core_table_builds_one_group_per_first_lookup(inst):
    # each m's first key with an absent anchor adds exactly its 2(n-1)
    # one-anchor cores, and the triple floor builds no triple core; each
    # (m, r) pair's first two-anchor key adds exactly its n - 2 cores; every
    # entry, and core_scan, is that of building the same groups directly
    n = inst.n
    table = build_mismatch_table(inst, Counters())
    counters, direct = Counters(), Counters()
    cores = CoreTable(inst, table, counters)
    # a key no builder makes is a KeyError that builds nothing: no anchor,
    # m equal to an anchor, equal anchors, an index out of range
    invalid = [(-1, 0, -1), (0, 0, -1), (-1, 0, 0), (0, 0, 1), (1, 0, 1), (2, 0, 2)]
    for key in invalid + [(n, 0, 1), (1, n, 0), (-1, -1, 0)]:
        with pytest.raises(KeyError):
            cores[key]
    assert len(cores) == counters.core_scan == 0
    lengths = [len(s) for s in inst.strings]
    overlap = build_overlap_table(inst, table)
    pairs = {}
    for m in range(n):
        l, r = (m + 1) % n, (m + 2) % n
        before = set(cores)
        # either side's first key builds the group
        cores[(l, m, -1) if m % 2 else (-1, m, r)]
        group = build_pair_cores(inst, table, direct, m)
        others = [e for e in range(n) if e != m]
        assert set(group) == {(e, m, -1) for e in others} | {(-1, m, e) for e in others}, m
        assert set(cores) - before == set(group), m
        assert len(cores) == 2 * (n - 1) * (m + 1) and counters.core_scan == direct.core_scan
        cores.triple_floor(lengths, overlap[l][r], l, m, r)
        cores[l, m, -1], cores[-1, m, r]
        assert len(cores) == 2 * (n - 1) * (m + 1) and counters.core_scan == direct.core_scan
        pairs.update(group)
    assert cores == pairs
    triples = {}
    for built, (m, r) in enumerate(itertools.permutations(range(n), 2), 1):
        before = set(cores)
        cores[next(l for l in range(n) if l != m and l != r), m, r]
        group = build_triple_cores(inst, table, direct, m, r)
        assert set(group) == {(l, m, r) for l in range(n) if l != m and l != r}, (m, r)
        assert set(cores) - before == set(group), (m, r)
        assert len(cores) == 2 * n * (n - 1) + built * (n - 2)
        assert counters.core_scan == direct.core_scan
        triples.update(group)
    assert cores == {**pairs, **triples}
