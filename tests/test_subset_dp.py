import random

import pytest
from hypothesis import given, settings, strategies as st

from superstring import (
    Counters,
    InstanceError,
    brute_force_scs,
    build_mismatch_table,
    build_overlap_table,
    build_subset_table,
    make_instance,
)
from superstring import subset_dp
from superstring.cli import GeneratorParams, generate_instance
from superstring.oracle import _suffix_prefix
from conftest import random_valid_instance, substring_free


def overlaps(inst) -> list[list[int]]:
    """The solver's overlap table, read from the mismatch counts."""
    return build_overlap_table(inst, build_mismatch_table(inst, Counters()))


def direct_overlaps(inst) -> list[list[int]]:
    """The overlap table by direct suffix/prefix equality (the brute-force
    reference's own routine): a second route to what `build_overlap_table`
    reads from the mismatch counts."""
    strings = inst.strings
    return [
        [0 if i == j else _suffix_prefix(w, v) for j, v in enumerate(strings)]
        for i, w in enumerate(strings)
    ]


def subset_table(inst):
    return build_subset_table(inst, overlaps(inst), Counters())


def plain_chain_dp(lengths, overlaps) -> list[list[int | None]]:
    """The subset recurrence read over every predecessor in rest: the table
    the DP builders compute from row minima and positive overlaps alone."""
    n = len(lengths)
    dp: list[list[int | None]] = [[None] * n for _ in range(1 << n)]
    for mask in range(1, 1 << n):
        for j in range(n):
            if not mask >> j & 1:
                continue
            rest = mask ^ (1 << j)
            if not rest:
                dp[mask][j] = lengths[j]
                continue
            dp[mask][j] = lengths[j] + min(
                dp[rest][p] - overlaps[p][j] for p in range(n) if rest >> p & 1
            )
    return dp


def never(dp) -> int:
    """The sentinel of a table's w-bit fields, 2^(w-1) - 1: the entry of
    every j outside the mask."""
    return (1 << 8 * dp[0].itemsize - 1) - 1


def rows(dp) -> list[list[int | None]]:
    """A table's columns ``dp[j][mask]`` read back as ``plain_chain_dp``'s
    rows ``[mask][j]``, None where the entry is the sentinel; the sentinel
    must lie above every other entry."""
    off = never(dp)
    assert all(column.typecode == dp[0].typecode for column in dp)
    assert all(max((v for v in column if v != off), default=0) < off for column in dp)
    return [[None if column[mask] == off else column[mask] for column in dp] for mask in range(len(dp[0]))]


def generated(params, seed, k):
    """The first feasible `generate_instance` draw at or after seed."""
    while True:
        try:
            return generate_instance(params, seed, k)
        except InstanceError:
            seed += 1


def test_overlap_examples():
    inst = make_instance(["ab", "ba", "cd"], 0)
    table = overlaps(inst)
    assert table == direct_overlaps(inst)
    assert table[0][1] == 1
    assert table[0][2] == 0
    assert table[0][0] == 0  # no string is glued to itself
    assert overlaps(make_instance(["abab", "baba"], 0)) == [[0, 3], [3, 0]]


@given(st.lists(st.text(alphabet="ab", min_size=1, max_size=6), min_size=2, max_size=4))
def test_overlap_strict_bound_on_valid_instances(strings):
    if not substring_free(strings):
        return
    inst = make_instance(strings, 0)
    table = overlaps(inst)
    assert table == direct_overlaps(inst)
    for w in range(inst.n):
        for v in range(inst.n):
            if w == v:
                continue
            t = table[w][v]
            assert 0 <= t < min(len(strings[w]), len(strings[v]))
            # maximality: the tables's overlap matches, nothing longer does
            assert strings[w][len(strings[w]) - t :] == strings[v][:t]
            for longer in range(t + 1, min(len(strings[w]), len(strings[v]))):
                assert strings[w][-longer:] != strings[v][:longer]


def test_overlap_routes_agree_on_seeded_instances():
    for inst in seeded_instances(4300, 40, n_choices=(2, 3, 4, 5, 6), max_len=10):
        assert overlaps(inst) == direct_overlaps(inst)


def test_dp_examples():
    inst = make_instance(["ab", "bc"], 0)
    table = subset_table(inst)
    dp_right, dp_left = table.dp_right, table.dp_left
    assert dp_right[0][0b01] == 2  # singleton base case
    assert dp_right[1][0b10] == 2
    assert dp_right[1][0b11] == 3  # "abc" with bc rightmost
    assert dp_right[0][0b11] == 4  # bc before ab, no overlap
    assert dp_left[0][0b11] == 3
    assert dp_left[1][0b11] == 4
    assert dp_right[1][0b01] == dp_left[0][0b10] == never(dp_right) > 4  # off the mask
    assert dp_right[0][0] == dp_right[1][0] == never(dp_right)


def test_both_builders_accept_one_string():
    # one string makes no pair and no recurrence term: an empty mismatch
    # table, and subset tables holding only the string's own chain
    inst = make_instance(["abcab"], 1)
    counters = Counters()
    mismatch = build_mismatch_table(inst, counters)
    assert mismatch.counts == {}
    assert counters.pair_build == 0
    table = build_subset_table(inst, build_overlap_table(inst, mismatch), counters)
    assert table.dp_right[0][1] == table.dp_left[0][1] == 5
    assert list(table.row_min) == [0, 5]
    assert counters == Counters()


def seeded_instances(base, count, **kwargs):
    return [random_valid_instance(base + t, **kwargs) for t in range(count)]


def test_recurrence_holds_everywhere():
    for inst in seeded_instances(4200, 10, n_choices=(2, 3, 4, 5)):
        overlap = overlaps(inst)
        dp_right = build_subset_table(inst, overlap, Counters()).dp_right
        lengths = [len(s) for s in inst.strings]
        off = never(dp_right)
        assert off > sum(lengths) + max(lengths)
        for mask in range(1, 1 << inst.n):
            for j in range(inst.n):
                if not mask & (1 << j):
                    assert dp_right[j][mask] == off
                    continue
                if mask == 1 << j:
                    assert dp_right[j][mask] == lengths[j]
                    continue
                rest = mask ^ (1 << j)
                expected = min(
                    dp_right[p][rest] + lengths[j] - overlap[p][j]
                    for p in range(inst.n)
                    if rest & (1 << p)
                )
                assert dp_right[j][mask] == expected


def test_extension_upper_bound():
    for inst in seeded_instances(4300, 10, n_choices=(3, 4)):
        dp_right = subset_table(inst).dp_right
        lengths = [len(s) for s in inst.strings]
        for mask in range(1, 1 << inst.n):
            for j in range(inst.n):
                if mask & (1 << j):
                    continue
                bigger = mask | (1 << j)
                for p in range(inst.n):
                    if mask & (1 << p):
                        assert dp_right[j][bigger] <= dp_right[p][mask] + lengths[j]


def test_reversal_duality():
    for inst in seeded_instances(4400, 15, n_choices=(2, 3, 4, 5)):
        reversed_inst = make_instance([s[::-1] for s in inst.strings], inst.k)
        dp_left = subset_table(inst).dp_left
        dp_right_rev = subset_table(reversed_inst).dp_right
        assert dp_left == dp_right_rev


def test_full_mask_equals_permutation_oracle():
    for inst in seeded_instances(4500, 15, n_choices=(2, 3, 4, 5, 6)):
        dp_right = subset_table(inst).dp_right
        full = (1 << inst.n) - 1
        best = min(dp_right[j][full] for j in range(inst.n))
        assert best == brute_force_scs(inst)


@settings(max_examples=30)
@given(st.lists(st.text(alphabet="ab", min_size=1, max_size=5), min_size=2, max_size=4))
def test_dp_bounds(strings):
    if not substring_free(strings):
        return
    inst = make_instance(strings, 0)
    dp_right = subset_table(inst).dp_right
    lengths = [len(s) for s in strings]
    for mask in range(1, 1 << inst.n):
        members = [i for i in range(inst.n) if mask & (1 << i)]
        for j in members:
            value = dp_right[j][mask]
            assert max(lengths[i] for i in members) <= value <= sum(lengths[i] for i in members)


def assert_tables_equal_the_plain_ones(inst):
    """The subset table's two halves and its row minima against `plain_chain_dp`.

    The DP is under test, so its overlaps come by direct equality: the
    mismatch table of the wide-field instance alone takes tens of seconds.
    """
    overlap = direct_overlaps(inst)
    lengths = [len(s) for s in inst.strings]
    table = build_subset_table(inst, overlap, Counters())
    right, left = rows(table.dp_right), rows(table.dp_left)
    assert right == plain_chain_dp(lengths, overlap)
    assert left == plain_chain_dp(lengths, list(zip(*overlap)))
    assert table.row_min.typecode == table.dp_right[0].typecode
    for dp in (right, left):
        assert list(table.row_min) == [min(filter(None, row), default=0) for row in dp]
    return table


def test_row_minimum_recurrence_equals_the_plain_one():
    # binary mixed lengths: most ordered pairs overlap; the chains shape
    # (length 5, alphabet 4): most do not, so the row minimum decides often;
    # from n = 11 the chains shape alone, which keeps the test short
    zero = positive = 0
    for n in range(6, 13):
        for params in (GeneratorParams(n, 3, 9, 2), GeneratorParams(n, 5, 5, 4))[n > 10 :]:
            for seed in (4600 + 10 * n, 4605 + 10 * n):
                inst = generated(params, seed, n % 3)
                assert_tables_equal_the_plain_ones(inst)
                overlap = overlaps(inst)
                gains = [overlap[p][j] for p in range(n) for j in range(n) if p != j]
                zero += gains.count(0)
                positive += len(gains) - gains.count(0)
    # both terms of the recurrence are exercised, each on a good share of pairs
    assert min(zero, positive) > (zero + positive) / 4


@pytest.mark.parametrize("row_bits", [4, 0, 2, 5])
def test_both_fill_paths_equal_the_plain_recurrence(monkeypatch, row_bits):
    # with 4 row bits, as built, every column is filled entry by entry up to
    # n = 4, and from n = 5 the columns j >= 4 a slice of 2^j rows at a
    # time; other chunk sizes only move the line between the two paths
    assert subset_dp._ROW_BITS == 4
    monkeypatch.setattr(subset_dp, "_ROW_BITS", row_bits)
    for n in range(1, 11):
        for params in (GeneratorParams(n, 1, 7, 2), GeneratorParams(n, 3, 8, 3)):
            assert_tables_equal_the_plain_ones(generated(params, 4800 + 10 * n, n % 3))


def high_neighbour_instance(body):
    """Eight strings of distinct letter runs of length `body`, joined by
    edge letters so that string 0 overlaps only strings 4-7: these end in
    its prefix "XY" (gain 1 or 2) and start with its last letter "V".
    Strings 1-3 overlap one another, and string 3 overlaps strings 4-7;
    none of them overlaps string 0."""
    runs = [letter * body for letter in "abcdefgh"]
    return make_instance(
        [
            "XY" + runs[0] + "V",
            "Z" + runs[1] + "W",
            "W" + runs[2] + "Z",
            "W" + runs[3] + "V",
            "V" + runs[4] + "X",
            "V" + runs[5] + "XY",
            "V" + runs[6] + "X",
            "V" + runs[7] + "XY",
        ],
        0,
    )


@pytest.mark.parametrize("body, typecode", [(3, "H"), (4200, "I")])
@pytest.mark.parametrize("row_bits", [4, 5])
def test_high_predecessors_alone_decide_a_scalar_column(monkeypatch, row_bits, body, typecode):
    # column 0 is filled entry by entry, and its only neighbours with a
    # positive overlap, in either table, are strings 4-7: with 4 row bits
    # their terms reach each entry through the slices' fold alone, with 5
    # string 4 is read entry by entry and 5-7 folded; on some entries those
    # terms beat the row minimum
    monkeypatch.setattr(subset_dp, "_ROW_BITS", row_bits)
    inst = high_neighbour_instance(body)
    overlap = direct_overlaps(inst)
    for p in range(1, 8):
        assert (overlap[p][0] > 0) == (overlap[0][p] > 0) == (p >= 4)
    table = assert_tables_equal_the_plain_ones(inst)
    assert table.row_min.typecode == typecode
    for dp in (table.dp_right, table.dp_left):
        decided = [
            mask
            for mask in range(3, 256, 2)
            if dp[0][mask] < len(inst.strings[0]) + table.row_min[mask ^ 1]
        ]
        assert len(decided) > 16
        assert all(mask & 0xF0 for mask in decided)


def test_wide_fields_equal_the_plain_recurrence():
    # a total length of at least 2^15 does not fit under the 16-bit
    # sentinel, so the fields are 32 bits wide, columns 4 and 5 included
    rng = random.Random(4900)
    inst = make_instance(["".join(rng.choice("ab") for _ in range(5500)) for _ in range(6)], 0)
    assert sum(len(s) for s in inst.strings) >= 2**15
    table = assert_tables_equal_the_plain_ones(inst)
    assert table.row_min.typecode == "I"
    overlap = direct_overlaps(inst)
    assert sum(overlap[p][j] > 0 for p in range(6) for j in range(6) if p != j) >= 15
    # the solver's route reads the same overlaps from the mismatch counts
    assert overlaps(inst) == overlap


def test_dp_counters_equal_their_bound():
    # one term per ordered pair of distinct members of each mask: n(n-1)2^(n-2)
    for n in range(1, 11):
        inst = generated(GeneratorParams(n, 5, 5, 4), 4700 + n, 0)
        counters = Counters()
        build_subset_table(inst, overlaps(inst), counters)
        bounds = Counters.bounds(n, 5)
        assert counters.dp_right == counters.dp_left == bounds["dp_right"] == bounds["dp_left"]
        assert bounds["dp_right"] == sum(c * (c - 1) for c in (bin(m).count("1") for m in range(1 << n)))
