import itertools
import random
from operator import eq, ne

import pytest
from hypothesis import given, strategies as st

from superstring import Counters, make_instance, build_mismatch_table
from conftest import naive_mismatch_positions, random_valid_instance


def table_for(strings, k=0):
    return build_mismatch_table(make_instance(strings, k), Counters())


def assert_counts_match_naive_scan(strings, table):
    """counts[i, j] against a direct scan: one entry per shift of the domain
    [0, |i|+|j|-1], each the number of positions where the pair disagrees."""
    for i, base in enumerate(strings):
        for j, slider in enumerate(strings):
            if i == j:
                continue
            counts = table.counts[i, j]
            assert len(counts) == len(base) + len(slider)
            for shift, count in enumerate(counts):
                assert count == len(naive_mismatch_positions(base, slider, shift))


def test_identical_fully_aligned():
    # equal strings are not a valid instance, but the table itself is defined
    table = table_for(["ab", "ab"])
    assert table.counts[0, 1][1] == 0


def test_reversed_pair_full_overlay():
    table = table_for(["ab", "ba"])
    assert table.counts[0, 1][1] == 2


def test_slider_past_base_is_empty():
    table = table_for(["abc", "xy"])
    assert table.counts[0, 1][4] == 0


# letters past latin-1 (two bytes in UTF-16, four with the emoji) as well as
# ASCII: strings are reduced to 0/1 fields per letter before they are encoded
STRING_SETS = st.lists(
    st.text(alphabet="abcéΩ\U0001F600", min_size=1, max_size=5), min_size=2, max_size=4
)


@given(STRING_SETS)
def test_matches_naive_scan_everywhere(strings):
    assert_counts_match_naive_scan(strings, build_mismatch_table(make_instance(strings, 0), Counters()))


def assert_budget_lists_match_counts(strings, table, top):
    """shifts_within[i, j] of a table built at budget top against a direct
    scan of counts[i, j]: one ascending list per budget 0..top, and a
    KeyError for any other budget."""
    for i in range(len(strings)):
        for j in range(len(strings)):
            if i == j:
                continue
            counts = table.counts[i, j]
            lists = table.shifts_within[i, j]
            # the smaller budgets first: each is filtered from the top budget's list
            for budget in range(top + 1):
                assert lists[budget] == tuple(shift for shift, count in enumerate(counts) if count <= budget)
            for budget in (-1, top + 1):
                with pytest.raises(KeyError):
                    lists[budget]


def assert_starts_match_naive_scan(strings, table, k):
    """starts[i, j] against a direct scan: the mismatches of j starting at
    each position s in [0, |i|] of i, and the first start within k."""
    for (i, base), (j, slider) in itertools.permutations(enumerate(strings), 2):
        by_start = [sum(map(ne, base[s:], slider)) for s in range(len(base) + 1)]
        first = next(s for s, count in enumerate(by_start) if count <= k)
        assert table.starts[i, j] == (by_start, first)


@given(STRING_SETS, st.integers(min_value=0, max_value=6))
def test_budget_lists_match_counts(strings, top):
    table = table_for(strings, top)
    # every view holds every ordered pair as soon as the table is built
    pairs = set(itertools.permutations(range(len(strings)), 2))
    for view in (table.counts, table.starts, table.shifts_within, table.clean_lengths):
        assert set(view) == pairs
    assert_budget_lists_match_counts(strings, table, top)
    assert_starts_match_naive_scan(strings, table, top)


def test_budget_lists_are_kept_per_top_budget():
    # a table's lists are those of its instance's budget, the top one; no
    # list is built before its first lookup, a smaller budget's list filters
    # the top list, and a second lookup returns the same object
    strings = ["abca", "cab"]
    wide_table, narrow_table = table_for(strings, 3), table_for(strings, 1)
    wide, narrow = wide_table.shifts_within[0, 1], narrow_table.shifts_within[0, 1]
    assert not wide and not narrow
    assert wide[1] is wide[1]
    assert wide[3] == (0, 1, 2, 3, 4, 5, 6)
    assert wide[1] == narrow[1] == (0, 1, 4, 5, 6)
    with pytest.raises(KeyError):
        narrow[3]
    # the first start of "cab" on "abca" within each table's budget: starts
    # 0 and 1 have three mismatches each, start 2 none
    assert (wide_table.starts[0, 1][1], narrow_table.starts[0, 1][1]) == (0, 2)


@given(STRING_SETS)
def test_symmetric_totals(strings):
    inst = make_instance(strings, 0)
    table = build_mismatch_table(inst, Counters())
    for i in range(len(strings)):
        for j in range(len(strings)):
            if i == j:
                continue
            assert sum(table.counts[i, j]) == sum(table.counts[j, i])


@pytest.mark.parametrize("seed", range(8))
def test_counts_match_position_lists(seed):
    inst = random_valid_instance(seed, n_choices=(3, 4, 5), max_len=9, alphabets=(2, 3, 4))
    assert_counts_match_naive_scan(inst.strings, build_mismatch_table(inst, Counters()))


def nearly_uniform(length, seed, letters="ab"):
    """Mostly the first letter, so a long pair agrees at hundreds of positions."""
    rng = random.Random(seed)
    return "".join(letters[1] if rng.random() < 0.02 else letters[0] for _ in range(length))


@pytest.mark.parametrize(
    "lengths", [(255, 255), (255, 300), (256, 256), (256, 300), (300, 300), (254, 257)]
)
def test_counts_around_the_8_bit_boundary(lengths):
    # the fields must hold every count up to the pair's shorter length: 255
    # fits 8 bits, 256 or more needs 16.  String 1 starts like string 0 and
    # string 2 is string 1 with the letters swapped, so where they start
    # together 0 and 1 agree at every position and 0 and 2 at none
    source = nearly_uniform(max(lengths), sum(lengths))
    swapped = source.translate({ord("a"): "b", ord("b"): "a"})
    strings = [source[: lengths[0]], source[: lengths[1]], swapped[: lengths[1]]]
    if min(lengths) > 255:
        # more positions agree (0, 1) and disagree (0, 2) at one shift than 8 bits hold
        assert sum(map(eq, strings[0], strings[1])) > 255
        assert sum(map(ne, strings[0], strings[2])) > 255
    table = table_for(strings, 4)
    assert_counts_match_naive_scan(strings, table)
    assert_budget_lists_match_counts(strings, table, 4)


@pytest.mark.parametrize("lengths", [(1, 300), (2, 256), (3, 700), (5, 64), (40, 1000)])
def test_counts_for_a_much_shorter_string(lengths):
    strings = [nearly_uniform(length, 10 + seed, "aΩ") for seed, length in enumerate(lengths)]
    table = table_for(strings, 4)
    assert_counts_match_naive_scan(strings, table)
    assert_budget_lists_match_counts(strings, table, 4)


def test_counts_with_32_bit_fields():
    # both strings reach 2^16 characters, so the fields are 32 bits wide;
    # the full check would take minutes, so a few shifts are compared
    base = nearly_uniform(65540, 20)
    slider = "a" * 65536
    table = table_for([base, slider], 3)
    forward, backward = table.counts[0, 1], table.counts[1, 0]
    assert len(forward) == len(backward) == len(base) + len(slider)
    last = len(base) + len(slider) - 1
    for shift in (0, 1, 2, 65534, 65535, 65536, 65539, 65540, 100000, last - 1, last):
        assert forward[shift] == len(naive_mismatch_positions(base, slider, shift))
        assert backward[shift] == len(naive_mismatch_positions(slider, base, shift))
    assert forward[65535] == base[:65536].count("b") > 256
    assert_budget_lists_match_counts([base, slider], table, 3)
