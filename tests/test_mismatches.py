import pytest
from hypothesis import given, strategies as st

from superstring import make_instance, build_mismatch_table
from conftest import naive_mismatch_positions, random_valid_instance


def table_for(strings):
    return build_mismatch_table(make_instance(strings, 0))


def assert_counts_match_naive_scan(strings, table):
    """counts(i, j) against a direct scan: one entry per shift of the domain
    [0, |i|+|j|-1], each the number of positions where the pair disagrees."""
    for i, base in enumerate(strings):
        for j, slider in enumerate(strings):
            if i == j:
                continue
            counts = table.counts(i, j)
            assert len(counts) == len(base) + len(slider)
            for shift, count in enumerate(counts):
                assert count == len(naive_mismatch_positions(base, slider, shift))


def test_identical_fully_aligned():
    # equal strings are not a valid instance, but the table itself is defined
    table = table_for(["ab", "ab"])
    assert table.counts(0, 1)[1] == 0


def test_reversed_pair_full_overlay():
    table = table_for(["ab", "ba"])
    assert table.counts(0, 1)[1] == 2


def test_slider_past_base_is_empty():
    table = table_for(["abc", "xy"])
    assert table.counts(0, 1)[4] == 0


STRING_SETS = st.lists(
    st.text(alphabet="abc", min_size=1, max_size=5), min_size=2, max_size=4
)


@given(STRING_SETS)
def test_matches_naive_scan_everywhere(strings):
    assert_counts_match_naive_scan(strings, build_mismatch_table(make_instance(strings, 0)))


@given(STRING_SETS)
def test_symmetric_totals(strings):
    inst = make_instance(strings, 0)
    table = build_mismatch_table(inst)
    for i in range(len(strings)):
        for j in range(len(strings)):
            if i == j:
                continue
            assert sum(table.counts(i, j)) == sum(table.counts(j, i))


@pytest.mark.parametrize("seed", range(8))
def test_counts_match_position_lists(seed):
    inst = random_valid_instance(seed, n_choices=(3, 4, 5), max_len=9, alphabets=(2, 3, 4))
    assert_counts_match_naive_scan(inst.strings, build_mismatch_table(inst))

