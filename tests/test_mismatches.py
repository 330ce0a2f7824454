import pytest
from hypothesis import given, strategies as st

from superstring import make_instance, build_mismatch_table
from conftest import naive_mismatch_positions, random_valid_instance


def table_for(strings):
    return build_mismatch_table(make_instance(strings, 0))


def test_identical_fully_aligned():
    # equal strings are not a valid instance, but the table itself is defined
    table = table_for(["ab", "ab"])
    assert table.positions(0, 1, 1) == ()


def test_reversed_pair_full_overlay():
    table = table_for(["ab", "ba"])
    assert table.positions(0, 1, 1) == (0, 1)
    assert table.count(0, 1, 1) == 2


def test_slider_past_base_is_empty():
    table = table_for(["abc", "xy"])
    assert table.positions(0, 1, 4) == ()
    assert table.count(0, 1, 4) == 0


def test_count_up_to():
    table = table_for(["ab", "ba"])
    assert table.count_up_to(0, 1, 1, 0) == 1
    assert table.count_up_to(0, 1, 1, -1) == 0
    assert table.count_up_to(0, 1, 1, 5) == 2


def test_shift_domain_errors():
    table = table_for(["ab", "ba"])
    assert table.shift_count(0, 1) == 4
    with pytest.raises(IndexError, match="shift out of range"):
        table.count(0, 1, 4)
    with pytest.raises(IndexError, match="shift out of range"):
        table.count(0, 1, -1)
    with pytest.raises(IndexError, match="shift out of range"):
        table.count_up_to(0, 1, 99, 0)


STRING_SETS = st.lists(
    st.text(alphabet="abc", min_size=1, max_size=5), min_size=2, max_size=4
)


@given(STRING_SETS)
def test_matches_naive_scan_everywhere(strings):
    inst = make_instance(strings, 0)
    table = build_mismatch_table(inst)
    for i, base in enumerate(strings):
        for j, slider in enumerate(strings):
            if i == j:
                continue
            for shift in range(len(base) + len(slider)):
                assert list(table.positions(i, j, shift)) == naive_mismatch_positions(
                    base, slider, shift
                )


@given(STRING_SETS)
def test_lists_sorted_and_bounded(strings):
    inst = make_instance(strings, 0)
    table = build_mismatch_table(inst)
    for i, base in enumerate(strings):
        for j, slider in enumerate(strings):
            if i == j:
                continue
            for shift in range(len(base) + len(slider)):
                positions = table.positions(i, j, shift)
                assert list(positions) == sorted(set(positions))
                for x in positions:
                    assert max(0, shift - len(slider) + 1) <= x <= min(len(base) - 1, shift)


@given(STRING_SETS)
def test_symmetric_totals(strings):
    inst = make_instance(strings, 0)
    table = build_mismatch_table(inst)
    for i in range(len(strings)):
        for j in range(len(strings)):
            if i == j:
                continue
            total_ij = sum(table.count(i, j, s) for s in range(table.shift_count(i, j)))
            total_ji = sum(table.count(j, i, s) for s in range(table.shift_count(j, i)))
            assert total_ij == total_ji


@given(STRING_SETS)
def test_up_to_full_bound_equals_count(strings):
    inst = make_instance(strings, 0)
    table = build_mismatch_table(inst)
    for i in range(len(strings)):
        for j in range(len(strings)):
            if i == j:
                continue
            bound = len(strings[i]) + len(strings[j])
            for shift in range(table.shift_count(i, j)):
                assert table.count_up_to(i, j, shift, bound) == table.count(i, j, shift)


@pytest.mark.parametrize("seed", range(8))
def test_counts_match_position_lists(seed):
    inst = random_valid_instance(seed, n_choices=(3, 4, 5), max_len=9, alphabets=(2, 3, 4))
    table = build_mismatch_table(inst)
    for i in range(inst.n):
        for j in range(inst.n):
            if i == j:
                continue
            counts = table.counts(i, j)
            assert len(counts) == table.shift_count(i, j)
            for shift, count in enumerate(counts):
                assert count == len(table.positions(i, j, shift))
