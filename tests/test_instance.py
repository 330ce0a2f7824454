import pytest
from hypothesis import given, strategies as st

from superstring import (
    Instance,
    InstanceError,
    make_instance,
    parse_instance,
    serialize_instance,
    validate,
)


def test_parse_basic():
    inst = parse_instance("ab\ncd\n", 0)
    assert inst.strings == ("ab", "cd")
    assert inst.n == 2
    assert inst.c == 2
    assert inst.total_len == 4
    assert inst.k == 0


def test_parse_skips_comments_and_blanks():
    inst = parse_instance("# note\nabc\n\n", 2)
    assert inst.strings == ("abc",)
    assert inst.n == 1
    assert inst.k == 2


def test_parse_empty_input():
    with pytest.raises(InstanceError, match="no strings"):
        parse_instance("", 0)
    with pytest.raises(InstanceError, match="no strings"):
        parse_instance("# only a comment\n", 0)


def test_parse_negative_budget():
    with pytest.raises(InstanceError, match="invalid budget"):
        parse_instance("ab\n", -1)


@pytest.mark.parametrize(
    "strings, k, message",
    [
        ((), 0, "no strings"),
        (("ab", "cd"), -1, "invalid budget"),
        (("ab", "cd"), 1.5, "invalid budget"),
        (("ab", 3), 1, "string 1 is not a non-empty str"),
        (("", "ab"), 0, "string 0 is not a non-empty str"),
        (("ab", "cd"), True, "invalid budget"),
    ],
)
def test_instance_refuses_no_strings_and_a_bad_budget(strings, k, message):
    # built directly, not through make_instance, so solve never sees such an
    # instance (it would index past an empty list, or fail inside validate)
    with pytest.raises(InstanceError, match=message):
        Instance(strings=strings, k=k)
    with pytest.raises(InstanceError, match=message):
        make_instance(strings, k)


def test_instance_requires_a_tuple_that_make_instance_builds():
    with pytest.raises(InstanceError, match="not a tuple"):
        Instance(strings=["ab", "cd"], k=1)
    assert make_instance(["ab", "cd"], 1).strings == ("ab", "cd")


def test_parse_preserves_order_and_crlf():
    inst = parse_instance("ba\r\nab\r\n", 0)
    assert inst.strings == ("ba", "ab")


def test_too_many_strings_guard():
    lines = "\n".join(f"a{i:021b}" for i in range(21))
    with pytest.raises(InstanceError, match="too many strings"):
        parse_instance(lines, 0)
    # explicit override allows it
    inst = parse_instance(lines, 0, max_strings=25)
    assert inst.n == 21


def test_validate_substring_pair():
    assert validate(make_instance(["ab", "abc"], 0)) == [(0, 1)]


def test_validate_equal_strings_reported_as_substring():
    assert validate(make_instance(["ab", "ab"], 0)) == [(0, 1), (1, 0)]


def test_validate_clean_pair():
    assert validate(make_instance(["ab", "ba"], 0)) == []


def test_validate_empty_string():
    # an empty string never reaches validate: the Instance refuses it
    with pytest.raises(InstanceError, match="string 0 is not a non-empty str"):
        Instance(strings=("", "ab"), k=0)


def test_validate_matches_direct_scan():
    strings = ["aba", "ab", "ba", "bab", "abab"]
    inst = make_instance(strings, 0)
    expected = {
        (a, b)
        for a in range(len(strings))
        for b in range(len(strings))
        if a != b and strings[a] in strings[b]
    }
    assert set(validate(inst)) == expected


@given(
    st.lists(
        st.text(alphabet="abc", min_size=1, max_size=6),
        min_size=1,
        max_size=8,
    ),
    st.integers(min_value=0, max_value=5),
)
def test_round_trip(strings, k):
    inst = make_instance(strings, k)
    assert parse_instance(serialize_instance(inst), k).strings == inst.strings
