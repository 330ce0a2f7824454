import json

import pytest

from superstring import (
    OracleLimitError,
    OracleLimits,
    brute_force_min_length,
    brute_force_scs,
    make_instance,
)
from superstring.cli import main
from conftest import random_valid_instance


def test_single_string():
    result = brute_force_min_length(make_instance(["abc"], 0))
    assert result.length == 3
    assert result.witness == "abc"


def test_full_overlay_with_budget():
    result = brute_force_min_length(make_instance(["ab", "ba"], 2))
    assert result.length == 2


def test_chain_without_budget():
    result = brute_force_min_length(make_instance(["ab", "bc", "cd"], 0))
    assert result.length == 4
    assert result.witness == "abcd"


def test_witness_is_consistent():
    for seed in range(700, 740):
        inst = random_valid_instance(seed)
        result = brute_force_min_length(inst)
        assert len(result.witness) == result.length
        misses_total = 0
        for i, s in enumerate(inst.strings):
            occurrences = [
                at
                for at in range(result.length - len(s) + 1)
                if sum(1 for t in range(len(s)) if result.witness[at + t] != s[t])
                <= (inst.k if i == result.mistake_index else 0)
            ]
            assert occurrences, (inst.strings, inst.k, result)


def test_limits_enforced():
    big = make_instance(["ab", "cd", "ef", "gh", "ij"], 0)
    with pytest.raises(OracleLimitError, match="oracle limits"):
        brute_force_min_length(big)
    # explicit override accepts it
    assert brute_force_min_length(big, OracleLimits(max_n=5)).length == 10


def test_total_length_limit():
    long_strings = make_instance(["a" * 14, "b" * 14], 0)
    with pytest.raises(OracleLimitError, match="oracle limits"):
        brute_force_min_length(long_strings)


def test_default_limits_answer_every_instance_they_admit(capsys):
    # total length 26, the default cap: with no overlap to gain, the answer
    # at k = 0 is the strings side by side, the longest length the oracle
    # tries, and at k = 1 one mismatch saves a single character
    for k, length in ((0, 26), (1, 25)):
        result = brute_force_min_length(make_instance(["a" * 13, "b" * 13], k))
        assert (result.length, len(result.witness)) == (length, length)
        assert main(["--strings", "a" * 13 + "," + "b" * 13, "--k", str(k), "--oracle-check", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["length"] == length


def test_scs_examples():
    assert brute_force_scs(make_instance(["ab", "bc"], 0)) == 3
    assert brute_force_scs(make_instance(["ab", "cd"], 0)) == 4
    assert brute_force_scs(make_instance(["abc"], 0)) == 3


def test_scs_limit():
    with pytest.raises(OracleLimitError):
        brute_force_scs(make_instance(["ab", "cd", "ef", "gh", "ij", "kl", "mn"], 0))


def test_zero_budget_matches_classical():
    for seed in range(740, 780):
        inst = random_valid_instance(seed, ks=(0,))
        assert brute_force_min_length(inst).length == brute_force_scs(inst)


def test_non_increasing_in_budget():
    for seed in range(780, 800):
        inst = random_valid_instance(seed, n_choices=(2, 3), max_len=4, ks=(0,))
        lengths = [
            brute_force_min_length(make_instance(inst.strings, k)).length
            for k in range(0, 4)
        ]
        assert lengths == sorted(lengths, reverse=True)
