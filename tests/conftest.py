"""Shared helpers for the test suite.

The oracles here are deliberately written from raw character comparisons,
independent of the package's tables, so that table bugs cannot hide."""

from __future__ import annotations

import random

from superstring import make_instance
from superstring.cli import GeneratorParams, generate_instance


def naive_mismatch_positions(base: str, slider: str, shift: int) -> list[int]:
    """Mismatch positions by direct scan: slider's last char at base position `shift`."""
    out = []
    for t in range(len(slider)):
        x = shift - len(slider) + 1 + t
        if 0 <= x < len(base) and slider[t] != base[x]:
            out.append(x)
    return out


def window_min_length(left: str | None, mid: str, right: str | None, k: int) -> int:
    """Independent minimal-window oracle: enumerate every (length, start) directly.

    `left` sits at the window's left edge, `right` at its right edge, `mid`
    anywhere inside with at most k conflicts against the union of the two.
    """
    return window_placement(left, mid, right, k)[0]


def window_placement(
    left: str | None, mid: str, right: str | None, k: int
) -> tuple[int, int, int]:
    """First feasible (length, start) of the minimal-window oracle, and its cost.

    Lengths ascend, then starts; the first cell within budget wins, which is
    the merge-core builders' tie-break.  The third field counts the cells
    visited on the way: every start of each length whose anchor overlay is
    clean, up to and including the winner (lengths with a conflicting overlay
    cost nothing).
    """
    len_l = len(left) if left else 0
    len_r = len(right) if right else 0
    low = max(len_l, len_r, 1)
    high = len_l + len(mid) + len_r
    cells = 0
    for length in range(low, high + 1):
        chars: list[str | None] = [None] * length
        conflict = False
        if left:
            for t, ch in enumerate(left):
                chars[t] = ch
        if right:
            for t, ch in enumerate(right):
                at = length - len_r + t
                if chars[at] is not None and chars[at] != ch:
                    conflict = True
                    break
                chars[at] = ch
        if conflict:
            continue
        for start in range(length - len(mid) + 1):
            cells += 1
            misses = sum(
                1
                for t, ch in enumerate(mid)
                if chars[start + t] is not None and chars[start + t] != ch
            )
            if misses <= k:
                return length, start, cells
    raise AssertionError("unreachable: full concatenation is always feasible")


def random_valid_instance(seed: int, n_choices=(2, 3, 4), max_len=6, alphabets=(2, 3), ks=(0, 1, 2, 3)):
    """One seeded valid instance with parameters drawn from the seed.

    Some parameter draws cannot be completed (e.g. once 'a' and 'b' are both
    picked, every further binary string is a containment violation); those
    wedge the generator, which reports infeasibility, and we deterministically
    redraw until a draw succeeds.
    """
    from superstring import InstanceError

    rng = random.Random(seed)
    k = rng.choice(ks)
    while True:
        params = GeneratorParams(
            count=rng.choice(n_choices),
            min_len=1,
            max_len=max_len,
            alphabet=rng.choice(alphabets),
        )
        try:
            return generate_instance(params, rng.randrange(2**31), k)
        except InstanceError:
            continue


def all_binary_strings(max_len: int) -> list[str]:
    out = []
    for size in range(1, max_len + 1):
        for value in range(2**size):
            out.append("".join("ab"[(value >> t) & 1] for t in range(size)))
    return out


def substring_free(strings) -> bool:
    return not any(
        a in b for i, a in enumerate(strings) for j, b in enumerate(strings) if i != j
    )
