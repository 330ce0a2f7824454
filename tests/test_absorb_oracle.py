"""Absorption-heavy instances at n = 5 to 8, checked against the brute-force reference.

Each instance has one string of length 7-9 and short strings of length 2-4,
so with k > 0 the short strings can sit wholly inside the long one, and the
absorbed shapes decide the optimum.  The reference shares no code with the
solver's tables or its placement search.  The n = 7-8 sweep covers the
absorbed triples, whose split glue the solver skips when a lower bound
already rules the shape out.
"""

from __future__ import annotations

import random

from superstring import OracleLimits, brute_force_min_length, make_instance, solve, verify_solution

SWEEP_SEED = 1734000
SWEEP_COUNT = 400
DRAW_LIMIT = 500
LIMITS = OracleLimits(max_n=6, max_total_len=40)
WIDE_SEED = 1735000
WIDE_COUNT = 120
WIDE_LIMITS = OracleLimits(max_n=8, max_total_len=48)


def absorb_instance(seed: int, sizes=(5, 6)):
    """One long string plus short ones, or None when the draw limit runs out."""
    rng = random.Random(seed)
    letters = rng.choice(("ab", "abc"))
    n = rng.choice(sizes)
    k = rng.randint(1, 3)
    strings = ["".join(rng.choice(letters) for _ in range(rng.randint(7, 9)))]
    for _ in range(DRAW_LIMIT):
        if len(strings) == n:
            return make_instance(strings, k)
        candidate = "".join(rng.choice(letters) for _ in range(rng.randint(2, 4)))
        if not any(candidate in s or s in candidate for s in strings):
            strings.append(candidate)
    return None


def test_absorption_heavy_oracle_sweep():
    solved = disagree = absorbed = 0
    for seed in range(SWEEP_SEED, SWEEP_SEED + SWEEP_COUNT):
        inst = absorb_instance(seed)
        if inst is None:
            continue
        solved += 1
        solution = solve(inst, reconstruct=True)
        assert not verify_solution(inst, solution)
        if solution.length != brute_force_min_length(inst, LIMITS).length:
            disagree += 1
        m = solution.mistake_index
        m_end = solution.offsets[m] + len(inst.strings[m])
        if any(
            solution.offsets[m] < at and at + len(s) < m_end
            for e, (s, at) in enumerate(zip(inst.strings, solution.offsets))
            if e != m
        ):
            absorbed += 1
    assert disagree == 0, f"{disagree} of {solved} instances disagree with the reference"
    # the sweep exists to exercise absorbed shapes; make sure it still does
    assert solved >= SWEEP_COUNT // 2 and absorbed >= solved // 4, (solved, absorbed)


def test_absorbed_triples_oracle_sweep_at_n_7_and_8():
    solved = disagree = both_sides = 0
    for seed in range(WIDE_SEED, WIDE_SEED + WIDE_COUNT):
        inst = absorb_instance(seed, (7, 8))
        if inst is None:
            continue
        solved += 1
        solution = solve(inst, reconstruct=True)
        assert not verify_solution(inst, solution)
        if solution.length != brute_force_min_length(inst, WIDE_LIMITS).length:
            disagree += 1
        m = solution.mistake_index
        m_start = solution.offsets[m]
        m_end = m_start + len(inst.strings[m])
        spans = [
            (at, at + len(s))
            for e, (s, at) in enumerate(zip(inst.strings, solution.offsets))
            if e != m
        ]
        inside = any(m_start < start and end < m_end for start, end in spans)
        left = any(start < m_start for start, _ in spans)
        right = any(end > m_end for _, end in spans)
        both_sides += inside and left and right
    assert disagree == 0, f"{disagree} of {solved} instances disagree with the reference"
    # an absorbed string with exact strings on both sides of m is an absorbed
    # triple: make sure the sweep still reaches that shape
    assert solved >= WIDE_COUNT // 2 and both_sides * 5 >= solved, (solved, both_sides)
