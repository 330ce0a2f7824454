"""Golden outputs for absorption-heavy and anchored instances.

Each absorption-heavy instance has one string of length 10-16 and 4-7
strings of length 3-5 over "abc", k in 1..4, so absorbed shapes decide most
answers.  Each anchored instance has 5-6 strings of one length in 12..20
over "abcd", k in 1..4: nothing can be absorbed, so the merge cores (and
their ``m_start`` placements) set the winning witnesses.  The stored tuple
``(length, mistake_index, witness, offsets, mismatch_positions, counters)``
pins not only the optimum but the witness, every tie-break and the work each
phase did, so a rewrite of the composition step or of the core builders must
reproduce them byte for byte.

Regenerate the data (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path

from superstring import make_instance, solve, verify_solution

DATA_PATH = Path(__file__).resolve().parent / "data" / "golden_absorb.json"
GOLDEN_SEED = 1733000
GOLDEN_COUNT = 60
DRAW_LIMIT = 2000
ANCHORED_PATH = DATA_PATH.with_name("golden_anchored.json")
ANCHORED_SEED = 1734000
ANCHORED_COUNT = 30


def golden_instance(seed: int):
    """One long string plus short ones that fit inside it, drawn from `seed`."""
    rng = random.Random(seed)
    k = rng.randint(1, 4)
    shorts = rng.randint(4, 7)
    strings = ["".join(rng.choice("abc") for _ in range(rng.randint(10, 16)))]
    for _ in range(DRAW_LIMIT):
        if len(strings) == 1 + shorts:
            break
        candidate = "".join(rng.choice("abc") for _ in range(rng.randint(3, 5)))
        if not any(candidate in s or s in candidate for s in strings):
            strings.append(candidate)
    return make_instance(strings, k)


def anchored_instance(seed: int):
    """5-6 distinct strings of one length, drawn from `seed`."""
    rng = random.Random(seed)
    k = rng.randint(1, 4)
    count = rng.randint(5, 6)
    size = rng.randint(12, 20)
    strings: list[str] = []
    while len(strings) < count:
        candidate = "".join(rng.choice("abcd") for _ in range(size))
        if candidate not in strings:
            strings.append(candidate)
    return make_instance(strings, k)


def golden_row(seed: int, draw=golden_instance) -> dict:
    inst = draw(seed)
    solution = solve(inst, reconstruct=True)
    assert not verify_solution(inst, solution)
    return {
        "seed": seed,
        "strings": list(inst.strings),
        "k": inst.k,
        "length": solution.length,
        "mistake_index": solution.mistake_index,
        "witness": solution.witness,
        "offsets": solution.offsets,
        "mismatch_positions": solution.mismatch_positions,
        "counters": dataclasses.asdict(solution.counters),
    }


GOLDEN_SETS = (
    (DATA_PATH, GOLDEN_SEED, GOLDEN_COUNT, golden_instance),
    (ANCHORED_PATH, ANCHORED_SEED, ANCHORED_COUNT, anchored_instance),
)


def check_rows(path: Path, count: int, draw) -> None:
    rows = json.loads(path.read_text())
    assert len(rows) == count
    for row in rows:
        got = golden_row(row["seed"], draw)
        assert got == row, f"seed {row['seed']}: {got} != {row}"


def test_golden_outputs_are_unchanged():
    check_rows(DATA_PATH, GOLDEN_COUNT, golden_instance)


def test_anchored_golden_outputs_are_unchanged():
    check_rows(ANCHORED_PATH, ANCHORED_COUNT, anchored_instance)


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    DATA_PATH.parent.mkdir(exist_ok=True)
    for path, seed, count, draw in GOLDEN_SETS:
        rows = [golden_row(seed + i, draw) for i in range(count)]
        path.write_text(json.dumps(rows, indent=1) + "\n")
        print(f"wrote {len(rows)} rows to {path}")
