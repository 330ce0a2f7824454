"""Golden outputs for absorption-heavy instances.

Each instance has one string of length 10-16 and 4-7 strings of length 3-5
over "abc", k in 1..4, so absorbed shapes decide most answers.  The stored
tuple ``(length, mistake_index, witness, offsets, mismatch_positions)`` pins
not only the optimum but the witness and every tie-break, so a rewrite of
the composition step must reproduce them byte for byte.

Regenerate the data (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from superstring import make_instance, solve, verify_solution

DATA_PATH = Path(__file__).resolve().parent / "data" / "golden_absorb.json"
GOLDEN_SEED = 1733000
GOLDEN_COUNT = 60
DRAW_LIMIT = 2000


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


def golden_row(seed: int) -> dict:
    inst = golden_instance(seed)
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
    }


def test_golden_outputs_are_unchanged():
    rows = json.loads(DATA_PATH.read_text())
    assert len(rows) == GOLDEN_COUNT
    for row in rows:
        got = golden_row(row["seed"])
        assert got == row, f"seed {row['seed']}: {got} != {row}"


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    DATA_PATH.parent.mkdir(exist_ok=True)
    rows = [golden_row(GOLDEN_SEED + i) for i in range(GOLDEN_COUNT)]
    DATA_PATH.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"wrote {len(rows)} rows to {DATA_PATH}")
