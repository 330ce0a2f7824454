"""Digest of the solver's outputs on a fixed instance set.

Run from the repository root:

    PYTHONPATH=src python tests/output_digest.py

It prints the number of instances solved and two sha256 digests.  Each
instance is solved with reconstruction, and gives one line,
``json.dumps([length, mistake_index, witness, offsets, mismatch_positions])``;
the first digest is over those lines, each newline-terminated, and the
second over the same lines with ``asdict(counters)`` appended to each list.
A change that keeps answers, witnesses and counters leaves both unchanged.
CI pins the count, ``instances 1219``, and the outputs digest,
``outputs 70e1b197febde8530f3d515d61587f8b3e974704d31ed384e219941a5018669b``.

The set is drawn deterministically:

  * bench pool indices: every 3rd of ``absorb``, ``cli`` and ``chains`` and
    every 8th of ``tables``, drawn by ``bench/families.py``.  A ``chains``
    draw's k is its index mod 2, so every 3rd index gives both budgets: half
    of those rows are k = 1 and reach the composition, which a k = 0 solve
    never does;
  * 400 ``generate_instance`` draws from ``random.Random(20261018)``: n in
    2..8, lengths lo..hi within 1..14, alphabet 2..4, k 0..4 and a generator
    seed below 10**9, in that order; a draw the generator cannot fill is
    skipped;
  * 600 two-letter ``generate_instance`` draws from
    ``random.Random(20261027)``: n in 3..6, lengths lo..hi with lo in 2..4
    and hi in lo..6, k 1..3 and a generator seed below 10**9, in that
    order, skipping what the generator cannot fill.  Strings this short
    often have a string of length |m| - 2 that fits inside a mistake string
    m at exactly one offset, and that placement decides some answers, which
    no draw above reaches.

This file is not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import asdict
from pathlib import Path

from superstring import InstanceError, cli, solve

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import families  # noqa: E402

POOL_STEPS = {"absorb": 3, "cli": 3, "chains": 3, "tables": 8}
DRAWS = 400
DRAW_SEED = 20261018
TWO_LETTER_DRAWS = 600
TWO_LETTER_SEED = 20261027


def instances():
    for name, step in POOL_STEPS.items():
        workload = families.WORKLOADS[name]
        for index in range(0, workload.pool, step):
            yield workload.draw(cli, index)
    rng = random.Random(DRAW_SEED)
    for _ in range(DRAWS):
        n = rng.randint(2, 8)
        lo = rng.randint(1, 14)
        hi = rng.randint(lo, 14)
        alphabet = rng.randint(2, 4)
        k = rng.randint(0, 4)
        seed = rng.randrange(10**9)
        try:
            yield cli.generate_instance(cli.GeneratorParams(n, lo, hi, alphabet), seed, k)
        except InstanceError:
            continue
    rng = random.Random(TWO_LETTER_SEED)
    for _ in range(TWO_LETTER_DRAWS):
        n = rng.randint(3, 6)
        lo = rng.randint(2, 4)
        hi = rng.randint(lo, 6)
        k = rng.randint(1, 3)
        seed = rng.randrange(10**9)
        try:
            yield cli.generate_instance(cli.GeneratorParams(n, lo, hi, 2), seed, k)
        except InstanceError:
            continue


def main() -> None:
    outputs, with_counters = hashlib.sha256(), hashlib.sha256()
    count = 0
    for instance in instances():
        solution = solve(instance, reconstruct=True)
        fields = [
            solution.length,
            solution.mistake_index,
            solution.witness,
            solution.offsets,
            solution.mismatch_positions,
        ]
        outputs.update((json.dumps(fields) + "\n").encode())
        with_counters.update((json.dumps(fields + [asdict(solution.counters)]) + "\n").encode())
        count += 1
    print(f"instances {count}")
    print(f"outputs {outputs.hexdigest()}")
    print(f"outputs+counters {with_counters.hexdigest()}")


if __name__ == "__main__":
    main()
