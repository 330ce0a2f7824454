"""Record the optimal length of every pool instance into expected.json.

    python3 bench/record.py [workload ...]

Solves each pool instance with witness reconstruction, rejects any witness
that `verify_solution` refuses, and stores `[length, digest, cost]` per pool
index, where cost is the median of three solve times scaled to the reference
speed (reference.py); families.py uses it to stratify passes.  Named
workloads are re-recorded and merged into the existing file; with no names
every workload is recorded.  The stored answers are the reference every
benchmark run checks against, so re-record them only at a commit whose
answers are trusted.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import superstring  # noqa: E402
import superstring.cli  # noqa: E402

import reference  # noqa: E402
from families import EXPECTED_PATH, WORKLOADS, digest, load_expected  # noqa: E402

COST_REPEATS = 3


def record(name: str) -> list[list]:
    workload = WORKLOADS[name]
    rows = []
    for index in range(workload.pool):
        instance = workload.draw(superstring.cli, index)
        costs = []
        for _ in range(COST_REPEATS):
            before = reference.timed()
            start = perf_counter()
            solution = superstring.solve(instance, reconstruct=True)
            elapsed = perf_counter() - start
            after = reference.timed()
            costs.append(elapsed * reference.REFERENCE_S / ((before + after) / 2))
            problems = superstring.verify_solution(instance, solution)
            if problems:
                raise SystemExit(f"{name}[{index}]: witness rejected: {problems}")
        rows.append([solution.length, digest(instance), float(f"{statistics.median(costs):.4g}")])
    return rows


def main(argv: list[str]) -> int:
    names = argv or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"unknown workload(s): {unknown}", file=sys.stderr)
        return 2
    expected = load_expected() if EXPECTED_PATH.exists() else {}
    for name in names:
        expected[name] = record(name)
        print(f"{name}: {len(expected[name])} instances", file=sys.stderr)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, separators=(",", ":"))
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
