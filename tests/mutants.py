"""A standing catalogue of known bug classes, each a one-line mutant that a
detector must kill.

Run from the repository root:

    python tests/mutants.py

Each mutant is a record of five fields: the module it edits, the exact text
it replaces, its replacement, the bug class it stands for, and its detector.
The script copies ``src``, ``tests``, ``bench`` and ``pyproject.toml`` to a
temporary directory, runs the outputs digest there once unmutated for
reference, then applies one mutant at a time to the copy and runs its
detector:

  * ``DIGEST``: ``tests/output_digest.py``, which kills the mutant when it
    exits nonzero or prints a count or outputs digest other than the
    unmutated copy's (CI pins those);
  * otherwise a pytest node id, which kills the mutant when it fails; it is
    used only for a mutant the digest misses.

The replaced text must occur exactly once in its module, so a refactor that
moves or rewrites a mutated line fails here, and the mutant is restated in
the same change.  A mutant goes only with the code it mutates.  The script
prints one line per mutant and exits 1 unless every mutant is killed.  It
writes nothing in the repository.

This file is not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
DIGEST = "digest"
# a detector that runs past this is counted as failing, so a mutant that
# makes a loop spin still counts as killed
TIMEOUT_S = 600


class Mutant(NamedTuple):
    module: str  # path from the repository root
    text: str  # must occur exactly once in the module
    replacement: str
    bug: str
    detector: str  # DIGEST or a pytest node id


SOLVER = "src/superstring/solver.py"
CORES = "src/superstring/cores.py"
MISMATCHES = "src/superstring/mismatches.py"
SUBSET_DP = "src/superstring/subset_dp.py"

MUTANTS = [
    Mutant(
        SOLVER,
        "if tables.subsets.row_min[full ^ (1 << m)] >= best[0]",
        "if tables.subsets.row_min[full] >= best[0]",
        "mistake-string skip bounded by the chain over every string, m included",
        DIGEST,
    ),
    Mutant(
        SOLVER,
        ">= best[0] + (_EDGE_LEFT < best[1]):",
        ">= best[0] + (_EDGE_LEFT < best[1]) - 1:",
        "mistake-string skip cutoff one lower",
        DIGEST,
    ),
    Mutant(
        SOLVER,
        ">= best[0] + (_EDGE_LEFT < best[1]):",
        ">= best[0]:",
        "mistake-string skip cutoff without its kind term",
        DIGEST,
    ),
    Mutant(
        SOLVER,
        "row_min[outside | 1 << l] - lengths[l] - max_out[r],",
        "row_min[outside | 1 << l] - lengths[l] - max_in[r],",
        "split-glue floor's third term reads max_in[r] for max_out[r]",
        DIGEST,
    ),
    Mutant(
        SOLVER,
        "interiors = [s for s in family if not s & anchors and",
        "interiors = [s for s in family[:3] if not s & anchors and",
        "absorbed sweep reads only part of the fitting-set family",
        DIGEST,
    ),
    Mutant(
        SOLVER,
        "if not s & anchors and (anchors or s == around)]",
        "if not s & anchors]",
        "enclosed shape glues strings it does not place",
        DIGEST,
    ),
    Mutant(
        SOLVER,
        "if spent.bit_count() > k:",
        "if spent.bit_count() > k - 1:",
        "interior placement search with budget k - 1",
        DIGEST,
    ),
    Mutant(
        SOLVER,
        "cutoff = best[0] + (kind < best[1])",
        "cutoff = best[0]",
        "shape cutoff without its kind term",
        DIGEST,
    ),
    Mutant(
        SOLVER,
        "if value <= best:",
        "if value < best:",
        "chain-split scan keeps the largest left share on a tie, not the smallest",
        DIGEST,
    ),
    Mutant(
        CORES,
        "if left > lengths[l] and right > lengths[r]:",
        "if True:",
        "triple-core floor's combined term without its condition",
        DIGEST,
    ),
    Mutant(
        CORES,
        "if start < len(left_bound) and left_bound[start] > k:",
        "if start < len(left_bound) and left_bound[start] > k - 1:",
        "overlapping-anchor prefilter at budget k - 1",
        DIGEST,
    ),
    Mutant(
        MISMATCHES,
        "while by_start[first] > k:",
        "while by_start[first] > k - 1:",
        "first start within budget read as the first within k - 1",
        DIGEST,
    ),
    Mutant(
        SOLVER,
        "if lengths[e] <= lengths[m] - 2:",
        "if lengths[e] <= lengths[m] - 3:",
        "a string of length |m| - 2 never absorbed",
        DIGEST,
    ),
    Mutant(
        SOLVER,
        "for bit in range(1, self.width):",
        "for bit in range(1, 1):",
        "disagreement fold that folds nothing",
        DIGEST,
    ),
    Mutant(
        SOLVER,
        "self.len_r = len_r",
        "self.len_r = len_l",
        "anchor overlay shifted by |l| rather than |r|",
        DIGEST,
    ),
    Mutant(
        SOLVER,
        "overlay, spans = l_value | r_value << shift,",
        "overlay, spans = l_value,",
        "anchor overlay without r's characters",
        DIGEST,
    ),
    Mutant(
        SOLVER,
        "offsets = range(1, len_m - len(strings[e]))",
        "offsets = range(1, len_m - len(strings[e]) - 1)",
        "placements lose their last inner offset",
        DIGEST,
    ),
    Mutant(
        SOLVER,
        "members.sort(key=lambda e: len(options[e]))",
        "members.sort(key=lambda e: -len(options[e]))",
        "interior search ranks the most placed string first, not the fewest",
        # answers do not change, so only the golden window_scan counts show it
        "tests/test_golden.py::test_golden_outputs_are_unchanged",
    ),
    Mutant(
        SUBSET_DP,
        "term = from_bytes(bytes_of[p][lo:mid], order) - gain * ones",
        "term = from_bytes(bytes_of[p][lo:mid], order)",
        "word-parallel slice step without its overlap gain",
        DIGEST,
    ),
    Mutant(
        SUBSET_DP,
        "term = best - gain * ones",
        "term = best - (gain + 1) * ones",
        "slice fold into the row minima and accumulators with its gain one too large",
        DIGEST,
    ),
    Mutant(
        SUBSET_DP,
        "[(acc[j], 0)] * any(p >= bits for p, _ in gains[j])",
        "[(acc[j], 0)] * 0",
        "scalar step that ignores its column's folded high-predecessor terms",
        DIGEST,
    ),
    Mutant(
        SOLVER,
        "positions.append(at + t)",
        "pass",
        "witness mismatch positions not recorded",
        DIGEST,
    ),
]


def _run(root: Path, argv: list[str]) -> subprocess.CompletedProcess | None:
    """argv run in `root` with its own src first on the path, or None on a timeout."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None


def _digest(root: Path) -> list[str] | None:
    """The count and outputs lines the digest prints in `root`, or None if it fails."""
    result = _run(root, [sys.executable, "tests/output_digest.py"])
    if result is None or result.returncode != 0:
        return None
    return [line for line in result.stdout.splitlines() if line.split()[0] in ("instances", "outputs")]


def _killed(root: Path, detector: str, reference: list[str]) -> bool:
    if detector == DIGEST:
        return _digest(root) != reference
    result = _run(root, [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", detector])
    return result is None or result.returncode != 0


def main() -> int:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis", "out")
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in ("src", "tests", "bench"):
            shutil.copytree(ROOT / name, root / name, ignore=ignore)
        # the pytest detectors run under the repository's pytest settings
        shutil.copy(ROOT / "pyproject.toml", root)
        reference = _digest(root)
        if reference is None:
            print("the unmutated copy's digest failed")
            return 1
        print(" ".join(reference))
        for mutant in MUTANTS:
            path = root / mutant.module
            original = path.read_text()
            found = original.count(mutant.text)
            if found != 1:
                print(f"MISSING  {mutant.module}: {mutant.text!r} occurs {found} times  ({mutant.bug})")
                survivors += 1
                continue
            path.write_text(original.replace(mutant.text, mutant.replacement))
            try:
                killed = _killed(root, mutant.detector, reference)
            finally:
                path.write_text(original)
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED'}  {mutant.module}  {mutant.bug}  [{mutant.detector}]")
    print(f"mutants {len(MUTANTS)} killed {len(MUTANTS) - survivors}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
