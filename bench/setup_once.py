"""One cold set-up, timed in a fresh interpreter: the samples behind setup_s.

    python3 bench/setup_once.py <workload> <work dir> <pool index>...

Times what a run does before its first solve: importing superstring (with
the standard modules it pulls in), generating the pass's instances and, for
the CLI workload, writing their files.  Prints the seconds taken.
"""

from time import perf_counter

START = perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from pathlib import Path  # noqa: E402

from families import WORKLOADS, build_pass  # noqa: E402

build_pass(WORKLOADS[sys.argv[1]], [int(index) for index in sys.argv[3:]], Path(sys.argv[2]))
print(perf_counter() - START)
