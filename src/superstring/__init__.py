"""Exact shortest-superstring solver with a one-string mismatch budget.

Given a set of strings (none a substring of another) and a budget k, find
the minimal length of a string containing every input exactly except one
designated input, which may disagree in at most k positions.  The package
also ships an independent brute-force reference for small instances and a
CLI front end.
"""

from .cores import CorePlacement, CoreTable, build_pair_cores, build_triple_cores
from .counters import Counters
from .instance import (
    Instance,
    InstanceError,
    InvalidInstanceError,
    make_instance,
    parse_instance,
    serialize_instance,
    validate,
)
from .mismatches import MismatchTable, build_mismatch_table
from .oracle import OracleLimitError, OracleLimits, OracleResult, brute_force_min_length, brute_force_scs
from .solver import ReconstructionError, Solution, solve, verify_solution
from .subset_dp import SubsetTable, build_overlap_table, build_subset_table

__version__ = "0.1.0"

__all__ = [
    "CorePlacement",
    "CoreTable",
    "Counters",
    "Instance",
    "InstanceError",
    "InvalidInstanceError",
    "MismatchTable",
    "OracleLimitError",
    "OracleLimits",
    "OracleResult",
    "ReconstructionError",
    "Solution",
    "SubsetTable",
    "brute_force_min_length",
    "brute_force_scs",
    "build_mismatch_table",
    "build_overlap_table",
    "build_pair_cores",
    "build_subset_table",
    "build_triple_cores",
    "make_instance",
    "parse_instance",
    "serialize_instance",
    "solve",
    "validate",
    "verify_solution",
]
