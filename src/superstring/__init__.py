"""Exact shortest-superstring solver with a one-string mismatch budget.

Given a set of strings (none a substring of another) and a budget k, find
the minimal length of a string containing every input exactly except one
designated input, which may disagree in at most k positions.  The package
also ships an independent brute-force reference for small instances and a
CLI front end.
"""

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
from .oracle import OracleLimitError, OracleLimits, OracleResult, brute_force_min_length, brute_force_scs
from .solver import ReconstructionError, Solution, solve, verify_solution

__version__ = "0.1.0"

__all__ = [
    "Counters",
    "Instance",
    "InstanceError",
    "InvalidInstanceError",
    "OracleLimitError",
    "OracleLimits",
    "OracleResult",
    "ReconstructionError",
    "Solution",
    "brute_force_min_length",
    "brute_force_scs",
    "make_instance",
    "parse_instance",
    "serialize_instance",
    "solve",
    "validate",
    "verify_solution",
]
